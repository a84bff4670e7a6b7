"""ILU(0): zero-fill incomplete factorization (static-pattern baseline).

The set S of kept positions is exactly the sparsity pattern of A
(paper §2): no fill is ever created, which is why a *colouring* of the
interface graph computed up-front suffices to parallelise it (Figure 1a)
— the property ILUT loses and that motivates the whole paper.
"""

from __future__ import annotations

import numpy as np

from ..resilience import ZeroPivotError, assert_finite
from ..sparse import COOBuilder, CSRMatrix, SparseRowAccumulator
from .factors import ILUFactors

__all__ = ["ilu0"]


def ilu0(A: CSRMatrix, *, diag_guard: bool = True) -> ILUFactors:
    """Compute ILU(0) of ``A`` in natural order.

    Identical to Gaussian elimination except that any update landing
    outside ``struct(A)`` is discarded.
    """
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ILU(0) requires a square matrix, got {A.shape}")
    assert_finite(A.data, where="ilu0 input")

    w = SparseRowAccumulator(n)
    u_rows: list[tuple[np.ndarray, np.ndarray]] = []
    l_builder = COOBuilder(n)
    u_builder = COOBuilder(n)
    flops = 0

    for i in range(n):
        cols, vals = A.row(i)
        w.load(cols, vals)
        in_pattern = np.zeros(n, dtype=bool)
        in_pattern[cols] = True
        lower = [int(c) for c in cols if c < i]
        for k in lower:  # already ascending (CSR rows are sorted)
            wk = w.get(k)
            if wk == 0.0:
                continue
            ucols, uvals = u_rows[k]
            pivot = uvals[0]
            wk = wk / pivot
            flops += 1
            w.set(k, wk)
            if ucols.size > 1:
                tail = ucols[1:]
                keep = in_pattern[tail]  # zero-fill: only in-pattern updates
                if np.any(keep):
                    w.axpy(-wk, tail[keep], uvals[1:][keep])
                    flops += 2 * int(keep.sum())

        rcols, rvals = w.extract()
        lmask = rcols < i
        umask = rcols > i
        dmask = rcols == i
        diag = float(rvals[dmask][0]) if np.any(dmask) else 0.0
        if diag == 0.0:
            if not diag_guard:
                raise ZeroPivotError(f"zero pivot at row {i}", row=i, value=0.0)
            norm = float(np.sqrt(np.dot(vals, vals)))
            diag = norm if norm > 0 else 1.0
        if np.any(lmask):
            l_builder.add_batch(
                np.full(int(lmask.sum()), i, dtype=np.int64), rcols[lmask], rvals[lmask]
            )
        u_builder.add(i, i, diag)
        if np.any(umask):
            u_builder.add_batch(
                np.full(int(umask.sum()), i, dtype=np.int64), rcols[umask], rvals[umask]
            )
        u_rows.append(
            (
                np.concatenate(([i], rcols[umask])).astype(np.int64),
                np.concatenate(([diag], rvals[umask])),
            )
        )
        w.reset()

    L = l_builder.to_csr()
    U = u_builder.to_csr()
    return ILUFactors(
        L=L,
        U=U,
        perm=np.arange(n, dtype=np.int64),
        stats={"flops": flops, "fill_nnz": L.nnz + U.nnz},
    )
