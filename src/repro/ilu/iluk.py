"""ILU(k): level-of-fill incomplete factorization (static-pattern baseline).

Fill entries propagate up to ``k`` levels (paper §2): the level of a
fill at (i, j) caused by eliminating k is
``lev(i,j) = min(lev(i,j), lev(i,k) + lev(k,j) + 1)`` with original
entries at level 0; positions with level > k are discarded.  The pattern
is computed symbolically first, then a numeric factorization runs on
that fixed pattern — which is what makes ILU(k) colourable/parallel but
magnitude-blind (the weakness threshold-based ILUT addresses).
"""

from __future__ import annotations

import numpy as np

from ..resilience import ZeroPivotError, assert_finite
from ..sparse import COOBuilder, CSRMatrix, SparseRowAccumulator
from .factors import ILUFactors

__all__ = ["iluk", "iluk_symbolic"]


def iluk_symbolic(A: CSRMatrix, k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Symbolic ILU(k): per-row (cols, levels) of the kept pattern.

    Row-by-row IKJ symbolic elimination keeping positions with fill
    level <= k.
    """
    n = A.shape[0]
    rows: list[tuple[np.ndarray, np.ndarray]] = []
    # store upper parts (incl diag) of processed rows for updates
    upper: list[tuple[np.ndarray, np.ndarray]] = []
    INF = np.iinfo(np.int64).max // 4
    for i in range(n):
        cols, _ = A.row(i)
        lev: dict[int, int] = {int(c): 0 for c in cols}
        if i not in lev:
            lev[i] = 0  # diagonal position always tracked
        # ascending pivot scan with dynamic fill
        import heapq

        heap = [c for c in lev if c < i]
        heapq.heapify(heap)
        done = -1
        while heap:
            kk = heapq.heappop(heap)
            if kk <= done:
                continue
            done = kk
            lik = lev.get(kk, INF)
            if lik > k:
                continue
            ucols, ulevs = upper[kk]
            for c, lu in zip(ucols, ulevs):
                c = int(c)
                if c == kk:
                    continue
                cand = lik + int(lu) + 1
                cur = lev.get(c, INF)
                if cand < cur:
                    lev[c] = cand
                    if c < i and cur > k >= cand:
                        heapq.heappush(heap, c)
        kept = sorted(c for c, l in lev.items() if l <= k)
        levels = np.asarray([lev[c] for c in kept], dtype=np.int64)
        kept_arr = np.asarray(kept, dtype=np.int64)
        rows.append((kept_arr, levels))
        up = kept_arr >= i
        upper.append((kept_arr[up], levels[up]))
    return rows


def iluk(A: CSRMatrix, k: int, *, diag_guard: bool = True) -> ILUFactors:
    """Compute ILU(k) of ``A`` in natural order."""
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"ILU(k) requires a square matrix, got {A.shape}")
    assert_finite(A.data, where="iluk input")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")

    pattern = iluk_symbolic(A, k)
    w = SparseRowAccumulator(n)
    u_rows: list[tuple[np.ndarray, np.ndarray]] = []
    l_builder = COOBuilder(n)
    u_builder = COOBuilder(n)
    flops = 0
    allowed = np.zeros(n, dtype=bool)

    for i in range(n):
        cols, vals = A.row(i)
        w.load(cols, vals)
        pat_cols, _ = pattern[i]
        allowed[pat_cols] = True
        for kk in (int(c) for c in pat_cols if c < i):
            wk = w.get(kk)
            if wk == 0.0:
                continue
            ucols, uvals = u_rows[kk]
            pivot = uvals[0]
            wk = wk / pivot
            flops += 1
            w.set(kk, wk)
            if ucols.size > 1:
                tail = ucols[1:]
                keep = allowed[tail]
                if np.any(keep):
                    w.axpy(-wk, tail[keep], uvals[1:][keep])
                    flops += 2 * int(keep.sum())

        rcols, rvals = w.extract()
        inpat = allowed[rcols]
        rcols, rvals = rcols[inpat], rvals[inpat]
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
        allowed[pat_cols] = False
        w.reset()

    L = l_builder.to_csr()
    U = u_builder.to_csr()
    return ILUFactors(
        L=L,
        U=U,
        perm=np.arange(n, dtype=np.int64),
        stats={"flops": flops, "fill_nnz": L.nnz + U.nnz, "k": k},
    )
