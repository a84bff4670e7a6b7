"""Vectorized sequential ILUT(m, t) — the ``backend="vectorized"`` kernel.

Performs *exactly* the same elimination as the reference
:func:`repro.ilu.ilut.ilut` — same pivot order, same IEEE operations,
same dropping decisions — so the produced factors are bit-identical
(the parity suite asserts ``array_equal``).  What changes is the
bookkeeping around the arithmetic:

* the working row is a bare full-length array; instead of maintaining a
  pattern alongside every update, the tails of the applied pivot rows
  are collected and deduplicated once per row with ``np.unique``;
* each finished U row caches its tail as an ndarray *and* a Python
  list plus its pivot as a Python float, so the thousands of later rows
  that eliminate with it pay no slicing, ``tolist`` or numpy-scalar
  conversions;
* the 2nd dropping rule splits the (sorted) row with ``searchsorted``
  and selects via :func:`~repro.kernels.dropping.keep_largest_sorted`
  instead of the reference's mask + dict re-gather;
* L and U are assembled directly into concatenated CSR arrays, skipping
  the per-row ``COOBuilder`` bounds checks and the final ``from_coo``
  lexsort (rows are emitted in order with sorted columns).
"""

from __future__ import annotations

import heapq
from bisect import bisect_left

import numpy as np

from ..resilience import PivotPolicy
from ..sparse.csr import CSRMatrix
from .dropping import keep_largest_sorted

__all__ = ["ilut_vectorized"]

_EMPTY_I = np.empty(0, dtype=np.int64)
_EMPTY_F = np.empty(0, dtype=np.float64)


def _assemble_rows(
    n: int, counts: np.ndarray, chunks: list[np.ndarray], vals: list[np.ndarray]
) -> CSRMatrix:
    """Stack per-row (sorted-column) chunks into a CSR matrix."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    indices = np.concatenate(chunks) if chunks else _EMPTY_I.copy()
    data = np.concatenate(vals) if vals else _EMPTY_F.copy()
    return CSRMatrix(
        indptr, np.ascontiguousarray(indices, dtype=np.int64), data, (n, n), check=False
    )


def ilut_vectorized(
    A: CSRMatrix,
    m: int,
    t: float,
    *,
    pivot_policy: PivotPolicy | None = None,
) -> tuple[CSRMatrix, CSRMatrix, list[tuple[np.ndarray, np.ndarray]], int]:
    """Core of the vectorized ILUT(m, t) elimination.

    Returns ``(L, U, u_rows, flops)`` with ``u_rows`` holding each U row
    diagonal-first; parameter validation and the
    :class:`~repro.ilu.factors.ILUFactors` packaging stay in the
    dispatching :func:`repro.ilu.ilut.ilut`.  ``pivot_policy`` defaults
    to ``PivotPolicy("guard")``; the pivot remediation must match the
    reference kernel's bit-for-bit (same
    :meth:`~repro.resilience.PivotPolicy.resolve` arguments).
    """
    policy = pivot_policy if pivot_policy is not None else PivotPolicy()
    n = A.shape[0]
    # thresholds must match the reference bit-for-bit under any default
    norms = A.row_norms(ord=2, backend="reference")
    values = np.zeros(n, dtype=np.float64)
    heappush = heapq.heappush
    heappop = heapq.heappop

    # per finished U row: tail (cols after the diagonal) as ndarray,
    # as a Python list (for heap candidate pushes), and the pivot
    u_tail_cols: list[np.ndarray] = []
    u_tail_vals: list[np.ndarray] = []
    u_tail_py: list[list[int]] = []
    u_piv: list[float] = []

    l_counts = np.zeros(n, dtype=np.int64)
    u_counts = np.zeros(n, dtype=np.int64)
    l_chunks: list[np.ndarray] = []
    l_vals: list[np.ndarray] = []
    u_chunks: list[np.ndarray] = []
    u_vals: list[np.ndarray] = []
    flops = 0

    indptr = A.indptr
    a_indices = A.indices
    a_data = A.data

    for i in range(n):
        s, e = indptr[i], indptr[i + 1]
        cols = a_indices[s:e]
        values[cols] = a_data[s:e]
        touched = [cols]
        tau = float(t * norms[i])

        # columns are sorted, so the < i prefix is already a valid min-heap
        heap = cols[: cols.searchsorted(i)].tolist()
        done = -1
        while heap:
            k = heappop(heap)
            if k <= done:
                continue
            done = k
            wk = values.item(k)
            if wk == 0.0:
                continue
            wk = wk / u_piv[k]  # diagonal of U row k
            flops += 1
            if abs(wk) < tau:  # 1st dropping rule
                values[k] = 0.0
                continue
            values[k] = wk
            tail = u_tail_cols[k]
            if tail.size:
                values[tail] += (-wk) * u_tail_vals[k]
                flops += 2 * tail.size
                touched.append(tail)
                tl = u_tail_py[k]
                for c in tl[: bisect_left(tl, i)]:
                    heappush(heap, c)

        # ---- gather the row (sorted, deduplicated) + 2nd dropping rule
        if len(touched) > 1:
            tp = np.concatenate(touched)
            tp.sort()
            dedup = np.empty(tp.size, dtype=bool)
            dedup[0] = True
            np.not_equal(tp[1:], tp[:-1], out=dedup[1:])
            tp = tp[dedup]
        else:
            tp = cols
        tv = values[tp]
        nz = tv != 0.0
        rcols = tp[nz]
        rvals = tv[nz]
        d0 = int(rcols.searchsorted(i))
        has_diag = d0 < rcols.size and rcols[d0] == i
        if has_diag:
            diag = float(rvals[d0])
            uc, uv = rcols[d0 + 1 :], rvals[d0 + 1 :]
        else:
            diag = 0.0
            uc, uv = rcols[d0:], rvals[d0:]
        lc, lv = rcols[:d0], rvals[:d0]
        lm = np.abs(lv) >= tau
        lc, lv = lc[lm], lv[lm]
        lcols, lvals = keep_largest_sorted(lc, lv, m) if lc.size > m else (lc, lv)
        um = np.abs(uv) >= tau
        uc, uv = uc[um], uv[um]
        ucols, uvals = keep_largest_sorted(uc, uv, m) if uc.size > m else (uc, uv)
        diag = policy.resolve(i, diag, tau, float(norms[i]))

        if lcols.size:
            l_counts[i] = lcols.size
            l_chunks.append(lcols)
            l_vals.append(lvals)
        u_row_cols = np.empty(ucols.size + 1, dtype=np.int64)
        u_row_cols[0] = i
        u_row_cols[1:] = ucols
        u_row_vals = np.empty(uvals.size + 1, dtype=np.float64)
        u_row_vals[0] = diag
        u_row_vals[1:] = uvals
        u_counts[i] = u_row_cols.size
        u_chunks.append(u_row_cols)
        u_vals.append(u_row_vals)
        u_tail_cols.append(u_row_cols[1:])
        u_tail_vals.append(u_row_vals[1:])
        u_tail_py.append(u_row_cols[1:].tolist())
        u_piv.append(diag)

        values[tp] = 0.0  # sparse reset

    L = _assemble_rows(n, l_counts, l_chunks, l_vals)
    U = _assemble_rows(n, u_counts, u_chunks, u_vals)
    u_rows = list(zip(u_chunks, u_vals))
    return L, U, u_rows, flops
