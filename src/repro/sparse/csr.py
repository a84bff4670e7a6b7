"""Compressed sparse row (CSR) matrix.

This is the workhorse storage scheme of the whole library: the ILUT
factorization, the reduced-matrix elimination, triangular solves and the
distributed matvec all operate on CSR row slices.  Only numpy is used;
scipy appears solely in the test suite as an oracle.

Column indices within each row are kept **sorted** — several kernels
(merges, halo extraction, binary search for the diagonal) rely on it, and
the constructor enforces it.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..resilience.breakdown import NonFiniteError

__all__ = ["CSRMatrix"]


class CSRMatrix:
    """A real sparse matrix in compressed sparse row format.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``nrows + 1``; row ``i`` occupies
        ``indices[indptr[i]:indptr[i+1]]``.
    indices:
        ``int64`` column indices, sorted within each row.
    data:
        ``float64`` values, parallel to ``indices``.
    shape:
        ``(nrows, ncols)``.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: tuple[int, int],
        *,
        check: bool = True,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data, dtype=np.float64)
        self.shape = (int(shape[0]), int(shape[1]))
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: tuple[int, int],
        *,
        drop_zeros: bool = False,
    ) -> CSRMatrix:
        """Build from coordinate triplets, summing duplicates."""
        nrows, ncols = int(shape[0]), int(shape[1])
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if rows.size:
            if rows.min() < 0 or rows.max() >= nrows:
                raise IndexError("row index out of range")
            if cols.min() < 0 or cols.max() >= ncols:
                raise IndexError("column index out of range")
        # Sort lexicographically by (row, col), then merge duplicates.
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            keys = rows * np.int64(ncols if ncols > 0 else 1) + cols
            new_group = np.empty(rows.size, dtype=bool)
            new_group[0] = True
            np.not_equal(keys[1:], keys[:-1], out=new_group[1:])
            group_ids = np.cumsum(new_group) - 1
            merged_vals = np.zeros(int(group_ids[-1]) + 1, dtype=np.float64)
            np.add.at(merged_vals, group_ids, vals)
            rows = rows[new_group]
            cols = cols[new_group]
            vals = merged_vals
        if drop_zeros and vals.size:
            keep = vals != 0.0
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, cols, vals, (nrows, ncols), check=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray, *, tol: float = 0.0) -> CSRMatrix:
        """Build from a dense 2-D array, keeping entries with ``|a| > tol``.

        A NaN or Inf entry raises :class:`~repro.resilience.NonFiniteError`
        (``|nan| > tol`` is false, so it would otherwise vanish from the
        pattern and the factorizations' finiteness guard never see it).
        """
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        bad = np.argwhere(~np.isfinite(dense))
        if len(bad):
            i, j = (int(v) for v in bad[0])
            raise NonFiniteError(
                f"non-finite value {float(dense[i, j])!r} at ({i}, {j}) "
                "in from_dense input",
                row=i,
                value=float(dense[i, j]),
            )
        rows, cols = np.nonzero(np.abs(dense) > tol)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def identity(cls, n: int) -> CSRMatrix:
        """The n-by-n identity matrix."""
        idx = np.arange(n, dtype=np.int64)
        return cls(
            np.arange(n + 1, dtype=np.int64),
            idx,
            np.ones(n, dtype=np.float64),
            (n, n),
            check=False,
        )

    @classmethod
    def zeros(cls, nrows: int, ncols: int | None = None) -> CSRMatrix:
        """An all-zero (empty pattern) matrix."""
        ncols = nrows if ncols is None else ncols
        return cls(
            np.zeros(nrows + 1, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.float64),
            (nrows, ncols),
            check=False,
        )

    def _validate(self) -> None:
        nrows, ncols = self.shape
        if self.indptr.shape != (nrows + 1,):
            raise ValueError(
                f"indptr has shape {self.indptr.shape}, expected ({nrows + 1},)"
            )
        if self.indptr[0] != 0:
            raise ValueError(f"indptr[0] = {int(self.indptr[0])}, expected 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError(
                f"indptr[-1] = {int(self.indptr[-1])} does not equal "
                f"nnz = {self.indices.size}"
            )
        drops = np.flatnonzero(np.diff(self.indptr) < 0)
        if drops.size:
            i = int(drops[0])
            raise ValueError(
                f"indptr decreases at row {i} "
                f"({int(self.indptr[i])} -> {int(self.indptr[i + 1])})"
            )
        if self.indices.size != self.data.size:
            raise ValueError(
                f"indices ({self.indices.size}) and data ({self.data.size}) "
                "must have equal length"
            )
        if self.indices.size:
            bad = (self.indices < 0) | (self.indices >= ncols)
            if bad.any():
                pos = int(np.argmax(bad))
                row = int(np.searchsorted(self.indptr, pos, side="right") - 1)
                off = pos - int(self.indptr[row])
                raise IndexError(
                    f"row {row}, offset {off}: column index "
                    f"{int(self.indices[pos])} out of range [0, {ncols})"
                )
        if self.indices.size > 1:
            d = np.diff(self.indices)
            # adjacent-pair positions that straddle a row boundary are exempt
            boundary = np.zeros(d.size, dtype=bool)
            starts = self.indptr[1:-1]
            starts = starts[(starts >= 1) & (starts < self.indices.size)]
            boundary[starts - 1] = True
            viol = (d <= 0) & ~boundary
            if viol.any():
                k = int(np.argmax(viol))
                row = int(np.searchsorted(self.indptr, k, side="right") - 1)
                off = k - int(self.indptr[row])
                kind = (
                    "duplicate" if self.indices[k + 1] == self.indices[k] else "unsorted"
                )
                raise ValueError(
                    f"row {row} has {kind} column indices at offsets "
                    f"{off} -> {off + 1} (columns {int(self.indices[k])} -> "
                    f"{int(self.indices[k + 1])})"
                )

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.size)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of (column indices, values) of row ``i`` — do not mutate."""
        s, e = self.indptr[i], self.indptr[i + 1]
        return self.indices[s:e], self.data[s:e]

    def row_nnz(self) -> np.ndarray:
        """Per-row entry counts."""
        return np.diff(self.indptr)

    def iter_rows(self) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
        """Yield ``(i, cols, vals)`` for every row."""
        for i in range(self.shape[0]):
            cols, vals = self.row(i)
            yield i, cols, vals

    def get(self, i: int, j: int) -> float:
        """Entry ``A[i, j]`` (zero if not stored)."""
        cols, vals = self.row(i)
        pos = np.searchsorted(cols, j)
        if pos < cols.size and cols[pos] == j:
            return float(vals[pos])
        return 0.0

    def diagonal(self, *, backend: str | None = None) -> np.ndarray:
        """The main diagonal as a dense vector (zeros where unstored).

        ``backend`` selects the scalar reference loop or the vectorized
        kernel (element-exact); ``None`` uses the process default — see
        :mod:`repro.kernels.backend`.
        """
        from ..kernels.backend import VECTORIZED, resolve_backend

        if resolve_backend(backend) == VECTORIZED:
            from ..kernels.csr import csr_diagonal

            return csr_diagonal(self)
        n = min(self.shape)
        d = np.zeros(n, dtype=np.float64)
        for i in range(n):
            d[i] = self.get(i, i)
        return d

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------

    def matvec(
        self,
        x: np.ndarray,
        out: np.ndarray | None = None,
        *,
        backend: str | None = None,
    ) -> np.ndarray:
        """Compute ``y = A @ x``.

        ``backend="vectorized"`` uses the prefix-sum segment reduction
        of :func:`repro.kernels.csr.csr_matvec` (agrees with the
        reference to <= 1e-12 relative; summation association differs).
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.shape[1],):
            raise ValueError(f"x has shape {x.shape}, expected ({self.shape[1]},)")
        from ..kernels.backend import VECTORIZED, resolve_backend

        if resolve_backend(backend) == VECTORIZED:
            from ..kernels.csr import csr_matvec

            return csr_matvec(self, x, out)
        prods = self.data * x[self.indices]
        y = np.zeros(self.shape[0], dtype=np.float64) if out is None else out
        if out is not None:
            y[:] = 0.0
        # segment-sum per row; add.at handles empty rows naturally
        row_ids = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        np.add.at(y, row_ids, prods)
        return y

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """Compute ``x = A.T @ y`` without materialising the transpose."""
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.shape[0],):
            raise ValueError(f"y has shape {y.shape}, expected ({self.shape[0]},)")
        row_ids = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), np.diff(self.indptr)
        )
        x = np.zeros(self.shape[1], dtype=np.float64)
        np.add.at(x, self.indices, self.data * y[row_ids])
        return x

    def transpose(self) -> CSRMatrix:
        """Return ``A.T`` as a new CSR matrix."""
        nrows, ncols = self.shape
        row_ids = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(self.indptr))
        return CSRMatrix.from_coo(
            self.indices, row_ids, self.data, (ncols, nrows)
        )

    def scale(self, alpha: float) -> CSRMatrix:
        """Return ``alpha * A``."""
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data * alpha, self.shape,
            check=False,
        )

    def add(self, other: CSRMatrix) -> CSRMatrix:
        """Return ``A + B`` (patterns merged)."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        nrows = self.shape[0]
        my_rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(self.indptr))
        ot_rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(other.indptr))
        return CSRMatrix.from_coo(
            np.concatenate([my_rows, ot_rows]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, other.data]),
            self.shape,
        )

    def __add__(self, other: CSRMatrix) -> CSRMatrix:
        return self.add(other)

    def __sub__(self, other: CSRMatrix) -> CSRMatrix:
        return self.add(other.scale(-1.0))

    def matmat(self, other: CSRMatrix) -> CSRMatrix:
        """Sparse matrix-matrix product ``A @ B`` (row-merge algorithm)."""
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"inner dims mismatch: {self.shape} @ {other.shape}")
        nrows = self.shape[0]
        out_rows: list[np.ndarray] = []
        out_cols: list[np.ndarray] = []
        out_vals: list[np.ndarray] = []
        for i in range(nrows):
            acols, avals = self.row(i)
            if acols.size == 0:
                continue
            # accumulate sum_k a_ik * B[k, :]
            pieces_c = []
            pieces_v = []
            for k, a in zip(acols, avals, strict=True):
                bcols, bvals = other.row(int(k))
                if bcols.size:
                    pieces_c.append(bcols)
                    pieces_v.append(a * bvals)
            if not pieces_c:
                continue
            cc = np.concatenate(pieces_c)
            vv = np.concatenate(pieces_v)
            out_rows.append(np.full(cc.size, i, dtype=np.int64))
            out_cols.append(cc)
            out_vals.append(vv)
        if not out_rows:
            return CSRMatrix.zeros(nrows, other.shape[1])
        return CSRMatrix.from_coo(
            np.concatenate(out_rows),
            np.concatenate(out_cols),
            np.concatenate(out_vals),
            (nrows, other.shape[1]),
        )

    # ------------------------------------------------------------------
    # structure manipulation
    # ------------------------------------------------------------------

    def permute(
        self, row_perm: np.ndarray | None = None, col_perm: np.ndarray | None = None
    ) -> CSRMatrix:
        """Symmetric-style permutation ``B = A[row_perm][:, col_perm]``.

        ``row_perm[k]`` gives the *original* index placed at new position
        ``k`` (i.e. ``B[k, :] = A[row_perm[k], :]``), and likewise for
        columns.  Pass ``None`` to leave a dimension unpermuted.
        """
        nrows, ncols = self.shape
        if row_perm is None:
            row_perm = np.arange(nrows, dtype=np.int64)
        else:
            row_perm = _check_perm(np.asarray(row_perm, dtype=np.int64), nrows, "row")
        if col_perm is None:
            inv_col = np.arange(ncols, dtype=np.int64)
        else:
            col_perm = _check_perm(np.asarray(col_perm, dtype=np.int64), ncols, "col")
            inv_col = np.empty(ncols, dtype=np.int64)
            inv_col[col_perm] = np.arange(ncols, dtype=np.int64)
        counts = np.diff(self.indptr)[row_perm]
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(self.indices.size, dtype=np.int64)
        data = np.empty(self.data.size, dtype=np.float64)
        for k in range(nrows):
            s, e = self.indptr[row_perm[k]], self.indptr[row_perm[k] + 1]
            cols = inv_col[self.indices[s:e]]
            order = np.argsort(cols, kind="stable")
            ds, de = indptr[k], indptr[k + 1]
            indices[ds:de] = cols[order]
            data[ds:de] = self.data[s:e][order]
        return CSRMatrix(indptr, indices, data, self.shape, check=False)

    def submatrix(self, rows: np.ndarray, cols: np.ndarray) -> CSRMatrix:
        """Extract ``A[rows][:, cols]`` with re-numbered indices.

        ``rows`` and ``cols`` are arrays of original indices; the result
        has shape ``(len(rows), len(cols))`` with position ``k`` holding
        original index ``rows[k]`` / ``cols[k]``.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        ncols = self.shape[1]
        col_map = np.full(ncols, -1, dtype=np.int64)
        col_map[cols] = np.arange(cols.size, dtype=np.int64)
        out_r: list[np.ndarray] = []
        out_c: list[np.ndarray] = []
        out_v: list[np.ndarray] = []
        for k, i in enumerate(rows):
            rc, rv = self.row(int(i))
            mapped = col_map[rc]
            keep = mapped >= 0
            if np.any(keep):
                out_r.append(np.full(int(keep.sum()), k, dtype=np.int64))
                out_c.append(mapped[keep])
                out_v.append(rv[keep])
        if not out_r:
            return CSRMatrix.zeros(rows.size, cols.size)
        return CSRMatrix.from_coo(
            np.concatenate(out_r),
            np.concatenate(out_c),
            np.concatenate(out_v),
            (rows.size, cols.size),
        )

    def drop_small(self, tol: float) -> CSRMatrix:
        """Return a copy without entries of magnitude ``< tol``."""
        keep = np.abs(self.data) >= tol
        nrows = self.shape[0]
        row_ids = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(self.indptr))
        return CSRMatrix.from_coo(
            row_ids[keep], self.indices[keep], self.data[keep], self.shape
        )

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense 2-D array."""
        out = np.zeros(self.shape, dtype=np.float64)
        for i in range(self.shape[0]):
            cols, vals = self.row(i)
            out[i, cols] = vals
        return out

    def copy(self) -> CSRMatrix:
        return CSRMatrix(
            self.indptr.copy(), self.indices.copy(), self.data.copy(), self.shape,
            check=False,
        )

    # ------------------------------------------------------------------
    # norms and comparison
    # ------------------------------------------------------------------

    def row_norms(
        self, ord: int | float = 2, *, backend: str | None = None
    ) -> np.ndarray:
        """Per-row vector norms (the ILUT relative threshold uses ord=2).

        The vectorized backend sums via prefix differences, so its 2- and
        1-norms can differ from the reference in the last bits; ILUT
        always computes its thresholds with the reference path so the
        factors stay backend-independent.
        """
        from ..kernels.backend import VECTORIZED, resolve_backend

        if resolve_backend(backend) == VECTORIZED:
            from ..kernels.csr import csr_row_norms

            return csr_row_norms(self, ord)
        n = self.shape[0]
        out = np.zeros(n, dtype=np.float64)
        for i in range(n):
            _, vals = self.row(i)
            if vals.size:
                if ord == 2:
                    out[i] = float(np.sqrt(np.dot(vals, vals)))
                elif ord == 1:
                    out[i] = float(np.abs(vals).sum())
                elif ord == np.inf:
                    out[i] = float(np.abs(vals).max())
                else:
                    raise ValueError(f"unsupported norm order {ord!r}")
        return out

    def frobenius_norm(self) -> float:
        return float(np.sqrt(np.dot(self.data, self.data)))

    def allclose(self, other: CSRMatrix, rtol: float = 1e-10, atol: float = 1e-12) -> bool:
        """Structural-and-numeric comparison after canonicalisation."""
        if self.shape != other.shape:
            return False
        a = self.drop_small(0.0)  # canonicalise (already canonical, but cheap)
        b = other.drop_small(0.0)
        if not np.array_equal(a.indptr, b.indptr):
            return False
        if not np.array_equal(a.indices, b.indices):
            return False
        return bool(np.allclose(a.data, b.data, rtol=rtol, atol=atol))

    def __repr__(self) -> str:
        return (
            f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.nnz / max(1, self.shape[0] * self.shape[1]):.2e})"
        )


def _check_perm(perm: np.ndarray, n: int, what: str) -> np.ndarray:
    if perm.shape != (n,):
        raise ValueError(f"{what} permutation has length {perm.size}, expected {n}")
    seen = np.zeros(n, dtype=bool)
    if perm.size and (perm.min() < 0 or perm.max() >= n):
        raise ValueError(f"{what} permutation entries out of range")
    seen[perm] = True
    if not seen.all():
        raise ValueError(f"{what} permutation is not a bijection")
    return perm
