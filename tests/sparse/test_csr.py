"""Unit tests for the CSR matrix."""

import numpy as np
import pytest

from repro.resilience import NonFiniteError
from repro.sparse import CSRMatrix

from ..conftest import to_scipy


def dense_example():
    return np.array(
        [
            [4.0, -1.0, 0.0, 0.0],
            [-1.0, 4.0, -1.0, 0.0],
            [0.0, -1.0, 4.0, -1.0],
            [0.0, 0.0, -1.0, 4.0],
        ]
    )


class TestConstruction:
    def test_from_dense_roundtrip(self):
        D = dense_example()
        A = CSRMatrix.from_dense(D)
        assert np.allclose(A.to_dense(), D)
        assert A.nnz == 10

    def test_from_dense_rejects_1d(self):
        with pytest.raises(ValueError):
            CSRMatrix.from_dense(np.ones(3))

    @pytest.mark.parametrize(
        "entry, value", [((0, 0), np.nan), ((1, 2), np.inf)], ids=["nan-diag", "inf-offdiag"]
    )
    def test_from_dense_rejects_non_finite(self, entry, value):
        D = dense_example()
        D[entry] = value
        with pytest.raises(NonFiniteError, match=r"at \(%d, %d\)" % entry) as ei:
            CSRMatrix.from_dense(D)
        assert ei.value.row == entry[0]

    def test_from_coo_sums_duplicates(self):
        A = CSRMatrix.from_coo([0, 0], [1, 1], [2.0, 3.0], (2, 2))
        assert A.get(0, 1) == 5.0

    def test_from_coo_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            CSRMatrix.from_coo([5], [0], [1.0], (2, 2))
        with pytest.raises(IndexError):
            CSRMatrix.from_coo([0], [5], [1.0], (2, 2))

    def test_identity(self):
        eye = CSRMatrix.identity(4)
        assert np.allclose(eye.to_dense(), np.eye(4))

    def test_zeros(self):
        Z = CSRMatrix.zeros(3, 5)
        assert Z.shape == (3, 5)
        assert Z.nnz == 0

    def test_validation_catches_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 2]), np.array([0]), np.array([1.0]), (1, 1))

    def test_validation_catches_unsorted_row(self):
        with pytest.raises(ValueError):
            CSRMatrix(
                np.array([0, 2]),
                np.array([1, 0]),
                np.array([1.0, 2.0]),
                (1, 2),
            )

    def test_validation_catches_col_out_of_range(self):
        with pytest.raises(IndexError):
            CSRMatrix(np.array([0, 1]), np.array([4]), np.array([1.0]), (1, 2))


class TestAccessors:
    def test_row_view(self):
        A = CSRMatrix.from_dense(dense_example())
        cols, vals = A.row(1)
        assert cols.tolist() == [0, 1, 2]
        assert vals.tolist() == [-1.0, 4.0, -1.0]

    def test_get_missing_is_zero(self):
        A = CSRMatrix.from_dense(dense_example())
        assert A.get(0, 3) == 0.0

    def test_diagonal(self):
        A = CSRMatrix.from_dense(dense_example())
        assert np.allclose(A.diagonal(), 4.0)

    def test_row_nnz(self):
        A = CSRMatrix.from_dense(dense_example())
        assert A.row_nnz().tolist() == [2, 3, 3, 2]

    def test_iter_rows_covers_all(self):
        A = CSRMatrix.from_dense(dense_example())
        seen = [i for i, _, _ in A.iter_rows()]
        assert seen == [0, 1, 2, 3]


class TestAlgebra:
    def test_matvec_matches_dense(self, rng):
        D = rng.standard_normal((6, 4))
        D[np.abs(D) < 0.7] = 0.0
        A = CSRMatrix.from_dense(D)
        x = rng.standard_normal(4)
        assert np.allclose(A @ x, D @ x)

    def test_matvec_shape_check(self):
        A = CSRMatrix.identity(3)
        with pytest.raises(ValueError):
            A.matvec(np.ones(4))

    def test_matvec_empty_rows(self):
        A = CSRMatrix.zeros(3)
        assert np.allclose(A @ np.ones(3), 0.0)

    def test_rmatvec_matches_transpose(self, rng):
        D = rng.standard_normal((5, 7))
        D[np.abs(D) < 0.5] = 0.0
        A = CSRMatrix.from_dense(D)
        y = rng.standard_normal(5)
        assert np.allclose(A.rmatvec(y), D.T @ y)

    def test_transpose(self, rng):
        D = rng.standard_normal((5, 3))
        D[np.abs(D) < 0.5] = 0.0
        A = CSRMatrix.from_dense(D)
        assert np.allclose(A.transpose().to_dense(), D.T)

    def test_double_transpose_identity(self, small_poisson):
        A = small_poisson
        assert A.transpose().transpose().allclose(A)

    def test_add(self):
        A = CSRMatrix.from_dense(dense_example())
        B = CSRMatrix.identity(4)
        assert np.allclose((A + B).to_dense(), dense_example() + np.eye(4))

    def test_sub_self_is_zero(self, small_poisson):
        R = small_poisson - small_poisson
        assert np.allclose(R.data, 0.0)

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            CSRMatrix.identity(3) + CSRMatrix.identity(4)

    def test_scale(self):
        A = CSRMatrix.identity(3).scale(2.5)
        assert np.allclose(A.to_dense(), 2.5 * np.eye(3))

    def test_matmat_matches_dense(self, rng):
        D1 = rng.standard_normal((4, 5))
        D2 = rng.standard_normal((5, 3))
        D1[np.abs(D1) < 0.5] = 0
        D2[np.abs(D2) < 0.5] = 0
        A, B = CSRMatrix.from_dense(D1), CSRMatrix.from_dense(D2)
        assert np.allclose(A.matmat(B).to_dense(), D1 @ D2)

    def test_matmat_dim_mismatch(self):
        with pytest.raises(ValueError):
            CSRMatrix.identity(3).matmat(CSRMatrix.identity(4))

    def test_matvec_matches_scipy(self, small_poisson, rng):
        x = rng.standard_normal(small_poisson.shape[1])
        assert np.allclose(small_poisson @ x, to_scipy(small_poisson) @ x)


class TestStructure:
    def test_permute_rows(self):
        A = CSRMatrix.from_dense(dense_example())
        perm = np.array([3, 2, 1, 0])
        B = A.permute(perm, None)
        assert np.allclose(B.to_dense(), dense_example()[perm])

    def test_permute_symmetric(self):
        A = CSRMatrix.from_dense(dense_example())
        perm = np.array([2, 0, 3, 1])
        B = A.permute(perm, perm)
        D = dense_example()[np.ix_(perm, perm)]
        assert np.allclose(B.to_dense(), D)

    def test_permute_rejects_non_bijection(self):
        A = CSRMatrix.identity(3)
        with pytest.raises(ValueError):
            A.permute(np.array([0, 0, 1]))

    def test_permute_rejects_wrong_length(self):
        A = CSRMatrix.identity(3)
        with pytest.raises(ValueError):
            A.permute(np.array([0, 1]))

    def test_submatrix(self):
        A = CSRMatrix.from_dense(dense_example())
        S = A.submatrix(np.array([1, 2]), np.array([0, 2]))
        assert np.allclose(S.to_dense(), dense_example()[np.ix_([1, 2], [0, 2])])

    def test_submatrix_empty_selection(self):
        A = CSRMatrix.from_dense(dense_example())
        S = A.submatrix(np.array([], dtype=np.int64), np.array([], dtype=np.int64))
        assert S.shape == (0, 0)

    def test_drop_small(self):
        A = CSRMatrix.from_dense(np.array([[1.0, 0.01], [0.001, 2.0]]))
        B = A.drop_small(0.05)
        assert B.nnz == 2
        assert B.get(0, 1) == 0.0

    def test_copy_is_independent(self, small_poisson):
        B = small_poisson.copy()
        B.data[0] = 999.0
        assert small_poisson.data[0] != 999.0


class TestNorms:
    def test_row_norms_2(self):
        A = CSRMatrix.from_dense(np.array([[3.0, 4.0], [0.0, 5.0]]))
        assert np.allclose(A.row_norms(2), [5.0, 5.0])

    def test_row_norms_1_inf(self):
        A = CSRMatrix.from_dense(np.array([[3.0, -4.0], [0.0, 5.0]]))
        assert np.allclose(A.row_norms(1), [7.0, 5.0])
        assert np.allclose(A.row_norms(np.inf), [4.0, 5.0])

    def test_row_norms_bad_order(self, small_poisson):
        with pytest.raises(ValueError):
            small_poisson.row_norms(3)

    def test_frobenius(self):
        A = CSRMatrix.from_dense(np.array([[3.0, 0.0], [0.0, 4.0]]))
        assert A.frobenius_norm() == pytest.approx(5.0)

    def test_allclose_detects_value_change(self, small_poisson):
        B = small_poisson.copy()
        B.data[0] += 1.0
        assert not small_poisson.allclose(B)
        assert small_poisson.allclose(small_poisson.copy())

    def test_allclose_shape_mismatch(self):
        assert not CSRMatrix.identity(2).allclose(CSRMatrix.identity(3))
