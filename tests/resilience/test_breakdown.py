"""Unit tests for the breakdown hierarchy, pivot policies and the
finiteness guards at the factorization entry and apply boundaries."""

import numpy as np
import pytest

from repro.ilu import (
    ILUTParams,
    ilu0,
    iluk,
    ilum,
    ilut,
    parallel_ilu0,
    parallel_ilut,
    parallel_ilut_star,
)
from repro.matrices import poisson2d
from repro.resilience import (
    NonFiniteError,
    NumericalBreakdown,
    PivotPolicy,
    ZeroDiagonalError,
    ZeroPivotError,
    assert_finite,
)
from repro.sparse import CSRMatrix


class TestHierarchy:
    def test_zero_pivot_is_both_families(self):
        err = ZeroPivotError("zero pivot at row 3", row=3, value=0.0)
        assert isinstance(err, NumericalBreakdown)
        assert isinstance(err, ZeroDivisionError)
        assert err.row == 3 and err.value == 0.0

    def test_zero_diagonal_is_value_error(self):
        assert issubclass(ZeroDiagonalError, ValueError)
        assert issubclass(ZeroDiagonalError, NumericalBreakdown)

    def test_non_finite_is_value_error(self):
        assert issubclass(NonFiniteError, ValueError)

    def test_default_row_is_unset(self):
        assert NumericalBreakdown("boom").row == -1


class TestAssertFinite:
    def test_passes_through_clean_arrays(self):
        x = np.arange(5, dtype=np.float64)
        assert assert_finite(x) is x

    def test_ignores_integer_arrays(self):
        assert_finite(np.arange(5))

    def test_raises_with_location(self):
        x = np.ones(6)
        x[4] = np.inf
        with pytest.raises(NonFiniteError, match="index 4") as exc:
            assert_finite(x, where="unit test")
        assert exc.value.row == 4
        assert "unit test" in str(exc.value)

    def test_nan_detected(self):
        with pytest.raises(NonFiniteError):
            assert_finite(np.array([0.0, np.nan]))


def _corrupted(entry):
    """poisson2d(4) with a NaN on the (0,0) diagonal or an Inf at (0,1)."""
    A = poisson2d(4)
    col, value = (0, np.nan) if entry == "nan-diagonal" else (1, np.inf)
    data = A.data.copy()
    data[A.indptr[0] + int(np.flatnonzero(A.row(0)[0] == col)[0])] = value
    return CSRMatrix(A.indptr, A.indices, data, A.shape)


ENTRIES = ["nan-diagonal", "inf-off-diagonal"]


class TestNonFiniteInput:
    """Every factorization refuses NaN/Inf input instead of guarding it away."""

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize(
        "factor",
        [
            lambda A: ilut(A, ILUTParams(fill=5, threshold=1e-3)),
            ilu0,
            lambda A: iluk(A, 1),
            lambda A: ilum(A, 5, 1e-3),
        ],
        ids=["ilut", "ilu0", "iluk", "ilum"],
    )
    def test_sequential(self, factor, entry):
        with pytest.raises(NonFiniteError, match="input"):
            factor(_corrupted(entry))

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize(
        "factor",
        [
            lambda A, p: parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), p),
            lambda A, p: parallel_ilut_star(A, ILUTParams(fill=5, threshold=1e-3, k=2), p),
            parallel_ilu0,
        ],
        ids=["parallel_ilut", "parallel_ilut_star", "parallel_ilu0"],
    )
    def test_parallel(self, factor, p, entry):
        with pytest.raises(NonFiniteError, match="input"):
            factor(_corrupted(entry), p)


class TestPivotPolicy:
    def test_mode_validation(self):
        with pytest.raises(ValueError, match="unknown pivot policy"):
            PivotPolicy("pray")

    def test_healthy_pivot_untouched(self):
        p = PivotPolicy("guard")
        assert p.resolve(0, 2.5, 0.1, 1.0) == 2.5

    def test_guard_matches_legacy_substitution(self):
        p = PivotPolicy("guard")
        assert p.resolve(0, 0.0, 0.5, 3.0) == 0.5  # tau wins when positive
        assert p.resolve(0, 0.0, 0.0, 3.0) == 3.0  # then the row norm
        assert p.resolve(0, 0.0, 0.0, 0.0) == 1.0  # then 1.0

    def test_raise_mode_is_typed(self):
        p = PivotPolicy("raise")
        with pytest.raises(ZeroPivotError, match="zero pivot at row 7") as exc:
            p.resolve(7, 0.0, 0.1, 1.0)
        assert exc.value.row == 7

    def test_shift_preserves_sign_and_scales(self):
        p = PivotPolicy("shift")
        assert p.resolve(0, 0.0, 1e-2, 10.0) == pytest.approx(0.1)
        p_tol = PivotPolicy("shift", breakdown_tol=1e-1)
        assert p_tol.resolve(0, -1e-4, 1e-2, 10.0) == pytest.approx(-0.1)

    def test_breakdown_tol_widens_detection(self):
        strict = PivotPolicy("raise")
        loose = PivotPolicy("raise", breakdown_tol=1e-2)
        assert strict.resolve(0, 1e-5, 0.0, 1.0) == 1e-5
        with pytest.raises(ZeroPivotError):
            loose.resolve(0, 1e-5, 0.0, 1.0)

    def test_nan_pivot_is_breakdown(self):
        assert PivotPolicy("guard").is_breakdown(float("nan"), 1.0)


def _singular_arrow(n=6):
    """A matrix whose elimination annihilates the last pivot exactly."""
    b = CSRMatrix.identity(n).to_dense()
    b[n - 1, n - 1] = 1.0
    b[0, n - 1] = 1.0
    b[n - 1, 0] = 1.0
    b[0, 0] = 1.0  # row n-1 becomes linearly dependent on row 0
    return CSRMatrix.from_dense(b)


class TestPolicyInILUT:
    def test_guard_policy_matches_diag_guard_factors(self):
        """The default pivot handling is PivotPolicy("guard"), bit for bit."""
        A = poisson2d(8)
        params = ILUTParams(fill=5, threshold=1e-3)
        f1 = ilut(A, params)
        f2 = ilut(A, params, pivot_policy=PivotPolicy("guard"))
        assert np.array_equal(f1.U.data, f2.U.data)
        assert np.array_equal(f1.L.data, f2.L.data)

    def test_raise_policy_raises_typed_error(self):
        A = _singular_arrow()
        with pytest.raises(ZeroPivotError) as exc:
            ilut(A, ILUTParams(fill=6, threshold=0.0),
                 pivot_policy=PivotPolicy("raise"))
        assert exc.value.row >= 0

    def test_shift_policy_produces_finite_factors(self):
        A = _singular_arrow()
        f = ilut(A, ILUTParams(fill=6, threshold=0.0),
                 pivot_policy=PivotPolicy("shift"))
        assert np.all(np.isfinite(f.U.data))
        diag = np.array([f.U.data[f.U.indptr[i]] for i in range(f.n)])
        assert np.all(diag != 0.0)
