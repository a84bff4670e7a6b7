"""ILUTParams validation and the one calling convention of each ILUT entry point."""

import dataclasses

import numpy as np
import pytest

from repro import ILUTParams, poisson2d
from repro.ilu import ilut, parallel_ilut, parallel_ilut_star


@pytest.fixture(scope="module")
def A():
    return poisson2d(8)


class TestValidation:
    def test_negative_fill(self):
        with pytest.raises(ValueError, match="fill"):
            ILUTParams(fill=-1, threshold=1e-3)

    def test_negative_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            ILUTParams(fill=5, threshold=-1e-3)

    def test_nan_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            ILUTParams(fill=5, threshold=float("nan"))

    def test_k_below_one(self):
        with pytest.raises(ValueError, match="k must be"):
            ILUTParams(fill=5, threshold=1e-3, k=0)

    def test_frozen(self):
        p = ILUTParams(fill=5, threshold=1e-3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.fill = 10

    def test_hashable_and_equal(self):
        a = ILUTParams(fill=5, threshold=1e-3, k=2)
        b = ILUTParams(fill=5, threshold=1e-3, k=2)
        assert a == b and hash(a) == hash(b)

    def test_reduced_cap(self):
        assert ILUTParams(fill=5, threshold=0.0).reduced_cap is None
        assert ILUTParams(fill=5, threshold=0.0, k=3).reduced_cap == 15

    def test_describe(self):
        assert ILUTParams(fill=5, threshold=1e-4).describe() == "ILUT(m=5, t=0.0001)"
        assert (
            ILUTParams(fill=5, threshold=1e-4, k=2).describe()
            == "ILUT*(m=5, t=0.0001, k=2)"
        )


class TestCallingConventionErrors:
    def test_params_plus_legacy_conflict(self, A):
        with pytest.raises(TypeError, match="unexpected keyword argument 'm'"):
            ilut(A, ILUTParams(fill=5, threshold=1e-3), m=5)

    def test_ilut_missing_arguments(self, A):
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'params'"):
            ilut(A)

    def test_multiple_values_for_m(self, A):
        with pytest.raises(TypeError, match="unexpected keyword argument 'm'"):
            ilut(A, 5, 1e-3, m=5)

    def test_parallel_missing_nranks(self, A):
        with pytest.raises(TypeError, match="missing 1 required positional argument: 'nranks'"):
            parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3))

    def test_parallel_multiple_nranks(self, A):
        with pytest.raises(TypeError, match="multiple values for argument 'nranks'"):
            parallel_ilut(A, ILUTParams(fill=5, threshold=1e-3), 4, nranks=4)

    def test_parallel_multiple_t(self, A):
        with pytest.raises(TypeError, match="unexpected keyword argument 't'"):
            parallel_ilut(A, 5, 1e-3, 4, t=1e-3)

    def test_star_requires_k(self, A):
        with pytest.raises(ValueError, match="requires ILUTParams with k set"):
            parallel_ilut_star(A, ILUTParams(fill=5, threshold=1e-3), 4)

    def test_star_new_style_rejects_extra_positionals(self, A):
        with pytest.raises(TypeError, match="takes 3 positional arguments"):
            parallel_ilut_star(A, ILUTParams(fill=5, threshold=1e-3, k=2), 4, 2)

    def test_star_duplicate_legacy(self, A):
        with pytest.raises(TypeError, match="takes 3 positional arguments"):
            parallel_ilut_star(A, 5, 1e-3, 2, 4, k=2)


def _spellings():
    """Removed keyword spellings, keyed ``<entry point>-<keyword>``.

    The bare ``m, t[, k]`` forms are covered by TestCallingConventionErrors.
    """
    from repro.decomp import decompose
    from repro.ilu import parallel_ilu0, parallel_ilut_partitioned, parallel_triangular_solve
    from repro.solvers import parallel_matvec

    A = poisson2d(6)
    p = ILUTParams(fill=3, threshold=1e-3)
    star = ILUTParams(fill=3, threshold=1e-3, k=2)
    x = np.ones(A.shape[0])
    return {
        "ilut-diag_guard": lambda: ilut(A, p, diag_guard=False),
        "parallel_ilut-simulate": lambda: parallel_ilut(A, p, 2, simulate=False),
        "parallel_ilut-diag_guard": lambda: parallel_ilut(A, p, 2, diag_guard=True),
        "parallel_ilut-checkpoint": lambda: parallel_ilut(A, p, 2, checkpoint=True),
        "parallel_ilut_star-simulate": lambda: parallel_ilut_star(A, star, 2, simulate=True),
        "parallel_ilut_partitioned-simulate": lambda: parallel_ilut_partitioned(
            A, 3, 1e-3, 2, simulate=False
        ),
        "parallel_ilu0-simulate": lambda: parallel_ilu0(A, 2, simulate=False),
        "parallel_matvec-simulate": lambda: parallel_matvec(
            A, decompose(A, 2, seed=0), x, simulate=False
        ),
        "parallel_triangular_solve-simulate": lambda: parallel_triangular_solve(
            parallel_ilut(A, p, 2, transport="none").factors, x, simulate=True
        ),
    }


class TestOneSpelling:
    """Each decision has one spelling; the removed aliases are rejected."""

    @pytest.mark.parametrize("case", sorted(_spellings()))
    def test_removed_keyword_is_a_type_error(self, case):
        keyword = case.split("-")[1]
        with pytest.raises(TypeError, match=f"unexpected keyword argument.*{keyword}"):
            _spellings()[case]()


class TestInternalCallersAreMigrated:
    """Internal repro.* code calls the entry points in their one spelling.

    A bare ``m, t`` pair is a ``TypeError`` now, so driving the
    high-level entry points end to end proves every internal call site
    passes an :class:`ILUTParams`.
    """

    def test_block_jacobi(self, A):
        from repro.ilu.block_jacobi import block_jacobi_ilut

        bj = block_jacobi_ilut(A, 5, 1e-3, 2, simulate=False)
        assert bj.apply(np.ones(A.shape[0])).shape == (A.shape[0],)

    def test_cli_factor(self, capsys):
        from repro.cli import main

        assert main(["factor", "g0:8", "-p", "2", "-m", "3"]) == 0
        assert "ILUT(3," in capsys.readouterr().out
