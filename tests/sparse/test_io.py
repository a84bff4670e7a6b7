"""Unit tests for MatrixMarket I/O."""

import numpy as np
import pytest

from repro.ilu import ILUTParams, ilut
from repro.matrices import random_diag_dominant
from repro.resilience import NonFiniteError
from repro.sparse import CSRMatrix, read_matrix_market, write_matrix_market


class TestRoundtrip:
    def test_roundtrip_exact(self, tmp_path, small_poisson):
        p = tmp_path / "a.mtx"
        write_matrix_market(small_poisson, p)
        B = read_matrix_market(p)
        assert small_poisson.allclose(B, rtol=0, atol=0)

    def test_roundtrip_random(self, tmp_path):
        A = random_diag_dominant(25, 4, seed=5)
        p = tmp_path / "r.mtx"
        write_matrix_market(A, p)
        assert A.allclose(read_matrix_market(p), rtol=0, atol=0)

    def test_empty_matrix(self, tmp_path):
        p = tmp_path / "z.mtx"
        write_matrix_market(CSRMatrix.zeros(3), p)
        B = read_matrix_market(p)
        assert B.shape == (3, 3) and B.nnz == 0


class TestReadVariants:
    def test_symmetric_storage_expanded(self, tmp_path):
        p = tmp_path / "s.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "2 2 2\n1 1 4.0\n2 1 -1.0\n"
        )
        A = read_matrix_market(p)
        assert A.get(0, 1) == -1.0 and A.get(1, 0) == -1.0

    def test_pattern_reads_ones(self, tmp_path):
        p = tmp_path / "p.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2\n"
        )
        A = read_matrix_market(p)
        assert A.get(0, 1) == 1.0

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "c.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment\n% another\n1 1 1\n1 1 3.5\n"
        )
        assert read_matrix_market(p).get(0, 0) == 3.5


class TestReadErrors:
    def test_not_matrixmarket(self, tmp_path):
        p = tmp_path / "bad.mtx"
        p.write_text("hello\n")
        with pytest.raises(ValueError):
            read_matrix_market(p)

    def test_unsupported_format(self, tmp_path):
        p = tmp_path / "arr.mtx"
        p.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
        with pytest.raises(ValueError):
            read_matrix_market(p)

    def test_unsupported_field(self, tmp_path):
        p = tmp_path / "cx.mtx"
        p.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
        with pytest.raises(ValueError):
            read_matrix_market(p)

    def test_non_finite_entries_kept_and_rejected_by_factorization(self, tmp_path):
        p = tmp_path / "nan.mtx"
        p.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 4\n1 1 nan\n1 2 1.0\n2 1 inf\n2 2 4.0\n"
        )
        A = read_matrix_market(p)
        assert np.isnan(A.get(0, 0)) and np.isinf(A.get(1, 0))
        with pytest.raises(NonFiniteError, match="input"):
            ilut(A, ILUTParams(fill=5, threshold=1e-3))

    def test_truncated(self, tmp_path):
        p = tmp_path / "t.mtx"
        p.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
        with pytest.raises(ValueError):
            read_matrix_market(p)
