"""Tests for symmetric vectorization (repro.sdp.svec)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sdp import basis_matrix, smat, svec, svec_basis, svec_dim
from repro.sdp.problems import lyap_basis_tensor
from tests.lmi_reference import dense_lyap_basis_tensor


def random_symmetric(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, n))
    return 0.5 * (g + g.T)


class TestSvec:
    @pytest.mark.parametrize("n, expected", [(1, 1), (2, 3), (4, 10), (21, 231)])
    def test_dim(self, n, expected):
        assert svec_dim(n) == expected

    @settings(max_examples=25)
    @given(st.integers(1, 6), st.integers(0, 10_000))
    def test_roundtrip(self, n, seed):
        m = random_symmetric(n, seed)
        assert np.allclose(smat(svec(m), n), m)

    @settings(max_examples=25)
    @given(st.integers(1, 6), st.integers(0, 10_000), st.integers(0, 10_000))
    def test_inner_product_preserved(self, n, s1, s2):
        a = random_symmetric(n, s1)
        b = random_symmetric(n, s2)
        assert np.trace(a @ b) == pytest.approx(svec(a) @ svec(b), rel=1e-10)

    def test_basis_is_orthonormal(self):
        n = 4
        basis = svec_basis(n)
        assert len(basis) == svec_dim(n)
        for i, e1 in enumerate(basis):
            for j, e2 in enumerate(basis):
                assert np.trace(e1 @ e2) == pytest.approx(float(i == j), abs=1e-12)

    def test_basis_matrix_maps_vec_to_svec(self):
        n = 3
        b = basis_matrix(n)
        m = random_symmetric(n, 7)
        assert np.allclose(b @ m.flatten(order="F"), svec(m))

    def test_basis_matrix_rows_orthonormal(self):
        b = basis_matrix(5)
        assert np.allclose(b @ b.T, np.eye(svec_dim(5)))

    @settings(max_examples=10)
    @given(st.integers(1, 5), st.integers(0, 1000))
    def test_svec_of_basis_is_unit(self, n, seed):
        basis = svec_basis(n)
        k = seed % len(basis)
        unit = np.zeros(len(basis))
        unit[k] = 1.0
        assert np.allclose(svec(basis[k]), unit)


class TestLyapBasisTensor:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, -1.25])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 10, 21])
    def test_sparse_assembly_matches_dense_einsum(self, n, alpha):
        # Bit for bit: each einsum sum has at most one nonzero term per
        # entry (a column of E_k holds one nonzero), and the sparse
        # updates add the same products in the same order
        # (A^T E_k, then E_k A, then alpha E_k).
        for seed in range(2):
            a = np.random.default_rng(100 * n + seed).normal(size=(n, n))
            assert np.array_equal(
                lyap_basis_tensor(a, alpha), dense_lyap_basis_tensor(a, alpha)
            )
