"""Tests for the indefinite linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic.bilinear import (Signature, SymmetricForm, gram_matrix,
                              inner_product, null_space_basis, numerical_rank,
                              radical_basis,
                              random_pseudo_orthogonal, row_space_basis,
                              signature_of)
from umbilic.errors import InputError


class TestSignature:
    def test_dim_and_weights(self):
        sig = Signature(2, 3, 1)
        assert sig.dim == 6
        assert sig.degenerate
        np.testing.assert_array_equal(sig.weights(),
                                      [-1, -1, 1, 1, 1, 0])

    def test_metric_is_diagonal(self):
        sig = Signature(1, 2)
        np.testing.assert_array_equal(sig.metric(), np.diag([-1, 1, 1]))

    def test_negative_counts_rejected(self):
        with pytest.raises(InputError):
            Signature(-1, 2)


class TestInnerProduct:
    def test_lorentz_null_vector(self):
        sig = Signature(1, 1)
        v = np.array([1.0, 1.0])
        assert inner_product(v, v, sig) == 0.0

    def test_null_block_contributes_nothing(self):
        sig = Signature(0, 1, 2)
        u = np.array([1.0, 5.0, -7.0])
        assert inner_product(u, u, sig) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            inner_product([1.0], [1.0, 2.0], Signature(0, 2))

    def test_gram_matrix_matches_pairwise(self):
        sig = Signature(1, 2)
        rng = np.random.default_rng(0)
        vs = rng.normal(size=(4, 3))
        G = gram_matrix(vs, sig)
        for i in range(4):
            for j in range(4):
                assert G[i, j] == pytest.approx(
                    inner_product(vs[i], vs[j], sig), abs=1e-14)


class TestSignatureOf:
    def test_diagonal(self):
        sig = signature_of(np.diag([-2.0, 3.0, 0.0, 1e-12]))
        assert sig.as_tuple() == (1, 1, 2)

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            SymmetricForm(np.array([[0.0, 1.0], [0.5, 0.0]]))

    def test_congruence_invariance(self):
        # Sylvester: signature is invariant under change of basis
        rng = np.random.default_rng(1)
        D = np.diag([-1.0, -1.0, 2.0, 0.0])
        for _ in range(10):
            A = rng.normal(size=(4, 4))
            while abs(np.linalg.det(A)) < 0.1:
                A = rng.normal(size=(4, 4))
            assert signature_of(A @ D @ A.T).as_tuple() == (2, 1, 1)

    def test_tolerance_is_validated(self):
        with pytest.raises(InputError):
            signature_of(np.eye(2), tol_zero=0.0)


class TestRadical:
    def test_lightcone_metric(self):
        g = np.array([[0.0, 0.0], [0.0, 1.0]])
        rad = radical_basis(g)
        assert len(rad) == 1
        np.testing.assert_allclose(rad[0], [1.0, 0.0], atol=1e-14)

    def test_sign_normalization(self):
        g = np.diag([0.0, 1.0, 2.0])
        (v,) = radical_basis(g)
        assert v[np.nonzero(np.abs(v) > 1e-12)[0][0]] > 0

    def test_nondegenerate_has_empty_radical(self):
        assert radical_basis(np.diag([-1.0, 3.0])) == []


class TestRankAndSpans:
    def test_numerical_rank(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1e-12]])
        assert numerical_rank(A) == 1

    def test_row_and_null_space_complementary(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 6)) @ np.eye(6)
        R = row_space_basis(A)
        N = null_space_basis(A)
        assert R.shape[0] + N.shape[0] == 6
        np.testing.assert_allclose(R @ N.T, 0.0, atol=1e-12)

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert null_space_basis(np.zeros((2, 4))).shape == (4, 4)


class TestRandomPseudoOrthogonal:
    @given(st.integers(0, 2), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_preserves_the_form(self, neg, pos, seed):
        sig = Signature(neg, pos)
        rng = np.random.default_rng(seed)
        L = random_pseudo_orthogonal(sig, rng)
        G = sig.metric()
        np.testing.assert_allclose(L.T @ G @ L, G, atol=1e-10)

    def test_null_coordinates_fixed(self):
        sig = Signature(1, 2, 2)
        L = random_pseudo_orthogonal(sig, np.random.default_rng(3))
        np.testing.assert_allclose(L[:, 3:], np.eye(5)[:, 3:], atol=0)
        np.testing.assert_allclose(L[3:, :], np.eye(5)[3:, :], atol=0)
