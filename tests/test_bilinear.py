"""Tests for the indefinite linear algebra layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypothesis.extra import numpy as hnp

from umbilic.bilinear import (DEFAULT_ZERO_TOL, Signature, _rank,
                              gram_matrix, inner_product,
                              numerical_rank, radical,
                              random_pseudo_orthogonal, signature_of,
                              svd_split)
from umbilic.errors import InputError


# Reference oracles: the separate row-space, null-space and radical
# routines and the unfolded isometry draw that the routines under test
# replace.

def _row_space_basis(matrix, tol=DEFAULT_ZERO_TOL):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, s, vh = np.linalg.svd(matrix)
    r = _rank(s, tol)
    return vh[:r] if matrix.ndim == 2 else [v[:k] for v, k in zip(vh, r)]


def _null_space_basis(matrix, tol=DEFAULT_ZERO_TOL):
    matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
    _, s, vh = np.linalg.svd(matrix, full_matrices=True)
    r = _rank(s, tol)
    return vh[r:] if matrix.ndim == 2 else [v[k:] for v, k in zip(vh, r)]


def _radical_basis(form, tol_zero=DEFAULT_ZERO_TOL):
    eig, vecs = np.linalg.eigh(np.asarray(form, dtype=float))
    idx = [i for i in range(len(eig)) if abs(eig[i]) <= tol_zero]
    idx.sort(key=lambda i: abs(eig[i]))
    out = []
    for i in idx:
        v = vecs[:, i].copy()
        nz = np.nonzero(np.abs(v) > 1e-12)[0]
        if nz.size and v[nz[0]] < 0:
            v = -v
        out.append(v)
    return out


def _random_pseudo_orthogonal(sig, rng):
    n = sig.dim
    L = np.eye(n)
    neg_idx = list(range(sig.neg))
    pos_idx = list(range(sig.neg, sig.neg + sig.pos))
    for _ in range(2 * (sig.neg + sig.pos)):
        kind = rng.integers(0, 3)
        step = np.eye(n)
        if kind == 0 and len(pos_idx) >= 2:
            i, j = rng.choice(pos_idx, size=2, replace=False)
            a = rng.uniform(0, 2 * np.pi)
            step[i, i] = step[j, j] = np.cos(a)
            step[i, j] = -np.sin(a)
            step[j, i] = np.sin(a)
        elif kind == 1 and len(neg_idx) >= 2:
            i, j = rng.choice(neg_idx, size=2, replace=False)
            a = rng.uniform(0, 2 * np.pi)
            step[i, i] = step[j, j] = np.cos(a)
            step[i, j] = -np.sin(a)
            step[j, i] = np.sin(a)
        elif neg_idx and pos_idx:
            i = rng.choice(neg_idx)
            j = rng.choice(pos_idx)
            t = rng.uniform(-0.4, 0.4)
            step[i, i] = step[j, j] = np.cosh(t)
            step[i, j] = step[j, i] = np.sinh(t)
        L = step @ L
    return L


def _same_span(a, b):
    """Rows of a and of b span the same space (Euclidean projectors)."""
    assert len(a) == len(b)
    np.testing.assert_allclose(a.T @ a, b.T @ b, atol=1e-10)


def _low_rank(rng, shape, rank):
    """Random matrix or stack of the given shape and rank at most `rank`."""
    *lead, a, n = shape
    return (rng.normal(size=(*lead, a, rank))
            @ rng.normal(size=(*lead, rank, n)))


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
            signature_of(np.array([[0.0, 1.0], [0.5, 0.0]]))

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2, 2)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(InputError, match="must be square"):
            signature_of(np.zeros(shape))

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

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tolerance_is_rejected(self, tol):
        with pytest.raises(InputError):
            signature_of(np.eye(2), tol_zero=tol)


class TestRadical:
    def test_lightcone_metric(self):
        g = np.array([[0.0, 0.0], [0.0, 1.0]])
        R = radical(g)
        np.testing.assert_allclose(np.abs(R), [[1.0, 0.0], [0.0, 0.0]],
                                   atol=1e-14)

    def test_nondegenerate_has_empty_radical(self):
        assert not np.any(radical(np.diag([-1.0, 3.0])))

    @given(st.integers(0, 3), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_columns_span_the_reference_radical(self, null, n, seed):
        # a form of a random signature with `null` near-zero eigenvalues,
        # alone and as a stack of three
        rng = np.random.default_rng(seed)
        eig = np.concatenate([np.zeros(null), rng.choice([-1, 1], size=n)
                              * rng.uniform(0.5, 2.0, size=n)])
        Q = np.linalg.qr(rng.normal(size=(3, null + n, null + n)))[0]
        forms = Q * eig[None, None, :] @ np.swapaxes(Q, -1, -2)
        forms = (forms + np.swapaxes(forms, -1, -2)) / 2
        stacked = radical(forms)
        for g, R in zip(forms, stacked):
            want = np.array(_radical_basis(g)).reshape(-1, null + n)
            assert np.array_equal(radical(g), R)
            live = R[:, np.any(R != 0, axis=0)].T
            _same_span(live, want)


class TestRankAndSpans:
    def test_numerical_rank(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 1e-12]])
        assert numerical_rank(A) == 1

    def test_row_and_null_space_complementary(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(3, 6)) @ np.eye(6)
        vh, r = svd_split(A)
        assert r == 3
        np.testing.assert_allclose(vh[:r] @ vh[r:].T, 0.0, atol=1e-12)

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0
        vh, r = svd_split(np.zeros((2, 4)))
        assert vh[r:].shape == (4, 4)

    @given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 7),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_split_equals_the_reference_bases(self, a, n, rank, seed):
        A = _low_rank(np.random.default_rng(seed), (4, a, n), rank)
        vh, ranks = svd_split(A)
        rows, nulls = _row_space_basis(A), _null_space_basis(A)
        for k in range(len(A)):
            r = ranks[k]
            assert np.array_equal(vh[k, :r], rows[k])
            assert np.array_equal(vh[k, r:], nulls[k])
            one_vh, one_r = svd_split(A[k])
            assert one_r == r
            assert np.array_equal(one_vh[:one_r], _row_space_basis(A[k]))
            assert np.array_equal(one_vh[one_r:], _null_space_basis(A[k]))

    @given(hnp.arrays(float, hnp.array_shapes(min_dims=2, max_dims=3,
                                              max_side=5),
                      elements=st.floats(-1e3, 1e3)))
    @settings(max_examples=60, deadline=None)
    def test_split_slices_span_row_and_null_space(self, A):
        vh, ranks = svd_split(A)
        for M, v, r in zip(A.reshape(-1, *A.shape[-2:]),
                           vh.reshape(-1, *vh.shape[-2:]),
                           np.ravel(ranks)):
            np.testing.assert_allclose(v @ v.T, np.eye(len(v)), atol=1e-10)
            scale = max(1.0, float(np.max(np.abs(M), initial=0.0)))
            np.testing.assert_allclose(M @ v[r:].T, 0.0, atol=1e-6 * scale)


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

    @given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 2),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_equals_the_unfolded_reference(self, neg, pos, null, seed):
        sig = Signature(neg, pos, null)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(random_pseudo_orthogonal(sig, rng),
                              _random_pseudo_orthogonal(sig, ref))
        # the two draws leave each generator in the same state
        assert rng.integers(2**62) == ref.integers(2**62)
