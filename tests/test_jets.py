"""Tests for the order-3 Taylor arithmetic and its finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic import jets as J
from umbilic.errors import DomainError, InputError

finite = st.floats(-2.0, 2.0, allow_nan=False)


def _poly(u, v):
    # an asymmetric polynomial whose derivatives are easy to write down
    return u * u * v + 3.0 * v - u * v * v * v


def _poly_derivs(x, y):
    grad = np.array([2 * x * y - y**3, x * x + 3.0 - 3 * x * y * y])
    hess = np.array([[2 * y, 2 * x - 3 * y * y],
                     [2 * x - 3 * y * y, -6 * x * y]])
    third = np.zeros((2, 2, 2))
    third[0, 0, 1] = third[0, 1, 0] = third[1, 0, 0] = 2.0
    third[0, 1, 1] = third[1, 0, 1] = third[1, 1, 0] = -6 * y
    third[1, 1, 1] = -6 * x
    return grad, hess, third


def _fd_loop(f, point, step):
    """Reference central differences: one call of f per stencil point,
    shifting coordinates one at a time; the Hessian and third derivatives
    are returned packed, as `fd_arrays` gives them."""
    m = point.shape[0]

    def shift(p, i, d):
        q = p.copy()
        q[i] += d
        return q

    h = step
    value = np.asarray(f(point), dtype=float)
    grad = np.zeros(value.shape + (m,))
    for i in range(m):
        grad[..., i] = (f(shift(point, i, h)) - f(shift(point, i, -h))) / (2 * h)

    def fd_hess(p):
        out = np.zeros(value.shape + (m, m))
        f0 = f(p)
        for i in range(m):
            out[..., i, i] = (f(shift(p, i, h)) - 2 * f0
                              + f(shift(p, i, -h))) / h**2
            for j in range(i + 1, m):
                v = (f(shift(shift(p, i, h), j, h))
                     - f(shift(shift(p, i, h), j, -h))
                     - f(shift(shift(p, i, -h), j, h))
                     + f(shift(shift(p, i, -h), j, -h))) / (4 * h**2)
                out[..., i, j] = out[..., j, i] = v
        return out

    d = np.stack([(fd_hess(shift(point, i, h)) - fd_hess(shift(point, i, -h)))
                  / (2 * h) for i in range(m)], axis=-3)
    i, j = J.packed_indices(m, 2)
    return (value, grad, fd_hess(point)[..., i, j],
            d[(...,) + tuple(J.packed_indices(m, 3))])


class TestJetArithmetic:
    def test_polynomial_derivatives_exact(self):
        u, v = J.variables(2)
        jet = J.evaluate(_poly(u, v), [0.7, -0.4])
        grad, hess, third = _poly_derivs(0.7, -0.4)
        np.testing.assert_allclose(jet.grad, grad, atol=1e-14)
        np.testing.assert_allclose(J.unpack(jet.hess, 2), hess, atol=1e-14)
        np.testing.assert_allclose(J.unpack(jet.third, 3), third, atol=1e-14)

    def test_symmetry_is_exact(self):
        # packed storage: permuted index reads are bit-identical
        u, v, w = J.variables(3)
        e = J.sqrt(1.0 + u * v * w + u * u) * J.sin(v + 2.0 * w)
        jet = J.evaluate(e, [0.3, -0.2, 0.15])
        assert e.eval([0.3, -0.2, 0.15]) == jet.value
        assert jet.hess.shape == (6,) and jet.third.shape == (10,)
        hess, third = J.unpack(jet.hess, 2), J.unpack(jet.third, 3)
        assert np.array_equal(hess, hess.T)
        for perm in [(0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]:
            assert np.array_equal(third, np.transpose(third, perm))

    @pytest.mark.parametrize("m", [1, 2, 3, 6])
    def test_sym_copies_the_sorted_index_entry(self, m):
        # reference: every entry of the full symmetric tensor read from the
        # packed entry of its sorted multi-index, in lexicographic order
        rng = np.random.default_rng(m)
        for rank in (2, 3):
            sorted_idx = sorted(set(tuple(sorted(idx))
                                    for idx in np.ndindex((m,) * rank)))
            assert np.array_equal(J.packed_indices(m, rank),
                                  np.array(sorted_idx).T)
            t = rng.normal(size=(2, len(sorted_idx)))
            ref = np.empty((2,) + (m,) * rank)
            for idx in np.ndindex((m,) * rank):
                ref[(slice(None),) + idx] = t[:, sorted_idx.index(
                    tuple(sorted(idx)))]
            assert np.array_equal(J.unpack(t, rank), ref)
            assert np.array_equal(J.unpack(t.T, rank, axis=0),
                                  np.moveaxis(ref, 0, -1))

    def test_quotient_rule(self):
        u, v = J.variables(2)
        f, g = u * u + 1.0, v + 2.0
        prod = J.evaluate((f / g) * g, [0.5, 0.25])
        direct = J.evaluate(f, [0.5, 0.25])
        assert ((f / g) * g).eval([0.5, 0.25]) == prod.value
        np.testing.assert_allclose(prod.grad, direct.grad, atol=1e-12)
        np.testing.assert_allclose(prod.third, direct.third, atol=1e-12)

    def test_order2_has_no_third(self):
        u, = J.variables(1)
        jet = J.evaluate(u * u, [1.0], order=2)
        assert jet.third is None
        assert jet.order == 2

    @given(finite, finite, finite, finite)
    @settings(max_examples=50, deadline=None)
    def test_product_rule_consistency(self, a, b, x, y):
        # d(fg) computed by jet multiply equals the expanded polynomial
        u, v = J.variables(2)
        f = u + a
        g = v * v + b * u
        lhs = J.evaluate(f * g, [x, y])
        rhs = J.evaluate(u * v * v + b * u * u + a * v * v + (a * b) * u,
                         [x, y])
        np.testing.assert_allclose(lhs.grad, rhs.grad, atol=1e-9)
        np.testing.assert_allclose(lhs.hess, rhs.hess, atol=1e-9)
        np.testing.assert_allclose(lhs.third, rhs.third, atol=1e-9)


class TestChainRule:
    def test_substitution_agrees_with_direct_evaluation(self):
        # evaluating f(g(u)) as one tree equals composing the displays
        u, v = J.variables(2)
        inner = [u * v + 1.5, u - v]
        outer_var = J.variables(2)
        outer = J.sqrt(outer_var[0]) * J.cos(outer_var[1])
        composed = outer.substitute(inner)
        pt = [0.4, -0.3]
        jet = J.evaluate(composed, pt)
        fd = J.fd_oracle(composed, pt, 1e-3)
        np.testing.assert_allclose(jet.grad, fd.grad, atol=1e-6)
        np.testing.assert_allclose(jet.hess, fd.hess, atol=1e-6)
        np.testing.assert_allclose(jet.third, fd.third, atol=1e-4)

    def test_known_transcendental_thirds(self):
        u, v = J.variables(2)
        jet = J.evaluate(J.sin(u * v), [0.2, -0.3])
        x, y = 0.2, -0.3
        c, s = math.cos(x * y), math.sin(x * y)
        third = J.unpack(jet.third, 3)
        assert third[0, 0, 0] == pytest.approx(-y**3 * c, abs=1e-14)
        assert third[1, 0, 0] == pytest.approx(-2 * y * s - x * y * y * c,
                                               abs=1e-14)
        assert third[1, 1, 0] == pytest.approx(-2 * x * s - x * x * y * c,
                                               abs=1e-14)

    def test_hyperbolic_functions(self):
        t, = J.variables(1)
        jet = J.evaluate(J.cosh(t) * J.cosh(t) - J.sinh(t) * J.sinh(t), [0.8])
        assert jet.value == pytest.approx(1.0)
        np.testing.assert_allclose(jet.grad, 0.0, atol=1e-14)
        np.testing.assert_allclose(jet.third, 0.0, atol=1e-13)


class TestDomainHandling:
    def test_sqrt_at_zero_rejected(self):
        u, = J.variables(1)
        with pytest.raises(DomainError):
            J.evaluate(J.sqrt(u), [0.0])

    def test_division_near_zero_rejected(self):
        u, = J.variables(1)
        with pytest.raises(DomainError):
            J.evaluate(1.0 / u, [1e-13])
        with pytest.raises(DomainError):
            (1.0 / u).eval([1e-13])

    def test_error_names_the_coordinate(self):
        u, = J.variables(1)
        exprs = [u, J.sqrt(u - 2.0)]
        with pytest.raises(DomainError, match="coordinate 1"):
            J.evaluate(exprs, [1.0])

    def test_variable_cap(self):
        with pytest.raises(InputError):
            J.evaluate(J.Const(1.0), np.zeros(J.MAX_VARS + 1))

    def test_bad_order(self):
        u, = J.variables(1)
        with pytest.raises(InputError):
            J.evaluate(u, [0.0], order=4)


class TestFiniteDifferenceOracle:
    def test_agreement_on_transcendental(self):
        u, v = J.variables(2)
        e = J.sqrt(2.0 - u * u - v * v) * J.sin(u + 0.5 * v)
        pt = [0.3, -0.5]
        jet = J.evaluate(e, pt)
        fd = J.fd_oracle(e, pt, 1e-4)
        assert np.max(np.abs(jet.grad - fd.grad)) < 1e-5
        assert np.max(np.abs(jet.hess - fd.hess)) < 1e-5

    def test_richardson_ratio(self):
        # halving the step divides the truncation error by ~4
        u, v = J.variables(2)
        e = J.sin(2.0 * u) * J.sqrt(1.5 + v)
        pt = [0.4, 0.1]
        jet = J.evaluate(e, pt)
        err = []
        for h in (1e-2, 5e-3):
            fd = J.fd_oracle(e, pt, h)
            err.append(np.max(np.abs(fd.hess - jet.hess)))
        assert 3.5 <= err[0] / err[1] <= 4.5

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_stencil_matches_the_loop_reference(self, m):
        # one call on the whole stencil, differenced in the loop's order
        vs = J.variables(m)
        exprs = [J.sqrt(2.0 + vs[0] * vs[-1]) * J.sin(vs[0] - 0.5 * vs[-1]),
                 vs[-1] * vs[-1] * vs[0] + J.cosh(vs[0])]

        def f(q):
            args = J.coordinates(q)
            return np.stack([np.broadcast_to(e.eval(args), q.shape[:1])
                             for e in exprs], axis=-1)

        p = np.array([0.3, -0.2, 0.45][:m])
        want = _fd_loop(lambda q: f(q[None])[0], p, 1e-3)
        for order in (2, 3):
            got = J.fd_arrays(f, p, 1e-3, order)
            for k in range(3):
                assert np.array_equal(got[k], want[k])
            if order == 3:
                assert np.array_equal(got[3], want[3])
            else:
                assert got[3] is None

    def test_third_is_symmetric(self):
        u, v, w = J.variables(3)
        fd = J.fd_oracle(u * v * w + J.cos(u * w), [0.2, 0.3, -0.1], 1e-3)
        third = J.unpack(fd.third, 3)
        for perm in [(1, 0, 2), (0, 2, 1), (2, 1, 0)]:
            assert np.array_equal(third, np.transpose(third, perm))
