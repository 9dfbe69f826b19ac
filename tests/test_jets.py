"""Tests for the order-3 Taylor arithmetic and its finite-difference oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from umbilic import jets as J
from umbilic.catalog import cone_embedding_chart
from umbilic.charts import AmbientSpace, ExprChart
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
    are returned packed, as `fd_derivatives` gives them."""
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


def _stencil_by_levels(point, step, order):
    """Reference stencil, laid out as `fd_stencil`: a copy of the point per
    row, moved one nested shift (level) at a time, the centre's shift
    first."""
    m = point.shape[0]
    block = ([()] + [((i, 1.0),) for i in range(m)]
             + [((i, -1.0),) for i in range(m)]
             + [((i, a), (j, b)) for i in range(m) for j in range(i + 1, m)
                for a, b in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0),
                             (-1.0, -1.0))])
    centres = [()]
    if order == 3:
        centres += ([((i, 1.0),) for i in range(m)]
                    + [((i, -1.0),) for i in range(m)])
    moves = [c + mv for c in centres for mv in block]
    Q = np.repeat(point[None], len(moves), axis=0)
    for level in range(3):
        rows = [r for r, mv in enumerate(moves) if len(mv) > level]
        axes = [moves[r][level][0] for r in rows]
        Q[rows, axes] += np.array([moves[r][level][1] for r in rows]) * step
    return Q


def _scalar(f):
    """A one-coordinate function of the walk arguments from f(*u)."""
    return lambda u: [f(*u)]


class TestJetArithmetic:
    def test_polynomial_derivatives_exact(self):
        jet, = J.evaluate(_scalar(_poly), [[0.7, -0.4]])
        grad, hess, third = _poly_derivs(0.7, -0.4)
        np.testing.assert_allclose(jet.grad[0], grad, atol=1e-14)
        np.testing.assert_allclose(J.unpack(jet.hess[0], 2), hess, atol=1e-14)
        np.testing.assert_allclose(J.unpack(jet.third[0], 3), third,
                                   atol=1e-14)

    def test_symmetry_is_exact(self):
        # packed storage: permuted index reads are bit-identical
        def e(u, v, w):
            return J.sqrt(1.0 + u * v * w + u * u) * J.sin(v + 2.0 * w)

        jet, = J.evaluate(_scalar(e), [[0.3, -0.2, 0.15]])
        assert [e(0.3, -0.2, 0.15)] == jet.value.tolist()
        assert jet.hess.shape == (1, 6) and jet.third.shape == (1, 10)
        hess, third = J.unpack(jet.hess[0], 2), J.unpack(jet.third[0], 3)
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

    @given(finite, finite, finite, finite)
    @settings(max_examples=50, deadline=None)
    def test_product_rule_consistency(self, a, b, x, y):
        # d(fg) computed by jet multiply equals the expanded polynomial
        lhs, = J.evaluate(_scalar(lambda u, v: (u + a) * (v * v + b * u)),
                          [x, y])
        rhs, = J.evaluate(_scalar(lambda u, v: u * v * v + b * u * u
                                  + a * v * v + (a * b) * u), [x, y])
        np.testing.assert_allclose(lhs.grad, rhs.grad, atol=1e-9)
        np.testing.assert_allclose(lhs.hess, rhs.hess, atol=1e-9)
        np.testing.assert_allclose(lhs.third, rhs.third, atol=1e-9)


def _square_loop(xs, neg):
    """The reference `indefinite_square` stacks: one jet product per term,
    summed from 0.0 in order."""
    acc = 0.0
    for i, x in enumerate(xs):
        term = x * x
        acc = acc - term if i < neg else acc + term
    return acc


def _same_jet(got, want):
    return all(np.array_equal(getattr(got, k), getattr(want, k))
               for k in ("value", "grad", "hess", "third"))


class TestIndefiniteSquare:
    @pytest.mark.parametrize("eps", [1, -1])
    def test_curved_jets_equal_the_loop(self, eps):
        # the cone composition's inner jets: a constant, chart variables and
        # a square root, whose Hessian and third derivatives are non-zero,
        # so they take the loop
        inner = cone_embedding_chart(2, 0, eps)
        xs = inner.jet_list(inner.sample_points(5, 3))
        assert any(x.hess.any() for x in xs) and any(x.third.any() for x in xs)
        for neg in range(len(xs) + 1):
            got = J.indefinite_square(xs, neg)
            assert type(got) is J.Jet3
            assert _same_jet(got, _square_loop(xs, neg))

    @pytest.mark.parametrize("m", [1, 3, 16])
    def test_variables_skip_the_curved_products(self, m):
        args = J.coordinates(np.random.default_rng(m).uniform(-1, 1, (4, m)))
        xs = [J.Jet3.variable(i, a, m) for i, a in enumerate(args)]
        for neg in (0, m // 2, m):
            got = J.indefinite_square(xs, neg)
            assert _same_jet(got, _square_loop(xs, neg))
            assert not got.third.any()


class TestChainRule:
    def test_composed_function_agrees_with_fd_oracle(self):
        # the jets of f(g(u)), walked as one function, against its FD oracle
        def inner(u):
            return [u[0] * u[1] + 1.5, u[0] - u[1]]

        def outer(y):
            return [J.sqrt(y[0]) * J.cos(y[1])]

        pt = [0.4, -0.3]
        jet, = J.evaluate(lambda u: outer(inner(u)), [pt])
        fd = J.fd_oracle(lambda u: outer(inner(u))[0], pt, 1e-3)
        np.testing.assert_allclose(jet.grad[0], fd.grad, atol=1e-6)
        np.testing.assert_allclose(jet.hess[0], fd.hess, atol=1e-6)
        np.testing.assert_allclose(jet.third[0], fd.third, atol=1e-4)

    def test_known_transcendental_thirds(self):
        jet, = J.evaluate(_scalar(lambda u, v: J.sin(u * v)), [[0.2, -0.3]])
        x, y = 0.2, -0.3
        c, s = math.cos(x * y), math.sin(x * y)
        third = J.unpack(jet.third[0], 3)
        assert third[0, 0, 0] == pytest.approx(-y**3 * c, abs=1e-14)
        assert third[1, 0, 0] == pytest.approx(-2 * y * s - x * y * y * c,
                                               abs=1e-14)
        assert third[1, 1, 0] == pytest.approx(-2 * x * s - x * x * y * c,
                                               abs=1e-14)


class TestDomainHandling:
    def test_sqrt_at_zero_rejected(self):
        with pytest.raises(DomainError, match="^sqrt argument 0.0 is not "
                           "strictly positive$"):
            J.evaluate(_scalar(J.sqrt), [0.0])

    def test_bad_order(self):
        # the walk is always order 3; jet_arrays returns orders 2 and 3 only
        ch = ExprChart(list, 1, AmbientSpace.flat(1, 0))
        for order in (1, 4):
            with pytest.raises(InputError, match="order must be 2 or 3"):
                ch.jet_arrays([0.0], order)


class TestFiniteDifferenceOracle:
    def test_agreement_on_transcendental(self):
        def e(u):
            return J.sqrt(2.0 - u[0] * u[0] - u[1] * u[1]) * J.sin(
                u[0] + 0.5 * u[1])

        pt = [0.3, -0.5]
        jet, = J.evaluate(lambda u: [e(u)], pt)
        fd = J.fd_oracle(e, pt, 1e-4)
        assert np.max(np.abs(jet.grad - fd.grad)) < 1e-5
        assert np.max(np.abs(jet.hess - fd.hess)) < 1e-5

    def test_richardson_ratio(self):
        # halving the step divides the truncation error by ~4
        def e(u):
            return J.sin(2.0 * u[0]) * J.sqrt(1.5 + u[1])

        pt = [0.4, 0.1]
        jet, = J.evaluate(lambda u: [e(u)], pt)
        err = []
        for h in (1e-2, 5e-3):
            fd = J.fd_oracle(e, pt, h)
            err.append(np.max(np.abs(fd.hess - jet.hess)))
        assert 3.5 <= err[0] / err[1] <= 4.5

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_stencil_matches_the_loop_reference(self, m):
        # one call on the whole stencil, differenced in the loop's order; the
        # last coordinate mixes every variable with distinct weights, so each
        # pair and triple has its own derivative and a reordered index table
        # shows
        def f(q):
            u = J.coordinates(q)
            mix = sum(c * x for c, x in zip([1.0, 2.3, 3.7, 5.1], u))
            return np.stack([
                J.sqrt(2.0 + u[0] * u[-1]) * J.sin(u[0] - 0.5 * u[-1]),
                u[-1] * u[-1] * u[0] + J.cos(u[0]),
                J.sin(mix) * J.sqrt(3.0 + mix)], axis=-1)

        points = np.array([[0.3, -0.2, 0.45, -0.35],
                           [-0.1, 0.25, 0.05, 0.4]])[:, :m]
        wants = [_fd_loop(lambda q: f(q[None])[0], p, 1e-3) for p in points]
        for order in (2, 3):
            # one point, no leading axis
            got = J.fd_derivatives(f(J.fd_stencil(points[0], 1e-3, order)),
                                   m, 1e-3, order)
            # a leading record axis: values (R, S, N), one stencil per record
            F = np.stack([f(J.fd_stencil(p, 1e-3, order)) for p in points])
            stacked = J.fd_derivatives(F, m, 1e-3, order)
            for r, want in enumerate(wants):
                for k in range(4 if order == 3 else 3):
                    assert np.array_equal(stacked[k][r], want[k])
                    if r == 0:
                        assert np.array_equal(got[k], want[k])
            if order == 2:
                assert got[3] is None and stacked[3] is None

    @given(hnp.arrays(np.float64, st.integers(1, 4),
                      elements=st.floats(-10.0, 10.0)),
           st.sampled_from([1e-4, 1e-3, 0.37]), st.sampled_from([2, 3]))
    @settings(max_examples=100, deadline=None)
    def test_stencil_matches_the_levels(self, point, step, order):
        # equal values; a -0.0 coordinate may come back as +0.0
        assert np.array_equal(J.fd_stencil(point, step, order),
                              _stencil_by_levels(point, step, order))

    def test_stencil_is_bit_identical_to_the_levels(self):
        rng = np.random.default_rng(7)
        for m in range(1, 9):
            for point in rng.normal(scale=3.0, size=(20, m)):
                for order in (2, 3):
                    for step in (1e-4, 1e-3, 1e-2, 0.5):
                        got = J.fd_stencil(point, step, order)
                        want = _stencil_by_levels(point, step, order)
                        assert np.array_equal(got.view(np.int64),
                                              want.view(np.int64))

    def test_third_is_symmetric(self):
        fd = J.fd_oracle(lambda u: u[0] * u[1] * u[2] + J.cos(u[0] * u[2]),
                         [0.2, 0.3, -0.1], 1e-3)
        third = J.unpack(fd.third, 3)
        for perm in [(1, 0, 2), (0, 2, 1), (2, 1, 0)]:
            assert np.array_equal(third, np.transpose(third, perm))
