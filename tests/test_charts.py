"""Tests for immersion charts, composition, and linear transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic import jets as J
from umbilic.bilinear import random_pseudo_orthogonal
from umbilic.catalog import family_ids, instances, instantiate
from umbilic.charts import (AmbientSpace, ExprChart, compose, fd_jet_arrays,
                            linear_chart, quadric_residual, transform_chart,
                            unit_draw)
from umbilic.errors import DomainError, InputError


def _unit_sphere(u):
    q = 0.0
    for v in u:
        q = q + v * v
    return [*u, J.sqrt(1.0 - q)]


def _unit_sphere_chart(m=2):
    return ExprChart(_unit_sphere, m, AmbientSpace.sphere(m, 0),
                     [[-0.4, 0.4]] * m, "sphere")


def _g(uv):
    u, v = uv
    return [u + 0.2 * v * v, u * v, J.sin(u)]


def _f(abc):
    a, b, c = abc
    return [J.sqrt(2.0 + a * b), a - c, b * b, a + b + c]


def _a(xyzw):
    x, y, z, w = xyzw
    return [x * J.cos(y) - z * J.sqrt(3.0 + w), x * y * w]


def _curved_pair():
    # nonlinear inner (2 -> 3) and outer (3 -> 4) charts
    inner = ExprChart(_g, 2, AmbientSpace.flat(3, 1), [[-0.5, 0.5]] * 2, "g")
    outer = ExprChart(_f, 3, AmbientSpace.flat(4, 1), name="f")
    return outer, inner


def _assert_same_jets(comp, direct, p):
    """A composite's jets at p equal the composed function's bit for bit,
    and its Jacobian and Hessian agree with the FD oracle."""
    got = comp.jet_arrays(p)
    for g, w in zip(got, direct.jet_arrays(p)):
        np.testing.assert_array_equal(g, w)
    _, fjac, fhess, _ = fd_jet_arrays(direct, p, 1e-4)
    assert np.max(np.abs(got[1] - fjac)) < 1e-6
    assert np.max(np.abs(got[2] - fhess)) < 1e-6


class TestAmbientSpace:
    def test_factory_signatures(self):
        assert AmbientSpace.flat(4, 1).signature.as_tuple() == (1, 3, 0)
        assert AmbientSpace.sphere(4, 1).signature.as_tuple() == (1, 4, 0)
        assert AmbientSpace.hyperbolic(4, 1).signature.as_tuple() == (2, 3, 0)

    @pytest.mark.parametrize("eps", [-1, 0, 1])
    def test_signature_is_the_factories_rule(self, eps):
        # the rule the flat, sphere and hyperbolic factories once wrote out
        rule = {0: lambda n, p: (p, n - p, 0),
                1: lambda n, p: (p, n + 1 - p, 0),
                -1: lambda n, p: (p + 1, n - p, 0)}[eps]
        for n in range(9):
            for p in range(n + 1):
                amb = AmbientSpace(eps, n, p)
                assert amb.signature.as_tuple() == rule(n, p)
                assert amb.flat_dim == n + abs(eps)

    @pytest.mark.parametrize("eps, n, p", [(0, 3, 4), (1, 3, 5), (-1, 3, 4),
                                           (0, 3, -1), (-1, 3, -2)])
    def test_negative_count_rejected_at_construction(self, eps, n, p):
        with pytest.raises(InputError, match="non-negative"):
            AmbientSpace(eps, n, p)

    def test_bad_epsilon(self):
        with pytest.raises(InputError):
            AmbientSpace(2, 3, 0)

    def test_weights_are_built_once_and_read_only(self):
        amb = AmbientSpace.hyperbolic(3, 1)
        w = amb.weights()
        assert w is amb.weights()
        np.testing.assert_array_equal(w, [-1.0, -1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            w[0] = 1.0


class TestExprChart:
    def test_sphere_hessian_at_origin(self):
        # the graph coordinate has hess = -I at the pole
        ch = _unit_sphere_chart()
        _, jac, hess, _ = ch.jet_arrays(np.zeros(2))
        hess = J.unpack(hess, 2)
        np.testing.assert_allclose(jac[:2], np.eye(2), atol=1e-14)
        np.testing.assert_allclose(hess[2], -np.eye(2), atol=1e-14)

    def test_image_on_the_sphere(self):
        ch = _unit_sphere_chart()
        values = ch.value(ch.sample_points(30, 0))
        assert quadric_residual(ch.ambient.weights(), 1, values).max() < 1e-12

    def test_wrong_coordinate_count(self):
        # the count is checked where the function is walked
        ch = ExprChart(lambda u: [u[0]], 1, AmbientSpace.flat(2, 0))
        for walk in (ch.value, ch.jet_arrays):
            with pytest.raises(InputError, match="^1 coordinates for flat "
                               "dimension 2$"):
                walk([0.0])

    def test_sampling_is_seeded(self):
        ch = _unit_sphere_chart()
        np.testing.assert_array_equal(ch.sample_points(5, 7),
                                      ch.sample_points(5, 7))
        assert not np.array_equal(ch.sample_points(5, 7),
                                  ch.sample_points(5, 8))

    @settings(max_examples=60, deadline=None)
    @given(fid=st.sampled_from(family_ids()), size=st.integers(1, 80),
           seed=st.integers(0, 2**63), data=st.data())
    def test_fewer_points_are_the_first_rows_of_more(self, fid, size, seed,
                                                     data):
        # the verifier's sample stack is the head of its hull draw
        ch = instantiate(fid)
        k = data.draw(st.integers(0, size))
        assert np.array_equal(ch.sample_points(k, seed),
                              ch.sample_points(size, seed)[:k])

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_draw_is_numpys_uniform_on_a_shared_unit_draw(self, seed):
        # every record verify-all checks draws as uniform(lo, hi) would,
        # from one read-only draw per (seed, count, m)
        for fid, params in instances(seed):
            chart = instantiate(fid, params)
            lo, hi = chart.box[:, 0], chart.box[:, 1]
            for count in (16, 40):
                want = np.random.default_rng(seed).uniform(
                    lo, hi, (count, chart.nvars))
                assert np.array_equal(chart.sample_points(count, seed), want)
                U = unit_draw(seed, count, chart.nvars)
                assert not U.flags.writeable
                assert unit_draw(seed, count, chart.nvars) is U

    def test_box_respected(self):
        ch = _unit_sphere_chart()
        pts = ch.sample_points(100, 3)
        assert np.all(pts >= -0.4) and np.all(pts <= 0.4)


class TestComposition:
    def test_values_compose(self):
        inner = _unit_sphere_chart()
        L = np.vstack([np.eye(3), np.zeros(3)])
        outer = linear_chart(L, AmbientSpace.flat(4, 1))
        comp = compose(outer, inner)
        for p in inner.sample_points(5, 1):
            np.testing.assert_allclose(comp.value(p), L @ inner.value(p),
                                       atol=1e-14)

    def test_jets_match_substitution_route(self):
        # chain rule through CompositeChart vs. the composed function f(g(u))
        # and its FD oracle
        outer, inner = _curved_pair()
        comp = compose(outer, inner)
        direct = ExprChart(lambda u: _f(_g(u)), 2, AmbientSpace.flat(4, 1),
                           inner.box)
        for p in inner.sample_points(6, 2):
            _assert_same_jets(comp, direct, p)

    def test_nested_composition_matches_substitution(self):
        # compose(compose(a, b), c) against the composed function a(b(c(u)))
        # and its FD oracle
        b, c = _curved_pair()
        comp = compose(compose(ExprChart(_a, 4, AmbientSpace.flat(2, 0),
                                         name="a"), b), c)
        direct = ExprChart(lambda u: _a(_f(_g(u))), 2, AmbientSpace.flat(2, 0),
                           c.box)
        assert comp.name == "a*f*g"
        for p in c.sample_points(6, 3):
            _assert_same_jets(comp, direct, p)
            np.testing.assert_array_equal(comp.value(p), direct.value(p))

    def test_composition_is_associative(self):
        # (a*b)*c and a*(b*c) both walk a(b(c(u))): values and jets equal
        # bit for bit, and both agree with the FD oracle
        b, c = _curved_pair()
        a = ExprChart(_a, 4, AmbientSpace.flat(2, 0), name="a")
        left, right = compose(compose(a, b), c), compose(a, compose(b, c))
        for p in c.sample_points(6, 4):
            np.testing.assert_array_equal(left.value(p), right.value(p))
            got = left.jet_arrays(p)
            for x, y in zip(got, right.jet_arrays(p)):
                np.testing.assert_array_equal(x, y)
            for chart in (left, right):
                _, fjac, fhess, _ = fd_jet_arrays(chart, p, 1e-4)
                assert np.max(np.abs(got[1] - fjac)) < 1e-6
                assert np.max(np.abs(got[2] - fhess)) < 1e-6
                third = fd_jet_arrays(chart, p, 1e-3)[3]
                assert np.max(np.abs(got[3] - third)) < 1e-4

    def test_identity_composition(self):
        ch = _unit_sphere_chart()
        ident = linear_chart(np.eye(3), ch.ambient)
        comp = compose(ident, ch)
        p = np.array([0.1, -0.2])
        _, jac1, hess1, third1 = comp.jet_arrays(p)
        _, jac2, hess2, third2 = ch.jet_arrays(p)
        np.testing.assert_allclose(jac1, jac2, atol=1e-14)
        np.testing.assert_allclose(hess1, hess2, atol=1e-14)
        np.testing.assert_allclose(third1, third2, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        ch = _unit_sphere_chart()
        outer = linear_chart(np.eye(2), AmbientSpace.flat(2, 0))
        with pytest.raises(InputError):
            compose(outer, ch)


class TestTransformChart:
    def test_isometry_preserves_ambient_residual(self):
        ch = _unit_sphere_chart()
        rng = np.random.default_rng(4)
        L = random_pseudo_orthogonal(ch.ambient.signature, rng)
        moved = transform_chart(ch, L)
        values = moved.value(moved.sample_points(20, 0))
        assert quadric_residual(moved.ambient.weights(), 1,
                                values).max() < 1e-10

    def test_values_are_linear_images(self):
        ch = _unit_sphere_chart()
        L = np.diag([2.0, 1.0, 1.0])
        moved = transform_chart(ch, L)
        for p in ch.sample_points(4, 5):
            np.testing.assert_allclose(moved.value(p), L @ ch.value(p),
                                       atol=1e-14)

    def test_shape_check(self):
        ch = _unit_sphere_chart()
        with pytest.raises(InputError):
            transform_chart(ch, np.eye(2))

    def test_non_finite_values_give_no_warning(self):
        # an overflowing chart's image is inf or nan, as the chart's own
        # values are, with no RuntimeWarning (an error in this suite)
        ch = ExprChart(lambda u: [u[0] * 1e300, u[0]], 1,
                       AmbientSpace.flat(2, 0))
        moved = transform_chart(ch, np.array([[0.0, 1.0], [1.0, 1e300]]))
        got = moved.value(np.array([[1e10], [1.0]]))
        assert not np.isfinite(got[0]).any()
        assert np.isfinite(got[1]).all()

    @pytest.mark.parametrize("fid", family_ids())
    def test_image_is_the_walked_composite(self, fid):
        # L applied to the chart's arrays is the walk of linear_chart(L)
        # composed with the chart, to rounding, and a stacked point's rows
        # are its rows alone bit for bit; the image's own coordinate
        # function, walked on jets or on point values, is the composite's
        # bit for bit, and the image composes like any chart
        ch = instantiate(fid)
        N = ch.ambient.flat_dim
        rng = np.random.default_rng(77)
        matrices = [random_pseudo_orthogonal(ch.ambient.signature, rng),
                    random_pseudo_orthogonal(ch.ambient.signature, rng),
                    2 * np.eye(N), np.eye(N)[::-1]]
        points = ch.sample_points(5, 78)
        args = J.coordinates(points)
        outer = linear_chart(matrices[1], ch.ambient)
        for L in matrices:
            image = transform_chart(ch, L)
            walked = compose(linear_chart(L, ch.ambient), ch)
            for g, w in zip(image.jet_list(points), walked.jet_list(points)):
                for name in ("value", "grad", "hess", "third"):
                    _assert_same(getattr(g, name), getattr(w, name))
            for g, w in zip(image.coords(args), walked.coords(args)):
                _assert_same(np.asarray(g), np.asarray(w))
            for g, w in zip(compose(outer, image).jet_arrays(points),
                            compose(outer, walked).jet_arrays(points)):
                _assert_same(g, w)
            for q in (points[0], points):
                got = image.jet_arrays(q) + (image.value(q),)
                want = walked.jet_arrays(q) + (walked.value(q),)
                for g, w in zip(got, want):
                    assert g.shape == w.shape
                    tol = 1e-15 * (1 + np.abs(w).max())
                    assert np.abs(g - w).max() <= tol
            stacked = image.jet_arrays(points) + (image.value(points),)
            for k, p in enumerate(points):
                alone = image.jet_arrays(p) + (image.value(p),)
                for g, w in zip(stacked, alone):
                    _assert_same(g[k], w)

    def test_image_of_an_image_composes(self):
        ch = instantiate("main2-4")
        rng = np.random.default_rng(79)
        L1, L2 = (random_pseudo_orthogonal(ch.ambient.signature, rng)
                  for _ in range(2))
        twice = transform_chart(transform_chart(ch, L1), L2)
        walked = compose(linear_chart(L2, ch.ambient),
                         compose(linear_chart(L1, ch.ambient), ch))
        p = ch.sample_points(3, 80)
        for g, w in zip(twice.jet_arrays(p) + (twice.value(p),),
                        walked.jet_arrays(p) + (walked.value(p),)):
            assert np.abs(g - w).max() <= 1e-14 * (1 + np.abs(w).max())


class TestMemo:
    """A chart keeps its last jet walk and its last values, read-only."""

    def test_hit_returns_equal_read_only_arrays(self):
        ch = instantiate("main1-3")
        p = ch.sample_points(4, 81)
        first = ch.jet_arrays(p) + (ch.value(p),)
        again = ch.jet_arrays(p.copy()) + (ch.value(p.copy()),)
        for a, b in zip(first, again):
            assert np.array_equal(a, b)
            assert not a.flags.writeable and not b.flags.writeable
        with pytest.raises(ValueError):
            again[1][0, 0, 0] = 1.0

    def test_one_slot_walks_again_for_other_points(self, monkeypatch):
        ch = instantiate("light1-2")
        a, b = ch.sample_points(3, 82), ch.sample_points(3, 83)
        walks = []
        evaluate = J.evaluate
        monkeypatch.setattr(J, "evaluate",
                            lambda f, q: walks.append(len(q)) or evaluate(f, q))
        first = ch.jet_arrays(a)
        ch.jet_arrays(b)
        again = ch.jet_arrays(a)
        assert walks == [3, 3, 3]
        for x, y in zip(first, again):
            assert np.array_equal(x, y)
        ch.jet_arrays(a)
        assert walks == [3, 3, 3]

    def test_order2_hit_has_no_third_derivatives(self):
        ch = instantiate("psi-a")
        p = ch.sample_points(2, 84)
        full = ch.jet_arrays(p)
        part = ch.jet_arrays(p, order=2)
        assert part[3] is None
        assert all(x is y for x, y in zip(part[:3], full[:3]))

    def test_failed_walk_stores_nothing(self):
        ch = ExprChart(lambda u: [u[0], J.sqrt(1.0 - u[0] * u[0])], 1,
                       AmbientSpace.flat(2, 0))
        good, bad = np.array([[0.5]]), np.array([[2.0]])
        kept = ch.jet_arrays(good)
        for walk in (ch.jet_arrays, ch.value):
            for _ in range(2):
                with pytest.raises(DomainError, match=r"^sqrt argument -3\.0 "
                                   r"is not strictly positive$"):
                    walk(bad)
        assert ch.jet_arrays(good)[0] is kept[0]

    def test_fresh_chart_has_its_own_memo(self):
        a = instantiate("main1-3", {"r": 0.4})
        b = instantiate("main1-3", {"r": 0.6})
        p = a.sample_points(2, 85)
        va, ja = a.value(p), a.jet_arrays(p)
        vb, jb = b.value(p), b.jet_arrays(p)
        assert not np.array_equal(va, vb)
        assert not np.array_equal(ja[1], jb[1])
        again = instantiate("main1-3", {"r": 0.4})
        assert again.value(p) is not va
        assert np.array_equal(again.value(p), va)

    def test_image_reads_its_charts_walk(self, monkeypatch):
        ch = instantiate("main2-4")
        L = random_pseudo_orthogonal(ch.ambient.signature,
                                     np.random.default_rng(86))
        p = ch.sample_points(3, 87)
        base = ch.jet_arrays(p), ch.value(p)
        walks = []
        evaluate = J.evaluate
        monkeypatch.setattr(J, "evaluate",
                            lambda f, q: walks.append(len(q)) or evaluate(f, q))
        for image in (transform_chart(ch, L), transform_chart(ch, -L)):
            image.jet_arrays(p)
            image.value(p)
        assert walks == []
        assert ch.jet_arrays(p)[0] is base[0][0] and ch.value(p) is base[1]


class TestFdJetArrays:
    def test_matches_taylor_jets(self):
        ch = _unit_sphere_chart()
        L = random_pseudo_orthogonal(ch.ambient.signature,
                                     np.random.default_rng(5))
        p = np.array([0.15, -0.25])
        for chart in (ch, compose(*_curved_pair()), transform_chart(ch, L)):
            _, jac, hess, _ = chart.jet_arrays(p)
            _, fjac, fhess, _ = fd_jet_arrays(chart, p, 1e-4)
            assert np.max(np.abs(jac - fjac)) < 1e-5
            assert np.max(np.abs(hess - fhess)) < 1e-5


def _assert_same(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestPointStacks:
    """A (P, m) stack is one walk whose results equal the stacked
    single-point results bit for bit."""

    @pytest.mark.parametrize("fid", family_ids())
    def test_stack_matches_single_points(self, fid):
        ch = instantiate(fid)
        points = ch.sample_points(5, 71)
        _assert_same(ch.value(points),
                          np.stack([ch.value(p) for p in points]))
        for order in (2, 3):
            batch = ch.jet_arrays(points, order)
            singles = [ch.jet_arrays(p, order) for p in points]
            for k, got in enumerate(batch):
                if order == 2 and k == 3:
                    assert got is None
                    continue
                _assert_same(got, np.stack([s[k] for s in singles]))

    def test_single_point_shapes(self):
        ch = compose(*_curved_pair())
        p = np.array([0.1, -0.2])
        # m = 2: 3 sorted pairs, 4 sorted triples
        val, jac, hess, third = ch.jet_arrays(p)
        assert (val.shape, jac.shape, hess.shape, third.shape) == (
            (4,), (4, 2), (4, 3), (4, 4))
        assert ch.value(p).shape == (4,)
        val, jac, hess, third = ch.jet_arrays(p[None])
        assert (val.shape, jac.shape, hess.shape, third.shape) == (
            (1, 4), (1, 4, 2), (1, 4, 3), (1, 4, 4))
        assert ch.value(p[None]).shape == (1, 4)

    def test_constant_coordinate_gets_the_point_axis(self):
        ch = ExprChart(lambda u: [u[0], 2.0, u[0] * u[1]], 2,
                       AmbientSpace.flat(3, 0))
        points = np.array([[0.1, 0.2], [0.3, -0.4], [0.0, 0.5]])
        val, jac, _, third = ch.jet_arrays(points)
        np.testing.assert_array_equal(val[:, 1], 2.0)
        np.testing.assert_array_equal(jac[:, 1], 0.0)
        assert third.shape == (3, 3, 4)
        np.testing.assert_array_equal(ch.value(points)[:, 1], 2.0)

    def test_domain_error_names_coordinate_and_first_point(self):
        # coordinate 1 leaves its domain at points 2 and 3, not at 0 or 1;
        # the message names the argument and the first offending point
        ch = ExprChart(lambda u: [u[0], J.sqrt(1.0 - u[0] * u[0]
                                               - u[1] * u[1])], 2,
                       AmbientSpace.flat(2, 0))
        points = np.array([[0.1, 0.1], [0.2, 0.0], [1.5, 0.0], [2.0, 0.0]])
        with pytest.raises(DomainError, match=r"^sqrt argument -1\.25 is not "
                           r"strictly positive at point 2$"):
            ch.jet_arrays(points)
        with pytest.raises(DomainError, match=r"at point 2$"):
            ch.value(points)
        with pytest.raises(DomainError, match=r"^sqrt argument -1\.25 is not "
                           r"strictly positive$"):
            ch.jet_arrays(points[2])

    @pytest.mark.parametrize("fid", ["main1-3", "light1-2", "psi-a",
                                     "S-example"])
    def test_empty_stack_gives_empty_arrays(self, fid):
        ch = instantiate(fid)
        m, N = ch.nvars, ch.ambient.flat_dim
        T2, T3 = J.packed_indices(m, 2).shape[1], J.packed_indices(m, 3).shape[1]
        got = ch.jet_arrays(np.zeros((0, m))) + (ch.value(np.zeros((0, m))),)
        assert [a.shape for a in got] == [(0, N), (0, N, m), (0, N, T2),
                                          (0, N, T3), (0, N)]

    def test_ambient_residual_propagates_nan(self):
        # one residual per point, NaN only where the image is not finite
        ch = _unit_sphere_chart()
        values = ch.value(ch.sample_points(4, 1)).copy()   # read-only
        assert quadric_residual(ch.ambient.weights(), 1, values).max() < 1e-12
        values[2, 0] = np.nan
        residual = quadric_residual(ch.ambient.weights(), 1, values)
        assert np.isnan(residual).tolist() == [False, False, True, False]
        assert residual[[0, 1, 3]].max() < 1e-12


class TestFdOrder:
    @pytest.mark.parametrize("fid", ["main1-3", "light1-2", "psi-a", "S-theta"])
    def test_order2_jac_and_hess_are_those_of_order3(self, fid):
        # the verifier's order-2 stencil is the centre block of the order-3
        # stencil of `fd_jet_arrays`, so the two agree bit for bit
        ch = instantiate(fid)
        p = ch.sample_points(1, 72)[0]
        v2, jac2, hess2, third2 = J.fd_derivatives(
            ch.value(J.fd_stencil(p, 1e-4, 2)), ch.nvars, 1e-4, 2)
        v3, jac3, hess3, third3 = fd_jet_arrays(ch, p, 1e-4)
        assert third2 is None
        assert J.unpack(third3, 3).shape == J.unpack(hess3, 2).shape + (ch.nvars,)
        assert np.array_equal(v2, v3)
        assert np.array_equal(jac2, jac3)
        assert np.array_equal(hess2, hess3)

    def test_one_value_call_per_stencil(self, monkeypatch):
        calls = []
        ch = _unit_sphere_chart()
        value = ch.value

        def recorded(points):
            calls.append(np.shape(points))
            return value(points)

        monkeypatch.setattr(ch, "value", recorded)
        fd_jet_arrays(ch, np.array([0.1, 0.2]), 1e-4)
        assert calls == [(45, 2)]
        assert J.fd_stencil(np.array([0.1, 0.2]), 1e-4, 2).shape == (9, 2)
