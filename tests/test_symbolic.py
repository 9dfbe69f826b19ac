"""A symbolic oracle: sympy's derivatives of every catalog chart's
coordinate function against the chart's walked jets.

Each chart's coordinate function is called on sympy symbols, with the
`sqrt`, `sin` and `cos` that `catalog` calls replaced by sympy's, so the
oracle reads the same closed forms as the walk but differentiates them
with no Taylor arithmetic.
"""

import numpy as np
import pytest
import sympy

from umbilic import catalog
from umbilic import jets as J
from umbilic.catalog import family_ids, instantiate

REL_TOL = 1e-12


def symbolic_jets(chart):
    """A function of one point giving the value, gradient, packed Hessian
    and packed third derivatives of each coordinate, from sympy."""
    u = sympy.symbols(f"u0:{chart.nvars}")
    with pytest.MonkeyPatch.context() as mp:
        for name in ("sqrt", "sin", "cos"):
            mp.setattr(catalog, name, getattr(sympy, name))
        coords = chart.coords(list(u))
    pairs = J.packed_indices(chart.nvars, 2).T
    triples = J.packed_indices(chart.nvars, 3).T
    return sympy.lambdify(u, [
        coords,
        [[sympy.diff(c, x) for x in u] for c in coords],
        [[sympy.diff(c, u[i], u[j]) for i, j in pairs] for c in coords],
        [[sympy.diff(c, u[i], u[j], u[k]) for i, j, k in triples]
         for c in coords]], "numpy")


@pytest.mark.parametrize("fid", family_ids())
def test_jets_match_symbolic_derivatives(fid):
    ch = instantiate(fid)
    points = ch.sample_points(3, 76)
    jets = symbolic_jets(ch)
    for got, point in zip(zip(*ch.jet_arrays(points, 3)), points):
        for g, w in zip(got, jets(*point)):
            w = np.array(w, dtype=float)
            assert np.max(np.abs(g - w)) <= REL_TOL * np.max(np.abs(w))


ITEMS = ([f"main{k}-{i}" for k in (1, 2) for i in range(1, 8)]
         + [f"akk-{i}" for i in range(1, 5)])


def symbolic_h_norm(chart, u):
    """<H, H> at the rational point u, from sympy's second derivatives of
    the chart's coordinate function: H is their g-trace over m with the
    tangent part and the position part eps <., x> x removed."""
    x = sympy.symbols(f"u0:{chart.nvars}")
    with pytest.MonkeyPatch.context() as mp:
        for name in ("sqrt", "sin", "cos"):
            mp.setattr(catalog, name, getattr(sympy, name))
        coords = sympy.Matrix(chart.coords(list(x)))
    at = dict(zip(x, u))
    G = sympy.diag(*chart.ambient.metric().diagonal().astype(int).tolist())
    X = coords.subs(at).evalf(30)
    J = coords.jacobian(x).subs(at).evalf(30)
    ginv = (J.T * G * J).inv()
    H = sympy.zeros(len(coords), 1)
    for i in range(chart.nvars):
        for j in range(chart.nvars):
            v = sympy.diff(coords, x[i], x[j]).subs(at).evalf(30)
            v -= J * ginv * (J.T * G * v)
            v -= chart.ambient.epsilon * (X.T * G * v)[0] * X
            H += ginv[i, j] * v / chart.nvars
    return float((H.T * G * H)[0])


@pytest.mark.parametrize("fid", ITEMS)
def test_h_norm_matches_the_symbolic_mean_curvature(fid):
    # each item's h_norm, h(r) for a radius row, at its defaults and at a
    # drawn radius, against <H, H> from its own coordinate function
    spec = catalog.get_family(fid)
    draws = [spec.defaults]
    if spec.parametric:
        draws.append({**spec.defaults,
                      **spec.draw_params(np.random.default_rng(0))})
    u = (sympy.Rational(1, 20), sympy.Rational(-1, 30))
    for params in draws:
        chart, want = catalog.family_instance(fid, params)[2:]
        got = symbolic_h_norm(chart, u)
        assert abs(got - want.h_norm) <= REL_TOL * max(1.0, abs(want.h_norm))
