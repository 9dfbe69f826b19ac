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
