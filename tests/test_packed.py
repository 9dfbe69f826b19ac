"""Packed jets against the full-tensor rule they replaced.

`FullJet` keeps the Hessian (m, m) and the third derivatives (m, m, m)
whole, and symmetrizes each product and chain-rule result by copying the
entry of every sorted multi-index to all of its permutations (`_sym`).
Walking every catalog chart, and composites of them, with it must give,
after `jets.unpack`, exactly the numbers of the packed jets.
"""

import functools

import numpy as np
import pytest

from umbilic import jets as J
from umbilic.bilinear import random_pseudo_orthogonal
from umbilic.catalog import (cone_embedding_chart, cone_hypersurface_map,
                             cylinder_chart, family_ids, instantiate)
from umbilic.charts import compose, transform_chart


def _sym(t, rank):
    """Copy each sorted-index entry of the trailing `rank` axes to all of
    its index permutations."""
    m = t.shape[-1]
    shape = (m,) * rank
    idx = np.sort(np.indices(shape).reshape(rank, -1), axis=0)
    pos = np.ravel_multi_index(idx, shape).reshape(shape)
    return t.reshape(t.shape[:-rank] + (-1,))[..., pos]


def _lead(v):
    v1 = v[..., None]
    v2 = v1[..., None]
    return v1, v2, v2[..., None]


def _outer(a, b):
    return a[..., :, None] * b[..., None, :]


def _mixed(h, g):
    """H_ij g_k + H_jk g_i + H_ik g_j over the trailing axes."""
    t = h[..., None] * g[..., None, None, :]
    return t + t.swapaxes(-1, -2).swapaxes(-2, -3) + t.swapaxes(-1, -2)


class FullJet(J.Jet3):
    """Jet3 with full symmetric tensors: hess (P, m, m), third (P, m, m, m)."""

    __slots__ = ()

    @classmethod
    def constant(cls, c, m, lead):
        return cls(np.full(lead, c), np.zeros(lead + (m,)),
                   np.zeros(lead + (m, m)), np.zeros(lead + (m, m, m)))

    @classmethod
    def variable(cls, index, value, m):
        lead = np.shape(value)
        g = np.zeros(lead + (m,))
        g[..., index] = 1.0
        return cls(value, g, np.zeros(lead + (m, m)),
                   np.zeros(lead + (m, m, m)))

    def __add__(self, other):
        if not isinstance(other, J.Jet3):
            return FullJet(self.value + other, self.grad, self.hess, self.third)
        return FullJet(self.value + other.value, self.grad + other.grad,
                       self.hess + other.hess, self.third + other.third)

    __radd__ = __add__

    def __neg__(self):
        return FullJet(-self.value, -self.grad, -self.hess, -self.third)

    def __mul__(self, o):
        if not isinstance(o, J.Jet3):
            return FullJet(self.value * o, o * self.grad, o * self.hess,
                           o * self.third)
        a1, a2, a3 = _lead(self.value)
        b1, b2, b3 = _lead(o.value)
        grad = a1 * o.grad + b1 * self.grad
        hess = _sym(a2 * o.hess + b2 * self.hess
                    + _outer(self.grad, o.grad) + _outer(o.grad, self.grad), 2)
        third = _sym(a3 * o.third + b3 * self.third + _mixed(self.hess, o.grad)
                     + _mixed(o.hess, self.grad), 3)
        return FullJet(self.value * o.value, grad, hess, third)

    __rmul__ = __mul__

    def apply(self, d0, d1, d2, d3):
        g = self.grad
        gg = _outer(g, g)
        (d1g, d1h, d1t), (_, d2h, d2t) = _lead(d1), _lead(d2)
        grad = d1g * g
        hess = d2h * gg + d1h * self.hess
        third = _sym(_lead(d3)[2] * (gg[..., None] * g[..., None, None, :])
                     + d2t * _mixed(self.hess, g) + d1t * self.third, 3)
        return FullJet(d0, grad, hess, third)


def _full_jets(chart, points):
    """The full-tensor jets of every ambient coordinate of a chart, walked
    through its coordinate function as the chart walks its packed jets."""
    args = J.coordinates(points)
    m = len(args)
    seeds = [FullJet.variable(i, a, m) for i, a in enumerate(args)]
    return [j if isinstance(j, J.Jet3)
            else FullJet.constant(j, m, args[0].shape)
            for j in chart.coords(seeds)]


def _isometric_image(fid, seed):
    ch = instantiate(fid)
    L = random_pseudo_orthogonal(ch.ambient.signature,
                                 np.random.default_rng(seed))
    return transform_chart(ch, L)


# every catalog chart, and composites: a composite is one coordinate
# function, walked like any other chart's
CHARTS = {fid: functools.partial(instantiate, fid) for fid in family_ids()}
CHARTS.update({
    "cone": lambda: compose(cone_hypersurface_map(2, 0, 1),
                            cone_embedding_chart(2, 0, 1)),
    "cylinder": lambda: compose(instantiate("main1-7", {"m": 3, "s": 0}),
                                cylinder_chart(1.0)),
    "main2-4~L": functools.partial(_isometric_image, "main2-4", 76),
})


@pytest.mark.parametrize("fid", CHARTS)
def test_packed_jets_equal_the_full_tensor_rule(fid):
    ch = CHARTS[fid]()
    points = ch.sample_points(5, 75)
    for packed, full in zip(ch.jet_list(points), _full_jets(ch, points)):
        assert type(full) is FullJet
        assert np.array_equal(packed.value, full.value)
        assert np.array_equal(packed.grad, full.grad)
        assert np.array_equal(J.unpack(packed.hess, 2), full.hess)
        assert np.array_equal(J.unpack(packed.third, 3), full.third)
