"""Packed jets against the full-tensor rule they replaced.

`FullJet` keeps the Hessian (m, m) and the third derivatives (m, m, m)
whole, and symmetrizes each product and chain-rule result by copying the
entry of every sorted multi-index to all of its permutations (`_sym`).
Walking every catalog chart with it must give, after `jets.unpack`,
exactly the numbers of the packed jets.
"""

import numpy as np
import pytest

from umbilic import jets as J
from umbilic.catalog import family_ids, instantiate
from umbilic.charts import CompositeChart


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
    def constant(cls, c, m, order, lead):
        third = np.zeros(lead + (m, m, m)) if order == 3 else None
        return cls(np.full(lead, c), np.zeros(lead + (m,)),
                   np.zeros(lead + (m, m)), third)

    @classmethod
    def variable(cls, index, value, m, order=3):
        lead = np.shape(value)
        g = np.zeros(lead + (m,))
        g[..., index] = 1.0
        third = np.zeros(lead + (m, m, m)) if order == 3 else None
        return cls(value, g, np.zeros(lead + (m, m)), third)

    def __add__(self, other):
        if not isinstance(other, J.Jet3):
            return FullJet(self.value + other, self.grad, self.hess, self.third)
        third = None if self.third is None else self.third + other.third
        return FullJet(self.value + other.value, self.grad + other.grad,
                       self.hess + other.hess, third)

    __radd__ = __add__

    def __neg__(self):
        third = None if self.third is None else -self.third
        return FullJet(-self.value, -self.grad, -self.hess, third)

    def __mul__(self, o):
        if not isinstance(o, J.Jet3):
            third = None if self.third is None else o * self.third
            return FullJet(self.value * o, o * self.grad, o * self.hess, third)
        a1, a2, a3 = _lead(self.value)
        b1, b2, b3 = _lead(o.value)
        grad = a1 * o.grad + b1 * self.grad
        hess = _sym(a2 * o.hess + b2 * self.hess
                    + _outer(self.grad, o.grad) + _outer(o.grad, self.grad), 2)
        third = None
        if self.third is not None:
            third = _sym(a3 * o.third + b3 * self.third
                         + _mixed(self.hess, o.grad)
                         + _mixed(o.hess, self.grad), 3)
        return FullJet(self.value * o.value, grad, hess, third)

    __rmul__ = __mul__

    def apply(self, d0, d1, d2, d3):
        g = self.grad
        gg = _outer(g, g)
        (d1g, d1h, d1t), (_, d2h, d2t) = _lead(d1), _lead(d2)
        grad = d1g * g
        hess = d2h * gg + d1h * self.hess
        third = None
        if self.third is not None:
            d3t = _lead(d3)[2]
            third = _sym(d3t * (gg[..., None] * g[..., None, None, :])
                         + d2t * _mixed(self.hess, g) + d1t * self.third, 3)
        return FullJet(d0, grad, hess, third)


def _full_jets(chart, points, order):
    """The full-tensor jets of every ambient coordinate of a chart, walked
    as the chart walks its packed jets."""
    m = chart.nvars
    if isinstance(chart, CompositeChart):
        seeds = _full_jets(chart.inner, points, order)
        chart = chart.outer
    else:
        args = J.coordinates(points)
        seeds = [FullJet.variable(i, a, len(args), order)
                 for i, a in enumerate(args)]
    lead = seeds[0].value.shape
    return [j if isinstance(j, J.Jet3)
            else FullJet.constant(j, m, order, lead)
            for j in chart.coords(seeds)]


@pytest.mark.parametrize("fid", family_ids())
def test_packed_jets_equal_the_full_tensor_rule(fid):
    ch = instantiate(fid)
    points = ch.sample_points(5, 75)
    for order in (2, 3):
        for packed, full in zip(ch.jet_list(points, order),
                                _full_jets(ch, points, order)):
            assert type(full) is FullJet
            assert np.array_equal(packed.value, full.value)
            assert np.array_equal(packed.grad, full.grad)
            assert np.array_equal(J.unpack(packed.hess, 2), full.hess)
            if order == 2:
                assert packed.third is None and full.third is None
            else:
                assert np.array_equal(J.unpack(packed.third, 3), full.third)
