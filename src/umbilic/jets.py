"""Order-3 truncated Taylor arithmetic in the chart variables.

A Jet3 carries the value, gradient, Hessian and symmetric third-derivative
tensor of a scalar quantity.  Arithmetic implements the exact
sum/product/chain rules, so derivatives of coordinate functions are exact
up to rounding.  The symmetric tensors are stored packed: one entry per
sorted multi-index (`packed_indices`), m(m+1)/2 for the Hessian and
m(m+1)(m+2)/6 for the third derivatives, and `unpack` gives the full
tensor.  A chart's coordinates are one Python function of its walk
arguments, written with `+`, `-`, `*` and the `sqrt`, `sin` and `cos`
below, and that one function serves every use: point values in give the
values and the variables' jets in give the jets.  A composition is just
the composed function, so its jets come from the same walk.  The walk
takes arrays of point values, so one call covers a whole stack of points
and every jet carries a leading point axis; a single point is walked as a
stack of one.  A central finite-difference oracle, which uses only value
evaluation, is provided as an independent cross-check.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import DomainError, InputError


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@functools.cache
def packed_indices(m: int, rank: int) -> np.ndarray:
    """The sorted multi-indices i <= j (<= k) of a symmetric rank-2 (or
    rank-3) tensor over m variables in lexicographic order, as a read-only
    (rank, T) array; for rank 2 this is `np.triu_indices(m)`."""
    idx = itertools.combinations_with_replacement(range(m), rank)
    return _frozen(np.array(list(idx), dtype=int).reshape(-1, rank).T)


@functools.cache
def _positions(m: int, rank: int) -> np.ndarray:
    """Packed position of every multi-index of a rank-`rank` tensor over m
    variables, as a read-only (m,) * rank array."""
    shape = (m,) * rank
    packed = packed_indices(m, rank)
    lookup = np.zeros(shape, dtype=int)
    lookup[tuple(packed)] = np.arange(packed.shape[1])
    idx = np.sort(np.indices(shape).reshape(rank, -1), axis=0)
    return _frozen(lookup[tuple(idx)].reshape(shape))


@functools.cache
def split_triples(m: int) -> np.ndarray:
    """The three ways to split each sorted triple i <= j <= k into a sorted
    pair and the remaining index, (ij, k), (jk, i) and (ik, j), as flat
    positions in a (T2, m) array indexed by packed pair and variable: a
    read-only (3, T3) array."""
    i, j, k = packed_indices(m, 3)
    pos = _positions(m, 2)
    return _frozen(np.stack([pos[i, j] * m + k, pos[j, k] * m + i,
                             pos[i, k] * m + j]))


@functools.cache
def _unpacked_positions(size: int, rank: int) -> np.ndarray:
    """`_positions` of the m whose packed tensors have `size` entries."""
    return _positions(next(m for m in itertools.count()
                           if packed_indices(m, rank).shape[1] >= size), rank)


@functools.cache
def pair_multiplicity(m: int) -> np.ndarray:
    """The read-only (T2,) count of the entries of a symmetric matrix that
    each sorted pair stands for: 1.0 for (i, i), 2.0 for i < j."""
    i, j = packed_indices(m, 2)
    return _frozen(np.where(i == j, 1.0, 2.0))


def unpack(t: np.ndarray, rank: int, axis: int = -1) -> np.ndarray:
    """The full symmetric tensor of a packed one: the packed `axis` of t
    becomes `rank` axes of length m, each entry read from its sorted
    multi-index."""
    return t.take(_unpacked_positions(t.shape[axis], rank), axis)


def _pair_var(h, g):
    """h_p g_k for every packed pair p and variable k, flattened to the
    layout of `split_triples`."""
    return (h[..., :, None] * g[..., None, :]).reshape(
        h.shape[:-1] + (h.shape[-1] * g.shape[-1],))


def _hess_grad(h, g):
    """h_ij g_k + h_jk g_i + h_ik g_j at each sorted triple i <= j <= k,
    from a packed Hessian and a gradient."""
    t = _pair_var(h, g).take(split_triples(g.shape[-1]), -1)
    return t[..., 0, :] + t[..., 1, :] + t[..., 2, :]


class Jet3:
    """Truncated Taylor expansion: value, grad (m,), hess (T2,), third (T3,).

    hess and third are packed by sorted multi-index (T2 = m(m+1)/2,
    T3 = m(m+1)(m+2)/6, see `packed_indices`).  A jet of P points at once
    carries a leading point axis: value (P,), grad (P, m), hess (P, T2),
    third (P, T3); `jet[k]` is the jet of point k alone.  A factor or
    term that is an array of point values, one per point, acts point by
    point, and an array operand defers to the jet.
    """

    __slots__ = ("value", "grad", "hess", "third")
    __array_ufunc__ = None

    def __init__(self, value, grad, hess, third):
        self.value = value
        self.grad = grad
        self.hess = hess
        self.third = third

    def __getitem__(self, k) -> "Jet3":
        return Jet3(self.value[k], self.grad[k], self.hess[k], self.third[k])

    @classmethod
    def _zeros(cls, value, m: int) -> "Jet3":
        lead = np.shape(value)
        return cls(value, np.zeros(lead + (m,)),
                   np.zeros(lead + packed_indices(m, 2).shape[1:]),
                   np.zeros(lead + packed_indices(m, 3).shape[1:]))

    @classmethod
    def variable(cls, index: int, value, m: int) -> "Jet3":
        jet = cls._zeros(value, m)
        jet.grad[..., index] = 1.0
        return jet

    def __add__(self, other):
        if not isinstance(other, Jet3):
            return Jet3(self.value + other, self.grad, self.hess, self.third)
        return Jet3(self.value + other.value, self.grad + other.grad,
                    self.hess + other.hess, self.third + other.third)

    __radd__ = __add__

    def __neg__(self):
        return Jet3(-self.value, -self.grad, -self.hess, -self.third)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, o):
        if not isinstance(o, Jet3):
            # an array of point values scales each point's derivatives
            f = o[..., None] if isinstance(o, np.ndarray) and o.ndim else o
            return Jet3(self.value * o, f * self.grad, f * self.hess,
                        f * self.third)
        a, b = self.value[..., None], o.value[..., None]
        i, j = packed_indices(self.grad.shape[-1], 2)
        grad = a * o.grad + b * self.grad
        hess = (a * o.hess + b * self.hess
                + self.grad.take(i, -1) * o.grad.take(j, -1)
                + o.grad.take(i, -1) * self.grad.take(j, -1))
        third = a * o.third + b * self.third
        for h, g in ((self.hess, o.grad), (o.hess, self.grad)):
            if h.any():   # a zero Hessian, as of a variable, adds nothing
                third = third + _hess_grad(h, g)
        return Jet3(self.value * o.value, grad, hess, third)

    __rmul__ = __mul__

    def apply(self, d0, d1, d2, d3) -> "Jet3":
        """Chain rule for a scalar function with derivatives d0..d3 at value."""
        g = self.grad
        i, j = packed_indices(g.shape[-1], 2)
        gg = g.take(i, -1) * g.take(j, -1)
        d1, d2 = d1[..., None], d2[..., None]
        grad = d1 * g
        hess = d2 * gg + d1 * self.hess
        # (g_i g_j) g_k at each sorted triple, split as (ij, k)
        ggg = _pair_var(gg, g).take(split_triples(g.shape[-1])[0], -1)
        third = (d3[..., None] * ggg + d2 * _hess_grad(self.hess, g)
                 + d1 * self.third)
        return Jet3(d0, grad, hess, third)


# ---------------------------------------------------------------------------
# Coordinate functions
# ---------------------------------------------------------------------------

def _lift(derivs, x):
    """Apply a scalar function, given by its derivatives d0..d3, to a value
    or a jet."""
    if isinstance(x, Jet3):
        return x.apply(*derivs(x.value))
    return derivs(x)[0]


def _sqrt_derivs(t):
    if np.any(t <= 0.0):   # name the first offending point of a stack
        k = int(np.argmax(t <= 0.0))
        where = f" at point {k}" if np.size(t) > 1 else ""
        raise DomainError(f"sqrt argument {float(np.ravel(t)[k])!r} is not "
                          f"strictly positive{where}")
    s = np.sqrt(t)
    return s, 0.5 / s, -0.25 / (s * t), 0.375 / (s * t * t)


def _sin_derivs(t):
    s, c = np.sin(t), np.cos(t)
    return s, c, -s, -c


def _cos_derivs(t):
    c, s = np.cos(t), np.sin(t)
    return c, -s, -c, s


def sqrt(x):
    return _lift(_sqrt_derivs, x)


def sin(x):
    return _lift(_sin_derivs, x)


def cos(x):
    return _lift(_cos_derivs, x)


def indefinite_square(xs, neg: int):
    """-sum of first `neg` squares + sum of the rest.

    Plain `Jet3` terms with no Hessian or third derivatives, as chart
    variables are, are squared in one stacked product by the rule of
    `Jet3.__mul__` and summed in the loop's order; any other term (point
    values, a curved jet, a subclass) takes the loop."""
    if not xs or any(type(x) is not Jet3 or x.hess.any() or x.third.any()
                     for x in xs):
        acc = 0.0
        for i, x in enumerate(xs):
            term = x * x
            acc = acc - term if i < neg else acc + term
        return acc
    v = np.array([x.value for x in xs])
    g = np.array([x.grad for x in xs])
    m, a = g.shape[-1], v[..., None]
    i, j = packed_indices(m, 2)
    gg = g.take(i, -1) * g.take(j, -1)
    sign = np.where(np.arange(len(xs)) < neg, -1.0, 1.0)
    signed = [sign.reshape((-1,) + (1,) * (b.ndim - 1)) * b
              for b in (v * v, a * g + a * g, gg + gg)]
    # summed in the loop's order; the loop starts the value from 0.0
    return Jet3(functools.reduce(np.add, signed[0], 0.0),
                *(functools.reduce(np.add, b) for b in signed[1:]),
                np.zeros(v.shape[1:] + packed_indices(m, 3).shape[1:]))


def coordinates(points) -> list:
    """Walk arguments for a (P, m) stack of points, or for one point (m,)
    as a stack of one: m contiguous (P,) arrays of point values."""
    points = np.asarray(points, dtype=float)
    return list(np.ascontiguousarray(points.reshape(-1, points.shape[-1]).T))


def evaluate(f, points) -> list[Jet3]:
    """Jets of each coordinate of f at a point or a (P, m) stack.

    f maps a list of m walk arguments to a list of coordinates.  A stack
    is walked once, every jet carrying a leading point axis; one point
    (m,) is walked as a stack of one and gives jets without it.  A
    coordinate that reads no variable becomes a constant jet.  Derivatives
    are exact Taylor arithmetic, no truncation error.  Raises DomainError
    (naming, for a stack, the first offending point) when a point falls
    outside the domain of f.
    """
    points = np.asarray(points, dtype=float)
    args = coordinates(points)
    m, lead = len(args), args[0].shape
    out = [j if isinstance(j, Jet3) else Jet3._zeros(np.full(lead, j), m)
           for j in f([Jet3.variable(i, args[i], m) for i in range(m)])]
    return [j[0] for j in out] if points.ndim == 1 else out


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

@functools.cache
def _stencil_offsets(m: int, order: int):
    """The central-difference stencil over m variables, as read-only unit
    offsets: the centres (B, m) and one Hessian stencil (size, m) around
    each.

    The Hessian stencil is the centre, +e_i, -e_i, then (+e_i+e_j,
    +e_i-e_j, -e_i+e_j, -e_i-e_j) for i < j.  Order 3 adds the centres
    +e_i, then -e_i, after the point itself.
    """
    eye = np.eye(m)
    pairs = [a * eye[i] + b * eye[j] for i in range(m) for j in range(i + 1, m)
             for a, b in ((1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0))]
    block = np.concatenate([np.zeros((1, m)), eye, -eye,
                            np.reshape(pairs, (-1, m))])
    centres = np.zeros((1, m))
    if order == 3:
        centres = np.concatenate([centres, eye, -eye])
    return _frozen(centres), _frozen(block)


@functools.cache
def _fd_rows(m: int) -> tuple:
    """Read-only positions for `fd_derivatives` over m variables: the pairs
    (i, i), the pairs i < j (in `np.triu_indices(m, 1)` order), and per
    sorted triple i <= j <= k the centres +e_i and -e_i and the pair jk."""
    i, j = packed_indices(m, 2)
    a, b, c = packed_indices(m, 3)
    return tuple(map(_frozen, (np.flatnonzero(i == j), np.flatnonzero(i < j),
                               1 + a, 1 + m + a, _positions(m, 2)[b, c])))


def fd_stencil(point, step: float = 1e-4, order: int = 3) -> np.ndarray:
    """The (S, m) central-difference stencil around one point (m,), laid
    out as in `_stencil_offsets`; `fd_derivatives` reads values on it."""
    if order not in (2, 3):
        raise InputError("order must be 2 or 3")
    point = np.asarray(point, dtype=float)
    centres, block = _stencil_offsets(point.shape[0], order)
    # the centre shift is added first, as in a Hessian at a shifted point
    Q = (point + step * centres)[:, None] + step * block
    return Q.reshape(-1, point.shape[0])


def fd_derivatives(F, m: int, step: float = 1e-4, order: int = 3):
    """Central finite differences from values F (..., S, N) of an N-vector
    map on the `fd_stencil` of m variables, with any leading axes: value,
    gradient, packed Hessian and (order 3, else None) packed third
    derivatives, variable axes last, O(step^2) truncation on every entry."""
    centres, block = _stencil_offsets(m, order)
    diag, off, plus, minus, jk = _fd_rows(m)
    F = np.asarray(F, dtype=float)
    # the stencil axis last, split into the centres' Hessian stencils
    F = F.swapaxes(-1, -2).reshape(F.shape[:-2] + (F.shape[-1], len(centres),
                                                   len(block)))
    f0, fp, fm = F[..., :1], F[..., 1:1 + m], F[..., 1 + m:1 + 2 * m]
    q = F[..., 1 + 2 * m:].reshape(F.shape[:-1] + (-1, 4))
    hess = np.empty(F.shape[:-1] + (len(diag) + len(off),))
    hess[..., diag] = (fp - 2 * f0 + fm) / step**2
    hess[..., off] = ((q[..., 0] - q[..., 1] - q[..., 2] + q[..., 3])
                      / (4 * step**2))
    grad = (F[..., 0, 1:1 + m] - F[..., 0, 1 + m:1 + 2 * m]) / (2 * step)
    # order 3: one difference per sorted index i <= j <= k, d_i of the
    # Hessian entry jk from the blocks centred at +e_i and -e_i
    third = (None if order == 2 else
             (hess[..., plus, jk] - hess[..., minus, jk]) / (2 * step))
    return F[..., 0, 0], grad, hess[..., 0, :], third


def fd_arrays(f, point, step: float = 1e-4, order: int = 3):
    """`fd_derivatives` of f on the `fd_stencil` at a point, where f maps
    a (K, m) stack of points to (K, N) values and is called once.  Only
    values of f are used, so this is independent of the Taylor path."""
    Q = fd_stencil(point, step, order)
    return fd_derivatives(f(Q), Q.shape[1], step, order)


def fd_oracle(f, point, step: float = 1e-4) -> Jet3:
    """Central finite-difference jet of a scalar function f of the walk
    arguments, from its values alone.

    Independent of the Taylor path; exists purely as a cross-check oracle.
    """
    def values(q):
        return np.broadcast_to(f(coordinates(q)), q.shape[:1])[:, None]

    value, grad, hess, third = fd_arrays(values, point, step)
    return Jet3(float(value[0]), grad[0], hess[0], third[0])
