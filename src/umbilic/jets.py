"""Order-3 truncated Taylor arithmetic in the chart variables.

A Jet3 carries the value, gradient, Hessian and (optionally) the symmetric
third-derivative tensor of a scalar quantity.  Arithmetic implements the
exact sum/product/chain rules, so derivatives of expression trees are exact
up to rounding.  The symmetric tensors are stored packed: one entry per
sorted multi-index (`packed_indices`), m(m+1)/2 for the Hessian and
m(m+1)(m+2)/6 for the third derivatives, and `unpack` gives the full
tensor.  One walk, `Expr.eval`, serves every use: point values in give the
values, jets in give the jet, and jets of an inner map in give the jets of
a composition.  The walk takes arrays of point values, so one walk covers
a whole stack of points and every jet carries a leading point axis; a
single point is walked as a stack of one.  A central finite-difference
oracle, which uses only value evaluation, is provided as an independent
cross-check.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

from .errors import DomainError, InputError

DIV_EPS = 1e-12


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


def unpack(t: np.ndarray, rank: int, axis: int = -1) -> np.ndarray:
    """The full symmetric tensor of a packed one: the packed `axis` of t
    becomes `rank` axes of length m, each entry read from its sorted
    multi-index."""
    m = 0
    while packed_indices(m, rank).shape[1] < t.shape[axis]:
        m += 1
    return np.take(t, _positions(m, rank), axis=axis)


def _pair_var(h, g):
    """h_p g_k for every packed pair p and variable k, flattened to the
    layout of `split_triples`."""
    return (h[..., :, None] * g[..., None, :]).reshape(h.shape[:-1] + (-1,))


def _hess_grad(h, g):
    """h_ij g_k + h_jk g_i + h_ik g_j at each sorted triple i <= j <= k,
    from a packed Hessian and a gradient."""
    t = np.take(_pair_var(h, g), split_triples(g.shape[-1]), axis=-1)
    return t[..., 0, :] + t[..., 1, :] + t[..., 2, :]


class Jet3:
    """Truncated Taylor expansion: value, grad (m,), hess (T2,), third (T3,).

    hess and third are packed by sorted multi-index (T2 = m(m+1)/2,
    T3 = m(m+1)(m+2)/6, see `packed_indices`).  A jet of P points at once
    carries a leading point axis: value (P,), grad (P, m), hess (P, T2),
    third (P, T3); `jet[k]` is the jet of point k alone.  `third` is None
    when the jet was built at order 2.
    """

    __slots__ = ("value", "grad", "hess", "third")

    def __init__(self, value, grad, hess, third=None):
        self.value = value
        self.grad = grad
        self.hess = hess
        self.third = third

    @property
    def order(self) -> int:
        return 2 if self.third is None else 3

    def __getitem__(self, k) -> "Jet3":
        third = None if self.third is None else self.third[k]
        return Jet3(self.value[k], self.grad[k], self.hess[k], third)

    @classmethod
    def _zeros(cls, value, m: int, order: int) -> "Jet3":
        lead = np.shape(value)
        third = (np.zeros(lead + packed_indices(m, 3).shape[1:])
                 if order == 3 else None)
        return cls(value, np.zeros(lead + (m,)),
                   np.zeros(lead + packed_indices(m, 2).shape[1:]), third)

    @classmethod
    def constant(cls, c: float, m: int, order: int, lead: tuple) -> "Jet3":
        return cls._zeros(np.full(lead, c), m, order)

    @classmethod
    def variable(cls, index: int, value, m: int, order: int = 3) -> "Jet3":
        jet = cls._zeros(value, m, order)
        jet.grad[..., index] = 1.0
        return jet

    def __add__(self, other):
        if not isinstance(other, Jet3):
            return Jet3(self.value + other, self.grad, self.hess, self.third)
        third = None if self.third is None else self.third + other.third
        return Jet3(self.value + other.value, self.grad + other.grad,
                    self.hess + other.hess, third)

    __radd__ = __add__

    def __neg__(self):
        third = None if self.third is None else -self.third
        return Jet3(-self.value, -self.grad, -self.hess, third)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, o):
        if not isinstance(o, Jet3):
            third = None if self.third is None else o * self.third
            return Jet3(self.value * o, o * self.grad, o * self.hess, third)
        a, b = self.value[..., None], o.value[..., None]
        i, j = packed_indices(self.grad.shape[-1], 2)
        grad = a * o.grad + b * self.grad
        hess = (a * o.hess + b * self.hess + self.grad[..., i] * o.grad[..., j]
                + o.grad[..., i] * self.grad[..., j])
        third = None
        if self.third is not None:
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
        gg = g[..., i] * g[..., j]
        d1, d2 = d1[..., None], d2[..., None]
        grad = d1 * g
        hess = d2 * gg + d1 * self.hess
        third = None
        if self.third is not None:
            # (g_i g_j) g_k at each sorted triple, split as (ij, k)
            ggg = np.take(_pair_var(gg, g), split_triples(g.shape[-1])[0],
                          axis=-1)
            third = (d3[..., None] * ggg + d2 * _hess_grad(self.hess, g)
                     + d1 * self.third)
        return Jet3(d0, grad, hess, third)


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expr:
    """Immutable expression tree over chart variables u_0..u_{m-1}."""

    def eval(self, args):
        """Walk the tree with args[i] in place of u_i.

        Arrays of point values in give an array of values; Jet3s in give a
        Jet3.  A subtree that reads no variable gives a scalar.  Seeding
        with the jets of an inner map gives the jets of the composition.
        """
        raise NotImplementedError

    def substitute(self, replacements: list["Expr"]) -> "Expr":
        """Replace Var(i) by replacements[i], returning a new tree."""
        raise NotImplementedError

    def __add__(self, other):
        return Add(self, as_expr(other))

    def __radd__(self, other):
        return Add(as_expr(other), self)

    def __sub__(self, other):
        return Sub(self, as_expr(other))

    def __rsub__(self, other):
        return Sub(as_expr(other), self)

    def __mul__(self, other):
        return Mul(self, as_expr(other))

    def __rmul__(self, other):
        return Mul(as_expr(other), self)

    def __truediv__(self, other):
        return Div(self, as_expr(other))

    def __rtruediv__(self, other):
        return Div(as_expr(other), self)

    def __neg__(self):
        return Mul(Const(-1.0), self)


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    return Const(float(x))


class Const(Expr):
    def __init__(self, value: float):
        self.value = float(value)

    def eval(self, args):
        return self.value

    def substitute(self, replacements):
        return self


class Var(Expr):
    def __init__(self, index: int):
        self.index = index

    def eval(self, args):
        return args[self.index]

    def substitute(self, replacements):
        return replacements[self.index]


class _Binary(Expr):
    def __init__(self, left: Expr, right: Expr):
        self.left = left
        self.right = right

    def substitute(self, replacements):
        return type(self)(self.left.substitute(replacements),
                          self.right.substitute(replacements))


class Add(_Binary):
    def eval(self, args):
        return self.left.eval(args) + self.right.eval(args)


class Sub(_Binary):
    def eval(self, args):
        return self.left.eval(args) - self.right.eval(args)


class Mul(_Binary):
    def eval(self, args):
        return self.left.eval(args) * self.right.eval(args)


def _reject(bad, t, msg: str):
    """Raise DomainError with msg (formatting the argument) where `bad`
    holds; where the argument has several points, name the first
    offending one."""
    if np.any(bad):
        k = int(np.argmax(bad))
        where = f" at point {k}" if np.size(t) > 1 else ""
        raise DomainError(msg.format(float(np.ravel(t)[k])) + where)


def _reciprocal_derivs(t):
    _reject(abs(t) <= DIV_EPS, t, "division by value {!r} within 1e-12 of zero")
    return 1.0 / t, -1.0 / t**2, 2.0 / t**3, -6.0 / t**4


def _lift(derivs, x):
    """Apply a scalar function, given by its derivatives d0..d3, to a value
    or a jet."""
    if isinstance(x, Jet3):
        return x.apply(*derivs(x.value))
    return derivs(x)[0]


class Div(_Binary):
    def eval(self, args):
        return self.left.eval(args) * _lift(_reciprocal_derivs,
                                            self.right.eval(args))


def _sqrt_derivs(t):
    _reject(t <= 0.0, t, "sqrt argument {!r} is not strictly positive")
    s = np.sqrt(t)
    return s, 0.5 / s, -0.25 / (s * t), 0.375 / (s * t * t)


def _sin_derivs(t):
    s, c = np.sin(t), np.cos(t)
    return s, c, -s, -c


def _cos_derivs(t):
    c, s = np.cos(t), np.sin(t)
    return c, -s, -c, s


def _sinh_derivs(t):
    s, c = np.sinh(t), np.cosh(t)
    return s, c, s, c


def _cosh_derivs(t):
    c, s = np.cosh(t), np.sinh(t)
    return c, s, c, s


_FUNCS = {"sqrt": _sqrt_derivs, "sin": _sin_derivs, "cos": _cos_derivs,
          "sinh": _sinh_derivs, "cosh": _cosh_derivs}


class Func(Expr):
    def __init__(self, name: str, arg: Expr):
        if name not in _FUNCS:
            raise InputError(f"unknown function {name!r}")
        self.name = name
        self.arg = arg

    def eval(self, args):
        return _lift(_FUNCS[self.name], self.arg.eval(args))

    def substitute(self, replacements):
        return Func(self.name, self.arg.substitute(replacements))


def sqrt(x) -> Expr:
    return Func("sqrt", as_expr(x))


def sin(x) -> Expr:
    return Func("sin", as_expr(x))


def cos(x) -> Expr:
    return Func("cos", as_expr(x))


def sinh(x) -> Expr:
    return Func("sinh", as_expr(x))


def cosh(x) -> Expr:
    return Func("cosh", as_expr(x))


def variables(n: int) -> list[Var]:
    return [Var(i) for i in range(n)]


def indefinite_square(exprs: list[Expr], neg: int) -> Expr:
    """-sum of first `neg` squares + sum of the rest."""
    acc: Expr = Const(0.0)
    for i, e in enumerate(exprs):
        term = e * e
        acc = acc - term if i < neg else acc + term
    return acc


def coordinates(points) -> list:
    """Walk arguments for a (P, m) stack of points, or for one point (m,)
    as a stack of one: m contiguous (P,) arrays of point values."""
    points = np.asarray(points, dtype=float)
    return list(np.ascontiguousarray(points.reshape(-1, points.shape[-1]).T))


def evaluate(exprs, points, order: int = 3) -> list[Jet3]:
    """Jets of one or several expressions at a point or a (P, m) stack.

    A stack is walked once, every jet carrying a leading point axis; one
    point (m,) is walked as a stack of one and gives jets without it.
    Derivatives are exact Taylor arithmetic, no truncation error.  Raises
    DomainError naming the offending output coordinate (and, for a stack,
    point) when a point falls outside an expression's domain.
    """
    single = isinstance(exprs, Expr)
    expr_list = [exprs] if single else list(exprs)
    points = np.asarray(points, dtype=float)
    args = coordinates(points)
    m = len(args)
    if order not in (2, 3):
        raise InputError("order must be 2 or 3")
    var_jets = [Jet3.variable(i, args[i], m, order) for i in range(m)]
    out = eval_jets(expr_list, var_jets, m, order)
    if points.ndim == 1:
        out = [j[0] for j in out]
    return out[0] if single else out


def eval_jets(exprs, seeds: list[Jet3], m: int, order: int) -> list[Jet3]:
    """Jets of each expression walked on seed jets over m chart variables.

    Seeds are the variables' own jets (see `evaluate`) or the jets of an
    inner map, which gives the jets of the composition.  A coordinate that
    reads no variable becomes a constant jet with the seeds' point axis.
    Raises DomainError naming the offending coordinate.
    """
    lead = seeds[0].value.shape
    out = []
    for k, e in enumerate(exprs):
        try:
            j = e.eval(seeds)
        except DomainError as err:
            raise DomainError(f"coordinate {k}: {err}") from err
        out.append(j if isinstance(j, Jet3)
                   else Jet3.constant(j, m, order, lead))
    return out


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

@functools.cache
def _stencil_moves(m: int, order: int):
    """The central-difference stencil over m variables, as moves of the
    point: one (rows, axes, signs) triple per level of nested shifts.

    The stencil is laid out in blocks of one Hessian stencil each: the
    centre, +e_i, -e_i, then (+e_i+e_j, +e_i-e_j, -e_i+e_j, -e_i-e_j) for
    i < j.  Order 3 appends the blocks centred at +e_i, then at -e_i, whose
    centre shift is the first level, as in a Hessian of a shifted point.
    """
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
    levels = []
    for level in range(3):
        rows = [r for r, mv in enumerate(moves) if len(mv) > level]
        arrays = (np.array(rows, dtype=int),
                  np.array([moves[r][level][0] for r in rows], dtype=int),
                  np.array([moves[r][level][1] for r in rows]))
        for a in arrays:
            a.setflags(write=False)
        levels.append(arrays)
    return len(centres), len(block), levels


def _fd_hessians(F, m: int, h: float) -> np.ndarray:
    """Central-difference Hessians from values F (B, block, ...) laid out
    as in `_stencil_moves`; returns them packed, (B, ..., T2)."""
    f0, fp, fm = F[:, :1], F[:, 1:1 + m], F[:, 1 + m:1 + 2 * m]
    out = np.empty(F.shape[:1] + packed_indices(m, 2).shape[1:] + F.shape[2:])
    pos = _positions(m, 2)
    i = np.arange(m)
    out[:, pos[i, i]] = (fp - 2 * f0 + fm) / h**2
    iu, ju = np.triu_indices(m, 1)
    q = F[:, 1 + 2 * m:].reshape(F.shape[:1] + (-1, 4) + F.shape[2:])
    out[:, pos[iu, ju]] = ((q[:, :, 0] - q[:, :, 1] - q[:, :, 2] + q[:, :, 3])
                           / (4 * h**2))
    return np.moveaxis(out, 1, -1)


def fd_stencil(point, step: float = 1e-4, order: int = 3) -> np.ndarray:
    """The (S, m) central-difference stencil around one point (m,), laid
    out as in `_stencil_moves`; `fd_derivatives` reads values on it."""
    if order not in (2, 3):
        raise InputError("order must be 2 or 3")
    point = np.asarray(point, dtype=float)
    nblocks, size, levels = _stencil_moves(point.shape[0], order)
    Q = np.repeat(point[None], nblocks * size, axis=0)
    for rows, axes, signs in levels:
        Q[rows, axes] += signs * step
    return Q


def fd_derivatives(F, m: int, step: float = 1e-4, order: int = 3):
    """Central finite differences from values F (..., S, N) of an N-vector
    map on the `fd_stencil` of m variables, with any leading axes: value,
    gradient, packed Hessian and (order 3, else None) packed third
    derivatives, variable axes last, O(step^2) truncation on every entry."""
    h = step
    nblocks, size, _ = _stencil_moves(m, order)
    F = np.moveaxis(np.asarray(F, dtype=float), -2, 0)
    F = F.reshape((nblocks, size) + F.shape[1:])
    value = F[0, 0]
    grad = np.moveaxis((F[0, 1:1 + m] - F[0, 1 + m:1 + 2 * m]) / (2 * h), 0, -1)
    hessians = _fd_hessians(F, m, h)
    if order == 2:
        return value, grad, hessians[0], None
    # one difference per sorted index i <= j <= k: d_i of the Hessian
    # entry jk, from the blocks centred at +e_i and -e_i
    i, j, k = packed_indices(m, 3)
    jk = _positions(m, 2)[j, k]
    third = (hessians[1 + i, ..., jk] - hessians[1 + m + i, ..., jk]) / (2 * h)
    return value, grad, hessians[0], np.moveaxis(third, 0, -1)


def fd_arrays(f, point, step: float = 1e-4, order: int = 3):
    """`fd_derivatives` of f on the `fd_stencil` at a point, where f maps
    a (K, m) stack of points to (K, N) values and is called once.  Only
    values of f are used, so this is independent of the Taylor path."""
    Q = fd_stencil(point, step, order)
    return fd_derivatives(f(Q), Q.shape[1], step, order)


def fd_oracle(expr: Expr, point, step: float = 1e-4) -> Jet3:
    """Central finite-difference jet of one expression from value evaluation.

    Independent of the Taylor path; exists purely as a cross-check oracle.
    """
    def f(q):
        return np.broadcast_to(expr.eval(coordinates(q)), q.shape[:1])[:, None]

    value, grad, hess, third = fd_arrays(f, point, step)
    return Jet3(float(value[0]), grad[0], hess[0], third[0])
