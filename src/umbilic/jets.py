"""Order-3 truncated Taylor arithmetic over a small number of chart variables.

A Jet3 carries the value, gradient, Hessian and (optionally) the symmetric
third-derivative tensor of a scalar quantity.  Arithmetic implements the
exact sum/product/chain rules, so derivatives of expression trees are exact
up to rounding.  One walk, `Expr.eval`, serves every use: point values in
give the values, jets in give the jet, and jets of an inner map in give the
jets of a composition.  The walk takes arrays of point values, so one walk
covers a whole stack of points and every jet carries a leading point axis;
a single point is walked as a stack of one.  A central finite-difference
oracle, which uses only value evaluation, is provided as an independent
cross-check.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, InputError

MAX_VARS = 6
DIV_EPS = 1e-12


@functools.cache
def _sorted_positions(m: int, rank: int) -> np.ndarray:
    """Flat position of the sorted permutation of every multi-index of a
    rank-`rank` tensor over m variables."""
    shape = (m,) * rank
    idx = np.sort(np.indices(shape).reshape(rank, -1), axis=0)
    pos = np.ravel_multi_index(idx, shape).reshape(shape)
    pos.setflags(write=False)
    return pos


def _sym(t: np.ndarray, rank: int | None = None) -> np.ndarray:
    """Copy each sorted-index entry of the trailing `rank` axes (all axes
    by default) to all of its index permutations (canonical storage of a
    symmetric tensor)."""
    rank = t.ndim if rank is None else rank
    lead = t.shape[:-rank]
    return t.reshape(lead + (-1,))[..., _sorted_positions(t.shape[-1], rank)]


def _lead(v):
    """A (P,) value broadcast against grad, hess and third: as (P, 1),
    (P, 1, 1) and (P, 1, 1, 1)."""
    v1 = v[..., None]
    v2 = v1[..., None]
    return v1, v2, v2[..., None]


def _outer(a, b):
    """a_i b_j over the trailing axes, for every leading point."""
    return a[..., :, None] * b[..., None, :]


def _mixed(h, g):
    """H_ij g_k + H_jk g_i + H_ik g_j over the trailing axes."""
    t = h[..., None] * g[..., None, None, :]
    return t + t.swapaxes(-1, -2).swapaxes(-2, -3) + t.swapaxes(-1, -2)


class Jet3:
    """Truncated Taylor expansion: value, grad (m,), hess (m,m), third (m,m,m).

    A jet of P points at once carries a leading point axis: value (P,),
    grad (P, m), hess (P, m, m), third (P, m, m, m); `jet[k]` is the jet
    of point k alone.  `third` is None when the jet was built at order 2.
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
    def constant(cls, c: float, m: int, order: int, lead: tuple) -> "Jet3":
        third = np.zeros(lead + (m, m, m)) if order == 3 else None
        return cls(np.full(lead, c), np.zeros(lead + (m,)),
                   np.zeros(lead + (m, m)), third)

    @classmethod
    def variable(cls, index: int, value, m: int, order: int = 3) -> "Jet3":
        lead = np.shape(value)
        g = np.zeros(lead + (m,))
        g[..., index] = 1.0
        third = np.zeros(lead + (m, m, m)) if order == 3 else None
        return cls(value, g, np.zeros(lead + (m, m)), third)

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
        return Jet3(self.value * o.value, grad, hess, third)

    __rmul__ = __mul__

    def apply(self, d0, d1, d2, d3) -> "Jet3":
        """Chain rule for a scalar function with derivatives d0..d3 at value."""
        g = self.grad
        gg = _outer(g, g)
        (d1g, d1h, d1t), (_, d2h, d2t) = _lead(d1), _lead(d2)
        grad = d1g * g
        # g_i g_j is g_j g_i exactly, so the sum needs no symmetrization
        hess = d2h * gg + d1h * self.hess
        third = None
        if self.third is not None:
            d3t = _lead(d3)[2]
            third = _sym(d3t * (gg[..., None] * g[..., None, None, :])
                         + d2t * _mixed(self.hess, g) + d1t * self.third, 3)
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


def evaluate(exprs, points, order: int = 3,
             max_vars: int = MAX_VARS) -> list[Jet3]:
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
    if m > max_vars:
        raise InputError(f"{m} chart variables exceeds the cap of {max_vars}")
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
    as in `_stencil_moves`; returns (B, ..., m, m)."""
    f0, fp, fm = F[:, :1], F[:, 1:1 + m], F[:, 1 + m:1 + 2 * m]
    out = np.empty(F.shape[:1] + F.shape[2:] + (m, m))
    i = np.arange(m)
    out[..., i, i] = np.moveaxis((fp - 2 * f0 + fm) / h**2, 1, -1)
    iu, ju = np.triu_indices(m, 1)
    q = F[:, 1 + 2 * m:].reshape(F.shape[:1] + (-1, 4) + F.shape[2:])
    off = np.moveaxis((q[:, :, 0] - q[:, :, 1] - q[:, :, 2] + q[:, :, 3])
                      / (4 * h**2), 1, -1)
    out[..., iu, ju] = off
    out[..., ju, iu] = off
    return out


def fd_arrays(f, point, step: float = 1e-4, order: int = 3):
    """Central finite differences of f (float or array valued) at a point.

    f maps a (K, m) stack of points to a (K, ...) stack of values and is
    called once, on the whole stencil.  Returns value, gradient, Hessian
    and (order 3, else None) third-derivative arrays with the variable
    axes last, O(step^2) truncation on every entry.  Only values of f are
    used, so this is independent of the Taylor path.
    """
    if order not in (2, 3):
        raise InputError("order must be 2 or 3")
    point = np.asarray(point, dtype=float)
    m = point.shape[0]
    h = step
    nblocks, size, levels = _stencil_moves(m, order)
    Q = np.repeat(point[None], nblocks * size, axis=0)
    for rows, axes, signs in levels:
        Q[rows, axes] += signs * h
    F = np.asarray(f(Q), dtype=float)
    F = F.reshape((nblocks, size) + F.shape[1:])
    value = F[0, 0]
    grad = np.moveaxis((F[0, 1:1 + m] - F[0, 1 + m:1 + 2 * m]) / (2 * h), 0, -1)
    hessians = _fd_hessians(F, m, h)
    if order == 2:
        return value, grad, hessians[0], None
    d = np.moveaxis((hessians[1:1 + m] - hessians[1 + m:]) / (2 * h), 0, -3)
    # one difference per sorted index i <= j <= k, copied to every
    # permutation so the tensor is exactly symmetric
    return value, grad, hessians[0], _sym(d, 3)


def fd_oracle(expr: Expr, point, step: float = 1e-4) -> Jet3:
    """Central finite-difference jet of one expression from value evaluation.

    Independent of the Taylor path; exists purely as a cross-check oracle.
    """
    def f(q):
        return np.broadcast_to(expr.eval(coordinates(q)), q.shape[:1])

    value, grad, hess, third = fd_arrays(f, point, step)
    return Jet3(float(value), grad, hess, third)
