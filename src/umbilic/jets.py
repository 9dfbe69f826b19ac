"""Order-3 truncated Taylor arithmetic over a small number of chart variables.

A Jet3 carries the value, gradient, Hessian and (optionally) the symmetric
third-derivative tensor of a scalar quantity.  Arithmetic implements the
exact sum/product/chain rules, so derivatives of expression trees are exact
up to rounding.  One walk, `Expr.eval`, serves every use: floats in give the
value, jets in give the jet, and jets of an inner map in give the jets of a
composition.  A central finite-difference oracle, which uses only float
evaluation, is provided as an independent cross-check.
"""
from __future__ import annotations

import functools
import math

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


def _sym(t: np.ndarray) -> np.ndarray:
    """Copy each sorted-index entry to all of its index permutations
    (canonical storage of a symmetric tensor)."""
    return t.reshape(-1)[_sorted_positions(t.shape[0], t.ndim)]


class Jet3:
    """Truncated Taylor expansion: value, grad (m,), hess (m,m), third (m,m,m).

    `third` is None when the jet was built at order 2.
    """

    __slots__ = ("value", "grad", "hess", "third")

    def __init__(self, value, grad, hess, third=None):
        self.value = float(value)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = np.asarray(hess, dtype=float)
        self.third = None if third is None else np.asarray(third, dtype=float)

    @property
    def order(self) -> int:
        return 2 if self.third is None else 3

    @classmethod
    def constant(cls, c: float, m: int, order: int = 3) -> "Jet3":
        third = np.zeros((m, m, m)) if order == 3 else None
        return cls(c, np.zeros(m), np.zeros((m, m)), third)

    @classmethod
    def variable(cls, index: int, value: float, m: int, order: int = 3) -> "Jet3":
        g = np.zeros(m)
        g[index] = 1.0
        third = np.zeros((m, m, m)) if order == 3 else None
        return cls(value, g, np.zeros((m, m)), third)

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
        value = self.value * o.value
        grad = self.value * o.grad + o.value * self.grad
        hess = _sym(self.value * o.hess + o.value * self.hess
                    + np.outer(self.grad, o.grad) + np.outer(o.grad, self.grad))
        third = None
        if self.third is not None:
            def mixed(h, g):
                # H_ij g_k + H_jk g_i + H_ik g_j
                t = np.multiply.outer(h, g)
                return t + np.transpose(t, (2, 0, 1)) + np.transpose(t, (0, 2, 1))
            third = _sym(self.value * o.third + o.value * self.third
                         + mixed(self.hess, o.grad) + mixed(o.hess, self.grad))
        return Jet3(value, grad, hess, third)

    __rmul__ = __mul__

    def apply(self, d0, d1, d2, d3) -> "Jet3":
        """Chain rule for a scalar function with derivatives d0..d3 at value."""
        g = self.grad
        grad = d1 * g
        hess = _sym(d2 * np.outer(g, g) + d1 * self.hess)
        third = None
        if self.third is not None:
            gg = np.outer(g, g)
            t1 = d3 * np.multiply.outer(gg, g)
            t2 = np.multiply.outer(self.hess, g)
            t2 = t2 + np.transpose(t2, (2, 0, 1)) + np.transpose(t2, (0, 2, 1))
            third = _sym(t1 + d2 * t2 + d1 * self.third)
        return Jet3(d0, grad, hess, third)


# ---------------------------------------------------------------------------
# Expression trees
# ---------------------------------------------------------------------------

class Expr:
    """Immutable expression tree over chart variables u_0..u_{m-1}."""

    def eval(self, args):
        """Walk the tree with args[i] in place of u_i.

        Floats in give a float; Jet3s in give a Jet3 (or a float for a
        subtree that reads no variable).  Seeding with the jets of an inner
        map gives the jets of the composition.
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


def _reciprocal_derivs(t):
    if abs(t) <= DIV_EPS:
        raise DomainError(f"division by value {t!r} within 1e-12 of zero")
    return 1.0 / t, -1.0 / t**2, 2.0 / t**3, -6.0 / t**4


def _lift(derivs, x):
    """Apply a scalar function, given by its derivatives d0..d3, to a float
    or a jet."""
    if isinstance(x, Jet3):
        return x.apply(*derivs(x.value))
    return derivs(x)[0]


class Div(_Binary):
    def eval(self, args):
        return self.left.eval(args) * _lift(_reciprocal_derivs,
                                            self.right.eval(args))


def _sqrt_derivs(t):
    if t <= 0.0:
        raise DomainError(f"sqrt argument {t!r} is not strictly positive")
    s = math.sqrt(t)
    return s, 0.5 / s, -0.25 / (s * t), 0.375 / (s * t * t)


_FUNCS = {
    "sqrt": _sqrt_derivs,
    "sin": lambda t: (math.sin(t), math.cos(t), -math.sin(t), -math.cos(t)),
    "cos": lambda t: (math.cos(t), -math.sin(t), -math.cos(t), math.sin(t)),
    "sinh": lambda t: (math.sinh(t), math.cosh(t), math.sinh(t), math.cosh(t)),
    "cosh": lambda t: (math.cosh(t), math.sinh(t), math.cosh(t), math.sinh(t)),
}


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


def evaluate(exprs, point, order: int = 3,
             max_vars: int = MAX_VARS) -> list[Jet3]:
    """Jets of one or several expressions at a point.

    Derivatives are exact Taylor arithmetic, no truncation error.  Raises
    DomainError naming the offending output coordinate when the point falls
    outside an expression's domain.
    """
    single = isinstance(exprs, Expr)
    expr_list = [exprs] if single else list(exprs)
    point = np.asarray(point, dtype=float)
    m = point.shape[0]
    if m > max_vars:
        raise InputError(f"{m} chart variables exceeds the cap of {max_vars}")
    if order not in (2, 3):
        raise InputError("order must be 2 or 3")
    var_jets = [Jet3.variable(i, point[i], m, order) for i in range(m)]
    out = eval_jets(expr_list, var_jets, m, order)
    return out[0] if single else out


def eval_jets(exprs, seeds: list[Jet3], m: int, order: int) -> list[Jet3]:
    """Jets of each expression walked on seed jets over m chart variables.

    Seeds are the variables' own jets (see `evaluate`) or the jets of an
    inner map, which gives the jets of the composition.  A coordinate that
    reads no variable becomes a constant jet.  Raises DomainError naming
    the offending coordinate.
    """
    out = []
    for k, e in enumerate(exprs):
        try:
            j = e.eval(seeds)
        except DomainError as err:
            raise DomainError(f"coordinate {k}: {err}") from err
        out.append(j if isinstance(j, Jet3) else Jet3.constant(j, m, order))
    return out


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def fd_arrays(f, point, step: float = 1e-4):
    """Central finite differences of f (float or array valued) at a point.

    Returns value, gradient, Hessian and third-derivative arrays with the
    variable axes last, O(step^2) truncation on every entry.  Only values
    of f are used, so this is independent of the Taylor path.
    """
    point = np.asarray(point, dtype=float)
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

    hess = fd_hess(point)
    d = np.stack([(fd_hess(shift(point, i, h)) - fd_hess(shift(point, i, -h)))
                  / (2 * h) for i in range(m)], axis=-3)
    # one difference per sorted index i <= j <= k, copied to every
    # permutation so the tensor is exactly symmetric
    third = d.reshape(value.shape + (-1,))[..., _sorted_positions(m, 3)]
    return value, grad, hess, third


def fd_oracle(expr: Expr, point, step: float = 1e-4) -> Jet3:
    """Central finite-difference jet of one expression from float evaluation.

    Independent of the Taylor path; exists purely as a cross-check oracle.
    """
    return Jet3(*fd_arrays(lambda p: expr.eval(p.tolist()), point, step))
