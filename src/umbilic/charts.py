"""Immersion charts into flat coordinate space forms.

A chart is a jet-evaluable map from an open box of chart coordinates into
the flat embedding space of an ambient space form (flat space itself, a
unit pseudo-sphere, or a unit pseudo-hyperbolic space).  Charts may be
expression-backed or compositions of other charts; in a composition the
inner chart's jets seed the walk of the outer chart's expressions, and an
isometric image is the composition with a linear chart.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import jets as J
from .bilinear import Signature
from .errors import InputError


@dataclass(frozen=True)
class AmbientSpace:
    """A space form of curvature epsilon embedded in flat coordinates.

    epsilon: 0 for flat space, +1 for the unit pseudo-sphere, -1 for the
    unit pseudo-hyperbolic space.  `n` is the space form's dimension and
    `p` its index; `signature` describes the flat embedding space (equal
    to (p, n-p) for epsilon=0, (p, n+1-p) for +1, (p+1, n+1-p) for -1).
    """

    epsilon: int
    n: int
    p: int
    signature: Signature

    def __post_init__(self):
        if self.epsilon not in (-1, 0, 1):
            raise InputError("epsilon must be -1, 0 or +1")
        expected_dim = self.n if self.epsilon == 0 else self.n + 1
        if self.signature.dim != expected_dim or self.signature.null != 0:
            raise InputError(
                f"embedding signature {self.signature} inconsistent with "
                f"epsilon={self.epsilon}, n={self.n}")

    @property
    def flat_dim(self) -> int:
        return self.signature.dim

    def metric(self) -> np.ndarray:
        """The flat embedding metric, built on first use and read-only."""
        return self._metric

    @functools.cached_property
    def _metric(self) -> np.ndarray:
        G = self.signature.metric()
        G.setflags(write=False)
        return G

    @classmethod
    def flat(cls, n: int, p: int) -> "AmbientSpace":
        return cls(0, n, p, Signature(p, n - p))

    @classmethod
    def sphere(cls, n: int, p: int) -> "AmbientSpace":
        return cls(1, n, p, Signature(p, n + 1 - p))

    @classmethod
    def hyperbolic(cls, n: int, p: int) -> "AmbientSpace":
        return cls(-1, n, p, Signature(p + 1, n - p))


class ImmersionChart:
    """Base class: a map from an nvars-dimensional box into flat coordinates."""

    def __init__(self, nvars: int, ambient: AmbientSpace,
                 box: np.ndarray | None = None, name: str = ""):
        self.nvars = nvars
        self.ambient = ambient
        if box is None:
            box = np.tile([-0.5, 0.5], (nvars, 1))
        self.box = np.asarray(box, dtype=float).reshape(nvars, 2)
        self.name = name

    # -- evaluation -------------------------------------------------------
    # Every evaluation takes one point (m,) or a (P, m) stack of points,
    # walked once; results of a stack carry its leading point axis, and
    # one point is walked as a stack of one.
    def jet_list(self, points, order: int = 3) -> list[J.Jet3]:
        """Jets of each ambient coordinate at a (P, m) stack of points."""
        raise NotImplementedError

    def jet_arrays(self, points, order: int = 3):
        """(values (N,), jac (N,m), hess (N,T2), third (N,T3) or None), each
        with a leading (P,) axis for a (P, m) stack of points; hess and
        third are packed by sorted multi-index (see `jets.packed_indices`)."""
        points = np.asarray(points, dtype=float)
        js = self.jet_list(points.reshape(-1, points.shape[-1]), order)
        out = []
        for name in ("value", "grad", "hess", "third"):
            if getattr(js[0], name) is None:
                out.append(None)
                continue
            # (N, P, ...) with the coordinates first, then (P, N, ...)
            a = np.array([getattr(j, name) for j in js]).swapaxes(0, 1)
            out.append(a.reshape(points.shape[:-1] + a.shape[1:]))
        return tuple(out)

    def value(self, points) -> np.ndarray:
        """Image (N,) of one point, or (P, N) of a stack."""
        raise NotImplementedError

    def sample_points(self, count: int, seed: int = 42) -> np.ndarray:
        """Seeded uniform draws in the chart box (rows are points)."""
        rng = np.random.default_rng(seed)
        lo, hi = self.box[:, 0], self.box[:, 1]
        return rng.uniform(lo, hi, size=(count, self.nvars))

    def sample_values(self, count: int, seed: int = 42) -> np.ndarray:
        return self.value(self.sample_points(count, seed))


class ExprChart(ImmersionChart):
    """Chart backed by one expression tree per ambient coordinate."""

    def __init__(self, exprs, nvars: int, ambient: AmbientSpace,
                 box=None, name: str = ""):
        super().__init__(nvars, ambient, box, name)
        self.exprs = [J.as_expr(e) for e in exprs]
        if len(self.exprs) != ambient.flat_dim:
            raise InputError(
                f"{len(self.exprs)} coordinate expressions for flat dimension "
                f"{ambient.flat_dim}")

    def jet_list(self, points, order: int = 3):
        return J.evaluate(self.exprs, points, order)

    def value(self, points):
        points = np.asarray(points, dtype=float)
        args = J.coordinates(points)
        out = np.empty((len(args[0]), len(self.exprs)))
        # an overflow gives inf or nan without a warning, as floats do
        with np.errstate(all="ignore"):
            for k, e in enumerate(self.exprs):
                out[:, k] = e.eval(args)
        return out.reshape(points.shape[:-1] + out.shape[1:])


class CompositeChart(ImmersionChart):
    """Pointwise composition outer(inner(u)).

    The inner chart's jets seed the walk of the outer chart's expressions.
    A composite outer is re-associated, outer.outer(outer.inner(inner(u))),
    so the outer chart is always expression-backed.
    """

    def __init__(self, outer: ImmersionChart, inner: ImmersionChart,
                 name: str = ""):
        if inner.ambient.flat_dim != outer.nvars:
            raise InputError(
                f"inner produces {inner.ambient.flat_dim} coordinates but the "
                f"outer chart has {outer.nvars} variables")
        super().__init__(inner.nvars, outer.ambient, inner.box,
                         name or f"{outer.name}*{inner.name}")
        if isinstance(outer, CompositeChart):
            outer, inner = outer.outer, CompositeChart(outer.inner, inner)
        self.outer = outer
        self.inner = inner

    def value(self, points):
        return self.outer.value(self.inner.value(points))

    def jet_list(self, points, order: int = 3):
        return J.eval_jets(self.outer.exprs, self.inner.jet_list(points, order),
                           self.nvars, order)


def compose(outer: ImmersionChart, inner: ImmersionChart) -> CompositeChart:
    """Chart composition; the inner image must stay inside the outer domain."""
    return CompositeChart(outer, inner)


def linear_chart(matrix: np.ndarray, ambient: AmbientSpace) -> ExprChart:
    """Chart u -> matrix @ u (rows of `matrix` give ambient coordinates)."""
    matrix = np.asarray(matrix, dtype=float)
    nvars = matrix.shape[1]
    vs = J.variables(nvars)
    exprs = []
    for row in matrix:
        acc = J.as_expr(0.0)
        for c, v in zip(row, vs):
            if c != 0.0:
                acc = acc + J.Const(c) * v
        exprs.append(acc)
    return ExprChart(exprs, nvars, ambient, name="linear")


def transform_chart(chart: ImmersionChart, matrix: np.ndarray) -> ImmersionChart:
    """Post-compose a chart with a linear map of its flat embedding space."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (chart.ambient.flat_dim,) * 2:
        raise InputError("transform matrix does not match the embedding dimension")
    return CompositeChart(linear_chart(matrix, chart.ambient), chart,
                          name=chart.name + "~L")


def fd_jet_arrays(chart: ImmersionChart, point, step: float = 1e-4,
                  order: int = 3):
    """Finite-difference analogue of jet_arrays at one point, in the same
    packed layout, from one evaluation of the chart's values on the whole
    stencil."""
    return J.fd_arrays(chart.value, point, step, order)


def ambient_residual(ambient: AmbientSpace, values):
    """Max deviation of <y,y> from epsilon over the image points y, one
    (N,) or a (P, N) stack (NaN when an image is not finite); a
    (..., P, N) stack gives one residual per leading index."""
    values = np.asarray(values)
    lead = values.shape[:-2]
    if ambient.epsilon == 0:
        return np.zeros(lead) if lead else 0.0
    w = np.diagonal(ambient.metric())
    dev = np.abs(np.einsum("...n,n,...n->...", values, w, values)
                 - ambient.epsilon).reshape(lead + (-1,)).max(-1)
    return dev if lead else float(dev)
