"""Immersion charts into flat coordinate space forms.

A chart is a jet-evaluable map from an open box of chart coordinates into
the flat embedding space of an ambient space form (flat space itself, a
unit pseudo-sphere, or a unit pseudo-hyperbolic space).  A chart is one
coordinate function of its walk arguments, walked at order 3 for every
use.  A composition of charts is the composed function.  An image L f of
a chart f under a linear map L of the flat space has f's coordinate
function followed by `linear_chart`'s rule, but is not walked again: its
jets and values are L applied to f's.  A chart remembers its last jet walk
and its last values, keyed by the points, and hands them out read-only.
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

    def weights(self) -> np.ndarray:
        """The diagonal of the flat embedding metric, read-only and built
        once per signature."""
        return _flat_weights(self.signature)

    @classmethod
    def flat(cls, n: int, p: int) -> "AmbientSpace":
        return cls(0, n, p, Signature(p, n - p))

    @classmethod
    def sphere(cls, n: int, p: int) -> "AmbientSpace":
        return cls(1, n, p, Signature(p, n + 1 - p))

    @classmethod
    def hyperbolic(cls, n: int, p: int) -> "AmbientSpace":
        return cls(-1, n, p, Signature(p + 1, n - p))


@functools.cache
def _flat_weights(signature: Signature) -> np.ndarray:
    w = signature.weights()
    w.setflags(write=False)
    return w


class ImmersionChart:
    """Base class: a map from an nvars-dimensional box into flat coordinates;
    a subclass supplies `jet_list` (the order-3 jets of each coordinate at
    a (P, m) stack of points) and `value`."""

    def __init__(self, nvars: int, ambient: AmbientSpace,
                 box: np.ndarray | None = None, name: str = ""):
        self.nvars = nvars
        self.ambient = ambient
        if box is None:
            box = np.tile([-0.5, 0.5], (nvars, 1))
        self.box = np.asarray(box, dtype=float).reshape(nvars, 2)
        self.name = name
        self._memo = {}   # slot -> (points key, its read-only results)

    # -- evaluation -------------------------------------------------------
    # Every evaluation takes one point (m,) or a (P, m) stack of points,
    # walked once; results of a stack carry its leading point axis, and
    # one point is walked as a stack of one.
    def jet_arrays(self, points, order: int = 3):
        """(values (N,), jac (N,m), hess (N,T2), third (N,T3)), each with a
        leading (P,) axis for a (P, m) stack of points; hess and third are
        packed by sorted multi-index (see `jets.packed_indices`).  The walk
        is always order 3; `order=2` returns None for third.  The arrays
        are read-only, and a call at the points of the last walk returns
        that walk's arrays."""
        if order not in (2, 3):
            raise InputError("order must be 2 or 3")
        arrays = self._remember("jets", points, self._arrays)
        return arrays[:order + 1] + (None,) * (3 - order)

    def _remember(self, slot: str, points, compute):
        """compute(points), made read-only; the last result of a slot is
        kept, with the shape and bytes of its points, and returned again
        for equal points.  A compute that raises stores nothing."""
        points = np.asarray(points, dtype=float)
        key = (points.shape, points.tobytes())
        last = self._memo.get(slot)
        if last is not None and last[0] == key:
            return last[1]
        out = compute(points)
        for a in out if isinstance(out, tuple) else (out,):
            a.setflags(write=False)
        self._memo[slot] = (key, out)
        return out

    def _arrays(self, points) -> tuple:
        """The four order-3 jet arrays of `jet_arrays`, walked."""
        js = self.jet_list(points.reshape(-1, points.shape[-1]))
        out = []
        for name in ("value", "grad", "hess", "third"):
            # one C-contiguous (P, N, ...) layout for every stack, so that
            # the matrix products on a point's rows, and so its numbers, do
            # not depend on the rest of its stack
            rows = [getattr(j, name) for j in js]
            a = np.empty(rows[0].shape[:1] + (len(rows),) + rows[0].shape[1:])
            for k, row in enumerate(rows):
                a[:, k] = row
            out.append(a.reshape(points.shape[:-1] + a.shape[1:]))
        return tuple(out)

    def sample_points(self, count: int, seed: int = 42) -> np.ndarray:
        """Seeded draws lo + (hi - lo) U in the chart box, U a `unit_draw`."""
        lo, hi = self.box[:, 0], self.box[:, 1]
        return lo + (hi - lo) * unit_draw(seed, count, self.nvars)


@functools.lru_cache(maxsize=256)
def unit_draw(seed: int, count: int, m: int) -> np.ndarray:
    """`default_rng(seed).random((count, m))`, kept read-only for reuse."""
    U = np.random.default_rng(seed).random((count, m))
    U.setflags(write=False)
    return U


class ExprChart(ImmersionChart):
    """Chart given by one function of the walk arguments: `coords(u)` maps
    a list u of nvars arguments (arrays of point values or `Jet3`s) to the
    list of ambient coordinates, a float for a constant one."""

    def __init__(self, coords, nvars: int, ambient: AmbientSpace,
                 box=None, name: str = ""):
        super().__init__(nvars, ambient, box, name)
        self.coords = coords

    def walk(self, args) -> list:
        """The coordinates on walk arguments, one per flat dimension."""
        out = self.coords(args)
        if len(out) != self.ambient.flat_dim:
            raise InputError(f"{len(out)} coordinates for flat dimension "
                             f"{self.ambient.flat_dim}")
        return out

    def jet_list(self, points):
        return J.evaluate(self.walk, points)

    def value(self, points):
        """The image points (N,), or (P, N) for a (P, m) stack, read-only;
        a call at the points of the last call returns its array."""
        return self._remember("value", points, self._values)

    def _values(self, points):
        args = J.coordinates(points)
        # an overflow gives inf or nan without a warning, as floats do
        with np.errstate(all="ignore"):
            coords = self.walk(args)
        out = np.empty((len(args[0]), len(coords)))
        for k, c in enumerate(coords):
            out[:, k] = c
        return out.reshape(points.shape[:-1] + out.shape[1:])


class CompositeChart(ExprChart):
    """Pointwise composition outer(inner(u)): the outer chart's coordinate
    function walked on the inner chart's, so values and jets come from the
    one walk like any other chart's."""

    def __init__(self, outer: ExprChart, inner: ExprChart, name: str = ""):
        if inner.ambient.flat_dim != outer.nvars:
            raise InputError(
                f"inner produces {inner.ambient.flat_dim} coordinates but the "
                f"outer chart has {outer.nvars} variables")
        super().__init__(lambda u: outer.walk(inner.walk(u)), inner.nvars,
                         outer.ambient, inner.box,
                         name or f"{outer.name}*{inner.name}")

    # the inherited walk, bound here too: perfbench/tracing.py times
    # composite walks apart by wrapping vars(CompositeChart)["jet_list"]
    jet_list = ExprChart.jet_list


def stack_key(chart: ExprChart):
    """Charts with one key differ at most in the float constants of their
    coordinate function, the keywords of a `functools.partial`: one walk
    of `stack_charts` serves them all.  Any other chart is its own key."""
    f = chart.coords
    if not isinstance(f, functools.partial):
        return chart
    return (f.func, f.args, chart.nvars, chart.ambient,
            tuple((k, v) for k, v in f.keywords.items()
                  if not isinstance(v, float)))


def stack_charts(charts: list, counts: list) -> ExprChart:
    """One chart for charts of one `stack_key`, to be walked once on their
    points stacked in order, counts[k] of them for charts[k]: each float
    constant becomes an array of one value per point, so every point is
    walked with its own chart's constants.  A single chart is itself."""
    first = charts[0]
    if len(charts) == 1:
        return first
    f = first.coords
    consts = {k: np.repeat([c.coords.keywords[k] for c in charts], counts)
              if isinstance(v, float) else v for k, v in f.keywords.items()}
    return ExprChart(functools.partial(f.func, *f.args, **consts),
                     first.nvars, first.ambient, first.box, first.name)


def compose(outer: ExprChart, inner: ExprChart) -> CompositeChart:
    """Chart composition; the inner image must stay inside the outer domain."""
    return CompositeChart(outer, inner)


def _combine(rows, xs) -> list:
    """matrix @ xs for the rows of a matrix as lists: each coordinate adds
    c * xs[i] to 0.0 over the nonzero c of its row, in order.  A term is an
    array or a jet, or a float where xs[i] is a constant coordinate."""
    return [sum((c * xs[i] for i, c in enumerate(row) if c != 0.0), 0.0)
            for row in rows]


def linear_chart(matrix: np.ndarray, ambient: AmbientSpace) -> ExprChart:
    """Chart u -> matrix @ u (rows of `matrix` give ambient coordinates),
    by the rule of `_combine`."""
    matrix = np.asarray(matrix, dtype=float)
    rows = matrix.tolist()
    return ExprChart(lambda u: _combine(rows, u), matrix.shape[1], ambient,
                     name="linear")


class ImageChart(ExprChart):
    """The image L f of a chart f under a linear map L of its flat space:
    f's coordinate function followed by `linear_chart`'s rule, whose jets
    and values are L applied along the N axis of f's, so f's remembered
    walk serves it."""

    def __init__(self, chart: ExprChart, matrix: np.ndarray):
        rows = matrix.tolist()
        super().__init__(lambda u: _combine(rows, chart.walk(u)), chart.nvars,
                         chart.ambient, chart.box, chart.name + "~L")
        self.chart, self.matrix = chart, matrix

    # einsum, not a matrix product: a point's numbers stay those of the
    # point alone, whatever its stack
    def _arrays(self, points) -> tuple:
        c = self.chart
        val, *rest = c._remember("jets", points, c._arrays)
        return (np.einsum("ij,...j->...i", self.matrix, val),
                *(np.einsum("ij,...jk->...ik", self.matrix, a) for a in rest))

    # einsum sets no floating-point flags: a non-finite value gives inf or
    # nan without a warning, as the chart's own values do
    def _values(self, points):
        c = self.chart
        return np.einsum("ij,...j->...i", self.matrix,
                         c._remember("value", points, c._values))


def transform_chart(chart: ExprChart, matrix: np.ndarray) -> ImageChart:
    """Post-compose a chart with a linear map of its flat embedding space."""
    matrix = np.array(matrix, dtype=float)   # the image's own copy
    if matrix.shape != (chart.ambient.flat_dim,) * 2:
        raise InputError("transform matrix does not match the embedding dimension")
    return ImageChart(chart, matrix)


def fd_jet_arrays(chart: ImmersionChart, point, step: float = 1e-4,
                  order: int = 3):
    """Finite-difference analogue of jet_arrays at one point, in the same
    packed layout, from one evaluation of the chart's values on the whole
    stencil."""
    return J.fd_arrays(chart.value, point, step, order)


def quadric_residual(w: np.ndarray, eps, values):
    """|<y,y> - eps| at each image point y of (..., N) values, for the
    diagonal weights w (..., N) of the flat metric and the curvature sign
    eps (...) of each point; 0 at a flat point, NaN at another point where
    the image is not finite."""
    return np.where(eps == 0, 0.0, np.abs(
        np.einsum("...n,...n,...n->...", values, w, values) - eps))
