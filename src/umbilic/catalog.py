"""Executable registry of the immersion families under verification.

Each entry couples a chart constructor (graph charts for curved factors,
polynomial charts for flat ones) with its parameter domain, flat embedding
signature and the properties the classification asserts for it.  Chart
coordinates follow the canonical order: negative block first, then
positive; degenerate chart factors always contribute the last chart
variable.  The graph families are rows of one table, and each lightlike
product is a null pair (t, base(u), t) over its base family at m-1.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bilinear import Signature
from .charts import AmbientSpace, ExprChart
from .errors import InputError
from .jets import Const, indefinite_square, sqrt, sin, cos, variables


@dataclass
class Expected:
    """Properties a family is asserted to have, checked by the verifier.

    `h_norm` is the exact squared norm of the space-form mean curvature
    when pinned to a value, `h_norm_range` an open interval otherwise.
    `discrepancy_allowed` maps field names to the set of values the
    verifier reports (instead of failing) when the computation disagrees
    with the catalog annotation.
    """

    radical_rank: int = 0
    totally_geodesic: bool = False
    totally_umbilical: bool = True
    minimal: bool = False
    marginally_trapped: bool = False
    h_norm: float | None = None
    h_norm_range: tuple[float, float] | None = None
    parallel: bool | None = None
    full: bool | None = None
    radical_contains_last_var: bool = False
    hull_dim: int | None = None
    translation_class: str | None = None
    rho: float | None = None
    discrepancy_allowed: dict[str, tuple] = field(default_factory=dict)


@dataclass
class FamilySpec:
    """One catalog entry: id, parameter defaults, chart builder, expectations."""

    id: str
    description: str
    defaults: dict
    build: Callable[[dict], ExprChart]
    expect: Callable[[dict], Expected]
    draw_params: Callable[[np.random.Generator], dict] | None = None

    @property
    def parametric(self) -> bool:
        return self.draw_params is not None


def _require(cond: bool, msg: str):
    if not cond:
        raise InputError(msg)


def _ball_box(k: int, radius: float) -> list:
    hw = radius / (2.0 * math.sqrt(k))
    return [[-hw, hw]] * k


_T_BOX = [-0.7, 0.7]
_FLAT_BOX = [-0.8, 0.8]


def _cone_box(k: int, s: int) -> list:
    """Box inside the positive-square-norm region of a k-variable cone chart."""
    box = [[-0.15, 0.15]] * s + [[1.0, 1.5]] + [[-0.25, 0.25]] * (k - s - 1)
    return box


def _sphere_exprs(vs, s: int, r2: float):
    """Graph chart of a pseudo-sphere of squared radius r2 and index s."""
    q = indefinite_square(vs, s)
    return [*vs, sqrt(Const(r2) - q)]


def _hyper_exprs(vs, s: int, r2: float):
    """Graph chart of a pseudo-hyperbolic space of curvature -1/r2, index s."""
    q = indefinite_square(vs, s)
    return [sqrt(Const(r2) + q), *vs]


def _cone_exprs(vs, s: int):
    """Graph chart of the lightcone over a k-variable base of index s."""
    q = indefinite_square(vs, s)
    return [sqrt(q), *vs]


def _null_graph_exprs(vs, s: int, a: float, b: float):
    """Flat null graph (q + a, u, q + b) with q the indefinite square of u."""
    q = indefinite_square(vs, s)
    return [q + Const(a), *vs, q + Const(b)]


def _ms(params, lift: int = 0, cone: bool = False) -> tuple[int, int]:
    """Validated (m, s) of a chart whose curved factor has m - lift variables.

    A cone factor needs a positive direction, so its index stays below its
    dimension.  Messages name the m and s that were passed.
    """
    m, s = int(params["m"]), int(params["s"])
    k = m - lift
    _require(k >= 1, f"m={m}: need m >= {1 + lift}")
    _require(0 <= s <= k - cone,
             f"index s={s} out of range for m={m} (need 0 <= s <= {k - cone})")
    return m, s


def _r(params, lo: float, hi: float) -> float:
    r = float(params["r"])
    _require(lo < r < hi, f"r={r} outside the open range ({lo}, {hi})")
    return r


def _draw_r(lo: float, hi: float):
    def draw(rng):
        return {"r": float(rng.uniform(lo, hi))}
    return draw


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Graph:
    """A graph family over m chart variables in `space(m + dn, s + dp)`.

    `coords(u, s, r)` gives the flat coordinates (r is None for a family
    without a radius); `r_range` is the radius's open range; `box` is
    "ball" (of radius r, or 1), "flat" or "cone".
    """

    space: Callable[[int, int], AmbientSpace]
    dn: int
    dp: int
    coords: Callable[[list, int, float | None], list]
    r_range: tuple[float, float] | None = None
    box: str = "ball"


def _graph_chart(g: _Graph, params: dict, name: str,
                 lift: int = 0) -> ExprChart:
    """The chart of a graph family over m - lift variables.

    `lift` is the number of chart variables a lightlike product adds
    around it; parameters are validated as passed.
    """
    m, s = _ms(params, lift, cone=g.box == "cone")
    r = None if g.r_range is None else _r(params, *g.r_range)
    k = m - lift
    if g.box == "ball":
        box = _ball_box(k, 1.0 if r is None else r)
    elif g.box == "flat":
        box = [_FLAT_BOX] * k
    else:
        box = _cone_box(k, s)
    return ExprChart(g.coords(variables(k), s, r), k,
                     g.space(k + g.dn, s + g.dp), box, name)


_S, _H, _E = AmbientSpace.sphere, AmbientSpace.hyperbolic, AmbientSpace.flat

_GRAPHS: dict[str, _Graph] = {
    # sphere-target families (curvature +1)
    "main1-1": _Graph(_S, 1, 0, lambda u, s, r:
                      _sphere_exprs(u, s, 1.0) + [Const(0.0)]),
    "main1-2": _Graph(_S, 1, 1, lambda u, s, r:
                      [Const(0.0)] + _sphere_exprs(u, s, 1.0)),
    "main1-3": _Graph(_S, 1, 0, lambda u, s, r: _sphere_exprs(u, s, r * r)
                      + [Const(math.sqrt(1 - r * r))], (0.0, 1.0)),
    "main1-4": _Graph(_S, 1, 1, lambda u, s, r: [Const(math.sqrt(r * r - 1))]
                      + _sphere_exprs(u, s, r * r), (1.0, math.inf)),
    "main1-5": _Graph(_S, 2, 1, lambda u, s, r:
                      [Const(1.0)] + _sphere_exprs(u, s, 1.0) + [Const(1.0)]),
    "main1-6": _Graph(_S, 1, 1, lambda u, s, r: _hyper_exprs(u, s, r * r)
                      + [Const(math.sqrt(1 + r * r))], (0.0, math.inf)),
    "main1-7": _Graph(_S, 1, 1, lambda u, s, r:
                      _null_graph_exprs(u, s, -0.75, -1.25), box="flat"),
    "light1-5": _Graph(_S, 1, 1, lambda u, s, r:
                       _cone_exprs(u, s) + [Const(1.0)], box="cone"),
    # hyperbolic-target families (curvature -1)
    "main2-1": _Graph(_H, 1, 0, lambda u, s, r:
                      _hyper_exprs(u, s, 1.0) + [Const(0.0)]),
    "main2-2": _Graph(_H, 1, 1, lambda u, s, r:
                      [Const(0.0)] + _hyper_exprs(u, s, 1.0)),
    "main2-3": _Graph(_H, 1, 1, lambda u, s, r: [Const(math.sqrt(1 - r * r))]
                      + _hyper_exprs(u, s, r * r), (0.0, 1.0)),
    "main2-4": _Graph(_H, 1, 0, lambda u, s, r: _hyper_exprs(u, s, r * r)
                      + [Const(math.sqrt(r * r - 1))], (1.0, math.inf)),
    "main2-5": _Graph(_H, 2, 1, lambda u, s, r:
                      [Const(1.0)] + _hyper_exprs(u, s, 1.0) + [Const(1.0)]),
    "main2-6": _Graph(_H, 1, 0, lambda u, s, r: [Const(math.sqrt(1 + r * r))]
                      + _sphere_exprs(u, s, r * r), (0.0, math.inf)),
    "main2-7": _Graph(_H, 1, 0, lambda u, s, r:
                      _null_graph_exprs(u, s, 1.25, 0.75), box="flat"),
    "light2-5": _Graph(_H, 1, 1, lambda u, s, r:
                       [Const(1.0)] + _cone_exprs(u, s), box="cone"),
    # flat-target families
    "akk-1": _Graph(_E, 1, 0, lambda u, s, r: [*u, Const(0.0)], box="flat"),
    "akk-2": _Graph(_E, 1, 0, lambda u, s, r: _sphere_exprs(u, s, r * r),
                    (0.0, math.inf)),
    "akk-3": _Graph(_E, 1, 1, lambda u, s, r: _hyper_exprs(u, s, r * r),
                    (0.0, math.inf)),
    "akk-4": _Graph(_E, 2, 1, lambda u, s, r:
                    _null_graph_exprs(u, s, 0.25, -0.25), box="flat"),
}
_GRAPHS["U-flat"] = _GRAPHS["akk-4"]  # a named instance of akk-4


# ---------------------------------------------------------------------------
# Lightlike product families
# ---------------------------------------------------------------------------

def _null_pair(base: _Graph, params: dict, name: str) -> ExprChart:
    """The null line times `base`: (t, base(u), t) over `base` at m-1.

    The degenerate variable t is the last chart variable and ranges over
    _T_BOX; the flat embedding gains one negative and one positive
    direction.
    """
    m = int(params["m"])
    # over one variable a cone is a line, not a genuinely curved factor
    _require(base.box != "cone" or m >= 3, f"m={m}: need m >= 3")
    core = _graph_chart(base, params, name, lift=1)
    t = variables(m)[-1]
    amb, sig = core.ambient, core.ambient.signature
    ambient = AmbientSpace(amb.epsilon, amb.n + 2, amb.p + 1,
                           Signature(sig.neg + 1, sig.pos + 1))
    return ExprChart([t, *core.exprs, t], m, ambient,
                     [*core.box.tolist(), _T_BOX], name)


# lightlike product -> its base (light1-1 and light2-1: the unit S and H)
_NULL_PAIRS: dict[str, _Graph] = {
    "light1-1": _Graph(_S, 0, 0, lambda u, s, r: _sphere_exprs(u, s, 1.0)),
    "light1-2": _GRAPHS["main1-3"],
    "light1-3": _GRAPHS["main1-4"],
    "light1-4": _GRAPHS["main1-6"],
    "light1-6": _GRAPHS["light1-5"],
    "light1-7": _GRAPHS["main1-5"],
    "light2-1": _Graph(_H, 0, 0, lambda u, s, r: _hyper_exprs(u, s, 1.0)),
    "light2-2": _GRAPHS["main2-3"],
    "light2-3": _GRAPHS["main2-4"],
    "light2-4": _GRAPHS["main2-6"],
    "light2-6": _GRAPHS["light2-5"],
    "light2-7": _GRAPHS["main2-5"],
}


def _table(fid: str) -> Callable[[dict], ExprChart]:
    """Chart builder of a graph or lightlike product family, named `fid`."""
    if fid in _GRAPHS:
        return functools.partial(_graph_chart, _GRAPHS[fid], name=fid)
    return functools.partial(_null_pair, _NULL_PAIRS[fid], name=fid)


# ---------------------------------------------------------------------------
# Special entries
# ---------------------------------------------------------------------------

def _psi_a(p):
    m, s = _ms(p)
    a = float(p["a"])
    vs = variables(m)
    exprs = [Const(a)] + _sphere_exprs(vs, s, 1.0) + [Const(a)]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 2, s + 1),
                     _ball_box(m, 1.0), "psi-a")


def _s_example(p):
    m, s = _ms(p)
    vs = variables(m + 1)
    t = vs[0]
    mids = vs[1:]
    q = indefinite_square(mids, s)
    exprs = [Const(-0.5) * q, t, *mids, t, Const(1.0) - Const(0.5) * q]
    box = [_T_BOX] + [_FLAT_BOX] * m
    return ExprChart(exprs, m + 1, AmbientSpace.sphere(m + 3, s + 2),
                     box, "S-example")


def _s_theta(p):
    m = int(p["m"])
    _require(m >= 1, "m must be >= 1")
    theta = float(p["theta"])
    ct, st = math.cos(theta), math.sin(theta)
    vs = variables(m + 1)
    xs, rr = vs[:-1], vs[-1]
    q = indefinite_square(xs, 0)
    rho = rr - Const(theta)
    exprs = [
        Const(-0.5 * ct) * q - Const(st) * rho,
        Const(-0.5 * st) * q + Const(ct) * rho,
        *xs,
        Const(0.5 * st) * (Const(2.0) - q) + Const(ct) * rho,
        Const(0.5 * ct) * (Const(2.0) - q) - Const(st) * rho,
    ]
    box = [_FLAT_BOX] * m + [[theta - 0.7, theta + 0.7]]
    return ExprChart(exprs, m + 1, AmbientSpace.sphere(m + 3, 2),
                     box, "S-theta")


def _flat_lightcone(p):
    n, s = int(p["n"]), int(p["s"])
    _require(n >= 2 and 0 <= s <= n - 1, "need n >= 2 and 0 <= s <= n-1")
    vs = variables(n)
    return ExprChart(_cone_exprs(vs, s), n, AmbientSpace.flat(n + 1, s + 1),
                     _cone_box(n, s), "lightcone-L")


def _plane(p):
    s, t, r = int(p["s"]), int(p["t"]), int(p["rad"])
    _require(s >= 0 and t >= 0 and r >= 1, "need s,t >= 0 and rad >= 1")
    vs = variables(s + t + r)
    xs, ys, zs = vs[:s], vs[s:s + t], vs[s + t:]
    exprs = [*zs, *xs, *ys, *zs]
    n = s + t + 2 * r
    return ExprChart(exprs, s + t + r, AmbientSpace.flat(n, r + s),
                     [_FLAT_BOX] * (s + t + r), "plane-P")


def _cv_parallel(p):
    a = float(p["a"])
    _require(a > 0, "a must be positive")
    u, v = variables(2)
    w = v * v + Const(a * a)
    exprs = [w - Const(0.75), Const(a) * cos(u), Const(a) * sin(u),
             v, w - Const(1.25)]
    return ExprChart(exprs, 2, AmbientSpace.sphere(4, 1),
                     [[-2.0, 2.0], [-1.0, 1.0]], "cv-parallel")


def _clifford(p):
    u, v = variables(2)
    c = 1.0 / math.sqrt(2.0)
    exprs = [Const(c) * cos(u), Const(c) * sin(u),
             Const(c) * cos(v), Const(c) * sin(v)]
    return ExprChart(exprs, 2, AmbientSpace.sphere(3, 0),
                     [[-2.0, 2.0], [-2.0, 2.0]], "clifford-control")


def _cubic(p):
    u, v = variables(2)
    exprs = [u, v, u * u * u]
    return ExprChart(exprs, 2, AmbientSpace.flat(3, 0),
                     [[0.3, 1.0], [-1.0, 1.0]], "cubic-graph-control")


# ---------------------------------------------------------------------------
# Expectation records
# ---------------------------------------------------------------------------

def _geodesic_expected(p, hull_dim):
    return Expected(totally_geodesic=True, totally_umbilical=True,
                    minimal=True, h_norm=0.0, parallel=True, full=False,
                    hull_dim=hull_dim, translation_class="linear")


def _umbilical_expected(h_norm, h_range, cls, rho, hull_dim,
                        marginally_trapped=False):
    return Expected(totally_umbilical=True, h_norm=h_norm,
                    h_norm_range=h_range, marginally_trapped=marginally_trapped,
                    parallel=True, full=True, hull_dim=hull_dim,
                    translation_class=cls, rho=rho)


def _degenerate_expected(rank, geodesic=False, has_t=True):
    return Expected(radical_rank=rank, totally_geodesic=geodesic,
                    totally_umbilical=True, minimal=geodesic,
                    full=True, radical_contains_last_var=has_t)


_REGISTRY: dict[str, FamilySpec] = {}


def _add(id, description, defaults, expect, draw=None, build=None):
    """Register a family; `build` defaults to the table's chart builder."""
    _REGISTRY[id] = FamilySpec(id, description, defaults,
                               build or _table(id), expect, draw)


_MS = {"m": 2, "s": 0}


_add("main1-1", "totally geodesic sphere, spacelike normal", dict(_MS),
     lambda p: _geodesic_expected(p, p["m"] + 1))
_add("main1-2", "totally geodesic sphere, timelike normal", dict(_MS),
     lambda p: _geodesic_expected(p, p["m"] + 1))
_add("main1-3", "small sphere at spacelike height", {**_MS, "r": 0.5},
     lambda p: _umbilical_expected((1 - p["r"] ** 2) / p["r"] ** 2,
                                   (0.0, math.inf), "v_S",
                                   math.sqrt(1 - p["r"] ** 2), p["m"] + 1),
     _draw_r(0.15, 0.85))
_add("main1-4", "large sphere at timelike height", {**_MS, "r": 2.0},
     lambda p: _umbilical_expected((1 - p["r"] ** 2) / p["r"] ** 2,
                                   (-1.0, 0.0), "v_T",
                                   math.sqrt(p["r"] ** 2 - 1), p["m"] + 1),
     _draw_r(1.2, 3.0))
_add("main1-5", "null-offset sphere, codimension two", dict(_MS),
     lambda p: _umbilical_expected(0.0, None, "v_L", None, p["m"] + 1,
                                   marginally_trapped=True))
_add("main1-6", "hyperbolic slice of the sphere", {**_MS, "r": 1.0},
     lambda p: _umbilical_expected(-(1 + p["r"] ** 2) / p["r"] ** 2,
                                   (-math.inf, -1.0), "v_S",
                                   math.sqrt(1 + p["r"] ** 2), p["m"] + 1),
     _draw_r(0.3, 2.0))
_add("main1-7", "flat null graph inside the sphere", dict(_MS),
     lambda p: _umbilical_expected(-1.0, None, "+N", None, p["m"] + 1))

_add("main2-1", "totally geodesic hyperbolic slice, spacelike normal",
     dict(_MS), lambda p: _geodesic_expected(p, p["m"] + 1))
_add("main2-2", "totally geodesic hyperbolic slice, timelike normal",
     dict(_MS), lambda p: _geodesic_expected(p, p["m"] + 1))
_add("main2-3", "small hyperbolic slice at timelike height", {**_MS, "r": 0.5},
     lambda p: _umbilical_expected(-(1 - p["r"] ** 2) / p["r"] ** 2,
                                   (-math.inf, 0.0), "v_T",
                                   math.sqrt(1 - p["r"] ** 2), p["m"] + 1),
     _draw_r(0.15, 0.85))
_add("main2-4", "large hyperbolic slice at spacelike height", {**_MS, "r": 2.0},
     lambda p: _umbilical_expected((p["r"] ** 2 - 1) / p["r"] ** 2,
                                   (0.0, 1.0), "v_S",
                                   math.sqrt(p["r"] ** 2 - 1), p["m"] + 1),
     _draw_r(1.2, 3.0))
_add("main2-5", "null-offset hyperbolic slice, codimension two", dict(_MS),
     lambda p: _umbilical_expected(0.0, None, "v_L", None, p["m"] + 1,
                                   marginally_trapped=True))
_add("main2-6", "spherical slice of the hyperbolic space", {**_MS, "r": 1.0},
     lambda p: _umbilical_expected((1 + p["r"] ** 2) / p["r"] ** 2,
                                   (1.0, math.inf), "v_T",
                                   math.sqrt(1 + p["r"] ** 2), p["m"] + 1),
     _draw_r(0.3, 2.0))
_add("main2-7", "flat null graph inside the hyperbolic space", dict(_MS),
     lambda p: _umbilical_expected(1.0, None, "+N", None, p["m"] + 1))

_add("akk-1", "flat totally geodesic subspace", dict(_MS),
     lambda p: Expected(totally_geodesic=True, totally_umbilical=True,
                        minimal=True, h_norm=0.0, parallel=True, full=False,
                        hull_dim=p["m"], translation_class="linear"))
_add("akk-2", "round pseudo-sphere in flat space", {**_MS, "r": 1.0},
     lambda p: _umbilical_expected(1.0 / p["r"] ** 2, (0.0, math.inf),
                                   "linear", None, p["m"] + 1),
     _draw_r(0.5, 2.0))
_add("akk-3", "pseudo-hyperbolic space in flat space", {**_MS, "r": 1.0},
     lambda p: _umbilical_expected(-1.0 / p["r"] ** 2, (-math.inf, 0.0),
                                   "linear", None, p["m"] + 1),
     _draw_r(0.5, 2.0))
_add("akk-4", "flat marginally trapped null graph", dict(_MS),
     lambda p: _umbilical_expected(0.0, None, "+N", None, p["m"] + 1,
                                   marginally_trapped=True))
_add("U-flat", "flat marginally trapped null graph (named instance)",
     dict(_MS),
     lambda p: _umbilical_expected(0.0, None, "+N", None, p["m"] + 1,
                                   marginally_trapped=True))

_add("light1-1", "degenerate product over a sphere, totally geodesic",
     dict(_MS), lambda p: _degenerate_expected(1, geodesic=True))
_add("light1-2", "degenerate product, small sphere factor", {**_MS, "r": 0.5},
     lambda p: _degenerate_expected(1), _draw_r(0.15, 0.85))
_add("light1-3", "degenerate product, large sphere factor", {**_MS, "r": 2.0},
     lambda p: _degenerate_expected(1), _draw_r(1.2, 3.0))
_add("light1-4", "degenerate product, hyperbolic factor", {**_MS, "r": 1.0},
     lambda p: _degenerate_expected(1), _draw_r(0.3, 2.0))
_add("light1-5", "lightcone as hypersurface of the sphere", dict(_MS),
     lambda p: _degenerate_expected(1, has_t=False))
_add("light1-6", "degenerate product over the lightcone", {"m": 3, "s": 0},
     lambda p: _degenerate_expected(2))
_add("light1-7", "doubly offset degenerate product", dict(_MS),
     lambda p: _degenerate_expected(1))

_add("light2-1", "degenerate product over a hyperbolic slice, geodesic",
     dict(_MS), lambda p: _degenerate_expected(1, geodesic=True))
_add("light2-2", "degenerate product, small hyperbolic factor",
     {**_MS, "r": 0.5}, lambda p: _degenerate_expected(1),
     _draw_r(0.15, 0.85))
_add("light2-3", "degenerate product, large hyperbolic factor",
     {**_MS, "r": 2.0}, lambda p: _degenerate_expected(1),
     _draw_r(1.2, 3.0))
_add("light2-4", "degenerate product, spherical factor", {**_MS, "r": 1.0},
     lambda p: _degenerate_expected(1), _draw_r(0.3, 2.0))
_add("light2-5", "lightcone as hypersurface of the hyperbolic space",
     dict(_MS), lambda p: _degenerate_expected(1, has_t=False))
_add("light2-6", "degenerate product over the lightcone (hyperbolic target)",
     {"m": 3, "s": 0}, lambda p: _degenerate_expected(2))
_add("light2-7", "doubly offset degenerate product (hyperbolic target)",
     dict(_MS), lambda p: _degenerate_expected(1))


def _psi_expected(p):
    if p["a"] == 0:
        e = _geodesic_expected(p, p["m"] + 1)
        e.full = False
        return e
    return _umbilical_expected(0.0, None, "v_L", None, p["m"] + 1,
                               marginally_trapped=True)


_add("psi-a", "constant-null-offset family through the geodesic inclusion",
     {**_MS, "a": 1.0}, _psi_expected,
     lambda rng: {"a": float(rng.uniform(0.2, 2.0))}, build=_psi_a)

_add("S-example", "flat degenerate slice by an offset null plane",
     {"m": 2, "s": 0},
     lambda p: Expected(radical_rank=2, totally_umbilical=True,
                        radical_contains_last_var=False,
                        discrepancy_allowed={"radical_rank": (1, 2)}),
     build=_s_example)
_add("S-theta", "rotation family of flat degenerate slices",
     {"m": 2, "theta": 0.5},
     lambda p: Expected(radical_rank=2, totally_umbilical=True,
                        discrepancy_allowed={"radical_rank": (1, 2)}),
     lambda rng: {"theta": float(rng.uniform(-1.2, 1.2))}, build=_s_theta)
_add("lightcone-L", "lightcone of a flat indefinite space", {"n": 2, "s": 0},
     lambda p: _degenerate_expected(1, has_t=False), build=_flat_lightcone)
_add("plane-P", "canonical degenerate plane", {"s": 1, "t": 1, "rad": 1},
     lambda p: Expected(radical_rank=p["rad"], totally_geodesic=True,
                        totally_umbilical=True, minimal=True,
                        radical_contains_last_var=True), build=_plane)
_add("cv-parallel", "flat parallel product surface in the de Sitter sphere",
     {"a": 1.0},
     lambda p: Expected(totally_umbilical=False, parallel=True, full=True),
     lambda rng: {"a": float(rng.uniform(0.5, 1.5))}, build=_cv_parallel)
_add("clifford-control", "product of circles: minimal, not umbilical", {},
     lambda p: Expected(totally_umbilical=False, minimal=True, parallel=True,
                        h_norm=0.0), build=_clifford)
_add("cubic-graph-control", "cubic graph: neither umbilical nor parallel", {},
     lambda p: Expected(totally_umbilical=False, parallel=False), build=_cubic)


_ALIASES = {
    "lightcone": "lightcone-L",
    "plane": "plane-P",
}


def family_ids() -> list[str]:
    return sorted(_REGISTRY)


def get_family(family_id: str) -> FamilySpec:
    family_id = _ALIASES.get(family_id, family_id)
    if family_id not in _REGISTRY:
        raise InputError(f"unknown family id {family_id!r}")
    return _REGISTRY[family_id]


def resolve_params(family_id: str, params: dict | None = None) -> dict:
    spec = get_family(family_id)
    merged = dict(spec.defaults)
    for k, v in (params or {}).items():
        if k not in merged:
            raise InputError(
                f"family {spec.id!r} takes no parameter {k!r} "
                f"(expected one of {sorted(merged)})")
        merged[k] = v
    return merged


def instantiate(family_id: str, params: dict | None = None, **kw) -> ExprChart:
    """Build the chart of a catalog family with validated parameters."""
    spec = get_family(family_id)
    merged = resolve_params(family_id, {**(params or {}), **kw})
    return spec.build(merged)


def expected_report(family_id: str, params: dict | None = None, **kw) -> Expected:
    """The catalog's asserted properties for a family at given parameters."""
    spec = get_family(family_id)
    merged = resolve_params(family_id, {**(params or {}), **kw})
    spec.build(merged)  # validate parameter ranges
    return spec.expect(merged)


# ---------------------------------------------------------------------------
# Auxiliary constructions used by the composition identities
# ---------------------------------------------------------------------------

_CONE_EMBEDDINGS = {
    1: _Graph(_E, 2, 1, lambda u, s, r:
              [Const(1.0)] + _sphere_exprs(u, s, 1.0)),
    -1: _Graph(_E, 2, 1, lambda u, s, r:
               _hyper_exprs(u, s, 1.0) + [Const(1.0)]),
}


def cone_embedding_chart(m: int, s: int, epsilon: int) -> ExprChart:
    """Unit space form embedded in the lightcone one flat dimension up."""
    _require(epsilon in _CONE_EMBEDDINGS, "epsilon must be +1 or -1")
    return _graph_chart(_CONE_EMBEDDINGS[epsilon], {"m": m, "s": s}, "rho")


def cone_hypersurface_map(m: int, s: int, epsilon: int) -> ExprChart:
    """The lightcone of E^{m+2} mapped at unit offset into the space form."""
    vs = variables(m + 2)
    if epsilon == 1:
        exprs = [*vs, Const(1.0)]
        ambient = AmbientSpace.sphere(m + 2, s + 1)
    elif epsilon == -1:
        exprs = [Const(1.0), *vs]
        ambient = AmbientSpace.hyperbolic(m + 2, s + 1)
    else:
        raise InputError("epsilon must be +1 or -1")
    return ExprChart(exprs, m + 2, ambient, name="chi")


def cylinder_chart(a: float) -> ExprChart:
    """Flat cylinder of radius a in Euclidean 3-space."""
    u, v = variables(2)
    exprs = [Const(a) * cos(u), Const(a) * sin(u), v]
    return ExprChart(exprs, 2, AmbientSpace.flat(3, 0),
                     [[-2.0, 2.0], [-1.0, 1.0]], "cylinder")
