"""Executable registry of the immersion families under verification.

Each entry couples a chart constructor (graph charts for curved factors,
polynomial charts for flat ones) with its parameter domain, flat embedding
signature and the properties the classification asserts for it.  A
chart's coordinates are one function of its walk arguments; its float
constants (r, a, theta and those derived from them) are keywords bound by
`functools.partial`, and may also be arrays of one value per point, so
that `charts.stack_charts` walks the records of a family at once.  The
function calls the module's `sqrt`, `sin` and `cos`, so replacing them
gives the closed form on other arguments, such as symbols.  Chart
coordinates follow the canonical order: negative block first, then
positive; degenerate chart factors always contribute the last chart
variable.  The graph families are rows of one table, and each lightlike
product is a null pair (t, base(u), t) over its base family at m-1, whose
function calls the base's on the first m-1 arguments.
"""
from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .charts import AmbientSpace, ExprChart
from .errors import DomainError, InputError
from .jets import cos, indefinite_square, sin, sqrt


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

    def allows(self, name: str, computed) -> bool:
        """Whether a computed `name` that disagrees with this record is an
        allowed discrepancy."""
        return (computed != getattr(self, name)
                and computed in self.discrepancy_allowed.get(name, ()))


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


def _integer(params: dict, key: str) -> int:
    """An integer parameter; an integral float such as 3.0 is accepted."""
    value = float(params[key])
    _require(value.is_integer(), f"{key}={params[key]!r} is not an integer")
    return int(value)


# the most order-3 jet entries a chart may need at one point: its flat
# dimension times k(k+1)(k+2)/6 over k variables; main1-3 at m = 64: 3.0M
MAX_JET_ENTRIES = 4_000_000


def _fits(label: str, nvars: int, flat_dim: int):
    """Refuse, before anything is built, a chart of `nvars` variables and
    `flat_dim` flat coordinates whose jets exceed MAX_JET_ENTRIES."""
    _require(nvars < 1 or flat_dim * nvars * (nvars + 1) * (nvars + 2)
             <= 6 * MAX_JET_ENTRIES,
             f"{label}: jets beyond {MAX_JET_ENTRIES} entries per point")


def _ball_box(k: int, radius: float) -> list:
    hw = radius / (2.0 * math.sqrt(k))
    return [[-hw, hw]] * k


_T_BOX = [-0.7, 0.7]


def _flat_box(k: int) -> list:
    """Box of the flat charts: [-0.8, 0.8] in each of k variables."""
    return [[-0.8, 0.8]] * k


def _cone_box(k: int, s: int) -> list:
    """Box inside the positive-square-norm region of a k-variable cone chart."""
    box = [[-0.15, 0.15]] * s + [[1.0, 1.5]] + [[-0.25, 0.25]] * (k - s - 1)
    return box


def _sphere(u, s: int, r2: float):
    """Graph chart of a pseudo-sphere of squared radius r2 and index s."""
    q = indefinite_square(u, s)
    return [*u, sqrt(r2 - q)]


def _hyper(u, s: int, r2: float):
    """Graph chart of a pseudo-hyperbolic space of curvature -1/r2, index s."""
    q = indefinite_square(u, s)
    return [sqrt(r2 + q), *u]


def _cone(u, s: int):
    """Graph chart of the lightcone over a k-variable base of index s."""
    q = indefinite_square(u, s)
    return [sqrt(q), *u]


def _null_graph(u, s: int, a: float, b: float):
    """Flat null graph (q + a, u, q + b) with q the indefinite square of u."""
    q = indefinite_square(u, s)
    return [q + a, *u, q + b]


def _ms(params, dv: int, dn: int, lift: int = 0, cone: bool = False):
    """Validated (m, s) of a chart of m + dv variables and m + dn flat
    coordinates whose curved factor has m - lift variables.

    A cone factor needs a positive direction, so its index stays below its
    dimension, and a base of two variables: over one variable a cone is a
    null line, which is geodesic.  Messages name the m and s that were
    passed.
    """
    m, s = _integer(params, "m"), _integer(params, "s")
    _fits(f"m={m}", m + dv, m + dn)
    k = m - lift
    _require(k >= 1 + cone, f"m={m}: need m >= {1 + cone + lift}")
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
    without a radius, and may be an array of one radius per point);
    `r_range` is the radius's open range; `box` is "ball" (of radius r, or
    1), "flat" or "cone".  A row with a sign `sigma` has squared mean
    curvature norm h(r) = sigma / r**2 - eps at radius r; a totally
    geodesic row in a curved space form has radius 1, with sigma = eps and
    h(1) = 0.
    """

    space: Callable[[int, int], AmbientSpace]
    dn: int
    dp: int
    coords: Callable[[list, int, float | None], list]
    r_range: tuple[float, float] | None = None
    box: str = "ball"
    sigma: int | None = None

    @functools.cached_property
    def epsilon(self) -> int:
        return self.space(1, 0).epsilon

    def h_norm(self, r: float) -> float:
        """h(r); -eps comes first so that h(inf) is +0.0, not -0.0, in flat
        space.  `** 2` overflows with an error where `r * r` gives inf."""
        return -self.epsilon + self.sigma / r ** 2

    @functools.cached_property
    def h_norm_range(self) -> tuple[float, float]:
        """The image of `r_range` under h, which tends to sigma * inf at
        r = 0."""
        return tuple(sorted(self.sigma * math.inf if r == 0
                            else self.h_norm(r) for r in self.r_range))

    def radius(self, h: float) -> float:
        """The radius r at which h(r) = h: 1 / sqrt(sigma * (h + eps))."""
        return 1 / math.sqrt(self.sigma * (h + self.epsilon))


def _graph_chart(g: _Graph, params: dict, name: str,
                 lift: int = 0) -> ExprChart:
    """The chart of a graph family over m - lift variables.

    `lift` is the number of chart variables a lightlike product adds
    around it; parameters are validated as passed.
    """
    # a curved space form has one flat coordinate more than its dimension
    m, s = _ms(params, 0, g.dn + abs(g.epsilon) + lift, lift,
               cone=g.box == "cone")
    r = None if g.r_range is None else _r(params, *g.r_range)
    k = m - lift
    if g.box == "ball":
        box = _ball_box(k, 1.0 if r is None else r)
    elif g.box == "flat":
        box = _flat_box(k)
    else:
        box = _cone_box(k, s)
    return ExprChart(functools.partial(g.coords, s=s, r=r), k,
                     g.space(k + g.dn, s + g.dp), box, name)


_S, _H, _E = AmbientSpace.sphere, AmbientSpace.hyperbolic, AmbientSpace.flat

_GRAPHS: dict[str, _Graph] = {
    # sphere-target families (curvature +1)
    "main1-1": _Graph(_S, 1, 0, lambda u, s, r:
                      _sphere(u, s, 1.0) + [0.0], sigma=1),
    "main1-2": _Graph(_S, 1, 1, lambda u, s, r:
                      [0.0] + _sphere(u, s, 1.0), sigma=1),
    "main1-3": _Graph(_S, 1, 0, lambda u, s, r: _sphere(u, s, r * r)
                      + [np.sqrt(1 - r * r)], (0.0, 1.0), sigma=1),
    "main1-4": _Graph(_S, 1, 1, lambda u, s, r: [np.sqrt(r * r - 1)]
                      + _sphere(u, s, r * r), (1.0, math.inf), sigma=1),
    "main1-5": _Graph(_S, 2, 1, lambda u, s, r:
                      [1.0] + _sphere(u, s, 1.0) + [1.0]),
    "main1-6": _Graph(_S, 1, 1, lambda u, s, r: _hyper(u, s, r * r)
                      + [np.sqrt(1 + r * r)], (0.0, math.inf), sigma=-1),
    "main1-7": _Graph(_S, 1, 1, lambda u, s, r:
                      _null_graph(u, s, -0.75, -1.25), box="flat"),
    "light1-5": _Graph(_S, 1, 1, lambda u, s, r:
                       _cone(u, s) + [1.0], box="cone"),
    # hyperbolic-target families (curvature -1)
    "main2-1": _Graph(_H, 1, 0, lambda u, s, r:
                      _hyper(u, s, 1.0) + [0.0], sigma=-1),
    "main2-2": _Graph(_H, 1, 1, lambda u, s, r:
                      [0.0] + _hyper(u, s, 1.0), sigma=-1),
    "main2-3": _Graph(_H, 1, 1, lambda u, s, r: [np.sqrt(1 - r * r)]
                      + _hyper(u, s, r * r), (0.0, 1.0), sigma=-1),
    "main2-4": _Graph(_H, 1, 0, lambda u, s, r: _hyper(u, s, r * r)
                      + [np.sqrt(r * r - 1)], (1.0, math.inf), sigma=-1),
    "main2-5": _Graph(_H, 2, 1, lambda u, s, r:
                      [1.0] + _hyper(u, s, 1.0) + [1.0]),
    "main2-6": _Graph(_H, 1, 0, lambda u, s, r: [np.sqrt(1 + r * r)]
                      + _sphere(u, s, r * r), (0.0, math.inf), sigma=1),
    "main2-7": _Graph(_H, 1, 0, lambda u, s, r:
                      _null_graph(u, s, 1.25, 0.75), box="flat"),
    "light2-5": _Graph(_H, 1, 1, lambda u, s, r:
                       [1.0] + _cone(u, s), box="cone"),
    # flat-target families
    "akk-1": _Graph(_E, 1, 0, lambda u, s, r: [*u, 0.0], box="flat"),
    "akk-2": _Graph(_E, 1, 0, lambda u, s, r: _sphere(u, s, r * r),
                    (0.0, math.inf), sigma=1),
    "akk-3": _Graph(_E, 1, 1, lambda u, s, r: _hyper(u, s, r * r),
                    (0.0, math.inf), sigma=-1),
    "akk-4": _Graph(_E, 2, 1, lambda u, s, r:
                    _null_graph(u, s, 0.25, -0.25), box="flat"),
}


# ---------------------------------------------------------------------------
# Lightlike product families
# ---------------------------------------------------------------------------

def _pair(base, u, **consts):
    """(t, base(u'), t), t the last walk argument and u' the others."""
    return [u[-1], *base(u[:-1], **consts), u[-1]]


def _null_pair(base: _Graph, params: dict, name: str) -> ExprChart:
    """The null line times `base`: (t, base(u), t) over `base` at m-1.

    The degenerate variable t is the last chart variable and ranges over
    _T_BOX; the flat embedding gains one negative and one positive
    direction.
    """
    core = _graph_chart(base, params, name, lift=1)
    ambient = base.space(core.ambient.n + 2, core.ambient.p + 1)
    coords = functools.partial(_pair, core.coords.func, **core.coords.keywords)
    return ExprChart(coords, core.nvars + 1, ambient,
                     [*core.box.tolist(), _T_BOX], name)


# lightlike product -> its base (light1-1 and light2-1: the unit S and H)
_NULL_PAIRS: dict[str, _Graph] = {
    "light1-1": _Graph(_S, 0, 0, lambda u, s, r: _sphere(u, s, 1.0)),
    "light1-2": _GRAPHS["main1-3"],
    "light1-3": _GRAPHS["main1-4"],
    "light1-4": _GRAPHS["main1-6"],
    "light1-6": _GRAPHS["light1-5"],
    "light1-7": _GRAPHS["main1-5"],
    "light2-1": _Graph(_H, 0, 0, lambda u, s, r: _hyper(u, s, 1.0)),
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

def _psi_a_coords(u, s, a):
    return [a, *_sphere(u, s, 1.0), a]


def _psi_a(p):
    m, s = _ms(p, 0, 3)
    return ExprChart(functools.partial(_psi_a_coords, s=s, a=float(p["a"])),
                     m, AmbientSpace.sphere(m + 2, s + 1), _ball_box(m, 1.0),
                     "psi-a")


def _s_example(p):
    m, s = _ms(p, 1, 4)

    def coords(u):
        t, mids = u[0], u[1:]
        q = indefinite_square(mids, s)
        return [-0.5 * q, t, *mids, t, 1.0 - 0.5 * q]

    box = [_T_BOX] + _flat_box(m)
    return ExprChart(coords, m + 1, AmbientSpace.sphere(m + 3, s + 2),
                     box, "S-example")


def _s_theta_coords(u, theta, ct, st):
    xs = u[:-1]
    q = indefinite_square(xs, 0)
    rho = u[-1] - theta
    return [(-0.5 * ct) * q - st * rho, (-0.5 * st) * q + ct * rho, *xs,
            (0.5 * st) * (2.0 - q) + ct * rho,
            (0.5 * ct) * (2.0 - q) - st * rho]


def _s_theta(p):
    m = _integer(p, "m")
    _fits(f"m={m}", m + 1, m + 4)
    _require(m >= 1, "m must be >= 1")
    theta = float(p["theta"])
    coords = functools.partial(_s_theta_coords, theta=theta,
                               ct=math.cos(theta), st=math.sin(theta))
    box = _flat_box(m) + [[theta - 0.7, theta + 0.7]]
    return ExprChart(coords, m + 1, AmbientSpace.sphere(m + 3, 2),
                     box, "S-theta")


def _flat_lightcone(p):
    n, s = _integer(p, "n"), _integer(p, "s")
    _fits(f"n={n}", n, n + 1)
    _require(n >= 2 and 0 <= s <= n - 1, "need n >= 2 and 0 <= s <= n-1")
    return ExprChart(lambda u: _cone(u, s), n, AmbientSpace.flat(n + 1, s + 1),
                     _cone_box(n, s), "lightcone-L")


def _plane(p):
    s, t, r = _integer(p, "s"), _integer(p, "t"), _integer(p, "rad")
    _require(s >= 0 and t >= 0 and r >= 1, "need s,t >= 0 and rad >= 1")
    k = s + t  # the chart variables are the x's and y's, then the z's
    _fits(f"s={s} t={t} rad={r}", k + r, k + 2 * r)
    return ExprChart(lambda u: [*u[k:], *u[:k], *u[k:]], k + r,
                     AmbientSpace.flat(k + 2 * r, r + s),
                     _flat_box(k + r), "plane-P")


def _cv_parallel_coords(uv, a):
    u, v = uv
    w = v * v + a * a
    return [w - 0.75, a * cos(u), a * sin(u), v, w - 1.25]


def _cv_parallel(p):
    a = float(p["a"])
    _require(a > 0, "a must be positive")
    return ExprChart(functools.partial(_cv_parallel_coords, a=a), 2,
                     AmbientSpace.sphere(4, 1), [[-2.0, 2.0], [-1.0, 1.0]],
                     "cv-parallel")


def _clifford(p):
    c = 1.0 / math.sqrt(2.0)

    def coords(uv):
        u, v = uv
        return [c * cos(u), c * sin(u), c * cos(v), c * sin(v)]

    return ExprChart(coords, 2, AmbientSpace.sphere(3, 0),
                     [[-2.0, 2.0], [-2.0, 2.0]], "clifford-control")


def _cubic(p):
    return ExprChart(lambda u: [u[0], u[1], u[0] * u[0] * u[0]], 2,
                     AmbientSpace.flat(3, 0), [[0.3, 1.0], [-1.0, 1.0]],
                     "cubic-graph-control")


# ---------------------------------------------------------------------------
# Expectation records
# ---------------------------------------------------------------------------

def _geodesic_expected(hull_dim):
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


def _add_radius(id, description, r, cls, rho, draw):
    """Register a radius row of the table at default radius r: its h_norm
    is the row's h(r) and its h_norm_range the image of its r_range."""
    g = _GRAPHS[id]
    _add(id, description, {**_MS, "r": r},
         lambda p: _umbilical_expected(g.h_norm(p["r"]), g.h_norm_range, cls,
                                       rho(p["r"]), p["m"] + 1),
         _draw_r(*draw))


def _add_product(id, base, factor):
    """Register a lightlike product at its base row's radius and draws."""
    row = _REGISTRY[base]
    _add(id, f"degenerate product, {factor} factor", dict(row.defaults),
         lambda p: _degenerate_expected(1), row.draw_params)


_MS = {"m": 2, "s": 0}


_add("main1-1", "totally geodesic sphere, spacelike normal", dict(_MS),
     lambda p: _geodesic_expected(p["m"] + 1))
_add("main1-2", "totally geodesic sphere, timelike normal", dict(_MS),
     lambda p: _geodesic_expected(p["m"] + 1))
_add_radius("main1-3", "small sphere at spacelike height", 0.5, "v_S",
            lambda r: math.sqrt(1 - r ** 2), (0.15, 0.85))
_add_radius("main1-4", "large sphere at timelike height", 2.0, "v_T",
            lambda r: math.sqrt(r ** 2 - 1), (1.2, 3.0))
_add("main1-5", "null-offset sphere, codimension two", dict(_MS),
     lambda p: _umbilical_expected(0.0, None, "v_L", None, p["m"] + 1,
                                   marginally_trapped=True))
_add_radius("main1-6", "hyperbolic slice of the sphere", 1.0, "v_S",
            lambda r: math.sqrt(1 + r ** 2), (0.3, 2.0))
_add("main1-7", "flat null graph inside the sphere", dict(_MS),
     lambda p: _umbilical_expected(-1.0, None, "+N", None, p["m"] + 1))

_add("main2-1", "totally geodesic hyperbolic slice, spacelike normal",
     dict(_MS), lambda p: _geodesic_expected(p["m"] + 1))
_add("main2-2", "totally geodesic hyperbolic slice, timelike normal",
     dict(_MS), lambda p: _geodesic_expected(p["m"] + 1))
_add_radius("main2-3", "small hyperbolic slice at timelike height", 0.5,
            "v_T", lambda r: math.sqrt(1 - r ** 2), (0.15, 0.85))
_add_radius("main2-4", "large hyperbolic slice at spacelike height", 2.0,
            "v_S", lambda r: math.sqrt(r ** 2 - 1), (1.2, 3.0))
_add("main2-5", "null-offset hyperbolic slice, codimension two", dict(_MS),
     lambda p: _umbilical_expected(0.0, None, "v_L", None, p["m"] + 1,
                                   marginally_trapped=True))
_add_radius("main2-6", "spherical slice of the hyperbolic space", 1.0,
            "v_T", lambda r: math.sqrt(1 + r ** 2), (0.3, 2.0))
_add("main2-7", "flat null graph inside the hyperbolic space", dict(_MS),
     lambda p: _umbilical_expected(1.0, None, "+N", None, p["m"] + 1))

_add("akk-1", "flat totally geodesic subspace", dict(_MS),
     lambda p: _geodesic_expected(p["m"]))
_add_radius("akk-2", "round pseudo-sphere in flat space", 1.0, "linear",
            lambda r: None, (0.5, 2.0))
_add_radius("akk-3", "pseudo-hyperbolic space in flat space", 1.0, "linear",
            lambda r: None, (0.5, 2.0))
_add("akk-4", "flat marginally trapped null graph", dict(_MS),
     lambda p: _umbilical_expected(0.0, None, "+N", None, p["m"] + 1,
                                   marginally_trapped=True))
_add("U-flat", "flat marginally trapped null graph (named instance)",
     dict(_MS), _REGISTRY["akk-4"].expect,
     build=functools.partial(_graph_chart, _GRAPHS["akk-4"], name="U-flat"))

_add("light1-1", "degenerate product over a sphere, totally geodesic",
     dict(_MS), lambda p: _degenerate_expected(1, geodesic=True))
_add_product("light1-2", "main1-3", "small sphere")
_add_product("light1-3", "main1-4", "large sphere")
_add_product("light1-4", "main1-6", "hyperbolic")
_add("light1-5", "lightcone as hypersurface of the sphere", dict(_MS),
     lambda p: _degenerate_expected(1, has_t=False))
_add("light1-6", "degenerate product over the lightcone", {"m": 3, "s": 0},
     lambda p: _degenerate_expected(2))
_add("light1-7", "doubly offset degenerate product", dict(_MS),
     lambda p: _degenerate_expected(1))

_add("light2-1", "degenerate product over a hyperbolic slice, geodesic",
     dict(_MS), lambda p: _degenerate_expected(1, geodesic=True))
_add_product("light2-2", "main2-3", "small hyperbolic")
_add_product("light2-3", "main2-4", "large hyperbolic")
_add_product("light2-4", "main2-6", "spherical")
_add("light2-5", "lightcone as hypersurface of the hyperbolic space",
     dict(_MS), lambda p: _degenerate_expected(1, has_t=False))
_add("light2-6", "degenerate product over the lightcone (hyperbolic target)",
     {"m": 3, "s": 0}, lambda p: _degenerate_expected(2))
_add("light2-7", "doubly offset degenerate product (hyperbolic target)",
     dict(_MS), lambda p: _degenerate_expected(1))


_add("psi-a", "constant-null-offset family through the geodesic inclusion",
     {**_MS, "a": 1.0},
     # the geodesic inclusion at a = 0, a null offset of it otherwise
     lambda p: _REGISTRY["main1-1" if p["a"] == 0 else "main1-5"].expect(p),
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


RANDOM_DRAWS = 3


def instances(seed: int) -> list[tuple[str, dict]]:
    """The (family id, params) instances `verify-all` checks: each family
    at its defaults, then RANDOM_DRAWS parameter draws of each parametric
    one from a generator seeded by `seed` and the family id."""
    jobs = []
    for fid in family_ids():
        spec = _REGISTRY[fid]
        jobs.append((fid, dict(spec.defaults)))
        if spec.parametric:
            rng = np.random.default_rng([seed, zlib.crc32(fid.encode())])
            jobs += [(fid, {**spec.defaults, **spec.draw_params(rng)})
                     for _ in range(RANDOM_DRAWS)]
    return jobs


def umbilical_items(epsilon: int) -> list[tuple[str, _Graph, Expected]]:
    """The non-degenerate items of the classification in the space form of
    curvature `epsilon`: (id, table row, expectations at the defaults) of
    each graph table row there whose chart has a non-degenerate metric."""
    rows = [(fid, g, _REGISTRY[fid]) for fid, g in _GRAPHS.items()
            if g.epsilon == epsilon]
    rows = [(fid, g, spec.expect(spec.defaults)) for fid, g, spec in rows]
    return [row for row in rows if row[2].radical_rank == 0]


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


def family_instance(family_id: str, params: dict | None = None):
    """(spec, resolved params, chart, expectations) of a family instance.

    A closed form that overflows or divides by zero at an extreme (finite)
    parameter raises DomainError naming the family and its parameters.
    """
    spec = get_family(family_id)
    merged = resolve_params(family_id, params)
    try:
        return spec, merged, spec.build(merged), spec.expect(merged)
    except ArithmeticError as err:
        raise DomainError(f"family {spec.id!r} at {merged}: {err}") from err


def instantiate(family_id: str, params: dict | None = None) -> ExprChart:
    """Build the chart of a catalog family with validated parameters."""
    return family_instance(family_id, params)[2]


def expected_report(family_id: str, params: dict | None = None) -> Expected:
    """The catalog's asserted properties for a family at given parameters,
    which building its chart validates."""
    return family_instance(family_id, params)[3]


# ---------------------------------------------------------------------------
# Auxiliary constructions used by the composition identities
# ---------------------------------------------------------------------------

_CONE_EMBEDDINGS = {
    1: _Graph(_E, 2, 1, lambda u, s, r:
              [1.0] + _sphere(u, s, 1.0)),
    -1: _Graph(_E, 2, 1, lambda u, s, r:
               _hyper(u, s, 1.0) + [1.0]),
}


def cone_embedding_chart(m: int, s: int, epsilon: int) -> ExprChart:
    """Unit space form embedded in the lightcone one flat dimension up."""
    _require(epsilon in _CONE_EMBEDDINGS, "epsilon must be +1 or -1")
    return _graph_chart(_CONE_EMBEDDINGS[epsilon], {"m": m, "s": s}, "rho")


def cone_hypersurface_map(m: int, s: int, epsilon: int) -> ExprChart:
    """The lightcone of E^{m+2} mapped at unit offset into the space form."""
    if epsilon == 1:
        return ExprChart(lambda u: [*u, 1.0], m + 2,
                         AmbientSpace.sphere(m + 2, s + 1), name="chi")
    if epsilon == -1:
        return ExprChart(lambda u: [1.0, *u], m + 2,
                         AmbientSpace.hyperbolic(m + 2, s + 1), name="chi")
    raise InputError("epsilon must be +1 or -1")


def cylinder_chart(a: float) -> ExprChart:
    """Flat cylinder of radius a in Euclidean 3-space."""
    return ExprChart(lambda u: [a * cos(u[0]), a * sin(u[0]), u[1]], 2,
                     AmbientSpace.flat(3, 0), [[-2.0, 2.0], [-1.0, 1.0]],
                     "cylinder")
