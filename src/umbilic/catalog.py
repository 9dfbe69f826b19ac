"""Executable registry of the immersion families under verification.

Each entry couples a chart constructor (graph charts for curved factors,
polynomial charts for flat ones) with its parameter domain, flat embedding
signature and the properties the classification asserts for it.  Chart
coordinates follow the canonical order: negative block first, then
positive; degenerate chart factors always contribute the last chart
variable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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


def _ms(params) -> tuple[int, int]:
    m, s = int(params["m"]), int(params["s"])
    _require(m >= 1, "m must be >= 1")
    _require(0 <= s <= m, f"index s={s} out of range for m={m}")
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
# Sphere-target families (curvature +1)
# ---------------------------------------------------------------------------

def _main1_1(p):
    m, s = _ms(p)
    vs = variables(m)
    exprs = _sphere_exprs(vs, s, 1.0) + [Const(0.0)]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 1, s),
                     _ball_box(m, 1.0), "main1-1")


def _main1_2(p):
    m, s = _ms(p)
    vs = variables(m)
    exprs = [Const(0.0)] + _sphere_exprs(vs, s, 1.0)
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 1, s + 1),
                     _ball_box(m, 1.0), "main1-2")


def _main1_3(p):
    m, s = _ms(p)
    r = _r(p, 0.0, 1.0)
    vs = variables(m)
    exprs = _sphere_exprs(vs, s, r * r) + [Const(math.sqrt(1 - r * r))]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 1, s),
                     _ball_box(m, r), "main1-3")


def _main1_4(p):
    m, s = _ms(p)
    r = _r(p, 1.0, math.inf)
    vs = variables(m)
    exprs = [Const(math.sqrt(r * r - 1))] + _sphere_exprs(vs, s, r * r)
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 1, s + 1),
                     _ball_box(m, r), "main1-4")


def _main1_5(p):
    m, s = _ms(p)
    vs = variables(m)
    exprs = [Const(1.0)] + _sphere_exprs(vs, s, 1.0) + [Const(1.0)]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 2, s + 1),
                     _ball_box(m, 1.0), "main1-5")


def _main1_6(p):
    m, s = _ms(p)
    r = _r(p, 0.0, math.inf)
    vs = variables(m)
    exprs = _hyper_exprs(vs, s, r * r) + [Const(math.sqrt(1 + r * r))]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 1, s + 1),
                     _ball_box(m, r), "main1-6")


def _main1_7(p):
    m, s = _ms(p)
    vs = variables(m)
    q = indefinite_square(vs, s)
    exprs = [q - Const(0.75), *vs, q - Const(1.25)]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 1, s + 1),
                     [_FLAT_BOX] * m, "main1-7")


# ---------------------------------------------------------------------------
# Hyperbolic-target families (curvature -1)
# ---------------------------------------------------------------------------

def _main2_1(p):
    m, s = _ms(p)
    vs = variables(m)
    exprs = _hyper_exprs(vs, s, 1.0) + [Const(0.0)]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 1, s),
                     _ball_box(m, 1.0), "main2-1")


def _main2_2(p):
    m, s = _ms(p)
    vs = variables(m)
    exprs = [Const(0.0)] + _hyper_exprs(vs, s, 1.0)
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 1, s + 1),
                     _ball_box(m, 1.0), "main2-2")


def _main2_3(p):
    m, s = _ms(p)
    r = _r(p, 0.0, 1.0)
    vs = variables(m)
    exprs = [Const(math.sqrt(1 - r * r))] + _hyper_exprs(vs, s, r * r)
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 1, s + 1),
                     _ball_box(m, r), "main2-3")


def _main2_4(p):
    m, s = _ms(p)
    r = _r(p, 1.0, math.inf)
    vs = variables(m)
    exprs = _hyper_exprs(vs, s, r * r) + [Const(math.sqrt(r * r - 1))]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 1, s),
                     _ball_box(m, r), "main2-4")


def _main2_5(p):
    m, s = _ms(p)
    vs = variables(m)
    exprs = [Const(1.0)] + _hyper_exprs(vs, s, 1.0) + [Const(1.0)]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 2, s + 1),
                     _ball_box(m, 1.0), "main2-5")


def _main2_6(p):
    m, s = _ms(p)
    r = _r(p, 0.0, math.inf)
    vs = variables(m)
    exprs = [Const(math.sqrt(1 + r * r))] + _sphere_exprs(vs, s, r * r)
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 1, s),
                     _ball_box(m, r), "main2-6")


def _main2_7(p):
    m, s = _ms(p)
    vs = variables(m)
    q = indefinite_square(vs, s)
    exprs = [q + Const(1.25), *vs, q + Const(0.75)]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 1, s),
                     [_FLAT_BOX] * m, "main2-7")


# ---------------------------------------------------------------------------
# Flat-target families
# ---------------------------------------------------------------------------

def _akk_1(p):
    m, s = _ms(p)
    vs = variables(m)
    return ExprChart([*vs, Const(0.0)], m, AmbientSpace.flat(m + 1, s),
                     [_FLAT_BOX] * m, "akk-1")


def _akk_2(p):
    m, s = _ms(p)
    r = _r(p, 0.0, math.inf)
    vs = variables(m)
    return ExprChart(_sphere_exprs(vs, s, r * r), m, AmbientSpace.flat(m + 1, s),
                     _ball_box(m, r), "akk-2")


def _akk_3(p):
    m, s = _ms(p)
    r = _r(p, 0.0, math.inf)
    vs = variables(m)
    return ExprChart(_hyper_exprs(vs, s, r * r), m,
                     AmbientSpace.flat(m + 1, s + 1), _ball_box(m, r), "akk-3")


def _flat_null_graph(p, name):
    m, s = _ms(p)
    vs = variables(m)
    q = indefinite_square(vs, s)
    exprs = [q + Const(0.25), *vs, q - Const(0.25)]
    return ExprChart(exprs, m, AmbientSpace.flat(m + 2, s + 1),
                     [_FLAT_BOX] * m, name)


def _akk_4(p):
    return _flat_null_graph(p, "akk-4")


def _u_flat(p):
    return _flat_null_graph(p, "U-flat")


# ---------------------------------------------------------------------------
# Lightlike families in the pseudo-sphere
# ---------------------------------------------------------------------------
# Chart variables: curved-factor variables first, the degenerate variable t
# last.  Embedding signatures are forced by the coordinate blocks; where
# that disagrees with the catalog's stated sub-index the constructor keeps
# the forced value.

def _light1_1(p):
    m, s = _ms(p)
    _require(m >= 2 and s <= m - 1, "need m >= 2 and s <= m-1")
    vs = variables(m)
    core = _sphere_exprs(vs[:-1], s, 1.0)
    t = vs[-1]
    exprs = [t, *core, t]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 1, s + 1),
                     _ball_box(m - 1, 1.0) + [_T_BOX], "light1-1")


def _light1_2(p):
    m, s = _ms(p)
    _require(m >= 2 and s <= m - 1, "need m >= 2 and s <= m-1")
    r = _r(p, 0.0, 1.0)
    vs = variables(m)
    core = _sphere_exprs(vs[:-1], s, r * r)
    t = vs[-1]
    exprs = [t, *core, Const(math.sqrt(1 - r * r)), t]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 2, s + 1),
                     _ball_box(m - 1, r) + [_T_BOX], "light1-2")


def _light1_3(p):
    m, s = _ms(p)
    _require(m >= 2 and s <= m - 1, "need m >= 2 and s <= m-1")
    r = _r(p, 1.0, math.inf)
    vs = variables(m)
    core = _sphere_exprs(vs[:-1], s, r * r)
    t = vs[-1]
    exprs = [t, Const(math.sqrt(r * r - 1)), *core, t]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 2, s + 2),
                     _ball_box(m - 1, r) + [_T_BOX], "light1-3")


def _light1_4(p):
    m, s = _ms(p)
    _require(m >= 2 and s <= m - 1, "need m >= 2 and s <= m-1")
    r = _r(p, 0.0, math.inf)
    vs = variables(m)
    core = _hyper_exprs(vs[:-1], s, r * r)
    t = vs[-1]
    exprs = [t, *core, Const(math.sqrt(1 + r * r)), t]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 2, s + 2),
                     _ball_box(m - 1, r) + [_T_BOX], "light1-4")


def _light1_5(p):
    m, s = _ms(p)
    _require(s <= m - 1, "cone base needs at least one positive direction")
    vs = variables(m)
    exprs = _cone_exprs(vs, s) + [Const(1.0)]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 1, s + 1),
                     _cone_box(m, s), "light1-5")


def _light1_6(p):
    m, s = _ms(p)
    _require(m >= 3 and s <= m - 2,
             "item 6 needs m >= 3 so the cone factor is genuinely curved")
    vs = variables(m)
    core = _cone_exprs(vs[:-1], s)
    t = vs[-1]
    exprs = [t, *core, Const(1.0), t]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 2, s + 2),
                     _cone_box(m - 1, s) + [_T_BOX], "light1-6")


def _light1_7(p):
    m, s = _ms(p)
    _require(m >= 2 and s <= m - 1, "need m >= 2 and s <= m-1")
    vs = variables(m)
    core = _sphere_exprs(vs[:-1], s, 1.0)
    t = vs[-1]
    exprs = [t, Const(1.0), *core, Const(1.0), t]
    return ExprChart(exprs, m, AmbientSpace.sphere(m + 3, s + 2),
                     _ball_box(m - 1, 1.0) + [_T_BOX], "light1-7")


# ---------------------------------------------------------------------------
# Lightlike families in the pseudo-hyperbolic space
# ---------------------------------------------------------------------------

def _light2_1(p):
    m, s = _ms(p)
    _require(m >= 2, "need m >= 2")
    vs = variables(m)
    core = _hyper_exprs(vs[:-1], s, 1.0)
    t = vs[-1]
    exprs = [t, *core, t]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 1, s + 1),
                     _ball_box(m - 1, 1.0) + [_T_BOX], "light2-1")


def _light2_2(p):
    m, s = _ms(p)
    _require(m >= 2, "need m >= 2")
    r = _r(p, 0.0, 1.0)
    vs = variables(m)
    core = _hyper_exprs(vs[:-1], s, r * r)
    t = vs[-1]
    exprs = [t, Const(math.sqrt(1 - r * r)), *core, t]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 2, s + 2),
                     _ball_box(m - 1, r) + [_T_BOX], "light2-2")


def _light2_3(p):
    m, s = _ms(p)
    _require(m >= 2, "need m >= 2")
    r = _r(p, 1.0, math.inf)
    vs = variables(m)
    core = _hyper_exprs(vs[:-1], s, r * r)
    t = vs[-1]
    exprs = [t, *core, Const(math.sqrt(r * r - 1)), t]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 2, s + 1),
                     _ball_box(m - 1, r) + [_T_BOX], "light2-3")


def _light2_4(p):
    m, s = _ms(p)
    _require(m >= 2 and s <= m - 1, "need m >= 2 and s <= m-1")
    r = _r(p, 0.0, math.inf)
    vs = variables(m)
    core = _sphere_exprs(vs[:-1], s, r * r)
    t = vs[-1]
    exprs = [t, Const(math.sqrt(1 + r * r)), *core, t]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 2, s + 1),
                     _ball_box(m - 1, r) + [_T_BOX], "light2-4")


def _light2_5(p):
    m, s = _ms(p)
    _require(s <= m - 1, "cone base needs at least one positive direction")
    vs = variables(m)
    exprs = [Const(1.0)] + _cone_exprs(vs, s)
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 1, s + 1),
                     _cone_box(m, s), "light2-5")


def _light2_6(p):
    m, s = _ms(p)
    _require(m >= 3 and s <= m - 2,
             "item 6 needs m >= 3 so the cone factor is genuinely curved")
    vs = variables(m)
    core = _cone_exprs(vs[:-1], s)
    t = vs[-1]
    exprs = [t, Const(1.0), *core, t]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 2, s + 2),
                     _cone_box(m - 1, s) + [_T_BOX], "light2-6")


def _light2_7(p):
    m, s = _ms(p)
    _require(m >= 2, "need m >= 2")
    vs = variables(m)
    core = _hyper_exprs(vs[:-1], s, 1.0)
    t = vs[-1]
    exprs = [t, Const(1.0), *core, Const(1.0), t]
    return ExprChart(exprs, m, AmbientSpace.hyperbolic(m + 3, s + 2),
                     _ball_box(m - 1, 1.0) + [_T_BOX], "light2-7")


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
    _require(s <= m, "index out of range")
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


def _lightcone(p):
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


def _light_expected(rank, geodesic=False, has_t=True):
    return Expected(radical_rank=rank, totally_geodesic=geodesic,
                    totally_umbilical=True, minimal=geodesic,
                    full=True, radical_contains_last_var=has_t)


_REGISTRY: dict[str, FamilySpec] = {}


def _register(spec: FamilySpec):
    _REGISTRY[spec.id] = spec


def _add(id, description, defaults, build, expect, draw=None):
    _register(FamilySpec(id, description, defaults, build, expect, draw))


_MS = {"m": 2, "s": 0}


_add("main1-1", "totally geodesic sphere, spacelike normal", dict(_MS),
     _main1_1, lambda p: _geodesic_expected(p, p["m"] + 1))
_add("main1-2", "totally geodesic sphere, timelike normal", dict(_MS),
     _main1_2, lambda p: _geodesic_expected(p, p["m"] + 1))
_add("main1-3", "small sphere at spacelike height", {**_MS, "r": 0.5},
     _main1_3,
     lambda p: _umbilical_expected((1 - p["r"] ** 2) / p["r"] ** 2,
                                   (0.0, math.inf), "v_S",
                                   math.sqrt(1 - p["r"] ** 2), p["m"] + 1),
     _draw_r(0.15, 0.85))
_add("main1-4", "large sphere at timelike height", {**_MS, "r": 2.0},
     _main1_4,
     lambda p: _umbilical_expected((1 - p["r"] ** 2) / p["r"] ** 2,
                                   (-1.0, 0.0), "v_T",
                                   math.sqrt(p["r"] ** 2 - 1), p["m"] + 1),
     _draw_r(1.2, 3.0))
_add("main1-5", "null-offset sphere, codimension two", dict(_MS), _main1_5,
     lambda p: _umbilical_expected(0.0, None, "v_L", None, p["m"] + 1,
                                   marginally_trapped=True))
_add("main1-6", "hyperbolic slice of the sphere", {**_MS, "r": 1.0}, _main1_6,
     lambda p: _umbilical_expected(-(1 + p["r"] ** 2) / p["r"] ** 2,
                                   (-math.inf, -1.0), "v_S",
                                   math.sqrt(1 + p["r"] ** 2), p["m"] + 1),
     _draw_r(0.3, 2.0))
_add("main1-7", "flat null graph inside the sphere", dict(_MS), _main1_7,
     lambda p: _umbilical_expected(-1.0, None, "+N", None, p["m"] + 1))

_add("main2-1", "totally geodesic hyperbolic slice, spacelike normal",
     dict(_MS), _main2_1, lambda p: _geodesic_expected(p, p["m"] + 1))
_add("main2-2", "totally geodesic hyperbolic slice, timelike normal",
     dict(_MS), _main2_2, lambda p: _geodesic_expected(p, p["m"] + 1))
_add("main2-3", "small hyperbolic slice at timelike height", {**_MS, "r": 0.5},
     _main2_3,
     lambda p: _umbilical_expected(-(1 - p["r"] ** 2) / p["r"] ** 2,
                                   (-math.inf, 0.0), "v_T",
                                   math.sqrt(1 - p["r"] ** 2), p["m"] + 1),
     _draw_r(0.15, 0.85))
_add("main2-4", "large hyperbolic slice at spacelike height", {**_MS, "r": 2.0},
     _main2_4,
     lambda p: _umbilical_expected((p["r"] ** 2 - 1) / p["r"] ** 2,
                                   (0.0, 1.0), "v_S",
                                   math.sqrt(p["r"] ** 2 - 1), p["m"] + 1),
     _draw_r(1.2, 3.0))
_add("main2-5", "null-offset hyperbolic slice, codimension two", dict(_MS),
     _main2_5,
     lambda p: _umbilical_expected(0.0, None, "v_L", None, p["m"] + 1,
                                   marginally_trapped=True))
_add("main2-6", "spherical slice of the hyperbolic space", {**_MS, "r": 1.0},
     _main2_6,
     lambda p: _umbilical_expected((1 + p["r"] ** 2) / p["r"] ** 2,
                                   (1.0, math.inf), "v_T",
                                   math.sqrt(1 + p["r"] ** 2), p["m"] + 1),
     _draw_r(0.3, 2.0))
_add("main2-7", "flat null graph inside the hyperbolic space", dict(_MS),
     _main2_7,
     lambda p: _umbilical_expected(1.0, None, "+N", None, p["m"] + 1))

_add("akk-1", "flat totally geodesic subspace", dict(_MS), _akk_1,
     lambda p: Expected(totally_geodesic=True, totally_umbilical=True,
                        minimal=True, h_norm=0.0, parallel=True, full=False,
                        hull_dim=p["m"], translation_class="linear"))
_add("akk-2", "round pseudo-sphere in flat space", {**_MS, "r": 1.0}, _akk_2,
     lambda p: _umbilical_expected(1.0 / p["r"] ** 2, (0.0, math.inf),
                                   "linear", None, p["m"] + 1),
     _draw_r(0.5, 2.0))
_add("akk-3", "pseudo-hyperbolic space in flat space", {**_MS, "r": 1.0},
     _akk_3,
     lambda p: _umbilical_expected(-1.0 / p["r"] ** 2, (-math.inf, 0.0),
                                   "linear", None, p["m"] + 1),
     _draw_r(0.5, 2.0))
_add("akk-4", "flat marginally trapped null graph", dict(_MS), _akk_4,
     lambda p: _umbilical_expected(0.0, None, "+N", None, p["m"] + 1,
                                   marginally_trapped=True))
_add("U-flat", "flat marginally trapped null graph (named instance)",
     dict(_MS), _u_flat,
     lambda p: _umbilical_expected(0.0, None, "+N", None, p["m"] + 1,
                                   marginally_trapped=True))

_add("light1-1", "degenerate product over a sphere, totally geodesic",
     dict(_MS), _light1_1, lambda p: _light_expected(1, geodesic=True))
_add("light1-2", "degenerate product, small sphere factor", {**_MS, "r": 0.5},
     _light1_2, lambda p: _light_expected(1), _draw_r(0.15, 0.85))
_add("light1-3", "degenerate product, large sphere factor", {**_MS, "r": 2.0},
     _light1_3, lambda p: _light_expected(1), _draw_r(1.2, 3.0))
_add("light1-4", "degenerate product, hyperbolic factor", {**_MS, "r": 1.0},
     _light1_4, lambda p: _light_expected(1), _draw_r(0.3, 2.0))
_add("light1-5", "lightcone as hypersurface of the sphere", dict(_MS),
     _light1_5, lambda p: _light_expected(1, has_t=False))
_add("light1-6", "degenerate product over the lightcone", {"m": 3, "s": 0},
     _light1_6, lambda p: _light_expected(2))
_add("light1-7", "doubly offset degenerate product", dict(_MS), _light1_7,
     lambda p: _light_expected(1))

_add("light2-1", "degenerate product over a hyperbolic slice, geodesic",
     dict(_MS), _light2_1, lambda p: _light_expected(1, geodesic=True))
_add("light2-2", "degenerate product, small hyperbolic factor",
     {**_MS, "r": 0.5}, _light2_2, lambda p: _light_expected(1),
     _draw_r(0.15, 0.85))
_add("light2-3", "degenerate product, large hyperbolic factor",
     {**_MS, "r": 2.0}, _light2_3, lambda p: _light_expected(1),
     _draw_r(1.2, 3.0))
_add("light2-4", "degenerate product, spherical factor", {**_MS, "r": 1.0},
     _light2_4, lambda p: _light_expected(1), _draw_r(0.3, 2.0))
_add("light2-5", "lightcone as hypersurface of the hyperbolic space",
     dict(_MS), _light2_5, lambda p: _light_expected(1, has_t=False))
_add("light2-6", "degenerate product over the lightcone (hyperbolic target)",
     {"m": 3, "s": 0}, _light2_6, lambda p: _light_expected(2))
_add("light2-7", "doubly offset degenerate product (hyperbolic target)",
     dict(_MS), _light2_7, lambda p: _light_expected(1))


def _psi_expected(p):
    if p["a"] == 0:
        e = _geodesic_expected(p, p["m"] + 1)
        e.full = False
        return e
    return _umbilical_expected(0.0, None, "v_L", None, p["m"] + 1,
                               marginally_trapped=True)


_add("psi-a", "constant-null-offset family through the geodesic inclusion",
     {**_MS, "a": 1.0}, _psi_a, _psi_expected,
     lambda rng: {"a": float(rng.uniform(0.2, 2.0))})

_add("S-example", "flat degenerate slice by an offset null plane",
     {"m": 2, "s": 0}, _s_example,
     lambda p: Expected(radical_rank=2, totally_umbilical=True,
                        radical_contains_last_var=False,
                        discrepancy_allowed={"radical_rank": (1, 2)}))
_add("S-theta", "rotation family of flat degenerate slices",
     {"m": 2, "theta": 0.5}, _s_theta,
     lambda p: Expected(radical_rank=2, totally_umbilical=True,
                        discrepancy_allowed={"radical_rank": (1, 2)}),
     lambda rng: {"theta": float(rng.uniform(-1.2, 1.2))})
_add("lightcone-L", "lightcone of a flat indefinite space", {"n": 2, "s": 0},
     _lightcone, lambda p: _light_expected(1, has_t=False))
_add("plane-P", "canonical degenerate plane", {"s": 1, "t": 1, "rad": 1},
     _plane,
     lambda p: Expected(radical_rank=p["rad"], totally_geodesic=True,
                        totally_umbilical=True, minimal=True,
                        radical_contains_last_var=True))
_add("cv-parallel", "flat parallel product surface in the de Sitter sphere",
     {"a": 1.0}, _cv_parallel,
     lambda p: Expected(totally_umbilical=False, parallel=True, full=True),
     lambda rng: {"a": float(rng.uniform(0.5, 1.5))})
_add("clifford-control", "product of circles: minimal, not umbilical", {},
     _clifford,
     lambda p: Expected(totally_umbilical=False, minimal=True, parallel=True,
                        h_norm=0.0))
_add("cubic-graph-control", "cubic graph: neither umbilical nor parallel", {},
     _cubic, lambda p: Expected(totally_umbilical=False, parallel=False))


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

def cone_embedding_chart(m: int, s: int, epsilon: int) -> ExprChart:
    """Unit space form embedded in the lightcone one flat dimension up."""
    vs = variables(m)
    if epsilon == 1:
        exprs = [Const(1.0)] + _sphere_exprs(vs, s, 1.0)
        return ExprChart(exprs, m, AmbientSpace.flat(m + 2, s + 1),
                         _ball_box(m, 1.0), "rho")
    if epsilon == -1:
        exprs = _hyper_exprs(vs, s, 1.0) + [Const(1.0)]
        return ExprChart(exprs, m, AmbientSpace.flat(m + 2, s + 1),
                         _ball_box(m, 1.0), "rho")
    raise InputError("epsilon must be +1 or -1")


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
