"""Pointwise differential geometry of immersion charts.

Induced metric, second fundamental form (with a quotient formulation when
the induced metric is degenerate), mean curvature, umbilicity and
parallelism residuals, plus sample-based affine-hull reduction and
fullness.  Everything is computed in the flat embedding coordinates of
the chart's ambient space form.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bilinear as B
from .bilinear import Signature
from .catalog import Expected, get_family, resolve_params
from .charts import ImmersionChart
from .errors import DegenerateMetricError, InputError

DEFAULT_TOL = 1e-7
DEFAULT_ZERO_TOL = 1e-8
CONTROL_GAP = 1e-2
H_NORM_TOL = 1e-6


def _enorm(v) -> float:
    return float(np.linalg.norm(v))


@dataclass
class Frame:
    """All jet data of a chart at one point, arranged for tensor work.

    `second` holds the ambient second derivatives with the space-form
    position component already removed, indexed [i, j, :]; `third` (when
    present) is indexed [i, j, k, :].
    """

    chart: ImmersionChart
    point: np.ndarray
    value: np.ndarray
    jac: np.ndarray          # (N, m): column i is the tangent vector d_i f
    second: np.ndarray       # (m, m, N)
    third: np.ndarray | None  # (m, m, m, N)
    metric: np.ndarray       # (m, m) induced first fundamental form
    scale: float

    @property
    def m(self) -> int:
        return self.jac.shape[1]

    @property
    def ambient_metric(self) -> np.ndarray:
        return self.chart.ambient.metric()

    @property
    def epsilon(self) -> int:
        return self.chart.ambient.epsilon


def build_frame(chart: ImmersionChart, point, order: int = 3) -> Frame:
    """Evaluate jets and assemble the pointwise curvature data."""
    val, jac, hess, third = chart.jet_arrays(point, order)
    G = chart.ambient.metric()
    eps = chart.ambient.epsilon
    g = jac.T @ G @ jac
    g = 0.5 * (g + g.T)
    D = np.transpose(hess, (1, 2, 0)).copy()
    T3 = None if third is None else np.transpose(third, (1, 2, 3, 0)).copy()
    if eps != 0:
        Gy = G @ val
        D -= eps * np.einsum("ijn,n->ij", D, Gy)[:, :, None] * val
        if T3 is not None:
            T3 = T3 - eps * np.einsum("ijkn,n->ijk", T3, Gy)[..., None] * val
    scale = max(1.0, float(np.max(np.abs(D))), float(np.max(np.abs(g))))
    return Frame(chart, np.asarray(point, dtype=float), val, jac, D, T3,
                 g, scale)


def induced_metric(chart: ImmersionChart, point) -> tuple[np.ndarray, Signature]:
    """First fundamental form and its numerical signature at a point."""
    fr = build_frame(chart, point, order=2)
    return fr.metric, B.signature_of(fr.metric)


# ---------------------------------------------------------------------------
# Non-degenerate branch
# ---------------------------------------------------------------------------

def _nondegenerate_tensors(fr: Frame):
    """Christoffel coefficients, second fundamental form, mean curvature."""
    m = fr.m
    G = fr.ambient_metric
    TG = fr.jac.T @ G                       # (m, N)
    rhs = np.einsum("ln,ijn->lij", TG, fr.second)
    gamma = np.linalg.solve(fr.metric, rhs.reshape(m, m * m)).reshape(m, m, m)
    tangential = np.einsum("lij,nl->ijn", gamma, fr.jac)
    h = fr.second - tangential
    ginv = np.linalg.inv(fr.metric)
    H = np.einsum("ij,ijn->n", ginv, h) / m
    return gamma, h, H


def parallelism_residual(fr: Frame) -> float:
    """Max norm of the normal covariant derivative of the shape tensor.

    Requires a non-degenerate induced metric and order-3 jets.
    """
    if fr.third is None:
        raise InputError("parallelism needs order-3 jets")
    if B.signature_of(fr.metric).degenerate:
        raise DegenerateMetricError(
            "normal covariant derivative needs a non-degenerate induced metric")
    gamma, h, _ = _nondegenerate_tensors(fr)
    G = fr.ambient_metric
    ginv = np.linalg.inv(fr.metric)
    P_tan = fr.jac @ ginv @ fr.jac.T @ G
    m = fr.m
    worst = 0.0
    for k in range(m):
        for i in range(m):
            for j in range(i, m):
                v = fr.third[i, j, k].copy()
                if fr.epsilon != 0:
                    v -= fr.epsilon * float(np.dot(G @ fr.value, v)) * fr.value
                v -= P_tan @ v
                v -= np.einsum("l,ln->n", gamma[:, i, j], h[k, :])
                v -= np.einsum("l,ln->n", gamma[:, k, i], h[j, :])
                v -= np.einsum("l,ln->n", gamma[:, k, j], h[i, :])
                worst = max(worst, _enorm(v))
    return worst / fr.scale


# ---------------------------------------------------------------------------
# Degenerate (quotient) branch
# ---------------------------------------------------------------------------

def quotient_representative(fr: Frame, vector: np.ndarray,
                            complement: np.ndarray | None = None) -> np.ndarray:
    """A representative of [vector] modulo the tangent span.

    With `complement` (rows spanning a complement of the tangent span) the
    representative is taken inside that complement; otherwise the original
    vector is returned unchanged.  Residual norms downstream are invariant
    under this choice because they project off the tangent span anyway.
    """
    if complement is None:
        return vector
    comp = np.atleast_2d(np.asarray(complement, dtype=float))
    A = np.hstack([fr.jac, comp.T])
    coef, *_ = np.linalg.lstsq(A, vector, rcond=None)
    rep = comp.T @ coef[fr.m:]
    if _enorm(A @ coef - vector) > 1e-8 * max(1.0, _enorm(vector)):
        raise InputError("complement does not span a complement of the tangent space")
    return rep


@dataclass
class UmbilicityData:
    umbilicity_residual: float
    geodesic_residual: float
    mean_curvature: np.ndarray | None   # ambient vector, None when degenerate
    h_norm: float | None
    first_normal_rank: int
    totally_degenerate_metric: bool = False


def umbilicity_data(fr: Frame, tol_zero: float = DEFAULT_ZERO_TOL,
                    complement: np.ndarray | None = None) -> UmbilicityData:
    """Umbilicity and geodesy residuals, mean curvature when defined.

    Non-degenerate metric: residuals of h_ij - g_ij H and of h_ij itself.
    Degenerate metric: the same residuals for the classes of the second
    derivatives modulo the tangent span, using the largest metric entry as
    pivot; norms are taken after projecting off the tangent span so they
    do not depend on any choice of complement.
    """
    sig = B.signature_of(fr.metric, tol_zero)
    m = fr.m
    if not sig.degenerate:
        _, h, H = _nondegenerate_tensors(fr)
        G = fr.ambient_metric
        geo = max(_enorm(h[i, j]) for i in range(m) for j in range(i, m))
        umb = max(_enorm(h[i, j] - fr.metric[i, j] * H)
                  for i in range(m) for j in range(i, m))
        h_norm = float(H @ G @ H)
        rank = B.numerical_rank(h.reshape(m * m, -1))
        return UmbilicityData(umb / fr.scale, geo / fr.scale, H, h_norm, rank)

    basis = B.row_space_basis(fr.jac.T)   # rows span the tangent space

    def off_tangent(v):
        return v - basis.T @ (basis @ v)

    geo = max(_enorm(off_tangent(fr.second[i, j]))
              for i in range(m) for j in range(i, m))
    gmax = float(np.max(np.abs(fr.metric)))
    if gmax <= tol_zero * fr.scale:
        # metric identically zero: umbilicity is vacuous
        return UmbilicityData(0.0, geo / fr.scale, None, None,
                              B.numerical_rank(np.stack(
                                  [off_tangent(fr.second[i, j])
                                   for i in range(m) for j in range(m)])),
                              totally_degenerate_metric=True)
    piv = np.unravel_index(np.argmax(np.abs(fr.metric)), fr.metric.shape)
    pivot_class = quotient_representative(fr, fr.second[piv], complement)
    umb = 0.0
    residual_classes = []
    for i in range(m):
        for j in range(i, m):
            rep = quotient_representative(fr, fr.second[i, j], complement)
            r = rep - (fr.metric[i, j] / fr.metric[piv]) * pivot_class
            residual_classes.append(off_tangent(fr.second[i, j]))
            umb = max(umb, _enorm(off_tangent(r)))
    rank = B.numerical_rank(np.stack(residual_classes))
    return UmbilicityData(umb / fr.scale, geo / fr.scale, None, None, rank)


# ---------------------------------------------------------------------------
# Point report
# ---------------------------------------------------------------------------

@dataclass
class PointReport:
    """Geometric invariants of a chart at a single point."""

    point: np.ndarray
    metric: np.ndarray
    metric_signature: Signature
    radical_rank: int
    umbilicity_residual: float
    geodesic_residual: float
    mean_curvature: np.ndarray | None
    h_norm: float | None
    minimal_residual: float | None
    parallel_residual: float | None
    first_normal_rank: int
    radical_last_var_residual: float | None
    totally_degenerate_metric: bool

    def flags(self, tol: float = DEFAULT_TOL) -> dict:
        mt = None
        if self.h_norm is not None and self.minimal_residual is not None:
            mt = self.minimal_residual > tol and abs(self.h_norm) <= tol
        return {
            "totally_geodesic": self.geodesic_residual <= tol,
            "totally_umbilical": self.umbilicity_residual <= tol,
            "minimal": (self.minimal_residual is not None
                        and self.minimal_residual <= tol)
                       or (self.minimal_residual is None
                           and self.geodesic_residual <= tol),
            "marginally_trapped": mt,
            "parallel": None if self.parallel_residual is None
                        else self.parallel_residual <= tol,
        }


def analyze_point(chart: ImmersionChart, point, order: int = 3,
                  tol_zero: float = DEFAULT_ZERO_TOL,
                  complement: np.ndarray | None = None) -> PointReport:
    """Full pointwise report: metric, residuals, curvature invariants."""
    fr = build_frame(chart, point, order)
    sig = B.signature_of(fr.metric, tol_zero)
    data = umbilicity_data(fr, tol_zero, complement)
    minimal_res = None
    h_norm = data.h_norm
    if data.mean_curvature is not None:
        minimal_res = _enorm(data.mean_curvature)
    par = None
    if not sig.degenerate and order == 3:
        par = parallelism_residual(fr)
    rad_res = None
    if sig.degenerate:
        rads = B.radical_basis(fr.metric, tol_zero)
        R = np.stack(rads)
        e_last = np.zeros(fr.m)
        e_last[-1] = 1.0
        rad_res = _enorm(e_last - R.T @ (R @ e_last))
    return PointReport(fr.point, fr.metric, sig, sig.null,
                       data.umbilicity_residual, data.geodesic_residual,
                       data.mean_curvature, h_norm, minimal_res, par,
                       data.first_normal_rank, rad_res,
                       data.totally_degenerate_metric)


# ---------------------------------------------------------------------------
# Sample-based reduction and fullness
# ---------------------------------------------------------------------------

@dataclass
class ReductionReport:
    """Affine hull of a sampled image and its translation type.

    translation_class: "linear" (hull is a linear subspace), "v_S"/"v_T"/
    "v_L" (spacelike/timelike/lightlike translation of one), or "+N"
    (degenerate hull direction with a genuine offset along a transversal
    to the direction space's radical).
    """

    hull_dim: int
    direction_signature: Signature
    translation_class: str
    rho: float | None
    offset_norm_sq: float


def _hull_samples(chart: ImmersionChart) -> int:
    """Image points sampled for the hull and fullness: at least 40, and
    enough to span an affine hull of the full embedding dimension."""
    return max(40, chart.ambient.flat_dim + 2)


def reduction_report(chart: ImmersionChart, seed: int = 42,
                     tol: float = DEFAULT_TOL,
                     tol_zero: float = DEFAULT_ZERO_TOL) -> ReductionReport:
    """Classify the affine hull of sampled image points."""
    Y = chart.sample_values(_hull_samples(chart), seed)
    base = Y[0]
    W = B.row_space_basis(Y[1:] - base, tol_zero)
    hull_dim = W.shape[0]
    G = chart.ambient.metric()
    gram = W @ G @ W.T
    dir_sig = B.signature_of(gram, tol_zero)
    if dir_sig.degenerate:
        offset = base - W.T @ (W @ base)
        coeff = 0.0
        for xi in B.radical_basis(gram, tol_zero):
            coeff = max(coeff, abs(float((xi @ W) @ G @ offset)))
        cls = "+N" if coeff > tol else "linear"
        return ReductionReport(hull_dim, dir_sig, cls, None, float("nan"))
    if hull_dim == 0:
        return ReductionReport(0, dir_sig, "linear", None, 0.0)
    proj = W.T @ np.linalg.solve(gram, W @ G)
    v = base - proj @ base
    vv = float(v @ G @ v)
    if _enorm(v) <= tol:
        cls, rho = "linear", None
    elif vv > tol:
        cls, rho = "v_S", math.sqrt(vv)
    elif vv < -tol:
        cls, rho = "v_T", math.sqrt(-vv)
    else:
        cls, rho = "v_L", None
    return ReductionReport(hull_dim, dir_sig, cls, rho, vv)


def fullness(chart: ImmersionChart, seed: int = 42,
             tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether the image lies in no proper non-degenerate subspace.

    The complement of the linear span of sampled image points carries the
    restricted ambient form; the immersion is full iff that restriction
    vanishes (the complement is totally degenerate or trivial).
    """
    Y = chart.sample_values(_hull_samples(chart), seed)
    C = B.null_space_basis(Y)
    if C.shape[0] == 0:
        return True, 0.0
    G = chart.ambient.metric()
    residual = float(np.max(np.abs(C @ G @ C.T)))
    return residual <= tol, residual


# ---------------------------------------------------------------------------
# Family-level verification against catalog expectations
# ---------------------------------------------------------------------------

@dataclass
class FamilyVerdict:
    """Outcome of checking one family instance against its expectations."""

    family_id: str
    params: dict
    ok: bool
    failures: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)


def _check_flag(verdict, name, computed, expected):
    if expected is None or computed is None:
        return
    if bool(computed) != bool(expected):
        verdict.failures.append(
            f"{name}: computed {computed}, catalog asserts {expected}")


def verify_family(family_id: str, params: dict | None = None, *,
                  samples: int = 5, seed: int = 42, tol: float = DEFAULT_TOL,
                  tol_zero: float = DEFAULT_ZERO_TOL,
                  order: int = 3) -> FamilyVerdict:
    """Check every asserted property of a catalog family numerically.

    Pointwise residuals are measured at `samples` seeded chart points and
    aggregated by worst case; hull reduction and fullness use a larger
    sample of image points.  Expected-vs-computed disagreements listed in
    the entry's discrepancy allowance are reported, not failed.
    """
    spec = get_family(family_id)
    merged = resolve_params(family_id, params)
    chart = spec.build(merged)
    expected: Expected = spec.expect(merged)
    verdict = FamilyVerdict(spec.id, merged, True)

    points = chart.sample_points(samples, seed)
    reports = [analyze_point(chart, p, order, tol_zero) for p in points]

    umb = max(r.umbilicity_residual for r in reports)
    geo = max(r.geodesic_residual for r in reports)
    ranks = sorted({r.radical_rank for r in reports})
    verdict.summary.update({
        "umbilicity_residual": umb,
        "geodesic_residual": geo,
        "radical_rank": ranks[-1],
        "metric_signature": reports[0].metric_signature.as_tuple(),
        "first_normal_rank": max(r.first_normal_rank for r in reports),
    })
    if len(ranks) > 1:
        verdict.failures.append(f"radical rank varies over samples: {ranks}")

    # degeneracy
    if ranks[-1] != expected.radical_rank:
        allowed = expected.discrepancy_allowed.get("radical_rank", ())
        msg = (f"radical_rank: computed {ranks[-1]}, catalog asserts "
               f"{expected.radical_rank}")
        if ranks[-1] in allowed:
            verdict.discrepancies.append(msg + " (allowed discrepancy)")
        else:
            verdict.failures.append(msg)

    # umbilicity / geodesy
    if expected.totally_umbilical:
        if umb > tol:
            verdict.failures.append(f"umbilicity residual {umb:.3e} > {tol}")
    else:
        if umb < CONTROL_GAP:
            verdict.failures.append(
                f"negative control: umbilicity residual {umb:.3e} below "
                f"the required gap {CONTROL_GAP}")
    _check_flag(verdict, "totally_geodesic", geo <= tol,
                expected.totally_geodesic)

    # mean curvature invariants (non-degenerate entries only)
    h_norms = [r.h_norm for r in reports if r.h_norm is not None]
    if h_norms:
        spread = max(h_norms) - min(h_norms)
        h_norm = float(np.median(h_norms))
        verdict.summary["h_norm"] = h_norm
        if expected.totally_umbilical and spread > H_NORM_TOL:
            verdict.failures.append(
                f"mean curvature norm varies over samples by {spread:.3e}")
        if expected.h_norm is not None:
            if abs(h_norm - expected.h_norm) > H_NORM_TOL:
                verdict.failures.append(
                    f"h_norm: computed {h_norm!r}, catalog asserts "
                    f"{expected.h_norm!r}")
        if expected.h_norm_range is not None:
            lo, hi = expected.h_norm_range
            if not (lo < h_norm < hi):
                verdict.failures.append(
                    f"h_norm {h_norm!r} outside the open range ({lo}, {hi})")
        min_res = max(r.minimal_residual for r in reports)
        _check_flag(verdict, "minimal", min_res <= tol, expected.minimal)
        flags = [r.flags(tol)["marginally_trapped"] for r in reports]
        _check_flag(verdict, "marginally_trapped", all(flags),
                    expected.marginally_trapped)
    elif expected.minimal is not None:
        # degenerate metric: minimality only asserted through geodesy
        _check_flag(verdict, "minimal", geo <= tol, expected.minimal)

    # parallelism
    pars = [r.parallel_residual for r in reports
            if r.parallel_residual is not None]
    if pars and expected.parallel is not None:
        par = max(pars)
        verdict.summary["parallel_residual"] = par
        if expected.parallel:
            if par > tol:
                verdict.failures.append(
                    f"parallelism residual {par:.3e} > {tol}")
        elif par < CONTROL_GAP:
            verdict.failures.append(
                f"negative control: parallelism residual {par:.3e} below "
                f"the required gap {CONTROL_GAP}")

    # radical position
    if expected.radical_contains_last_var:
        res = max((r.radical_last_var_residual for r in reports
                   if r.radical_last_var_residual is not None),
                  default=None)
        if res is None:
            verdict.failures.append(
                "radical asserted to contain the last chart direction but "
                "the metric is non-degenerate")
        elif res > tol:
            verdict.failures.append(
                f"last chart direction is not in the metric radical "
                f"(residual {res:.3e})")

    # fullness
    if expected.full is not None:
        is_full, res = fullness(chart, seed=seed, tol=tol)
        verdict.summary["full"] = is_full
        _check_flag(verdict, "full", is_full, expected.full)

    # hull reduction
    if expected.hull_dim is not None or expected.translation_class is not None:
        red = reduction_report(chart, seed=seed, tol=tol, tol_zero=tol_zero)
        verdict.summary.update({
            "hull_dim": red.hull_dim,
            "translation_class": red.translation_class,
            "rho": red.rho,
        })
        if expected.hull_dim is not None and red.hull_dim != expected.hull_dim:
            verdict.failures.append(
                f"hull dimension: computed {red.hull_dim}, catalog asserts "
                f"{expected.hull_dim}")
        if (expected.translation_class is not None
                and red.translation_class != expected.translation_class):
            verdict.failures.append(
                f"translation class: computed {red.translation_class!r}, "
                f"catalog asserts {expected.translation_class!r}")
        if expected.rho is not None:
            if red.rho is None or abs(red.rho - expected.rho) > H_NORM_TOL:
                verdict.failures.append(
                    f"translation length: computed {red.rho!r}, catalog "
                    f"asserts {expected.rho!r}")

    verdict.ok = not verdict.failures
    return verdict
