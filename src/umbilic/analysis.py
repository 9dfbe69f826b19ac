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
from .charts import ImmersionChart, ambient_residual, fd_jet_arrays
from .errors import DegenerateMetricError, DomainError, InputError

DEFAULT_TOL = 1e-7
DEFAULT_ZERO_TOL = 1e-8
CONTROL_GAP = 1e-2
H_NORM_TOL = 1e-6
FD_TOL = 1e-5
FD_STEP = 1e-4


def _enorm(v) -> float:
    """Euclidean norm along the last axis, maximized over any leading axes."""
    return float(np.max(np.linalg.norm(v, axis=-1)))


@dataclass
class Frame:
    """All jet data of a chart at one point, arranged for tensor work.

    `second` holds the ambient second derivatives with the space-form
    position component already removed, indexed [i, j, :]; `third` (when
    present) is indexed [i, j, k, :].  `signature` is the induced metric's
    signature, decided once at the `tol_zero` given to `build_frame`; every
    pointwise computation on the frame branches on it.
    """

    chart: ImmersionChart
    point: np.ndarray
    value: np.ndarray
    jac: np.ndarray          # (N, m): column i is the tangent vector d_i f
    second: np.ndarray       # (m, m, N)
    third: np.ndarray | None  # (m, m, m, N)
    metric: np.ndarray       # (m, m) induced first fundamental form
    scale: float
    signature: Signature
    ginv: np.ndarray | None  # inverse metric, None when degenerate
    tensors: tuple | None = field(default=None, init=False, repr=False)

    @property
    def m(self) -> int:
        return self.jac.shape[1]

    @property
    def ambient_metric(self) -> np.ndarray:
        return self.chart.ambient.metric()

    @property
    def epsilon(self) -> int:
        return self.chart.ambient.epsilon


def build_frame(chart: ImmersionChart, point, order: int = 3,
                tol_zero: float = DEFAULT_ZERO_TOL) -> Frame:
    """Evaluate jets and assemble the pointwise curvature data.

    Raises DomainError when a jet is not finite (a closed form overflowed
    at an extreme parameter).
    """
    point = np.asarray(point, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        arrays = chart.jet_arrays(point, order)
    if not all(a is None or np.all(np.isfinite(a)) for a in arrays):
        raise DomainError(
            f"jets of {chart.name!r} are not finite at u={point.tolist()}")
    val, jac, hess, third = arrays
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
    sig = B.signature_of(g, tol_zero)
    ginv = None if sig.degenerate else np.linalg.inv(g)
    return Frame(chart, point, val, jac, D, T3, g, scale, sig, ginv)


def induced_metric(chart: ImmersionChart, point) -> tuple[np.ndarray, Signature]:
    """First fundamental form and its numerical signature at a point."""
    fr = build_frame(chart, point, order=2)
    return fr.metric, fr.signature


# ---------------------------------------------------------------------------
# Non-degenerate branch
# ---------------------------------------------------------------------------

def _nondegenerate_tensors(fr: Frame):
    """Christoffel coefficients, second fundamental form, mean curvature.

    Needs a non-degenerate induced metric; computed once per frame.
    """
    if fr.tensors is None:
        m = fr.m
        TG = fr.jac.T @ fr.ambient_metric                # (m, N)
        rhs = np.einsum("ln,ijn->lij", TG, fr.second)
        gamma = np.linalg.solve(fr.metric,
                                rhs.reshape(m, m * m)).reshape(m, m, m)
        h = fr.second - np.einsum("lij,nl->ijn", gamma, fr.jac)
        H = np.einsum("ij,ijn->n", fr.ginv, h) / m
        fr.tensors = gamma, h, H
    return fr.tensors


def parallelism_residual(fr: Frame) -> float:
    """Max norm of the normal covariant derivative of the shape tensor.

    Requires a non-degenerate induced metric and order-3 jets.
    """
    if fr.third is None:
        raise InputError("parallelism needs order-3 jets")
    if fr.signature.degenerate:
        raise DegenerateMetricError(
            "normal covariant derivative needs a non-degenerate induced metric")
    gamma, h, _ = _nondegenerate_tensors(fr)
    P_tan = fr.jac @ fr.ginv @ fr.jac.T @ fr.ambient_metric
    # c[a, b, c] = gamma[:, a, b] . h[c]
    c = np.einsum("lab,cln->abcn", gamma, h)
    T = fr.third
    if fr.epsilon != 0:
        Gy = fr.ambient_metric @ fr.value
        T = T - fr.epsilon * (T @ Gy)[..., None] * fr.value
    v = T - T @ P_tan.T
    v -= c
    v -= c.transpose(1, 2, 0, 3)   # c[k, i, j] at [i, j, k]
    v -= c.transpose(2, 1, 0, 3)   # c[k, j, i] at [i, j, k]
    return _enorm(v) / fr.scale


# ---------------------------------------------------------------------------
# Degenerate (quotient) branch
# ---------------------------------------------------------------------------

@dataclass
class UmbilicityData:
    umbilicity_residual: float
    geodesic_residual: float
    mean_curvature: np.ndarray | None   # ambient vector, None when degenerate
    h_norm: float | None
    first_normal_rank: int
    totally_degenerate_metric: bool = False


def umbilicity_data(fr: Frame) -> UmbilicityData:
    """Umbilicity and geodesy residuals, mean curvature when defined.

    Non-degenerate metric: residuals of h_ij - g_ij H and of h_ij itself.
    Degenerate metric: the same residuals for the classes of the second
    derivatives modulo the tangent span, using the largest metric entry as
    pivot; each class is represented by its part off the tangent span, so
    no choice of representative enters.
    """
    m = fr.m
    iu = np.triu_indices(m)
    if not fr.signature.degenerate:
        _, h, H = _nondegenerate_tensors(fr)
        geo = _enorm(h[iu])
        umb = _enorm(h[iu] - fr.metric[iu][:, None] * H)
        h_norm = float(H @ fr.ambient_metric @ H)
        rank = B.numerical_rank(h.reshape(m * m, -1))
        return UmbilicityData(umb / fr.scale, geo / fr.scale, H, h_norm, rank)

    basis = B.row_space_basis(fr.jac.T)   # rows span the tangent space
    classes = fr.second - (fr.second @ basis.T) @ basis
    geo = _enorm(classes[iu])
    if fr.signature.null == m:
        # metric identically zero: umbilicity is vacuous
        return UmbilicityData(0.0, geo / fr.scale, None, None,
                              B.numerical_rank(classes.reshape(m * m, -1)),
                              totally_degenerate_metric=True)
    piv = np.unravel_index(np.argmax(np.abs(fr.metric)), fr.metric.shape)
    ratios = fr.metric[iu] / fr.metric[piv]
    umb = _enorm(classes[iu] - ratios[:, None] * classes[piv])
    rank = B.numerical_rank(classes[iu])
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
                  tol_zero: float = DEFAULT_ZERO_TOL) -> PointReport:
    """Full pointwise report: metric, residuals, curvature invariants."""
    fr = build_frame(chart, point, order, tol_zero)
    sig = fr.signature
    data = umbilicity_data(fr)
    minimal_res = None
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
                       data.mean_curvature, data.h_norm, minimal_res, par,
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


def _fd_cross_check(chart, tol_zero: float, seed: int) -> list[str]:
    """Independent finite-difference check of one entry's jets and metric.

    Compares first and second derivatives against the central-difference
    oracle, and requires the induced-metric signature computed from the
    oracle's jacobian to agree with the jet-based one under the active
    zero tolerance.  An overtight tolerance turns the oracle's O(step^2)
    truncation error into phantom metric rank, which this check reports.
    """
    failures = []
    point = chart.sample_points(1, seed)[0]
    _, jac, hess, _ = chart.jet_arrays(point, order=2)
    _, fjac, fhess, _ = fd_jet_arrays(chart, point, FD_STEP)
    d1 = float(np.max(np.abs(jac - fjac)))
    d2 = float(np.max(np.abs(hess - fhess)))
    if max(d1, d2) > FD_TOL:
        failures.append(
            f"finite-difference oracle disagrees with jets "
            f"(jacobian {d1:.3e}, hessian {d2:.3e} > {FD_TOL})")
    G = chart.ambient.metric()
    g_jet = jac.T @ G @ jac
    g_fd = fjac.T @ G @ fjac
    sig_jet = B.signature_of(0.5 * (g_jet + g_jet.T), tol_zero)
    sig_fd = B.signature_of(0.5 * (g_fd + g_fd.T), tol_zero)
    if sig_jet != sig_fd:
        failures.append(
            f"metric signature unstable under the oracle cross-check at "
            f"tol_zero={tol_zero:g}: jets {sig_jet.as_tuple()} vs "
            f"finite differences {sig_fd.as_tuple()}")
    return failures


def verify_family(family_id: str, params: dict | None = None, *,
                  samples: int = 5, seed: int = 42, tol: float = DEFAULT_TOL,
                  tol_zero: float = DEFAULT_ZERO_TOL,
                  order: int = 3) -> FamilyVerdict:
    """Check every asserted property of a catalog family numerically.

    Pointwise residuals are measured at `samples` seeded chart points and
    aggregated by worst case; hull reduction and fullness use a larger
    sample of image points; a finite-difference oracle cross-checks the
    jets at one more point.  Expected-vs-computed disagreements listed in
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
    off = ambient_residual(chart, points)
    if off > tol:
        verdict.failures.append(
            f"image off its space form: ambient residual {off:.3e} > {tol}")

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

    # mean curvature invariants (points with a non-degenerate metric only)
    nondegenerate = [r for r in reports if r.h_norm is not None]
    h_norms = [r.h_norm for r in nondegenerate]
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
        min_res = max(r.minimal_residual for r in nondegenerate)
        _check_flag(verdict, "minimal", min_res <= tol, expected.minimal)
        flags = [r.flags(tol)["marginally_trapped"] for r in nondegenerate]
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

    verdict.failures.extend(_fd_cross_check(chart, tol_zero, seed))
    verdict.ok = not verdict.failures
    return verdict
