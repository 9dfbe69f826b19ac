"""Pointwise differential geometry of immersion charts.

Induced metric, second fundamental form (with a quotient formulation when
the induced metric is degenerate), mean curvature, umbilicity and
parallelism residuals, plus sample-based affine-hull reduction and
fullness.  Everything is computed in the flat embedding coordinates of
the chart's ambient space form.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import bilinear as B
from . import jets as J
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


def _enorm(v, axes: int = 0):
    """Euclidean norm along the last axis, maximized over the `axes` axes
    before it; any leading point axes are kept."""
    n = np.sqrt(np.sum(v * v, axis=-1))
    return n.max(axis=tuple(range(-axes, 0))) if axes else n


@dataclass
class Frame:
    """All jet data of a chart at one point or a stack of points, arranged
    for tensor work.

    `second` holds the ambient second derivatives with the space-form
    position component already removed, one row per sorted pair i <= j
    (`jets.packed_indices`); `third` (when present) holds the third
    derivatives, with the same component removed, one row per sorted
    triple i <= j <= k.  A frame built on a (P, m) stack carries a leading
    point axis on every array and on `scale`, and `signature` is then a
    list with one entry per point.  The induced metric's signature is
    decided once, at the `tol_zero` given to `build_frame`; every pointwise
    computation on the frame branches on it, so a stack must be split by
    `branches` before that.
    """

    chart: ImmersionChart
    point: np.ndarray
    value: np.ndarray
    jac: np.ndarray          # (..., N, m): column i is the tangent vector d_i f
    second: np.ndarray       # (..., T2, N), T2 = m(m+1)/2
    third: np.ndarray | None  # (..., T3, N), T3 = m(m+1)(m+2)/6
    metric: np.ndarray       # (..., m, m) induced first fundamental form
    scale: np.ndarray        # (...)
    signature: Signature | list
    tensors: tuple | None = field(default=None, init=False, repr=False)

    @property
    def m(self) -> int:
        return self.jac.shape[-1]

    @property
    def ambient_metric(self) -> np.ndarray:
        return self.chart.ambient.metric()

    @property
    def epsilon(self) -> int:
        return self.chart.ambient.epsilon

    @functools.cached_property
    def ginv(self) -> np.ndarray:
        """Inverse induced metric; needs a non-degenerate metric."""
        return np.linalg.inv(self.metric)

    @functools.cached_property
    def branch(self) -> tuple[bool, bool]:
        """(degenerate, metric vanishes), shared by every point."""
        sigs = self.signature if isinstance(self.signature, list) \
            else [self.signature]
        kinds = {_branch(s) for s in sigs}
        if len(kinds) != 1:
            raise InputError("frame mixes metric branches; split it first")
        return kinds.pop()

    def branches(self) -> list:
        """(indices, frame) for each branch among the points of a stacked
        frame; the frame itself when every point shares one."""
        groups: dict = {}
        for k, sig in enumerate(self.signature):
            groups.setdefault(_branch(sig), []).append(k)
        if len(groups) == 1:
            return [(list(range(len(self.signature))), self)]
        return [(idx, self._take(idx)) for idx in groups.values()]

    def _take(self, idx: list) -> "Frame":
        third = None if self.third is None else self.third[idx]
        return Frame(self.chart, self.point[idx], self.value[idx],
                     self.jac[idx], self.second[idx], third, self.metric[idx],
                     self.scale[idx], [self.signature[k] for k in idx])


def _branch(sig: Signature) -> tuple[bool, bool]:
    return sig.degenerate, sig.null == sig.dim


def build_frame(chart: ImmersionChart, points, order: int = 3,
                tol_zero: float = DEFAULT_ZERO_TOL) -> Frame:
    """Evaluate jets and assemble the pointwise curvature data at one
    point (m,) or, in one walk, at a (P, m) stack of points.

    Raises DomainError when a jet is not finite (a closed form overflowed
    at an extreme parameter), naming the first such point.
    """
    points = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):  # checked just below
        arrays = chart.jet_arrays(points, order)
    if not all(a is None or np.isfinite(a).all() for a in arrays):
        finite = np.ones(points.shape[:-1], dtype=bool)
        for a in arrays:
            if a is not None:
                finite &= np.isfinite(a).reshape(finite.shape + (-1,)).all(-1)
        bad = points[np.unravel_index(np.argmin(finite), finite.shape)]
        raise DomainError(
            f"jets of {chart.name!r} are not finite at u={bad.tolist()}")
    val, jac, hess, third = arrays
    G = chart.ambient.metric()
    eps = chart.ambient.epsilon
    g = np.swapaxes(jac, -1, -2) @ G @ jac
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    D = np.swapaxes(hess, -1, -2)
    T3 = None if third is None else np.swapaxes(third, -1, -2)
    if eps != 0:
        Gy = val @ G
        y = val[..., None, :]
        D = D - eps * np.einsum("...pn,...n->...p", D, Gy)[..., None] * y
        if T3 is not None:
            T3 = T3 - eps * np.einsum("...pn,...n->...p", T3, Gy)[..., None] * y
    scale = np.maximum(1.0, np.maximum(np.abs(D).max(axis=(-2, -1)),
                                       np.abs(g).max(axis=(-2, -1))))
    sig = B.signature_of(g, tol_zero)
    return Frame(chart, points, val, jac, D, T3, g, scale, sig)


def induced_metric(chart: ImmersionChart, point) -> tuple[np.ndarray, Signature]:
    """First fundamental form and its numerical signature at a point."""
    fr = build_frame(chart, point, order=2)
    return fr.metric, fr.signature


# ---------------------------------------------------------------------------
# Non-degenerate branch
# ---------------------------------------------------------------------------

def _nondegenerate_tensors(fr: Frame):
    """Christoffel coefficients gamma (..., m, T2), indexed [l, ij], second
    fundamental form h (..., T2, N) and mean curvature H (..., N).

    Needs a non-degenerate induced metric; computed once per frame.
    """
    if fr.tensors is None:
        TG = np.swapaxes(fr.jac, -1, -2) @ fr.ambient_metric   # (..., m, N)
        gamma = np.linalg.solve(
            fr.metric, np.einsum("...ln,...pn->...lp", TG, fr.second))
        h = fr.second - np.swapaxes(fr.jac @ gamma, -1, -2)
        # each off-diagonal row stands for both h_ij and h_ji
        i, j = J.packed_indices(fr.m, 2)
        weights = fr.ginv[..., i, j] * np.where(i == j, 1.0, 2.0)
        H = np.einsum("...p,...pn->...n", weights, h) / fr.m
        fr.tensors = gamma, h, H
    return fr.tensors


def parallelism_residual(fr: Frame):
    """Max norm of the normal covariant derivative of the shape tensor,
    per point of a stacked frame.

    Requires a non-degenerate induced metric and order-3 jets.
    """
    if fr.third is None:
        raise InputError("parallelism needs order-3 jets")
    if fr.branch[0]:
        raise DegenerateMetricError(
            "normal covariant derivative needs a non-degenerate induced metric")
    gamma, h, _ = _nondegenerate_tensors(fr)
    m, N = fr.m, fr.jac.shape[-2]
    lead = fr.metric.shape[:-2]
    # the residual lies in the range of the normal projector I - P_tan, of
    # rank N - m: work in Euclidean-orthonormal coordinates Q of that range
    normal = np.eye(N) - (fr.jac @ fr.ginv @ np.swapaxes(fr.jac, -1, -2)
                          @ fr.ambient_metric)
    Q = np.linalg.eigh(normal @ np.swapaxes(normal, -1, -2))[1][..., m:]
    k = N - m
    # C[ab, c] = sum_l gamma^l_ab h_cl, one row per (sorted pair ab, c)
    h_lc = J.unpack(h @ Q, 2, axis=-2)    # (..., m, m, k)
    C = (np.swapaxes(gamma, -1, -2) @ h_lc.reshape(lead + (m, m * k))
         ).reshape(lead + (-1, k))
    # at each sorted triple ijk: C[ij, k], C[jk, i] and C[ik, j]
    c = C[..., J.split_triples(m), :]
    v = fr.third @ (np.swapaxes(normal, -1, -2) @ Q)
    v -= c[..., 0, :, :]
    v -= c[..., 1, :, :]
    v -= c[..., 2, :, :]
    return _enorm(v, 1) / fr.scale


# ---------------------------------------------------------------------------
# Degenerate (quotient) branch
# ---------------------------------------------------------------------------

@dataclass
class UmbilicityData:
    """Pointwise residuals; arrays with a leading point axis for a stack."""

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
    lead = fr.metric.shape[:-2]
    i, j = J.packed_indices(fr.m, 2)
    g = fr.metric[..., i, j]
    degenerate, vanishes = fr.branch
    if not degenerate:
        _, h, H = _nondegenerate_tensors(fr)
        geo = _enorm(h, 1)
        umb = _enorm(h - g[..., None] * H[..., None, :], 1)
        h_norm = np.sum((H @ fr.ambient_metric) * H, axis=-1)
        return UmbilicityData(umb / fr.scale, geo / fr.scale, H, h_norm,
                              B.numerical_rank(h), np.zeros(lead, dtype=bool))

    # rows span the tangent space
    basis = B.row_space_bases(np.swapaxes(fr.jac, -1, -2))
    classes = fr.second - (fr.second @ np.swapaxes(basis, -1, -2)) @ basis
    geo = _enorm(classes, 1)
    rank = B.numerical_rank(classes)
    if vanishes:
        # metric identically zero: umbilicity is vacuous
        return UmbilicityData(np.zeros(lead), geo / fr.scale, None, None, rank,
                              totally_degenerate_metric=np.ones(lead, dtype=bool))
    # the first largest entry of a symmetric matrix is a sorted pair
    piv = np.argmax(np.abs(g), axis=-1)[..., None]
    ratios = g / np.take_along_axis(g, piv, -1)
    pivot_class = np.take_along_axis(classes, piv[..., None], -2)
    umb = _enorm(classes - ratios[..., None] * pivot_class, 1)
    return UmbilicityData(umb / fr.scale, geo / fr.scale, None, None, rank,
                          np.zeros(lead, dtype=bool))


def _radical_last_var(fr: Frame, tol_zero: float):
    """Distance of the last chart direction from the metric radical."""
    eig, vecs = np.linalg.eigh(fr.metric)
    R = vecs * (np.abs(eig) <= tol_zero)[..., None, :]   # radical columns
    e_last = np.zeros(fr.m)
    e_last[-1] = 1.0
    return _enorm(e_last - np.einsum("...ij,...j->...i", R, R[..., -1, :]))


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


def analyze_points(chart: ImmersionChart, points, order: int = 3,
                   tol_zero: float = DEFAULT_ZERO_TOL) -> list[PointReport]:
    """Full pointwise reports at a (P, m) stack of points, from one frame.

    The points are split by the branch of their own metric signature, and
    each branch is computed for all of its points at once.
    """
    fr = build_frame(chart, points, order, tol_zero)
    reports: list = [None] * len(fr.signature)
    for idx, sub in fr.branches():
        degenerate = sub.branch[0]
        data = umbilicity_data(sub)
        H = data.mean_curvature
        minimal = None if H is None else _enorm(H)
        par = None
        if not degenerate and order == 3:
            par = parallelism_residual(sub)
        rad = _radical_last_var(sub, tol_zero) if degenerate else None
        for n, k in enumerate(idx):
            sig = sub.signature[n]
            reports[k] = PointReport(
                sub.point[n], sub.metric[n], sig, sig.null,
                float(data.umbilicity_residual[n]),
                float(data.geodesic_residual[n]),
                None if H is None else H[n],
                None if H is None else float(data.h_norm[n]),
                None if H is None else float(minimal[n]),
                None if par is None else float(par[n]),
                int(data.first_normal_rank[n]),
                None if rad is None else float(rad[n]),
                bool(data.totally_degenerate_metric[n]))
    return reports


def analyze_point(chart: ImmersionChart, point, order: int = 3,
                  tol_zero: float = DEFAULT_ZERO_TOL) -> PointReport:
    """Full pointwise report: metric, residuals, curvature invariants."""
    point = np.asarray(point, dtype=float)
    return analyze_points(chart, point[None], order, tol_zero)[0]


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


def hull_sample(chart: ImmersionChart, seed: int = 42) -> np.ndarray:
    """The image points sampled for the hull and fullness: at least 40,
    and enough to span an affine hull of the full embedding dimension."""
    return chart.sample_values(max(40, chart.ambient.flat_dim + 2), seed)


def reduction_report(chart: ImmersionChart, seed: int = 42,
                     tol: float = DEFAULT_TOL,
                     tol_zero: float = DEFAULT_ZERO_TOL,
                     sample: np.ndarray | None = None) -> ReductionReport:
    """Classify the affine hull of sampled image points; `sample` is
    `hull_sample(chart, seed)` when the caller has drawn it already."""
    Y = hull_sample(chart, seed) if sample is None else sample
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
             tol: float = DEFAULT_TOL,
             sample: np.ndarray | None = None) -> tuple[bool, float]:
    """Whether the image lies in no proper non-degenerate subspace.

    The complement of the linear span of sampled image points carries the
    restricted ambient form; the immersion is full iff that restriction
    vanishes (the complement is totally degenerate or trivial).  `sample`
    is `hull_sample(chart, seed)` when the caller has drawn it already.
    """
    Y = hull_sample(chart, seed) if sample is None else sample
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
    # a non-finite jet fails the comparison below
    with np.errstate(all="ignore"):
        _, jac, hess, _ = chart.jet_arrays(point, order=2)
    _, fjac, fhess, _ = fd_jet_arrays(chart, point, FD_STEP, order=2)
    d1 = float(np.max(np.abs(jac - fjac)))
    d2 = float(np.max(np.abs(hess - fhess)))
    if not (d1 <= FD_TOL and d2 <= FD_TOL):
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
    # a residual that overflows is not finite, and fails below
    with np.errstate(over="ignore", invalid="ignore"):
        reports = analyze_points(chart, points, order, tol_zero)

    def column(name, rows=reports):
        return np.array([getattr(r, name) for r in rows], dtype=float)

    # np.max keeps a NaN wherever it occurs; any non-finite residual fails
    umb = float(np.max(column("umbilicity_residual")))
    geo = float(np.max(column("geodesic_residual")))
    off = ambient_residual(chart, points)
    nondegenerate = [r for r in reports if r.h_norm is not None]
    pars = [r for r in reports if r.parallel_residual is not None]
    residuals = {"umbilicity": umb, "geodesic": geo, "ambient": off,
                 "h_norm": column("h_norm", nondegenerate),
                 "minimal": column("minimal_residual", nondegenerate),
                 "parallel": column("parallel_residual", pars),
                 "radical_last_var": column(
                     "radical_last_var_residual",
                     [r for r in reports
                      if r.radical_last_var_residual is not None])}
    bad = [k for k, v in residuals.items() if not np.all(np.isfinite(v))]
    if bad:
        verdict.failures.append(f"non-finite residuals: {', '.join(bad)}")
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
    h_norms = residuals["h_norm"]
    if h_norms.size:
        spread = float(np.max(h_norms) - np.min(h_norms))
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
        min_res = np.max(residuals["minimal"])
        _check_flag(verdict, "minimal", min_res <= tol, expected.minimal)
        flags = [r.flags(tol)["marginally_trapped"] for r in nondegenerate]
        _check_flag(verdict, "marginally_trapped", all(flags),
                    expected.marginally_trapped)
    elif expected.minimal is not None:
        # degenerate metric: minimality only asserted through geodesy
        _check_flag(verdict, "minimal", geo <= tol, expected.minimal)

    # parallelism
    if pars and expected.parallel is not None:
        par = float(np.max(residuals["parallel"]))
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
        rads = residuals["radical_last_var"]
        if not rads.size:
            verdict.failures.append(
                "radical asserted to contain the last chart direction but "
                "the metric is non-degenerate")
        elif np.max(rads) > tol:
            verdict.failures.append(
                f"last chart direction is not in the metric radical "
                f"(residual {np.max(rads):.3e})")

    # fullness and the hull reduction read one image sample
    hull = expected.hull_dim is not None or expected.translation_class is not None
    sample = (hull_sample(chart, seed) if hull or expected.full is not None
              else None)

    # fullness
    if expected.full is not None:
        is_full, res = fullness(chart, seed=seed, tol=tol, sample=sample)
        verdict.summary["full"] = is_full
        _check_flag(verdict, "full", is_full, expected.full)

    # hull reduction
    if hull:
        red = reduction_report(chart, seed=seed, tol=tol, tol_zero=tol_zero,
                               sample=sample)
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
