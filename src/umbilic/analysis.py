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
from .bilinear import DEFAULT_ZERO_TOL, Signature
from .catalog import family_instance
from .charts import AmbientSpace, ImmersionChart, ambient_residual
from .errors import DegenerateMetricError, DomainError, InputError

DEFAULT_TOL = 1e-7
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
    """All jet data at one point or a stack of points of one ambient space
    form, arranged for tensor work; the points of a stack may come from
    several charts of the same dimension.

    `second` holds the ambient second derivatives with the space-form
    position component already removed, one row per sorted pair i <= j
    (`jets.packed_indices`); `third` (when walked) holds the third
    derivatives, with the same component removed, one row per sorted
    triple i <= j <= k, and is projected on first read.  A frame built on
    a (P, m) stack carries a leading point axis on every array and on
    `scale`, and `signature` is then a list with one entry per point.  The
    induced metric's signature is decided once, at the `tol_zero` given to
    `assemble_frame`; every pointwise computation on the frame branches on
    it, so a stack must be split by `branches` before that.
    """

    ambient: AmbientSpace
    point: np.ndarray
    value: np.ndarray
    jac: np.ndarray          # (..., N, m): column i is the tangent vector d_i f
    second: np.ndarray       # (..., T2, N), T2 = m(m+1)/2
    walked_third: np.ndarray | None  # (..., N, T3), T3 = m(m+1)(m+2)/6
    metric: np.ndarray       # (..., m, m) induced first fundamental form
    scale: np.ndarray        # (...)
    signature: Signature | list
    tensors: tuple | None = field(default=None, init=False, repr=False)

    @property
    def m(self) -> int:
        return self.jac.shape[-1]

    @functools.cached_property
    def third(self) -> np.ndarray | None:
        """(..., T3, N) off the position; None when walked at order 2."""
        if self.walked_third is None:
            return None
        return _off_position(self.ambient, self.value,
                             np.swapaxes(self.walked_third, -1, -2))

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
        third = None if self.walked_third is None else self.walked_third[idx]
        return Frame(self.ambient, self.point[idx], self.value[idx],
                     self.jac[idx], self.second[idx], third,
                     self.metric[idx], self.scale[idx],
                     [self.signature[k] for k in idx])


def _branch(sig: Signature) -> tuple[bool, bool]:
    return sig.degenerate, sig.null == sig.dim


def walk_jets(chart: ImmersionChart, points, order: int = 3) -> tuple:
    """`chart.jet_arrays` at one point (m,) or a (P, m) stack, one walk.

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
    return arrays


def _off_position(ambient: AmbientSpace, val, D):
    """Rows of D with their space-form position component
    eps <D, G y> y removed, y the image point."""
    if ambient.epsilon == 0:
        return D
    Gy = val @ ambient.metric()
    return D - ambient.epsilon * np.einsum(
        "...pn,...n->...p", D, Gy)[..., None] * val[..., None, :]


def assemble_frame(ambient: AmbientSpace, points, arrays,
                   tol_zero: float = DEFAULT_ZERO_TOL) -> Frame:
    """The pointwise curvature data of walked jet arrays at one point or a
    stack of points in `ambient`; every result is computed point by point,
    so a point's data do not depend on the rest of its stack."""
    val, jac, hess, third = arrays
    g = np.swapaxes(jac, -1, -2) @ ambient.metric() @ jac
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    D = _off_position(ambient, val, np.swapaxes(hess, -1, -2))
    scale = np.maximum(1.0, np.maximum(np.abs(D).max(axis=(-2, -1)),
                                       np.abs(g).max(axis=(-2, -1))))
    sig = B.signature_of(g, tol_zero)
    return Frame(ambient, points, val, jac, D, third, g, scale, sig)


def build_frame(chart: ImmersionChart, points, order: int = 3,
                tol_zero: float = DEFAULT_ZERO_TOL) -> Frame:
    """Evaluate jets and assemble the pointwise curvature data at one
    point (m,) or, in one walk, at a (P, m) stack of points."""
    points = np.asarray(points, dtype=float)
    return assemble_frame(chart.ambient, points,
                          walk_jets(chart, points, order), tol_zero)


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
        TG = np.swapaxes(fr.jac, -1, -2) @ fr.ambient.metric()   # (..., m, N)
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
                          @ fr.ambient.metric())
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
        h_norm = np.sum((H @ fr.ambient.metric()) * H, axis=-1)
        return UmbilicityData(umb / fr.scale, geo / fr.scale, H, h_norm,
                              B.numerical_rank(h))

    # rows span the tangent space
    basis = B.row_space_bases(np.swapaxes(fr.jac, -1, -2))
    classes = fr.second - (fr.second @ np.swapaxes(basis, -1, -2)) @ basis
    geo = _enorm(classes, 1)
    rank = B.numerical_rank(classes)
    if vanishes:
        # metric identically zero: umbilicity is vacuous
        return UmbilicityData(np.zeros(lead), geo / fr.scale, None, None, rank)
    # the first largest entry of a symmetric matrix is a sorted pair
    piv = np.argmax(np.abs(g), axis=-1)[..., None]
    ratios = g / np.take_along_axis(g, piv, -1)
    pivot_class = np.take_along_axis(classes, piv[..., None], -2)
    umb = _enorm(classes - ratios[..., None] * pivot_class, 1)
    return UmbilicityData(umb / fr.scale, geo / fr.scale, None, None, rank)


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


def point_reports(fr: Frame, tol_zero: float) -> list[PointReport]:
    """Full pointwise reports from a stacked frame built at `tol_zero`.

    The points are split by the branch of their own metric signature, and
    each branch is computed for all of its points at once.
    """
    reports: list = [None] * len(fr.signature)
    for idx, sub in fr.branches():
        degenerate = sub.branch[0]
        data = umbilicity_data(sub)
        H = data.mean_curvature
        minimal = None if H is None else _enorm(H)
        par = None
        if not degenerate and sub.walked_third is not None:
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
                None if rad is None else float(rad[n]))
    return reports


def analyze_points(chart: ImmersionChart, points, order: int = 3,
                   tol_zero: float = DEFAULT_ZERO_TOL) -> list[PointReport]:
    """Full pointwise reports at a (P, m) stack of points, from one frame."""
    return point_reports(build_frame(chart, points, order, tol_zero), tol_zero)


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


def hull_size(ambient: AmbientSpace) -> int:
    """Rows of a hull sample: at least 40, and enough for a full hull."""
    return max(40, ambient.flat_dim + 2)


def hull_sample(chart: ImmersionChart, seed: int = 42) -> np.ndarray:
    """The image points sampled for the hull and fullness."""
    return chart.sample_values(hull_size(chart.ambient), seed)


def reduction_report(chart: ImmersionChart, seed: int = 42,
                     tol: float = DEFAULT_TOL,
                     tol_zero: float = DEFAULT_ZERO_TOL,
                     sample: np.ndarray | None = None):
    """Classify the affine hull of sampled image points; `sample` is
    `hull_sample(chart, seed)` when the caller has drawn it already, and a
    (R, K, N) stack of samples gives a list with one report per sample."""
    Y = hull_sample(chart, seed) if sample is None else sample
    stack = Y if Y.ndim == 3 else Y[None]
    Ws = B.row_space_basis(stack[:, 1:] - stack[:, :1], tol_zero)
    G = chart.ambient.metric()
    out = [None] * len(Ws)
    # the hulls of one dimension share one gram signature and one solve
    for hull_dim in {len(W) for W in Ws}:
        idx = [k for k, W in enumerate(Ws) if len(W) == hull_dim]
        W = np.stack([Ws[k] for k in idx])
        gram = W @ G @ np.swapaxes(W, -1, -2)
        sigs = B.signature_of(gram, tol_zero)
        live = [n for n, s in enumerate(sigs) if hull_dim and not s.degenerate]
        proj = dict(zip(live, np.swapaxes(W[live], -1, -2) @ np.linalg.solve(
            gram[live], W[live] @ G)))
        for n, k in enumerate(idx):
            out[k] = _translation(Ws[k], gram[n], sigs[n], stack[k, 0], G,
                                  proj.get(n), tol, tol_zero)
    return out if Y.ndim == 3 else out[0]


def _translation(W, gram, dir_sig, base, G, proj, tol, tol_zero):
    """The report on the hull through `base` spanned by the rows of W."""
    hull_dim = W.shape[0]
    if dir_sig.degenerate:
        offset = base - W.T @ (W @ base)
        coeff = 0.0
        for xi in B.radical_basis(gram, tol_zero):
            coeff = max(coeff, abs(float((xi @ W) @ G @ offset)))
        cls = "+N" if coeff > tol else "linear"
        return ReductionReport(hull_dim, dir_sig, cls, None)
    if hull_dim == 0:
        return ReductionReport(0, dir_sig, "linear", None)
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
    return ReductionReport(hull_dim, dir_sig, cls, rho)


def fullness(chart: ImmersionChart, seed: int = 42,
             tol: float = DEFAULT_TOL, sample: np.ndarray | None = None):
    """Whether the image lies in no proper non-degenerate subspace.

    The complement of the linear span of sampled image points carries the
    restricted ambient form; the immersion is full iff that restriction
    vanishes (the complement is totally degenerate or trivial).  `sample`
    is `hull_sample(chart, seed)` when the caller has drawn it already; a
    (R, K, N) stack gives a list with one (full, residual) per sample.
    """
    Y = hull_sample(chart, seed) if sample is None else sample
    G = chart.ambient.metric()
    out = []
    for C in B.null_space_basis(Y if Y.ndim == 3 else Y[None]):
        residual = float(np.max(np.abs(C @ G @ C.T))) if len(C) else 0.0
        out.append((not len(C) or residual <= tol, residual))
    return out if Y.ndim == 3 else out[0]


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


# each residual of a point report, by the name a failure gives it
_RESIDUALS = {"umbilicity": "umbilicity_residual",
              "geodesic": "geodesic_residual", "h_norm": "h_norm",
              "minimal": "minimal_residual", "parallel": "parallel_residual",
              "radical_last_var": "radical_last_var_residual"}


def residual_columns(reports: list[PointReport]) -> dict:
    """Each residual over the reports that define it, as a float array."""
    return {name: np.array([getattr(r, a) for r in reports
                            if getattr(r, a) is not None], dtype=float)
            for name, a in _RESIDUALS.items()}


def non_finite(residuals: dict) -> list[str]:
    """Names of the residuals with a value that is not finite (NaN too)."""
    return [k for k, v in residuals.items() if not np.all(np.isfinite(v))]


def _check_flag(verdict, name, computed, expected: bool):
    if bool(computed) != expected:
        verdict.failures.append(
            f"{name}: computed {computed}, catalog asserts {expected}")


def _fd_cross_check(ambient: AmbientSpace, values, jac, hess, sigs,
                    tol_zero: float) -> list[list[str]]:
    """Independent finite-difference check of walked jets and their metric,
    one list of failures per record: its chart values (S, N) on the order-2
    `jets.fd_stencil` around the point where `jac`, `hess` and the metric
    signature in `sigs` were walked.  An overtight zero tolerance turns the
    oracle's O(step^2) truncation error into phantom metric rank, which the
    signature comparison reports."""
    _, fjac, fhess, _ = J.fd_derivatives(values, jac.shape[-1], FD_STEP, 2)
    d1 = np.max(np.abs(jac - fjac), axis=(-2, -1)).tolist()
    d2 = np.max(np.abs(hess - fhess), axis=(-2, -1)).tolist()
    g_fd = np.swapaxes(fjac, -1, -2) @ ambient.metric() @ fjac
    sig_fd = B.signature_of(0.5 * (g_fd + np.swapaxes(g_fd, -1, -2)), tol_zero)
    out = []
    for a, b, sig_jet, sig in zip(d1, d2, sigs, sig_fd):
        failures = []
        if not (a <= FD_TOL and b <= FD_TOL):
            failures.append(
                f"finite-difference oracle disagrees with jets "
                f"(jacobian {a:.3e}, hessian {b:.3e} > {FD_TOL})")
        if sig_jet != sig:
            failures.append(
                f"metric signature unstable under the oracle cross-check at "
                f"tol_zero={tol_zero:g}: jets {sig_jet.as_tuple()} vs "
                f"finite differences {sig.as_tuple()}")
        out.append(failures)
    return out


def verify_families(jobs, *, samples: int = 5, seed: int = 42,
                    tol: float = DEFAULT_TOL,
                    tol_zero: float = DEFAULT_ZERO_TOL,
                    order: int = 3) -> list[FamilyVerdict]:
    """Check every asserted property of each (family id, params) job
    numerically; the verdicts come back in job order.

    Each record draws chart points once and walks the first `samples`.
    The records that share a chart dimension and an ambient space form are
    stacked into one frame, reported on and checked together, then each is
    judged from its own rows; see `_judge`.
    """
    groups: dict = {}
    for n, (family_id, params) in enumerate(jobs):
        spec, merged, chart, expected = family_instance(family_id, params)
        drawn = chart.sample_points(max(samples, hull_size(chart.ambient)),
                                    seed)
        arrays = walk_jets(chart, drawn[:samples], order)
        groups.setdefault((chart.nvars, chart.ambient), []).append(
            (n, (spec.id, merged, chart, expected, drawn, arrays)))
    verdicts = [None] * len(jobs)
    for key in list(groups):
        # a group's arrays and reports are dropped before the next is stacked
        idx, records = zip(*groups.pop(key))
        for n, verdict in zip(idx, _verify_group(records, samples, tol,
                                                 tol_zero)):
            verdicts[n] = verdict
    return verdicts


def _verify_group(records, samples, tol, tol_zero) -> list[FamilyVerdict]:
    """One frame, one report pass and one tail pass for the walked records
    of one group, then each record's verdict from its own rows."""
    ids, params, charts, expected, drawn, walked = zip(*records)
    ambient, R = charts[0].ambient, len(records)
    stack = [None if a[0] is None else np.concatenate(a) for a in zip(*walked)]
    # a residual that overflows is not finite, and fails when judged
    with np.errstate(over="ignore", invalid="ignore"):
        fr = assemble_frame(ambient, np.concatenate(
            [d[:samples] for d in drawn]), stack, tol_zero)
        reports = point_reports(fr, tol_zero)
    reports = [reports[k * samples:(k + 1) * samples] for k in range(R)]
    off = ambient_residual(ambient, stack[0].reshape(R, samples, -1))
    # one value walk per record: its hull sample Y[k], when one is judged,
    # then the FD stencil around its first point
    K = hull_size(ambient)
    full = [k for k, e in enumerate(expected) if e.full is not None]
    hull = [k for k, e in enumerate(expected)
            if e.hull_dim is not None or e.translation_class is not None]
    Y, F = np.zeros((R, K, ambient.flat_dim)), []
    for k, (chart, d) in enumerate(zip(charts, drawn)):
        rows = K if k in full or k in hull else 0
        v = chart.value(np.concatenate([d[:rows],
                                        J.fd_stencil(d[0], FD_STEP, 2)]))
        Y[k, :rows] = v[:rows]
        F.append(v[rows:])
    fd = _fd_cross_check(ambient, np.stack(F), stack[1][::samples],
                         stack[2][::samples],
                         [r[0].metric_signature for r in reports], tol_zero)
    fulls = dict(zip(full, fullness(charts[0], tol=tol, sample=Y[full])))
    reds = dict(zip(hull, reduction_report(charts[0], tol=tol,
                                           tol_zero=tol_zero, sample=Y[hull])))
    return [_judge(ids[k], params[k], expected[k], reports[k], off[k], fd[k],
                   fulls.get(k), reds.get(k), tol=tol) for k in range(R)]


def verify_family(family_id: str, params: dict | None = None, *,
                  samples: int = 5, seed: int = 42, tol: float = DEFAULT_TOL,
                  tol_zero: float = DEFAULT_ZERO_TOL,
                  order: int = 3) -> FamilyVerdict:
    """Check every asserted property of a catalog family numerically: a
    one-job `verify_families`."""
    return verify_families([(family_id, params)], samples=samples, seed=seed,
                           tol=tol, tol_zero=tol_zero, order=order)[0]


def _judge(family_id, params, expected, reports, off, fd_failures, full,
           red, *, tol) -> FamilyVerdict:
    """The verdict on one record from its point reports and its checked
    tail: the ambient residual `off` of its walked image points, the
    failures of the finite-difference oracle at its first point, and the
    fullness and hull reduction of its image sample (None when the catalog
    asserts neither).  Expected-vs-computed disagreements listed in the
    entry's discrepancy allowance are reported, not failed.
    """
    verdict = FamilyVerdict(family_id, params, True)
    residuals = residual_columns(reports)
    # np.max keeps a NaN wherever it occurs; any non-finite residual fails
    umb = float(np.max(residuals["umbilicity"]))
    geo = float(np.max(residuals["geodesic"]))
    nondegenerate = [r for r in reports if r.h_norm is not None]
    bad = non_finite({**residuals, "ambient": off})
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
    else:
        # degenerate metric: minimality only asserted through geodesy
        _check_flag(verdict, "minimal", geo <= tol, expected.minimal)

    # parallelism
    if residuals["parallel"].size and expected.parallel is not None:
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

    # fullness
    if full is not None:
        verdict.summary["full"] = full[0]
        _check_flag(verdict, "full", full[0], expected.full)

    # hull reduction
    if red is not None:
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

    verdict.failures.extend(fd_failures)
    verdict.ok = not verdict.failures
    return verdict
