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
from dataclasses import dataclass, field, fields

import numpy as np

from . import bilinear as B
from . import jets as J
from .bilinear import DEFAULT_ZERO_TOL, Signature
from .catalog import family_instance
from .charts import (AmbientSpace, ImmersionChart, quadric_residual,
                     stack_charts, stack_key)
from .errors import DegenerateMetricError, DomainError, InputError

DEFAULT_TOL = 1e-7
CONTROL_GAP = 1e-2
H_NORM_TOL = 1e-6
FD_TOL = 1e-5
# an overflow gives a non-finite value, not a warning: `untrusted` refuses it
NON_FINITE_POLICY = np.errstate(over="ignore", invalid="ignore")


def _enorm(v, axes: int = 0):
    """Euclidean norm along the last axis, maximized over the `axes` axes
    before it; any leading point axes are kept."""
    n = np.sqrt((v * v).sum(-1))
    return n.max(axis=tuple(range(-axes, 0))) if axes else n


@dataclass
class Frame:
    """All jet data at one point or a stack of points, arranged for tensor
    work; the points of a stack may come from several charts of the same
    dimension m and flat dimension N, in different space forms.

    A point's space form enters only through the diagonal weights `w` of
    its flat metric (its `AmbientSpace.weights()`) and its curvature sign
    `eps`, which broadcast against the image points and the point axes: a
    one-chart frame holds its chart's (N,) weights and one sign.

    `second` holds the ambient second derivatives with the space-form
    position component already removed, one row per sorted pair i <= j
    (`jets.packed_indices`); `walked_third` holds the walked third
    derivatives, one column per sorted triple i <= j <= k, which only
    `parallelism_residual` reads, in one product with a projection on
    their small (N, k) side.  A frame built on a (P, m) stack carries a
    leading point axis on every array and on `scale`.  The induced metric's
    signature is decided once, at the `tol_zero` given to `assemble_frame`,
    which the frame keeps; every pointwise computation on the frame
    branches on it, so a stack must be split by `branches` before that.
    """

    w: np.ndarray            # (N,) or (..., N) diagonal of the flat metric
    eps: np.ndarray          # () or (...) curvature sign
    point: np.ndarray
    value: np.ndarray
    jac: np.ndarray          # (..., N, m): column i is the tangent vector d_i f
    second: np.ndarray       # (..., T2, N), T2 = m(m+1)/2
    walked_third: np.ndarray  # (..., N, T3), T3 = m(m+1)(m+2)/6
    metric: np.ndarray       # (..., m, m) induced first fundamental form
    scale: np.ndarray        # (...)
    counts: np.ndarray       # (..., 3) metric signature (neg, pos, null)
    tol_zero: float          # the zero tolerance that decided `counts`

    @property
    def m(self) -> int:
        return self.jac.shape[-1]

    @functools.cached_property
    def ginv(self) -> np.ndarray:
        """Inverse induced metric; needs a non-degenerate metric."""
        return np.linalg.inv(self.metric)

    @functools.cached_property
    def tensors(self) -> tuple:
        """Christoffel coefficients gamma (..., m, T2), indexed [l, ij],
        second fundamental form h (..., T2, N) and mean curvature H
        (..., N); needs a non-degenerate metric."""
        TG = _tangent_rows(self.jac, self.w)
        gamma = np.linalg.solve(
            self.metric, np.einsum("...ln,...pn->...lp", TG, self.second))
        h = self.second - (self.jac @ gamma).swapaxes(-1, -2)
        # each off-diagonal row stands for both h_ij and h_ji
        i, j = J.packed_indices(self.m, 2)
        weights = self.ginv[..., i, j] * J.pair_multiplicity(self.m)
        H = np.einsum("...p,...pn->...n", weights, h) / self.m
        return gamma, h, H

    @functools.cached_property
    def branches(self) -> dict:
        """The indices of the points on each branch (degenerate, metric
        vanishes) of a stack; None for the one branch all points share."""
        null = self.counts[..., 2].ravel()
        kinds = {(n > 0, n == self.m) for n in set(null.tolist())}
        return {(d, v): None if len(kinds) == 1 else np.flatnonzero(
            ((null > 0) == d) & ((null == self.m) == v)) for d, v in kinds}

    @property
    def branch(self) -> tuple[bool, bool]:
        """(degenerate, metric vanishes), shared by every point."""
        if len(self.branches) != 1:
            raise InputError("frame mixes metric branches; split it first")
        return next(iter(self.branches))

    def take(self, idx: np.ndarray) -> "Frame":
        _, _, *arrays, tol_zero = (getattr(self, f.name) for f in fields(self))
        return Frame(np.broadcast_to(self.w, self.value.shape)[idx],
                     np.broadcast_to(self.eps, self.scale.shape)[idx],
                     *(a[idx] for a in arrays), tol_zero)


def _tangent_rows(jac: np.ndarray, w: np.ndarray) -> np.ndarray:
    """jac^T G (..., m, N) for jacobians (..., N, m) and the weights w
    (N,) or (..., N) of the flat metric G, in C order: a product laid out
    as the transposed jacobian would be summed in another order."""
    return np.multiply(jac.swapaxes(-1, -2), w[..., None, :], order="C")


def _metric(jac: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The induced metric 0.5 (J^T G J + its transpose) of jacobians J
    (..., N, m) in the flat metric G of diagonal weights w: exactly
    symmetric, so its signature needs no symmetry check."""
    g = _tangent_rows(jac, w) @ jac
    return 0.5 * (g + g.swapaxes(-1, -2))


def _less_position(eps, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X - eps Y point by point, as a fresh C-contiguous array; a flat
    point keeps X itself, since 0 Y would flip the sign of a zero or turn
    an overflow into NaN."""
    out = X - eps.reshape(eps.shape + (1,) * (X.ndim - eps.ndim)) * Y
    if not eps.all():
        out[eps == 0] = X[eps == 0]
    return out


def walk_jets(chart: ImmersionChart, points) -> tuple:
    """`chart.jet_arrays` at one point (m,) or a (P, m) stack, one walk.

    Raises DomainError when a jet is not finite (a closed form overflowed
    at an extreme parameter), naming the first such point.
    """
    points = np.asarray(points, dtype=float)
    with np.errstate(all="ignore"):  # checked just below
        arrays = chart.jet_arrays(points)
    if not all(np.isfinite(a).all() for a in arrays):
        finite = np.ones(points.shape[:-1], dtype=bool)
        for a in arrays:
            finite &= np.isfinite(a).reshape(finite.shape + (-1,)).all(-1)
        bad = points[np.unravel_index(np.argmin(finite), finite.shape)]
        raise DomainError(
            f"jets of {chart.name!r} are not finite at u={bad.tolist()}")
    return arrays


@NON_FINITE_POLICY
def assemble_frame(w: np.ndarray, eps: np.ndarray, points, arrays,
                   tol_zero: float = DEFAULT_ZERO_TOL) -> Frame:
    """The pointwise curvature data of walked jet arrays at one point or a
    stack of points, each in the space form of its flat metric weights w
    (N,) or (..., N) and curvature sign eps () or (...) (see `Frame`); every
    result is computed point by point, so a point's data do not depend on
    the rest of its stack."""
    val, jac, hess, third = arrays
    g = _metric(jac, w)
    # the second derivatives less their position part eps <D, G y> y, y the
    # image point; a fresh C-contiguous array, so no product depends on the
    # stack
    D = hess.swapaxes(-1, -2)
    D = _less_position(eps, D, np.einsum("...pn,...n->...p", D, val * w)
                       [..., None] * val[..., None, :])
    scale = np.maximum(1.0, np.maximum(np.abs(D).max(axis=(-2, -1)),
                                       np.abs(g).max(axis=(-2, -1))))
    return Frame(w, eps, points, val, jac, D, third, g, scale,
                 B.signature_counts(g, tol_zero), tol_zero)


def build_frame(chart: ImmersionChart, points, *,
                tol_zero: float = DEFAULT_ZERO_TOL) -> Frame:
    """Evaluate jets and assemble the pointwise curvature data at one
    point (m,) or, in one walk, at a (P, m) stack of points."""
    points, amb = np.asarray(points, dtype=float), chart.ambient
    return assemble_frame(amb.weights(), np.array(amb.epsilon), points,
                          walk_jets(chart, points), tol_zero)


# ---------------------------------------------------------------------------
# Non-degenerate branch
# ---------------------------------------------------------------------------

def parallelism_residual(fr: Frame):
    """Max norm of the normal covariant derivative of the shape tensor,
    per point of a stacked frame.

    Requires a non-degenerate induced metric.
    """
    if fr.branch[0]:
        raise DegenerateMetricError(
            "normal covariant derivative needs a non-degenerate induced metric")
    gamma, h, _ = fr.tensors
    m, N = fr.m, fr.jac.shape[-2]
    lead = fr.metric.shape[:-2]
    # the residual lies in the range of the normal projector I - P_tan, of
    # rank N - m: work in Euclidean-orthonormal coordinates Q of that range
    normal = np.eye(N) - (fr.jac @ fr.ginv @ fr.jac.swapaxes(-1, -2)
                          * fr.w[..., None, :])
    Q = np.linalg.eigh(normal @ normal.swapaxes(-1, -2))[1][..., m:]
    k = N - m
    # the position removal I - eps (G y) y^T, then the normal projection,
    # applied to the (N, k) side before the one product with the third
    # derivatives (T3, N)
    K = normal.swapaxes(-1, -2) @ Q
    K = _less_position(fr.eps, K, (fr.value * fr.w)[..., :, None]
                       * (fr.value[..., None, :] @ K))
    # C[ab, c] = sum_l gamma^l_ab h_cl, one row per (sorted pair ab, c)
    h_lc = J.unpack(h @ Q, 2, axis=-2)    # (..., m, m, k)
    C = (gamma.swapaxes(-1, -2) @ h_lc.reshape(lead + (m, m * k))
         ).reshape(lead + (-1, k))
    # at each sorted triple ijk: C[ij, k], C[jk, i] and C[ik, j]
    c = C.take(J.split_triples(m), -2)
    v = fr.walked_third.swapaxes(-1, -2) @ K
    v -= c[..., 0, :, :]
    v -= c[..., 1, :, :]
    v -= c[..., 2, :, :]
    return _enorm(v, 1) / fr.scale


# ---------------------------------------------------------------------------
# Degenerate (quotient) branch
# ---------------------------------------------------------------------------

def umbilicity_data(fr: Frame) -> dict:
    """Umbilicity and geodesy residuals and first normal ranks, as point
    table columns; on a non-degenerate metric also the mean curvature H,
    its squared norm h_norm and its minimality residual |H|.

    Non-degenerate metric: residuals of h_ij - g_ij H and of h_ij itself.
    Degenerate metric: the same residuals for the classes of the second
    derivatives modulo the tangent span, using the largest metric entry as
    pivot; each class is represented by its part off the tangent span, so
    no choice of representative enters.
    """
    i, j = J.packed_indices(fr.m, 2)
    g = fr.metric[..., i, j]
    degenerate, vanishes = fr.branch
    if not degenerate:
        _, h, H = fr.tensors
        geo = _enorm(h, 1)
        umb = _enorm(h - g[..., None] * H[..., None, :], 1)
        return dict(umbilicity_residual=umb / fr.scale,
                    geodesic_residual=geo / fr.scale, mean_curvature=H,
                    h_norm=(H * fr.w * H).sum(-1),
                    minimal_residual=_enorm(H),
                    first_normal_rank=B.numerical_rank(h))

    # the rows vh[:r] span the tangent space; the rest are zeroed
    vh, r = B.svd_split(fr.jac.swapaxes(-1, -2))
    basis = vh * (np.arange(vh.shape[-2]) < r[..., None])[..., None]
    classes = fr.second - (fr.second @ basis.swapaxes(-1, -2)) @ basis
    geo = _enorm(classes, 1)
    if vanishes:
        # metric identically zero: umbilicity is vacuous
        umb = np.zeros_like(fr.scale)
    else:
        # the first largest entry of a symmetric matrix is a sorted pair
        piv = np.argmax(np.abs(g), axis=-1)[..., None]
        ratios = g / np.take_along_axis(g, piv, -1)
        pivot_class = np.take_along_axis(classes, piv[..., None], -2)
        umb = _enorm(classes - ratios[..., None] * pivot_class, 1) / fr.scale
    return dict(umbilicity_residual=umb, geodesic_residual=geo / fr.scale,
                first_normal_rank=B.numerical_rank(classes))


def _radical_last_var(fr: Frame):
    """Distance of the last chart direction from the metric radical."""
    R = B.radical(fr.metric, fr.tol_zero)
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
    ambient_residual: float

    def flags(self, tol: float = DEFAULT_TOL) -> dict:
        # with no mean curvature, minimality is asserted through geodesy
        minimal = (self.geodesic_residual if self.minimal_residual is None
                   else self.minimal_residual)
        return {
            "totally_geodesic": self.geodesic_residual <= tol,
            "totally_umbilical": self.umbilicity_residual <= tol,
            "minimal": minimal <= tol,
            "marginally_trapped": None if self.h_norm is None else (
                minimal > tol and abs(self.h_norm) <= tol),
            "parallel": None if self.parallel_residual is None
                        else self.parallel_residual <= tol,
        }


# each residual column of a point table by the name a failure gives it, and
# whether it is defined on a non-degenerate and on a degenerate metric
_RESIDUALS = {"umbilicity": ("umbilicity_residual", (True, True)),
              "geodesic": ("geodesic_residual", (True, True)),
              "h_norm": ("h_norm", (True, False)),
              "minimal": ("minimal_residual", (True, False)),
              "parallel": ("parallel_residual", (True, False)),
              "radical_last_var": ("radical_last_var_residual", (False, True)),
              "ambient": ("ambient_residual", (True, True))}


def _residuals(table: dict, records: int = 1) -> tuple:
    """The residuals of a point table in `_RESIDUALS` order, and where each
    is defined, as (records, S, K) over `records` equal blocks of rows."""
    cols, on = zip(*_RESIDUALS.values())
    degenerate = (table["metric_signature"][:, 2] > 0).astype(int)
    return tuple(a.reshape(records, -1, len(cols)) for a in (
        np.stack([table[c] for c in cols], -1), np.array(on).T[degenerate]))


@NON_FINITE_POLICY
def point_table(fr: Frame) -> dict:
    """The pointwise results on a stacked frame, as columns named as the
    `PointReport` fields they fill: points, metrics, signature counts
    (P, 3), first normal ranks, the residuals of `_RESIDUALS` and the mean
    curvature (P, N), each NaN where a point's branch leaves it undefined
    (the mean curvature with h_norm).  Each branch is computed for all of
    its points at once; a one-branch frame gives its own arrays."""
    table = dict(point=fr.point, metric=fr.metric,
                 metric_signature=fr.counts)
    for (degenerate, _), idx in fr.branches.items():
        sub = fr if idx is None else fr.take(idx)
        cols = umbilicity_data(sub)
        cols["ambient_residual"] = quadric_residual(sub.w, sub.eps, sub.value)
        if degenerate:
            cols["radical_last_var_residual"] = _radical_last_var(sub)
        else:
            cols["parallel_residual"] = parallelism_residual(sub)
        # one read-only column for the residuals the branch leaves undefined
        nan = np.full(sub.scale.shape, np.nan)
        nan.setflags(write=False)
        cols.setdefault("mean_curvature", np.full(sub.value.shape, np.nan))
        for name, _ in _RESIDUALS.values():
            cols.setdefault(name, nan)
        if idx is None:
            return table | cols
        for name, col in cols.items():
            table.setdefault(name, np.empty(
                (len(fr.point),) + col.shape[1:], col.dtype))[idx] = col
    return table


def untrusted(table: dict, tol: float, records: int = 1) -> list[list[str]]:
    """For each of `records` equal blocks of rows of a point table, the lines
    that refuse its samples: residuals with a defined value that is not
    finite, and an image off its space form by more than `tol`."""
    values, defined = _residuals(table, records)
    bad = (~np.isfinite(values) & defined).any(1).tolist()
    off = table["ambient_residual"].reshape(records, -1).max(1).tolist()
    out = []
    for row, worst in zip(bad, off):
        names = ", ".join(k for k, b in zip(_RESIDUALS, row) if b)
        out.append([f"non-finite residuals: {names}"] * bool(names)
                   + [f"image off its space form: ambient residual "
                      f"{worst:.3e} > {tol}"] * (worst > tol))
    return out


def point_report(table: dict, k: int) -> PointReport:
    """Row k of a point table, None where the row's branch leaves a value
    undefined."""
    sig = Signature(*table["metric_signature"][k].tolist())
    row = {col: table[col][k].item() if on[sig.degenerate] else None
           for col, on in _RESIDUALS.values()}
    return PointReport(
        table["point"][k], table["metric"][k], sig, sig.null,
        mean_curvature=None if row["h_norm"] is None
        else table["mean_curvature"][k],
        first_normal_rank=table["first_normal_rank"][k].item(), **row)


def analyze_points(chart: ImmersionChart, points, *,
                   tol_zero: float = DEFAULT_ZERO_TOL) -> dict:
    """The `point_table` of a (P, m) stack of points, from one frame;
    InputError for an empty stack."""
    if not np.size(points):
        raise InputError("analyze_points needs at least one point")
    return point_table(build_frame(chart, points, tol_zero=tol_zero))


def analyze_point(chart: ImmersionChart, point, *,
                  tol_zero: float = DEFAULT_ZERO_TOL) -> PointReport:
    """Full pointwise report: metric, residuals, curvature invariants."""
    point = np.asarray(point, dtype=float)
    return point_report(analyze_points(chart, point[None],
                                       tol_zero=tol_zero), 0)


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
    """The image points sampled for the hull and fullness; DomainError when
    one is not finite, which no SVD could split."""
    Y = chart.value(chart.sample_points(hull_size(chart.ambient), seed))
    if not np.isfinite(Y).all():
        raise DomainError(f"hull sample of {chart.name!r} is not finite")
    return Y


@NON_FINITE_POLICY
def reduction_report(chart: ImmersionChart, seed: int = 42,
                     tol: float = DEFAULT_TOL,
                     tol_zero: float = DEFAULT_ZERO_TOL,
                     sample: np.ndarray | None = None,
                     weights: np.ndarray | None = None):
    """Classify the affine hull of sampled image points: the report on
    `hull_sample(chart, seed)`, or, for an (R, K, N) stack `sample` of
    samples drawn already and the (R, N) diagonals `weights` of their flat
    metrics, a list with one report per sample."""
    one = sample is None
    if one:
        sample = hull_sample(chart, seed)[None]
        weights = chart.ambient.weights()[None]
    vh, ranks = B.svd_split(sample[:, 1:] - sample[:, :1], tol_zero)
    out = [None] * len(sample)
    # the hulls of one dimension share one gram signature and one solve
    for hull_dim in set(ranks.tolist()):
        idx = (ranks == hull_dim).nonzero()[0]
        W = vh[idx, :hull_dim]
        WG = W * weights[idx, None, :]
        gram = WG @ W.swapaxes(-1, -2)
        sigs = B.signature_of(gram, tol_zero)
        live = [n for n, s in enumerate(sigs) if hull_dim and not s.degenerate]
        proj = dict(zip(live, W[live].swapaxes(-1, -2) @ np.linalg.solve(
            gram[live], WG[live])))
        for n, k in enumerate(idx.tolist()):
            out[k] = _translation(W[n], gram[n], sigs[n], sample[k, 0],
                                  weights[k], proj.get(n), tol, tol_zero)
    return out[0] if one else out


def _translation(W, gram, dir_sig, base, w, proj, tol, tol_zero):
    """The report on the hull through `base` spanned by the rows of W, in
    the flat metric of diagonal weights w."""
    hull_dim = W.shape[0]
    if dir_sig.degenerate:
        offset = base - W.T @ (W @ base)
        R = B.radical(gram, tol_zero)
        coeff = float(np.abs(R.T @ W @ (w * offset)).max(initial=0.0))
        cls = "+N" if coeff > tol else "linear"
        return ReductionReport(hull_dim, dir_sig, cls, None)
    if hull_dim == 0:
        return ReductionReport(0, dir_sig, "linear", None)
    v = base - proj @ base
    vv = float((v * w) @ v)
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
             tol: float = DEFAULT_TOL, sample: np.ndarray | None = None,
             weights: np.ndarray | None = None):
    """Whether the image lies in no proper non-degenerate subspace.

    The complement of the linear span of sampled image points carries the
    restricted ambient form; the immersion is full iff that restriction
    vanishes (the complement is totally degenerate or trivial).  The
    samples are as for `reduction_report`: one (full, residual) for
    `hull_sample(chart, seed)`, or a list of them for a `sample` stack.
    """
    one = sample is None
    if one:
        sample = hull_sample(chart, seed)[None]
        weights = chart.ambient.weights()[None]
    vh, ranks = B.svd_split(sample)
    out = []
    for v, r, w in zip(vh, ranks.tolist(), weights):
        C = v[r:]
        residual = float(np.abs((C * w) @ C.T).max()) if len(C) else 0.0
        out.append((not len(C) or residual <= tol, residual))
    return out[0] if one else out


# ---------------------------------------------------------------------------
# Family-level verification against catalog expectations
# ---------------------------------------------------------------------------

@dataclass
class FamilyVerdict:
    """Outcome of checking one family instance against its expectations."""

    family_id: str
    params: dict
    failures: list = field(default_factory=list)
    discrepancies: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def status(self) -> str:
        """"fail", "discrepancy-noted" or "pass"."""
        if self.failures:
            return "fail"
        return "discrepancy-noted" if self.discrepancies else "pass"


@NON_FINITE_POLICY
def _fd_cross_check(w: np.ndarray, values, jac, hess, sigs,
                    tol_zero: float) -> list[list[str]]:
    """Independent finite-difference check of walked jets and their metric,
    one list of failures per record, each with the weights (R, N) of its
    flat metric and its chart values (S, N) on the order-2
    `jets.fd_stencil` around the point where `jac`, `hess` and the metric
    signature in `sigs` were walked.  An overtight zero tolerance turns the
    oracle's O(step^2) truncation error into phantom metric rank, which the
    signature comparison reports."""
    _, fjac, fhess, _ = J.fd_derivatives(values, jac.shape[-1], J.FD_STEP, 2)
    d1 = np.abs(jac - fjac).max((-2, -1)).tolist()
    d2 = np.abs(hess - fhess).max((-2, -1)).tolist()
    sig_fd = B.signature_counts(_metric(fjac, w), tol_zero).tolist()
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
                f"tol_zero={tol_zero:g}: jets {tuple(sig_jet)} vs "
                f"finite differences {tuple(sig)}")
        out.append(failures)
    return out


def verify_families(jobs, *, samples: int = 5, seed: int = 42,
                    tol: float = DEFAULT_TOL,
                    tol_zero: float = DEFAULT_ZERO_TOL) -> list[FamilyVerdict]:
    """Check every asserted property of each (family id, params) job
    numerically; the verdicts come back in job order.

    Each record draws chart points once.  The records whose charts differ
    only in float constants, as a family's defaults and draws do, are
    walked together (`charts.stack_charts`): once for the jets of their
    first `samples` points, and once for the values on their hull samples
    and finite-difference stencils.  The records that share a chart
    dimension m and a flat dimension N are stacked into one frame, each
    point with its own space form, reported on and checked together, then
    each is judged from its own rows; see `_judge`.  Every job is built
    before any is walked; a walk that fails raises the error that the
    first failing record, in job order, raises alone.
    """
    records = []
    for family_id, params in jobs:
        spec, merged, chart, expected = family_instance(family_id, params)
        drawn = chart.sample_points(max(samples, hull_size(chart.ambient)),
                                    seed)
        records.append((spec.id, merged, chart, expected, drawn))
    charts = [rec[2] for rec in records]
    walked = _stacked_walks(charts, [rec[4][:samples] for rec in records],
                            walk_jets)
    # a record's value rows: its hull sample, then the FD stencil around
    # its first point
    values = _stacked_walks(charts, [
        np.concatenate([d[:hull_size(ch.ambient)],
                        J.fd_stencil(d[0], J.FD_STEP, 2)])
        for _, _, ch, _, d in records], lambda ch, p: (ch.value(p),))
    groups: dict = {}
    for n, chart in enumerate(charts):
        groups.setdefault((chart.nvars, chart.ambient.flat_dim), []).append(n)
    verdicts = [None] * len(jobs)
    for idx in groups.values():
        for n, verdict in zip(idx, _verify_group(
                [records[n] for n in idx], [walked[n] for n in idx],
                np.stack([values[n][0] for n in idx]), samples, tol,
                tol_zero)):
            verdicts[n] = verdict
    return verdicts


def _stacked_walks(charts: list, points: list, walk) -> list:
    """`walk(chart, points)`, a tuple of arrays, of each chart on its own
    points, made as one walk per `charts.stack_key` and split back per
    chart in order.  A DomainError is the one the first failing chart
    raises alone."""
    stacks: dict = {}
    for n, chart in enumerate(charts):
        stacks.setdefault(stack_key(chart), []).append(n)
    out = [None] * len(charts)
    try:
        for idx in stacks.values():
            counts = [len(points[n]) for n in idx]
            res = walk(stack_charts([charts[n] for n in idx], counts),
                       np.concatenate([points[n] for n in idx]))
            ends = np.cumsum(counts).tolist()
            for n, a, b in zip(idx, [0] + ends, ends):
                out[n] = tuple(x[a:b] for x in res)
        return out
    except DomainError as err:
        error = err
    for chart, p in zip(charts, points):
        walk(chart, p)
    raise error


def _verify_group(records, walked, tails, samples, tol,
                  tol_zero) -> list[FamilyVerdict]:
    """One frame, one point table and one tail pass for the walked records
    of one group, then each record's verdict from its own rows; `tails` is
    the (R, hull_size + S, N) stack of each record's values on its hull
    sample and then on the FD stencil."""
    ids, params, charts, expected, drawn = zip(*records)
    R, amb = len(records), charts[0].ambient
    w = np.stack([ch.ambient.weights() for ch in charts])
    eps = np.array([ch.ambient.epsilon for ch in charts])
    stack = [np.concatenate(a) for a in zip(*walked)]
    fr = assemble_frame(np.repeat(w, samples, 0), np.repeat(eps, samples),
                        np.concatenate([d[:samples] for d in drawn]), stack,
                        tol_zero)
    table = point_table(fr)
    # what `_judge` reads, one reduction per field over the (R, S) table;
    # a max keeps a NaN, and reduces a residual over its branch's rows
    values, defined = _residuals(table, R)
    st = dict(zip(_RESIDUALS, values.max(1, where=defined,
                                         initial=-np.inf).T))
    h, minimal = (table[c].reshape(R, -1)
                  for c in ("h_norm", "minimal_residual"))
    nondeg = defined[..., list(_RESIDUALS).index("h_norm")]
    null = table["metric_signature"][:, 2].reshape(R, -1)
    median = np.median(h, axis=1)
    for k in np.flatnonzero(nondeg.any(1) & ~nondeg.all(1)):
        median[k] = np.median(h[k][nondeg[k]])
    st.update(
        h_median=median,
        h_spread=st["h_norm"] - h.min(1, where=nondeg, initial=np.inf),
        marginally_trapped=(
            ~nondeg | ((minimal > tol) & (np.abs(h) <= tol))).all(1),
        ranks=(null[..., None] == np.arange(null.max() + 1)).any(1),
        first_normal_rank=table["first_normal_rank"].reshape(R, -1).max(1),
        metric_signature=table["metric_signature"][::samples])
    fd_sigs = st["metric_signature"].tolist()
    stats = [dict(zip(st, row), untrusted=lines) for row, lines in zip(
        zip(*(v.tolist() for v in st.values())), untrusted(table, tol, R))]
    full = [k for k, e in enumerate(expected) if e.full is not None]
    hull = [k for k, e in enumerate(expected)
            if e.hull_dim is not None or e.translation_class is not None]
    Y, stencils = np.split(tails, [hull_size(amb)], axis=1)
    fd = _fd_cross_check(w, stencils, stack[1][::samples],
                         stack[2][::samples], fd_sigs, tol_zero)
    # a group with no record that judges the hull makes no SVD of it
    fulls = dict(zip(full, fullness(charts[0], tol=tol, sample=Y[full],
                                    weights=w[full]))) if full else {}
    reds = dict(zip(hull, reduction_report(
        charts[0], tol=tol, tol_zero=tol_zero, sample=Y[hull],
        weights=w[hull]))) if hull else {}
    return [_judge(ids[k], params[k], expected[k], stats[k], fd[k],
                   fulls.get(k), reds.get(k), tol=tol) for k in range(R)]


def verify_family(family_id: str, params: dict | None = None, *,
                  samples: int = 5, seed: int = 42, tol: float = DEFAULT_TOL,
                  tol_zero: float = DEFAULT_ZERO_TOL) -> FamilyVerdict:
    """Check every asserted property of a catalog family numerically: a
    one-job `verify_families`."""
    return verify_families([(family_id, params)], samples=samples, seed=seed,
                           tol=tol, tol_zero=tol_zero)[0]


def _check(verdict, name, computed, asserted, allowed: bool = False):
    """Fail a computed value the catalog contradicts (note it instead when
    `allowed`); an assertion of None is not checked.  A computed float
    agrees within H_NORM_TOL, so a NaN adds no line: the non-finite line
    reports it."""
    if asserted is None:
        return
    if isinstance(computed, float):
        differs = abs(computed - asserted) > H_NORM_TOL
    else:
        differs = computed != asserted
    if differs:
        msg = f"{name}: computed {computed!r}, catalog asserts {asserted!r}"
        if allowed:
            verdict.discrepancies.append(msg + " (allowed discrepancy)")
        else:
            verdict.failures.append(msg)


def _check_residual(verdict, name, value, vanishes: bool, tol: float):
    """Fail a residual asserted to vanish that exceeds `tol`, or a negative
    control's residual that falls below CONTROL_GAP."""
    if vanishes:
        if value > tol:
            verdict.failures.append(f"{name} residual {value:.3e} > {tol}")
    elif value < CONTROL_GAP:
        verdict.failures.append(
            f"negative control: {name} residual {value:.3e} below the "
            f"required gap {CONTROL_GAP}")


def _judge(family_id, params, expected, st, fd_failures, full, red, *,
           tol) -> FamilyVerdict:
    """The verdict on one record from the reductions `st` of its rows of
    its group's point table (see `_verify_group`) and its checked tail: the
    failures of the finite-difference oracle at its first point, and the
    fullness and hull reduction of its image sample (None when the catalog
    asserts neither); its `untrusted` lines fail it first.  Disagreements
    listed in the entry's discrepancy allowance are noted, not failed.
    """
    verdict = FamilyVerdict(family_id, params, list(st["untrusted"]))
    umb, geo = st["umbilicity"], st["geodesic"]
    ranks = [r for r, seen in enumerate(st["ranks"]) if seen]
    rank, nondeg = ranks[-1], ranks[0] == 0
    verdict.summary.update({
        "umbilicity_residual": umb,
        "geodesic_residual": geo,
        "radical_rank": rank,
        "metric_signature": tuple(st["metric_signature"]),
        "first_normal_rank": st["first_normal_rank"],
    })
    if len(ranks) > 1:
        verdict.failures.append(f"radical rank varies over samples: {ranks}")
    _check(verdict, "radical_rank", rank, expected.radical_rank,
           expected.allows("radical_rank", rank))
    _check_residual(verdict, "umbilicity", umb, expected.totally_umbilical,
                    tol)
    if expected.totally_umbilical:
        # h = g H: the first normal space is spanned by H, zero on a
        # totally geodesic record
        _check(verdict, "first normal rank", st["first_normal_rank"],
               0 if expected.totally_geodesic else 1)
    _check(verdict, "totally_geodesic", geo <= tol, expected.totally_geodesic)

    # mean curvature invariants (points with a non-degenerate metric only);
    # with none, minimality is asserted through geodesy
    if nondeg:
        h_norm = st["h_median"]
        verdict.summary["h_norm"] = h_norm
        if expected.totally_umbilical and st["h_spread"] > H_NORM_TOL:
            verdict.failures.append(f"mean curvature norm varies over "
                                    f"samples by {st['h_spread']:.3e}")
        _check(verdict, "h_norm", h_norm, expected.h_norm)
        if expected.h_norm_range is not None:
            lo, hi = expected.h_norm_range
            # a NaN fails neither test: the non-finite line reports it
            if h_norm <= lo or h_norm >= hi:
                verdict.failures.append(
                    f"h_norm {h_norm!r} outside the open range ({lo}, {hi})")
    minimal = st["minimal"] if nondeg else geo
    _check(verdict, "minimal", minimal <= tol, expected.minimal)
    if nondeg:
        _check(verdict, "marginally_trapped", st["marginally_trapped"],
               expected.marginally_trapped)

    if nondeg and expected.parallel is not None:
        verdict.summary["parallel_residual"] = st["parallel"]
        _check_residual(verdict, "parallelism", st["parallel"],
                        expected.parallel, tol)

    if expected.radical_contains_last_var:
        if not rank:
            verdict.failures.append(
                "radical asserted to contain the last chart direction but "
                "the metric is non-degenerate")
        elif st["radical_last_var"] > tol:
            verdict.failures.append(
                f"last chart direction is not in the metric radical "
                f"(residual {st['radical_last_var']:.3e})")

    if full is not None:
        verdict.summary["full"] = full[0]
        _check(verdict, "full", full[0], expected.full)

    if red is not None:
        verdict.summary.update({
            "hull_dim": red.hull_dim,
            "translation_class": red.translation_class,
            "rho": red.rho,
        })
        _check(verdict, "hull dimension", red.hull_dim, expected.hull_dim)
        _check(verdict, "translation class", red.translation_class,
               expected.translation_class)
        _check(verdict, "translation length", red.rho, expected.rho)

    verdict.failures.extend(fd_failures)
    return verdict
