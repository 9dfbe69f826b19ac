"""Congruence testing and classification of umbilical immersions.

Two immersions of the same chart domain are congruent (equal up to a
linear isometry of the embedding space) iff paired image samples have
identical Gram matrices *and* identical linear-dependence relations; the
second condition is what separates maps that agree on all inner products
but span subspaces of different dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bilinear as B
from .analysis import DEFAULT_TOL, analyze_points, reduction_report, untrusted
from .catalog import instantiate, umbilical_items
from .charts import ImmersionChart
from .errors import DomainError, InputError

AMBIGUITY_FACTOR = 10.0


@dataclass
class CongruenceVerdict:
    congruent: bool
    gram_residual: float
    rank_a: int
    rank_b: int
    rank_joint: int
    reason: str = ""


def congruence_test(chart_a: ImmersionChart, chart_b: ImmersionChart,
                    seed: int = 42) -> CongruenceVerdict:
    """Numerical congruence of two immersions over 40 paired samples.

    Samples are drawn from the first chart's box; both charts must have
    the same number of variables.  Gram matrices are compared entrywise;
    kernels are compared through rank(A) = rank(B) = rank([A | B]).  A
    Gram residual that is not finite raises DomainError.
    """
    if chart_a.nvars != chart_b.nvars:
        raise InputError("charts must share a domain to be compared")
    points = chart_a.sample_points(40, seed)
    Ya = chart_a.value(points)
    Yb = chart_b.value(points)
    # images too large to square give no finite residual
    with np.errstate(over="ignore", invalid="ignore"):
        Ga = B.gram_matrix(Ya, chart_a.ambient.signature)
        Gb = B.gram_matrix(Yb, chart_b.ambient.signature)
        gram_res = float(np.max(np.abs(Ga - Gb)))
    if not math.isfinite(gram_res):
        raise DomainError(f"charts {chart_a.name!r} and {chart_b.name!r}: "
                          f"the Gram residual is not finite")
    ra = B.numerical_rank(Ya)
    rb = B.numerical_rank(Yb)
    rj = B.numerical_rank(np.hstack([Ya, Yb]))
    if gram_res > DEFAULT_TOL:
        return CongruenceVerdict(False, gram_res, ra, rb, rj,
                                 "Gram matrices differ")
    if not (ra == rb == rj):
        return CongruenceVerdict(False, gram_res, ra, rb, rj,
                                 "spans have different dependence relations")
    return CongruenceVerdict(True, gram_res, ra, rb, rj, "")


# ---------------------------------------------------------------------------
# Classification of non-degenerate umbilical immersions
# ---------------------------------------------------------------------------

@dataclass
class ClassificationResult:
    label: str | None
    h_norm: float | None
    params: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def _in_row(h: float, expected, tol: float) -> bool:
    """Whether h matches an item row: within tol of its pinned h_norm, or
    inside its open h_norm_range and more than tol from either end."""
    if expected.h_norm_range is None:
        return abs(h - expected.h_norm) <= tol
    lo, hi = expected.h_norm_range
    return lo < h < hi and min(h - lo, hi - h) > tol


def classify(chart: ImmersionChart) -> ClassificationResult:
    """Identify which classification item an umbilical chart realizes.

    Covers immersions with non-degenerate induced metric; the squared
    norm of the mean curvature and minimality pick the catalog's item rows
    of the chart's space form (`catalog.umbilical_items`) that match, the
    sign pattern of the hull direction space breaks a tie between the two
    totally geodesic rows, and the curvature radius is recovered from the
    norm where the item has one.  Five seeded sample points are read at
    the default tolerances; `untrusted` samples get its lines as notes.
    """
    tol = DEFAULT_TOL
    table = analyze_points(chart, chart.sample_points(5, 42))
    # np.max keeps a NaN, and a NaN residual is not umbilical
    umb = float(np.max(table["umbilicity_residual"]))
    result = ClassificationResult(None, None)
    if table["metric_signature"][:, 2].any():
        result.notes.append("induced metric is degenerate; outside the "
                            "non-degenerate classification")
        return result
    if not umb <= tol:
        result.notes.append(
            f"not totally umbilical (residual {umb:.3e}); no item applies")
        return result
    (result.notes,) = untrusted(table, tol)
    if result.notes:
        return result
    h = float(np.median(table["h_norm"]))
    minimal = np.max(table["minimal_residual"]) <= tol
    result.h_norm = h

    rows = umbilical_items(chart.ambient.epsilon)
    # the classification boundaries: the finite ends of the rows' ranges
    for b in dict.fromkeys(end for _, _, e in rows
                           for end in e.h_norm_range or ()
                           if math.isfinite(end)):
        if tol < abs(h - b) <= AMBIGUITY_FACTOR * tol:
            result.notes.append(
                f"mean curvature norm {h!r} is within {AMBIGUITY_FACTOR:g}x "
                f"tolerance of the classification boundary {b:g}")
    found = [(fid, g, e) for fid, g, e in rows
             if e.minimal == minimal and _in_row(h, e, tol)]
    if len(found) > 1:
        # the totally geodesic rows differ in the negative directions their
        # hull drops from the embedding: none (spacelike normal) or one
        red = reduction_report(chart, seed=42)
        drop = chart.ambient.signature.neg - red.direction_signature.neg
        found = [(fid, g, e) for fid, g, e in found if g.dp == drop]
    if len(found) != 1:
        result.notes.append(f"mean curvature norm {h!r} matches "
                            f"{len(found)} classification items")
        return result
    result.label, g, expected = found[0]
    if g.sigma is not None:
        # at a pinned h_norm the radius is the row's own
        at = h if expected.h_norm_range else expected.h_norm
        result.params["r"] = g.radius(at)
    return result


# ---------------------------------------------------------------------------
# Moduli demonstration
# ---------------------------------------------------------------------------

@dataclass
class ModuliRecord:
    """One member of the constant-null-offset family, compared to its limit."""

    a: float
    cls: str               # "u" (umbilical, not geodesic) or "g" (geodesic)
    distance: float        # sup Euclidean distance to the a=0 member


def moduli_demo(a_values, samples: int = 25, seed: int = 42,
                tol: float = DEFAULT_TOL) -> list[ModuliRecord]:
    """Walk the null-offset family (m=2, s=0) towards its geodesic limit.

    Each member with a != 0 is umbilical but not geodesic, yet its image
    converges uniformly to the geodesic member as a -> 0: the family
    splits into two classes whose closure relation is visible in the
    distance column (the "u" class degenerates onto "g" with no motion
    inside "g" reaching back).
    """
    base = instantiate("psi-a", {"m": 2, "s": 0, "a": 0.0})
    points = base.sample_points(samples, seed)
    records = []
    for a in map(float, a_values):
        chart = instantiate("psi-a", {"m": 2, "s": 0, "a": a})
        table = analyze_points(chart, chart.sample_points(3, seed))
        (lines,) = untrusted(table, tol)
        if lines:
            raise DomainError(f"psi-a offset a={a!r}: {'; '.join(lines)}")
        geo = float(np.max(table["geodesic_residual"]))
        dist = float(np.max(np.linalg.norm(chart.value(points)
                                           - base.value(points), axis=-1)))
        records.append(ModuliRecord(a, "g" if geo <= tol else "u", dist))
    return records


def closure_demonstrated(records: list[ModuliRecord]) -> bool:
    """Whether g is in closure(u): every a = 0 record g, every other u."""
    return ({r.cls for r in records if r.a == 0} == {"g"}
            and {r.cls for r in records if r.a != 0} == {"u"})
