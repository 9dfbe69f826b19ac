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
from .analysis import DEFAULT_TOL, analyze_points, reduction_report
from .catalog import instantiate
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


def _near(x: float, value: float, tol: float) -> bool:
    return abs(x - value) <= tol


def _boundary_note(h: float, boundaries, tol: float, notes: list):
    for b in boundaries:
        if tol < abs(h - b) <= AMBIGUITY_FACTOR * tol:
            notes.append(
                f"mean curvature norm {h!r} is within {AMBIGUITY_FACTOR:g}x "
                f"tolerance of the classification boundary {b:g}")


def _geodesic_item(chart: ImmersionChart) -> int:
    """Distinguish the two totally geodesic hypersurface inclusions.

    Item 1 keeps the full negative index of the embedding in the hull
    direction space (spacelike normal); item 2 drops one (timelike normal).
    """
    red = reduction_report(chart, seed=42)
    return 1 if red.direction_signature.neg == chart.ambient.signature.neg else 2


def classify(chart: ImmersionChart) -> ClassificationResult:
    """Identify which classification item an umbilical chart realizes.

    Covers immersions with non-degenerate induced metric; the squared
    norm of the mean curvature and the sign pattern of the hull direction
    space determine the item, and the curvature radius parameter is
    recovered from the norm where the item has one.  Five seeded sample
    points are read at the default tolerances.
    """
    eps = chart.ambient.epsilon
    tol = DEFAULT_TOL
    reports = analyze_points(chart, chart.sample_points(5, 42))
    # np.max keeps a NaN, and a NaN residual is not umbilical
    umb = float(np.max([r.umbilicity_residual for r in reports]))
    result = ClassificationResult(None, None)
    if any(r.metric_signature.degenerate for r in reports):
        result.notes.append("induced metric is degenerate; outside the "
                            "non-degenerate classification")
        return result
    if not umb <= tol:
        result.notes.append(
            f"not totally umbilical (residual {umb:.3e}); no item applies")
        return result
    h = float(np.median([r.h_norm for r in reports]))
    minimal = np.max([r.minimal_residual for r in reports]) <= tol
    result.h_norm = h

    if eps == 0:
        _boundary_note(h, (0.0,), tol, result.notes)
        if minimal:
            result.label = "akk-1"
        elif h > tol:
            result.label, result.params["r"] = "akk-2", 1 / math.sqrt(h)
        elif h < -tol:
            result.label, result.params["r"] = "akk-3", 1 / math.sqrt(-h)
        else:
            result.label = "akk-4"
        return result
    # the items of eps = -1 mirror those of eps = +1 in k = eps * h; negation
    # is exact, so each comparison and each radius is the mirrored one's
    _boundary_note(h, (0.0, -eps), tol, result.notes)
    item = "main1" if eps == 1 else "main2"
    k = eps * h
    if minimal:
        result.label = f"{item}-{_geodesic_item(chart)}"
        result.params["r"] = 1.0
    elif k > tol:
        result.label, result.params["r"] = f"{item}-3", 1 / math.sqrt(1 + k)
    elif _near(k, 0.0, tol):
        result.label = f"{item}-5"
    elif k > -1.0 + tol:
        result.label, result.params["r"] = f"{item}-4", 1 / math.sqrt(1 + k)
    elif _near(k, -1.0, tol):
        result.label = f"{item}-7"
    else:
        result.label, result.params["r"] = f"{item}-6", 1 / math.sqrt(-1 - k)
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
    for a in a_values:
        chart = instantiate("psi-a", {"m": 2, "s": 0, "a": float(a)})
        # an offset too large to square gives no finite residual
        with np.errstate(over="ignore", invalid="ignore"):
            geo = float(np.max([r.geodesic_residual for r in analyze_points(
                chart, chart.sample_points(3, seed))]))
            dist = float(np.max(np.linalg.norm(chart.value(points)
                                               - base.value(points), axis=-1)))
        if not (math.isfinite(geo) and math.isfinite(dist)):
            raise DomainError(f"psi-a offset a={float(a)!r}: the geodesic "
                              f"residual or the sup distance is not finite")
        records.append(ModuliRecord(float(a), "g" if geo <= tol else "u",
                                    dist))
    return records
