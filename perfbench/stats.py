"""Summary statistics and name rules shared by the benchmark's modules.

Pure standard library, so the parent process and the unit tests need
neither numpy nor the package under test.
"""
from __future__ import annotations

import math
import re
import statistics

TAIL_BEYOND = 10
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """A metric name starts with a letter or digit and uses [A-Za-z0-9_.-]."""
    return bool(_NAME.fullmatch(name))


def tail(values):
    """The highest percentile that still has TAIL_BEYOND samples above it.

    Returns (percentile, value) using the nearest-rank definition, or None
    when there are too few samples for any such percentile.  With 100
    samples this is the 90th percentile; with 1000, the 99th.
    """
    xs = sorted(values)
    k = len(xs) - TAIL_BEYOND - 1
    if k < 0:
        return None
    return 100.0 * (k + 1) / len(xs), xs[k]


def summary(values) -> dict:
    """Median, tail percentile and sample count of one timing series."""
    out = {"n": len(values), "median": statistics.median(values)}
    t = tail(values)
    if t is not None:
        out["tail_pct"], out["tail"] = round(t[0], 1), t[1]
    return out


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
