"""Benchmark for `umbilic`: one seeded workload, checked, end to end or traced.

    python3 perfbench/run.py --workload catalog|dim_sweep|invariance \
        --seed N --seconds T --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Each measurement runs in a fresh single-threaded child process
(`worker.py`).  With `--trace 0` the last line of output holds the
end-to-end metrics; with `--trace 1`, the per-layer metrics of a traced
run.  The lines before it give provenance and the timing summaries
(median, tail percentile and sample count) behind the metrics.  See
README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import stats
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("catalog", "dim_sweep", "invariance")
SETUP_PROBES = 15         # fresh processes timed for set-up (after a warm one)
TIME_LIMIT = 170.0        # the whole run must end within 180 s
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class WorkerError(Exception):
    pass


def spawn(args, mode: str, deadline: float) -> dict:
    """Run worker.py to completion and return its JSON report."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError(f"no time left for the {mode} process")
    try:
        done = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **PINNED_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} process timed out after {timeout:.0f} s")
    if done.returncode != 0:
        raise WorkerError(f"{mode} process exited {done.returncode}:\n"
                          f"{done.stderr.strip()}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise WorkerError(f"{mode} process printed no report")


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(args, deadline) -> tuple[dict, dict, dict]:
    """Metrics, the measuring worker's report, and the timing summaries."""
    setups = [spawn(args, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES + 1)][1:]
    report = spawn(args, "measure", deadline)
    setups.append(report["setup_s"])
    units, timed = report["units"], report["timed"]
    weights = [w for _, _, w in units]
    pass_s = [sum(times) for times in timed]
    per_unit = [statistics.median(t[k] for t in timed) / w
                for k, w in enumerate(weights)]
    metrics = {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        "units_per_s": metric(sum(weights) / statistics.median(pass_s), "1/s"),
        "unit_geomean_ms": metric(1000.0 * stats.geomean(per_unit), "ms"),
    }
    kinds = {}
    for k, (_, kind, _) in enumerate(units):
        kinds.setdefault(kind, []).append(k)
    timings = {"setup_s": stats.summary(setups),
               "pass_s": stats.summary(pass_s)}
    for kind, idx in kinds.items():
        timings[f"{kind}_s"] = stats.summary([sum(t[k] for k in idx)
                                              for t in timed])
    return metrics, report, {"timings": timings}


def per_layer(args, deadline) -> tuple[dict, dict, dict]:
    """Per-layer metrics, the traced worker's report, and its summaries."""
    report = spawn(args, "trace", deadline)
    layers = report["layers"]
    calls = [{n: s["calls"] for n, s in layer.items()} for layer in layers]
    if any(c != calls[0] for c in calls):
        raise WorkerError("call counts differ between identical traced passes")
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}.calls"] = metric(calls[0][name], "count")
        for key in ("self_s", "busy_s"):
            metrics[f"{name}.{key}"] = metric(
                statistics.median(layer[name][key] for layer in layers), "s")
    count = calls[0]
    points = count["analysis.analyze_point"]
    units = sum(w for _, _, w in report["units"])

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["jets.evaluate.calls_per_point"] = metric(
        ratio(count["jets.evaluate"], points), "ratio")
    metrics["bilinear.signature_of.calls_per_point"] = metric(
        ratio(count["bilinear.signature_of"], points), "ratio")
    metrics["catalog.build.calls_per_record"] = metric(
        ratio(count["catalog.build"], units), "ratio")
    metrics["charts.ExprChart.value.calls_per_check"] = metric(
        ratio(count["charts.ExprChart.value"], units), "ratio")
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(report["traced"])
        / statistics.median(report["untraced"]), "ratio")
    extra = {"counts": {"points": points, "units": units},
             "timings": {"untraced_pass_s": stats.summary(report["untraced"]),
                         "traced_pass_s": stats.summary(report["traced"])},
             "spans_file": report["spans_file"]}
    return metrics, report, extra


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not args.seconds > 0 or not math.isfinite(args.seconds):
        parser.error("--seconds must be a positive number")
    if not (ROOT / "src" / "umbilic" / "__init__.py").is_file():
        print(f"error: no umbilic sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    try:
        if args.trace:
            metrics, report, extra = per_layer(args, deadline)
        else:
            metrics, report, extra = end_to_end(args, deadline)
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    bad = [n for n in metrics if not stats.valid_metric_name(n)]
    if bad:
        print(f"error: invalid metric names {bad}", file=sys.stderr)
        return 1
    for msg in report["messages"]:
        print(f"check failed: {msg}", file=sys.stderr)
    attempted, failed = report["attempted"], report["failed"]
    print(json.dumps({"provenance": {**report["provenance"],
                                     "seconds": args.seconds,
                                     "trace": args.trace},
                      "failed_ratio": failed / attempted, **extra}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
