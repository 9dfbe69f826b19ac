"""One benchmark process: set up a workload, run passes, print raw data.

    python3 perfbench/worker.py --workload W --seed S --seconds T \
        --mode setup|measure|trace

`run.py` starts this with a pinned environment and turns its one line of
JSON output into metrics.  Modes:

- setup: import the package and build the inputs, report the time taken;
- measure: then run one warm-up pass and timed passes for T seconds;
- trace: then run untraced passes for T/2 seconds and three traced
  passes, and report per-layer statistics of each traced pass.

Set-up time runs from the first statement of this file to the end of
input generation, so it covers the import of numpy and `umbilic`.
"""
import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
MIN_PASSES = 3
TRACED_PASSES = 3
MAX_MESSAGES = 20


def run_pass(units, recorder=None, index=0) -> dict:
    """Run and check every unit once; time only each unit's `run`."""
    times, attempted, failed, messages = [], 0, 0, []
    for k, unit in enumerate(units):
        if recorder is not None:
            recorder.op = [index, k]
        err = None
        start = time.perf_counter()
        try:
            out = unit.run()
        except Exception as exc:  # a crashing unit is a failed unit
            err = exc
        times.append(time.perf_counter() - start)
        if err is None:
            try:
                bad = unit.check(out)
            except Exception as exc:  # and so is one whose check crashes
                err = exc
        if err is not None:
            bad = [f"raised {err!r}"] * unit.weight
        attempted += unit.weight
        failed += min(len(bad), unit.weight)
        messages += [f"{unit.name}: {m}" for m in bad]
    return {"times": times, "attempted": attempted, "failed": failed,
            "messages": messages}


def run_for(units, seconds):
    """Untraced passes for `seconds`, and at least MIN_PASSES of them."""
    passes = []
    start = time.perf_counter()
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - start < seconds):
        passes.append(run_pass(units))
    return passes


def provenance(args) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        openblas = "unknown"
    return {"workload": args.workload, "seed": args.seed,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": openblas, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                         "PYTHONHASHSEED")}}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads
    units = workloads.build(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    report = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    report["units"] = [[u.name, u.kind, u.weight] for u in units]
    passes = [run_pass(units)]  # warm-up: filled caches, checked, not timed
    if args.mode == "measure":
        passes += run_for(units, args.seconds)
        report["timed"] = [p["times"] for p in passes[1:]]
    else:
        from tracing import Recorder, layer_stats
        untraced = run_for(units, args.seconds / 2)
        recorder = Recorder()
        recorder.install()
        if recorder.missing:
            sys.exit("error: layers not found: " + ", ".join(recorder.missing))
        try:
            first = len(untraced) + 1
            traced = [run_pass(units, recorder, first + i)
                      for i in range(TRACED_PASSES)]
        finally:
            recorder.uninstall()
        passes += untraced + traced
        report["untraced"] = [sum(p["times"]) for p in untraced]
        report["traced"] = [sum(p["times"]) for p in traced]
        report["layers"] = [
            layer_stats(recorder.spans,
                        keep=lambda op, i=i: op is not None and op[0] == i)
            for i in range(len(untraced) + 1, len(passes))]
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(spans)
        report["spans_file"] = str(spans.relative_to(HERE.parent))
    report["attempted"] = sum(p["attempted"] for p in passes)
    report["failed"] = sum(p["failed"] for p in passes)
    report["messages"] = [m for p in passes for m in p["messages"]][:MAX_MESSAGES]
    report["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["provenance"] = provenance(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
