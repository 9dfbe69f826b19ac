"""Command-line driver: full verification runs, single-family analyses,
the moduli demonstration, and catalog listing.

Exit codes: 0 success, 1 verification/runtime failure, 2 usage error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from . import catalog
from .analysis import (DEFAULT_TOL, DEFAULT_ZERO_TOL, analyze_point,
                       analyze_points, fullness, point_report,
                       reduction_report, untrusted, verify_families)
from .congruence import closure_demonstrated, moduli_demo
from .errors import DomainError, InputError

DEFAULT_SEED = 42
DEFAULT_SAMPLES = 16


def _json_text(x, indent: str = "") -> str:
    """The bytes of `json.dumps(x, sort_keys=True, indent=2)`, for dicts
    with str keys; a list of finite floats is one join of their reprs."""
    if isinstance(x, str):
        return _json_string(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        return _json_float(x)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        if (all(type(v) is float for v in x)
                and all(map(math.isfinite, x))):
            body = sep.join(map(float.__repr__, x))
        else:
            body = sep.join([_json_text(v, inner) for v in x])
        return f"[\n{inner}{body}\n{indent}]"
    if isinstance(x, dict):
        if not x:
            return "{}"
        body = sep.join([f"{_json_string(k)}: {_json_text(v, inner)}"
                         for k, v in sorted(x.items())])
        return f"{{\n{inner}{body}\n{indent}}}"
    raise TypeError(f"Object of type {type(x).__name__} "
                    f"is not JSON serializable")


def _json_float(x: float) -> str:
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _dump_json(payload, path):
    text = _json_text(payload)
    if path == "-":
        print(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as err:
        raise UsageError(f"cannot write {path!r}: {err}")


class UsageError(Exception):
    pass


def _record(verdict, args) -> dict:
    # a non-finite summary value is null: JSON has no NaN or Infinity
    summary = {k: None if isinstance(v, float) and not math.isfinite(v)
               else v for k, v in verdict.summary.items()}
    return {
        "family": verdict.family_id,
        "params": verdict.params,
        "status": verdict.status,
        "failures": verdict.failures,
        "discrepancies": verdict.discrepancies,
        "summary": summary,
        "seed": args.seed,
        "tol": args.tol,
        "tol_zero": args.tol_zero,
        "order": 3,
    }


def cmd_verify_all(args) -> int:
    verdicts = verify_families(catalog.instances(args.seed),
                               samples=args.samples, seed=args.seed,
                               tol=args.tol, tol_zero=args.tol_zero)
    records = [_record(v, args) for v in verdicts]
    records.sort(key=lambda r: (r["family"],
                                json.dumps(r["params"], sort_keys=True)))
    failures = [r for r in records if r["status"] == "fail"]
    for r in records:
        line = f"{r['status']:<18} {r['family']:<22} {_fmt_params(r['params'])}"
        print(line)
        for msg in r["failures"]:
            print(f"    failure: {msg}")
        for msg in r["discrepancies"]:
            print(f"    note: {msg}")
    print(f"{len(records)} records, {len(failures)} failures")
    if args.json:
        _dump_json({"seed": args.seed, "tol": args.tol,
                    "tol_zero": args.tol_zero, "order": 3,
                    "samples": args.samples, "records": records}, args.json)
    return 1 if failures else 0


def _fmt_params(params: dict) -> str:
    return " ".join(f"{k}={_fmt_num(v)}" for k, v in sorted(params.items()))


def _fmt_num(v):
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _parse_param(text: str):
    if "=" not in text:
        raise UsageError(f"parameter {text!r} is not of the form key=value")
    key, _, value = text.partition("=")
    try:
        num = float(value)
    except ValueError:
        raise UsageError(f"parameter value {value!r} is not a number")
    if not math.isfinite(num):
        raise UsageError(f"parameter value {value!r} is not finite")
    if num == int(num) and "." not in value and "e" not in value.lower():
        return key, int(num)
    return key, num


def cmd_analyze(args) -> int:
    params = dict(_parse_param(p) for p in args.param or [])
    spec, merged, chart, expected = catalog.family_instance(args.family, params)
    if args.point is not None:
        if len(args.point) != chart.nvars:
            raise UsageError(
                f"--point needs {chart.nvars} coordinates for this family")
        points = np.asarray(args.point, dtype=float)[None]
    else:
        points = chart.sample_points(args.samples, args.seed)

    try:
        table = analyze_points(chart, points, tol_zero=args.tol_zero)
    except DomainError:
        # report the first offending sample as it reads alone, with no
        # index into a stack the user never sees
        for p in points:
            analyze_point(chart, p, tol_zero=args.tol_zero)
        raise
    (lines,) = untrusted(table, args.tol)
    if lines:
        raise DomainError("; ".join(lines))
    point_payloads = []
    for rep in (point_report(table, k) for k in range(len(points))):
        point_payloads.append({
            "u": rep.point.tolist(),
            "g": rep.metric.tolist(),
            "signature": rep.metric_signature.as_tuple(),
            "radical_rank": rep.radical_rank,
            "H_rel": None if rep.mean_curvature is None
                     else rep.mean_curvature.tolist(),
            "H_norm": rep.h_norm,
            "flags": rep.flags(args.tol),
            "residuals": {
                "umbilical": rep.umbilicity_residual,
                "geodesic": rep.geodesic_residual,
                "minimal": rep.minimal_residual,
                "parallel": rep.parallel_residual,
            },
        })

    red = reduction_report(chart, seed=args.seed, tol=args.tol,
                           tol_zero=args.tol_zero)
    is_full, _ = fullness(chart, seed=args.seed, tol=args.tol)
    notes = []
    rank = max(p["radical_rank"] for p in point_payloads)
    if expected.allows("radical_rank", rank):
        notes.append(f"radical rank computed {rank}, catalog asserts "
                     f"{expected.radical_rank} (allowed discrepancy)")
    report = {
        "family": spec.id,
        "params": merged,
        "points": point_payloads,
        "reduction": {
            "hull_dim": red.hull_dim,
            "direction_signature": red.direction_signature.as_tuple(),
            "translation_class": red.translation_class,
            "rho": red.rho,
        },
        "full": is_full,
        "notes": notes,
    }
    if args.json:
        _dump_json(report, args.json)
    else:
        _print_analysis(report)
    return 0


def _print_analysis(report):
    print(f"family {report['family']}  {_fmt_params(report['params'])}")
    for p in report["points"]:
        u = " ".join(f"{x:.6g}" for x in p["u"])
        print(f"  point ({u})  signature {p['signature']}  "
              f"radical {p['radical_rank']}")
        res = p["residuals"]
        print("    residuals: "
              + "  ".join(f"{k}={_fmt_res(v)}" for k, v in sorted(res.items())))
        flags = {k: v for k, v in p["flags"].items() if v is not None}
        print("    flags: "
              + "  ".join(f"{k}={v}" for k, v in sorted(flags.items())))
        if p["H_norm"] is not None:
            print(f"    H_norm = {p['H_norm']:.6f}")
    red = report["reduction"]
    rho = "-" if red["rho"] is None else f"{red['rho']:.6f}"
    print(f"  hull: dim {red['hull_dim']}, direction signature "
          f"{red['direction_signature']}, translation {red['translation_class']}"
          f", rho {rho}")
    print(f"  full: {report['full']}")
    for n in report["notes"]:
        print(f"  note: {n}")


def _fmt_res(v):
    return "-" if v is None else f"{v:.3e}"


def cmd_moduli(args) -> int:
    try:
        a_values = [float(x) for x in args.a.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"--a expects a comma-separated list of numbers, "
                         f"got {args.a!r}")
    if not a_values:
        raise UsageError("--a list is empty")
    if not all(map(math.isfinite, a_values)):
        raise UsageError(f"--a expects finite numbers, got {args.a!r}")
    records = moduli_demo(a_values, samples=args.samples, seed=args.seed,
                          tol=args.tol)
    rows = [{"a": r.a, "class": r.cls, "distance": r.distance} for r in records]
    if args.json:
        _dump_json({"rows": rows}, args.json)
    else:
        print(f"{'a':>12} {'class':>6} {'sup distance':>14}")
        for r in records:
            print(f"{r.a:>12.6g} {r.cls:>6} {r.distance:>14.6f}")
    if closure_demonstrated(records):
        print("closure(u) ∋ g: demonstrated")
    return 0


def cmd_catalog(args) -> int:
    for fid in catalog.family_ids():
        spec = catalog.get_family(fid)
        tag = "parametric" if spec.parametric else "fixed"
        print(f"{fid:<24} {tag:<11} {_fmt_params(spec.defaults):<24} "
              f"{spec.description}")
    return 0


def _add_common(sub, samples_default=DEFAULT_SAMPLES):
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sub.add_argument("--samples", type=int, default=samples_default)
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--json", metavar="PATH",
                     help="write a JSON report to PATH ('-' for stdout)")


class _Parser(argparse.ArgumentParser):
    """A parser, and its subparsers, that read `-1e-3` and `-1,0` as values
    like `-1.5`: no option of this CLI starts `-<digit>` or `-.<digit>`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process on first use."""
    parser = _Parser(
        prog="umbilic",
        description="Numerical verification of the totally umbilical "
                    "submanifold catalog in indefinite space forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify-all", help="run every catalog entry")
    _add_common(verify)
    verify.set_defaults(func=cmd_verify_all)

    analyze = sub.add_parser("analyze", help="report one family in detail")
    analyze.add_argument("--family", required=True)
    analyze.add_argument("--param", action="append", metavar="KEY=VALUE")
    analyze.add_argument("--point", type=float, nargs="+", metavar="X")
    _add_common(analyze, samples_default=4)
    analyze.set_defaults(func=cmd_analyze)

    # the jet walk's option, which `moduli` does not read
    for p in (verify, analyze):
        p.add_argument("--tol-zero", type=float, default=DEFAULT_ZERO_TOL,
                       dest="tol_zero")

    p = sub.add_parser("moduli", help="walk the null-offset moduli family")
    p.add_argument("--a", required=True, metavar="LIST",
                   help="comma-separated offsets, e.g. 0,0.001,0.1,1")
    _add_common(p, samples_default=25)
    p.set_defaults(func=cmd_moduli)

    p = sub.add_parser("catalog", help="catalog inspection")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if getattr(args, "seed", 0) is None:
        try:
            args.seed = int(os.environ.get("UMBILIC_SEED") or DEFAULT_SEED)
        except ValueError:
            args.seed = -1
    if getattr(args, "seed", 0) < 0:
        print("error: the seed (--seed or UMBILIC_SEED) must be a "
              "non-negative integer", file=sys.stderr)
        return 2
    if not all(map(math.isfinite, getattr(args, "point", None) or ())):
        print("error: --point coordinates must be finite", file=sys.stderr)
        return 2
    if hasattr(args, "samples") and args.samples < 4:
        print("error: --samples must be at least 4", file=sys.stderr)
        return 2
    tols = [getattr(args, k) for k in ("tol", "tol_zero") if hasattr(args, k)]
    if not all(math.isfinite(t) and t > 0 for t in tols):
        print("error: tolerances must be positive and finite", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    # MemoryError: numpy refuses an out-of-range request, e.g. 10**15 samples
    except (UsageError, InputError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DomainError, ArithmeticError) as err:
        # ArithmeticError: a last guard; `catalog.family_instance` names the
        # family when its closed forms overflow or divide by zero
        print(f"domain error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
