"""The benchmark's workloads: seeded inputs, timed units and output checks.

A workload is a fixed list of units built once from the seed.  One pass
runs every unit in order; the benchmark repeats passes, so every pass
does identical work and exact call counts repeat.  A unit's `run` is
the only timed part; its `check` turns the output into a list of failure
messages.  `weight` is the number of work items one run completes
(records for `catalog`, 1 elsewhere).

Importing this module loads only the standard library; `build` imports
numpy and `umbilic`, so that import cost lands in the measured set-up.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

REFERENCE = Path(__file__).resolve().parent / "reference" / "catalog.json"

# Tolerances pinned in tests/test_acceptance.py.
PASS_TOL = 1e-7
VANISH_TOL = 1e-8
H_NORM_TOL = 1e-6
FD_TOL = 1e-5
FD_STEP = 1e-4
RICHARDSON_RANGE = (3.5, 4.5)
IDENTITY_TOL = 1e-12

DISCREPANCY_FAMILIES = {"S-example", "S-theta"}
MAIN_FAMILIES = ([f"main1-{k}" for k in range(1, 8)]
                 + [f"main2-{k}" for k in range(1, 8)])
AKK_FAMILIES = [f"akk-{k}" for k in range(1, 5)]
SWEEP_FAMILIES = {"nondegenerate": "main1-3", "degenerate": "light1-2"}
SWEEP_DIMS = (4, 8, 16)
SWEEP_R_RANGE = (0.15, 0.85)
ISOMETRIES = 2
ORACLE_POINTS = 2
COMPOSE_POINTS = 3
CLASSIFY_ROUNDS = 8
MODULI_A = [0.0, 1e-3, 1e-2, 1e-1, 1.0]


@dataclass
class Unit:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]
    weight: int = 1

    @property
    def kind(self) -> str:
        return self.name.split(":", 1)[0]


def call_cli(cli, argv) -> tuple[int, str]:
    """Run the CLI in-process; return its exit code and standard output."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def json_tail(text: str) -> dict:
    """The JSON document `--json -` prints after any text lines."""
    start = 0 if text.startswith("{") else text.index("\n{") + 1
    return json.loads(text[start:])


# ---------------------------------------------------------------------------
# catalog: `umbilic verify-all --seed S`, compared with a stored reference
# ---------------------------------------------------------------------------

def record_class(rec: dict) -> dict:
    """Status, flags, ranks and hull class of one verify-all record."""
    s, tol = rec["summary"], rec["tol"]
    flags = {"umbilical": s["umbilicity_residual"] <= tol,
             "geodesic": s["geodesic_residual"] <= tol}
    if "parallel_residual" in s:
        flags["parallel"] = s["parallel_residual"] <= tol
    if "full" in s:
        flags["full"] = s["full"]
    return {"status": rec["status"], "flags": flags,
            "radical_rank": s["radical_rank"],
            "first_normal_rank": s["first_normal_rank"],
            "metric_signature": list(s["metric_signature"]),
            "hull_dim": s.get("hull_dim"),
            "translation_class": s.get("translation_class")}


def record_values(rec: dict) -> list:
    """[family, params, h_norm, rho]: the seed-dependent part of a record."""
    s = rec["summary"]
    return [rec["family"], rec["params"], s.get("h_norm"), s.get("rho")]


def within(a, b, tol) -> bool:
    """|a - b| <= tol, where None matches only None."""
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol


def _same_params(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(
        within(float(a[k]), float(b[k]), 1e-12 * max(1.0, abs(b[k])))
        for k in a)


def compare_catalog(records: list, reference: dict, seed: int) -> list:
    """Failure messages, one per record that disagrees with the reference.

    Every record must match its family's status, flags, ranks and hull
    class.  When the reference holds this seed, each record's parameters,
    `h_norm` and `rho` must match too (within the catalog's H_NORM_TOL);
    for other seeds only the default-parameter records whose values no
    seed changes are compared numerically.
    """
    families = reference["families"]
    failures = []
    expected_count = sum(f["count"] for f in families.values())
    if len(records) != expected_count:
        failures.append(f"{len(records)} records, expected {expected_count}")
    by_seed = reference["seeds"].get(str(seed))
    expected_values = {fid: [] for fid in families}
    for fid, fam in families.items():
        if "values" in fam:
            expected_values[fid].append([fid, fam["defaults"], *fam["values"]])
    for fid, params, h_norm, rho in by_seed or ():
        expected_values[fid].append(
            [fid, {**families[fid]["defaults"], **params}, h_norm, rho])
    for rec in records:
        fid = rec["family"]
        msg = []
        if rec["status"] == "fail":
            msg.append("status fail: " + "; ".join(rec["failures"]))
        if (rec["status"] == "discrepancy-noted") != (fid in DISCREPANCY_FAMILIES):
            msg.append(f"status {rec['status']!r}")
        fam = families.get(fid)
        if fam is None:
            failures.append(f"{fid}: not in the reference")
            continue
        got = record_class(rec)
        for key, want in fam["class"].items():
            if got[key] != want:
                msg.append(f"{key} {got[key]!r}, reference {want!r}")
        values = record_values(rec)
        match = [row for row in expected_values[fid]
                 if _same_params(values[1], row[1])]
        if match:
            _, _, h_norm, rho = match[0]
            if not within(values[2], h_norm, H_NORM_TOL):
                msg.append(f"h_norm {values[2]!r}, reference {h_norm!r}")
            if not within(values[3], rho, H_NORM_TOL):
                msg.append(f"rho {values[3]!r}, reference {rho!r}")
        elif by_seed is not None:
            msg.append(f"params {values[1]!r} not in the reference")
        if msg:
            failures.append(f"{fid} {values[1]}: " + "; ".join(msg))
    return failures


def _catalog(seed: int) -> list[Unit]:
    from umbilic import cli

    reference = json.loads(REFERENCE.read_text())
    argv = ["verify-all", "--seed", str(seed), "--json", "-"]
    weight = sum(f["count"] for f in reference["families"].values())

    def check(out):
        code, text = out
        try:
            records = json_tail(text)["records"]
        except (ValueError, KeyError):
            return [f"verify-all exited {code} without a report"] * weight
        bad = compare_catalog(records, reference, seed)
        if code != 0 and not bad:
            bad.append(f"verify-all exited {code}")
        return bad

    return [Unit("verify-all", lambda: call_cli(cli, argv), check, weight)]


# ---------------------------------------------------------------------------
# dim_sweep: `umbilic analyze` on one family per branch as m grows
# ---------------------------------------------------------------------------

def _sweep_check(branch: str, r: float):
    h_expected = (1 - r * r) / (r * r)

    def check(out):
        code, text = out
        if code != 0:
            return [f"analyze exited {code}"]
        bad = []
        for p in json_tail(text)["points"]:
            if not p["residuals"]["umbilical"] <= PASS_TOL:
                bad.append(f"umbilicity residual {p['residuals']['umbilical']}")
            if branch == "nondegenerate":
                if not within(p["H_norm"], h_expected, H_NORM_TOL):
                    bad.append(f"H_norm {p['H_norm']!r}, expected {h_expected!r}")
                if p["flags"]["parallel"] is not True:
                    bad.append("parallel flag not set")
            elif p["radical_rank"] != 1:
                bad.append(f"radical rank {p['radical_rank']}")
        return bad

    return check


def _dim_sweep(seed: int) -> list[Unit]:
    from umbilic import cli

    rng = random.Random(f"dim_sweep:{seed}")
    units = []
    for branch, family in SWEEP_FAMILIES.items():
        r = rng.uniform(*SWEEP_R_RANGE)
        point_seed = rng.randrange(2**31)
        for m in SWEEP_DIMS:
            argv = ["analyze", "--family", family, "--param", f"m={m}",
                    "--param", f"r={r!r}", "--seed", str(point_seed),
                    "--json", "-"]
            units.append(Unit(f"{branch}_m{m}",
                              lambda argv=argv: call_cli(cli, argv),
                              _sweep_check(branch, r)))
    return units


# ---------------------------------------------------------------------------
# invariance: isometries, the FD oracle, compositions, the classifier,
# the moduli demonstration and the congruence regression
# ---------------------------------------------------------------------------

def _isometry_unit(fid, matrices, point_seed, hull_seed) -> Unit:
    from umbilic import analysis, catalog, charts

    def run():
        ch = catalog.instantiate(fid)
        p = ch.sample_points(1, point_seed)[0]
        base = (analysis.analyze_point(ch, p),
                analysis.reduction_report(ch, seed=hull_seed))
        moved = []
        for L in matrices:
            other = charts.transform_chart(ch, L)
            moved.append((analysis.analyze_point(other, p),
                          analysis.reduction_report(other, seed=hull_seed)))
        return base, moved

    def check(out):
        (base, base_red), moved = out
        bad = []
        for rep, red in moved:
            same = (rep.metric_signature == base.metric_signature
                    and rep.radical_rank == base.radical_rank
                    and rep.flags(PASS_TOL) == base.flags(PASS_TOL)
                    and red.hull_dim == base_red.hull_dim
                    and red.translation_class == base_red.translation_class)
            if not same:
                bad.append("report changed under an isometry")
            for attr in ("umbilicity_residual", "geodesic_residual",
                         "parallel_residual"):
                b, r = getattr(base, attr), getattr(rep, attr)
                if b is not None and b <= VANISH_TOL and not r <= VANISH_TOL:
                    bad.append(f"{attr} {b:.3e} -> {r:.3e}")
            if base.h_norm is not None and not within(rep.h_norm, base.h_norm,
                                                      VANISH_TOL):
                bad.append(f"h_norm {base.h_norm!r} -> {rep.h_norm!r}")
        return bad

    return Unit(f"isometry:{fid}", run, check)


def _oracle_unit(fid, point_seed) -> Unit:
    from umbilic import catalog, charts

    def run():
        ch = catalog.instantiate(fid)
        points = ch.sample_points(ORACLE_POINTS, point_seed)
        rows, hessians = [], []
        for p in points:
            _, jac, hess, _ = ch.jet_arrays(p, order=2)
            _, fjac, fhess, _ = charts.fd_jet_arrays(ch, p, FD_STEP)
            rows.append((float(abs(jac - fjac).max()),
                         float(abs(hess - fhess).max())))
            hessians.append(hess)
        # Richardson: halving a coarse step divides the truncation error by ~4
        errs = [float(abs(charts.fd_jet_arrays(ch, points[0], h)[2]
                          - hessians[0]).max()) for h in (1e-2, 5e-3)]
        return rows, errs

    def check(out):
        rows, errs = out
        bad = [f"oracle differs by {d1:.3e}, {d2:.3e}"
               for d1, d2 in rows if not max(d1, d2) <= FD_TOL]
        if errs[1] >= 1e-9:  # polynomial charts have no truncation error
            ratio = errs[0] / errs[1]
            if not RICHARDSON_RANGE[0] <= ratio <= RICHARDSON_RANGE[1]:
                bad.append(f"Richardson ratio {ratio:.3f}")
        return bad

    return Unit(f"oracle:{fid}", run, check)


def _compose_unit(name, make, point_seed) -> Unit:
    from umbilic import analysis

    def run():
        composite, direct = make()
        rows = []
        for p in direct.sample_points(COMPOSE_POINTS, point_seed):
            gap = float(abs(composite.value(p) - direct.value(p)).max())
            rows.append((gap, analysis.analyze_point(composite, p).flags(PASS_TOL),
                         analysis.analyze_point(direct, p).flags(PASS_TOL)))
        return rows

    def check(rows):
        bad = []
        for gap, flags_c, flags_d in rows:
            if not gap <= IDENTITY_TOL:
                bad.append(f"composite differs by {gap:.3e}")
            if flags_c != flags_d:
                bad.append(f"flags {flags_c} vs {flags_d}")
        return bad

    return Unit(f"compose:{name}", run, check)


def _classify_unit(k, fid, params) -> Unit:
    from umbilic import catalog, congruence

    def run():
        return congruence.classify(catalog.get_family(fid).build(params))

    def check(res):
        if res.label != fid:
            return [f"classified as {res.label!r}"]
        if "r" in params and "r" in res.params and \
                not abs(res.params["r"] - params["r"]) <= H_NORM_TOL:
            return [f"radius {res.params['r']!r}, drawn {params['r']!r}"]
        return []

    return Unit(f"classify:{k}:{fid}", run, check)


def _moduli_unit(seed) -> Unit:
    from umbilic import congruence

    def check(records):
        bad = []
        if [r.cls for r in records] != ["g", "u", "u", "u", "u"]:
            bad.append(f"classes {[r.cls for r in records]}")
        for r in records:
            if not abs(r.distance - abs(r.a) * math.sqrt(2)) <= IDENTITY_TOL:
                bad.append(f"distance {r.distance!r} at a={r.a}")
        return bad

    return Unit("moduli", lambda: congruence.moduli_demo(MODULI_A, seed=seed),
                check)


def _congruence_unit(seed) -> Unit:
    from umbilic import catalog, congruence
    nonzero = [a for a in MODULI_A if a != 0]

    def run():
        ch = {a: catalog.instantiate("psi-a", {"a": a}) for a in MODULI_A}
        pairs = [(congruence.congruence_test(ch[a], ch[b], seed=seed).congruent,
                  True)
                 for i, a in enumerate(nonzero) for b in nonzero[i + 1:]]
        pairs += [(congruence.congruence_test(ch[a], ch[0.0], seed=seed).congruent,
                   False) for a in nonzero]
        return pairs, congruence.congruence_test(ch[1.0], ch[0.0], seed=seed)

    def check(out):
        pairs, kernel = out
        bad = [f"congruent={got}, expected {want}" for got, want in pairs
               if got != want]
        if not (kernel.gram_residual <= IDENTITY_TOL and not kernel.congruent
                and (kernel.rank_a, kernel.rank_b) == (4, 3)):
            bad.append(f"kernel regression: {kernel}")
        return bad

    return Unit("congruence", run, check)


def _invariance(seed: int) -> list[Unit]:
    import numpy as np
    from umbilic import bilinear, catalog, charts

    rng = np.random.default_rng([seed, 0x1A5])

    def draw_seed():
        return int(rng.integers(2**31))

    units = []
    for fid in catalog.family_ids():
        sig = catalog.instantiate(fid).ambient.signature
        matrices = [bilinear.random_pseudo_orthogonal(sig, rng)
                    for _ in range(ISOMETRIES)]
        units.append(_isometry_unit(fid, matrices, draw_seed(), draw_seed()))
        units.append(_oracle_unit(fid, draw_seed()))
    units.append(_compose_unit("cone", lambda: (
        charts.compose(catalog.cone_hypersurface_map(2, 0, 1),
                       catalog.cone_embedding_chart(2, 0, 1)),
        catalog.instantiate("psi-a", {"a": 1.0})), draw_seed()))
    units.append(_compose_unit("cylinder", lambda: (
        charts.compose(catalog.instantiate("main1-7", {"m": 3, "s": 0}),
                       catalog.cylinder_chart(1.0)),
        catalog.instantiate("cv-parallel")), draw_seed()))
    pool = MAIN_FAMILIES + AKK_FAMILIES
    for k in range(CLASSIFY_ROUNDS):
        fid = pool[rng.integers(len(pool))]
        spec = catalog.get_family(fid)
        params = dict(spec.defaults)
        if spec.parametric:
            params.update(spec.draw_params(rng))
        units.append(_classify_unit(k, fid, params))
    units.append(_moduli_unit(draw_seed()))
    units.append(_congruence_unit(draw_seed()))
    return units


WORKLOADS = {"catalog": _catalog, "dim_sweep": _dim_sweep,
             "invariance": _invariance}


def build(workload: str, seed: int) -> list[Unit]:
    """The units of one pass of `workload`, with inputs made from `seed`."""
    return WORKLOADS[workload](seed)
