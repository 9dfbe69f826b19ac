"""Acceptance suite: one check per published criterion.

Each test prints a single `criterion NN ... PASS/FAIL` line on the real
stdout (capture is suspended for the line) and then asserts, so a full
run always shows the scoreboard.  Tolerances are pinned here, not
imported, so drift in library defaults cannot silently weaken the gate.
"""

import zlib

import numpy as np
import pytest

from umbilic.analysis import (analyze_point, build_frame, fullness,
                              reduction_report, verify_family)
from umbilic.bilinear import random_pseudo_orthogonal
from umbilic.catalog import (cone_embedding_chart, cone_hypersurface_map,
                             cylinder_chart, family_ids, get_family,
                             instantiate)
from umbilic.charts import compose, fd_jet_arrays, transform_chart
from umbilic.congruence import classify, congruence_test, moduli_demo

PASS_TOL = 1e-7
ZERO_TOL = 1e-8
H_NORM_TOL = 1e-6
CONTROL_GAP = 1e-2
FD_TOL = 1e-5
FD_STEP = 1e-4
RICHARDSON_RANGE = (3.5, 4.5)

MAIN_FAMILIES = [f"main1-{k}" for k in range(1, 8)] + \
                [f"main2-{k}" for k in range(1, 8)]
LIGHT_FAMILIES = [f"light1-{k}" for k in range(1, 8)] + \
                 [f"light2-{k}" for k in range(1, 8)]


@pytest.fixture
def _report(capsys):
    """Emit one `criterion NN ... PASS/FAIL` line on the real stdout."""

    def emit(num: int, name: str, ok: bool):
        line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return emit


def _runs(fid, draws=3, seed=1000):
    spec = get_family(fid)
    out = [dict(spec.defaults)]
    if spec.parametric:
        rng = np.random.default_rng([seed, zlib.crc32(fid.encode())])
        out += [{**spec.defaults, **spec.draw_params(rng)}
                for _ in range(draws)]
    return out


def test_criterion_01_catalog_conformance(_report):
    ok = True
    for fid in MAIN_FAMILIES:
        for params in _runs(fid):
            verdict = verify_family(fid, params, tol=PASS_TOL,
                                    tol_zero=ZERO_TOL)
            ok &= verdict.ok
    for fid, target in (("main1-7", -1.0), ("main2-7", 1.0),
                        ("main1-5", 0.0), ("main2-5", 0.0)):
        ch = instantiate(fid)
        rep = analyze_point(ch, ch.sample_points(1, 5)[0])
        ok &= abs(rep.h_norm - target) <= PASS_TOL
        if fid.endswith("-5"):
            ok &= float(np.max(np.abs(rep.mean_curvature))) > 0.1
    _report(1, "catalog conformance (curved targets)", ok)


def test_criterion_02_displayed_mean_curvature_vector(_report):
    rep = analyze_point(instantiate("main1-5", {"m": 2, "s": 0}), np.zeros(2))
    ok = bool(np.max(np.abs(rep.mean_curvature
                            - np.array([1.0, 0, 0, 0, 1.0]))) <= 1e-9)
    _report(2, "null-offset inclusion H_rel = (1,0,0,0,1)", ok)


def test_criterion_03_flat_classification(_report):
    ok = all(verify_family(f"akk-{k}", tol=PASS_TOL).ok for k in range(1, 5))
    ch = instantiate("akk-4")
    fr = build_frame(ch, ch.sample_points(1, 6)[0])
    _, h, H = fr.tensors
    flat = h.reshape(-1, h.shape[-1])
    s, vh = np.linalg.svd(flat, full_matrices=False)[1:]
    ok &= int(np.sum(s > ZERO_TOL * s[0])) == 1
    span = vh[0]
    G = ch.ambient.signature.metric()
    ok &= abs(float(span @ G @ span)) <= 1e-9
    ok &= float(np.linalg.norm(H)) > 0.1 and abs(float(H @ G @ H)) <= 1e-9
    _report(3, "flat catalog + null first normal space", ok)


def test_criterion_04_lightlike_propositions(_report):
    ok = True
    for fid in LIGHT_FAMILIES:
        expected_rank = 2 if fid.endswith("-6") else 1
        for params in _runs(fid):
            ch = instantiate(fid, params)
            for p in ch.sample_points(4, 7):
                rep = analyze_point(ch, p, tol_zero=ZERO_TOL)
                ok &= rep.radical_rank == expected_rank
                ok &= rep.umbilicity_residual <= PASS_TOL
                if fid.endswith("-1"):
                    ok &= rep.geodesic_residual <= PASS_TOL
    _report(4, "lightlike radical ranks + quotient umbilicity", ok)


def test_criterion_05_proof_replay_reduction(_report):
    expected = {
        "main1-1": "linear", "main1-2": "linear", "main1-3": "v_S",
        "main1-4": "v_T", "main1-5": "v_L", "main1-6": "v_S",
        "main1-7": "+N",
        "main2-1": "linear", "main2-2": "linear", "main2-3": "v_T",
        "main2-4": "v_S", "main2-5": "v_L", "main2-6": "v_T",
        "main2-7": "+N",
    }
    ok = True
    correct_nongeodesic = 0
    for fid, cls in expected.items():
        red = reduction_report(instantiate(fid))
        ok &= red.hull_dim == 3  # m + 1 at the default m = 2
        ok &= red.translation_class == cls
        if cls != "linear":
            correct_nongeodesic += red.translation_class == cls
    ok &= correct_nongeodesic == 10
    _report(5, "hull reduction classes 10/10", ok)


def test_criterion_06_moduli_non_hausdorff(_report):
    a_values = [0.0, 1e-3, 1e-2, 1e-1, 1.0]
    records = moduli_demo(a_values)
    ok = [r.cls for r in records] == ["g", "u", "u", "u", "u"]
    for rec in records:
        ok &= abs(rec.distance - abs(rec.a) * np.sqrt(2)) <= 1e-12
    charts = {a: instantiate("psi-a", {"a": a}) for a in a_values}
    nonzero = [a for a in a_values if a != 0]
    for i, a in enumerate(nonzero):
        for b in nonzero[i + 1:]:
            ok &= congruence_test(charts[a], charts[b]).congruent
        ok &= not congruence_test(charts[a], charts[0.0]).congruent
    _report(6, "moduli class pattern g,u,u,u,u + distances", ok)


def test_criterion_07_congruence_kernel_regression(_report):
    verdict = congruence_test(instantiate("psi-a", {"a": 1.0}),
                              instantiate("psi-a", {"a": 0.0}))
    ok = verdict.gram_residual <= 1e-12
    ok &= not verdict.congruent
    ok &= (verdict.rank_a, verdict.rank_b) == (4, 3)  # m+2 vs m+1 at m=2
    _report(7, "kernel regression: equal Grams, unequal spans", ok)


def test_criterion_08_classifier_round_trip(_report):
    rng = np.random.default_rng(4242)
    fams = MAIN_FAMILIES + [f"akk-{k}" for k in range(1, 5)]
    hits = 0
    for _ in range(50):
        fid = fams[rng.integers(len(fams))]
        spec = get_family(fid)
        params = dict(spec.defaults)
        if spec.parametric:
            params.update(spec.draw_params(rng))
        res = classify(spec.build(params))
        good = res.label == fid
        if good and "r" in params and "r" in res.params:
            good = abs(res.params["r"] - params["r"]) <= 1e-6
        hits += good
    _report(8, "classifier round-trip 50/50", hits == 50)


def test_criterion_09_parallelism_and_compositions(_report):
    ok = True
    # product surface: parallel at 16 points
    cv = instantiate("cv-parallel")
    for p in cv.sample_points(16, 8):
        ok &= analyze_point(cv, p).parallel_residual <= 1e-8
    # composition identities
    psi = instantiate("psi-a", {"a": 1.0})
    comp1 = compose(cone_hypersurface_map(2, 0, 1), cone_embedding_chart(2, 0, 1))
    for p in psi.sample_points(10, 9):
        ok &= float(np.max(np.abs(comp1.value(p) - psi.value(p)))) <= 1e-12
    comp2 = compose(instantiate("main1-7", {"m": 3, "s": 0}),
                    cylinder_chart(1.0))
    for p in cv.sample_points(10, 9):
        ok &= float(np.max(np.abs(comp2.value(p) - cv.value(p)))) <= 1e-12
    # every umbilical non-degenerate entry is parallel
    for fid in MAIN_FAMILIES + [f"akk-{k}" for k in range(1, 5)] + ["U-flat"]:
        ch = instantiate(fid)
        for p in ch.sample_points(3, 10):
            ok &= analyze_point(ch, p).parallel_residual <= PASS_TOL
    # the cubic graph control fails with a gap
    cubic = instantiate("cubic-graph-control")
    ok &= min(analyze_point(cubic, p).parallel_residual
              for p in cubic.sample_points(4, 10)) >= CONTROL_GAP
    _report(9, "parallelism + composition identities", ok)


def test_criterion_10_oracle_equivalence(_report):
    ok = True
    for fid in sorted(family_ids()):
        ch = instantiate(fid)
        for p in ch.sample_points(2, 13):
            _, jac, hess, _ = ch.jet_arrays(p, order=2)
            _, fjac, fhess, _ = fd_jet_arrays(ch, p, FD_STEP)
            ok &= float(np.max(np.abs(jac - fjac))) <= FD_TOL
            ok &= float(np.max(np.abs(hess - fhess))) <= FD_TOL
    # Richardson: halving a coarse step divides the truncation error by ~4
    checked = 0
    for fid in sorted(family_ids()):
        ch = instantiate(fid)
        p = ch.sample_points(1, 13)[0]
        _, _, hess, _ = ch.jet_arrays(p, order=2)
        errs = []
        for h in (1e-2, 5e-3):
            _, _, fh, _ = fd_jet_arrays(ch, p, h)
            errs.append(float(np.max(np.abs(fh - hess))))
        if errs[1] < 1e-9:
            continue  # polynomial chart: FD is exact, no truncation to halve
        ratio = errs[0] / errs[1]
        ok &= RICHARDSON_RANGE[0] <= ratio <= RICHARDSON_RANGE[1]
        checked += 1
    ok &= checked >= 10
    _report(10, "finite-difference oracle equivalence", ok)


def test_criterion_11_isometry_invariance(_report):
    rng = np.random.default_rng(31)
    ok = True
    for fid in sorted(family_ids()):
        ch = instantiate(fid)
        p = ch.sample_points(1, 14)[0]
        base = analyze_point(ch, p)
        base_red = reduction_report(ch)
        for _ in range(10):
            L = random_pseudo_orthogonal(ch.ambient.signature, rng)
            moved = transform_chart(ch, L)
            rep = analyze_point(moved, p)
            ok &= rep.metric_signature == base.metric_signature
            ok &= rep.radical_rank == base.radical_rank
            ok &= rep.flags(PASS_TOL) == base.flags(PASS_TOL)
            # vanishing residuals must stay vanishing (their nonzero
            # magnitudes are frame-dependent Euclidean lengths)
            if base.umbilicity_residual <= 1e-8:
                ok &= rep.umbilicity_residual <= 1e-8
            if base.geodesic_residual <= 1e-8:
                ok &= rep.geodesic_residual <= 1e-8
            if base.h_norm is not None:
                ok &= abs(rep.h_norm - base.h_norm) <= 1e-8
            if (base.parallel_residual is not None
                    and base.parallel_residual <= 1e-8):
                ok &= rep.parallel_residual <= 1e-8
            red = reduction_report(moved)
            ok &= red.hull_dim == base_red.hull_dim
            ok &= red.translation_class == base_red.translation_class
        if not ok:
            break
    _report(11, "isometry invariance of all report fields", ok)
