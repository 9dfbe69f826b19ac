"""Tests for the command-line driver: exit codes, JSON output, determinism."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from umbilic import cli
from umbilic.analysis import analyze_point
from umbilic.catalog import instantiate
from umbilic.charts import ImmersionChart
from umbilic.cli import _jsonable, main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, _ = run(["verify-all", "--bogus"], capsys)
        assert code == 2

    def test_unknown_family(self, capsys):
        code, _, err = run(["analyze", "--family", "nope"], capsys)
        assert code == 2
        assert "unknown family" in err

    def test_bad_parameter_value(self, capsys):
        code, _, err = run(
            ["analyze", "--family", "main1-3", "--param", "r=big"], capsys)
        assert code == 2

    def test_out_of_range_parameter(self, capsys):
        code, _, err = run(
            ["analyze", "--family", "main1-3", "--param", "r=2"], capsys)
        assert code == 2

    def test_samples_floor(self, capsys):
        code, _, err = run(["verify-all", "--samples", "2"], capsys)
        assert code == 2

    def test_nonpositive_tolerance(self, capsys):
        code, _, err = run(["verify-all", "--tol", "0"], capsys)
        assert code == 2

    def test_wrong_point_arity(self, capsys):
        code, _, err = run(
            ["analyze", "--family", "main1-5", "--point", "0"], capsys)
        assert code == 2

    def test_empty_moduli_list(self, capsys):
        code, _, err = run(["moduli", "--a", ""], capsys)
        assert code == 2


class TestVerifyAll:
    def test_default_run_passes(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run(
            ["verify-all", "--samples", "5", "--json", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["records"]) >= 30
        statuses = {r["status"] for r in payload["records"]}
        assert statuses <= {"pass", "discrepancy-noted"}
        assert "0 failures" in out

    def test_records_are_sorted(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        run(["verify-all", "--samples", "5", "--json", str(out_path)], capsys)
        records = json.loads(out_path.read_text())["records"]
        keys = [(r["family"], json.dumps(r["params"], sort_keys=True))
                for r in records]
        assert keys == sorted(keys)

    def test_deterministic_json(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(["verify-all", "--samples", "5", "--json", str(a)], capsys)
        run(["verify-all", "--samples", "5", "--json", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_overtight_zero_tolerance_fails(self, capsys):
        code, out, _ = run(
            ["verify-all", "--samples", "5", "--tol-zero", "1e-15"], capsys)
        assert code == 1
        assert "failure" in out

    def test_unwritable_output_path(self, capsys):
        code, _, err = run(
            ["verify-all", "--samples", "5",
             "--json", "/nonexistent-dir/x.json"], capsys)
        assert code == 2


class TestAnalyze:
    def test_json_schema(self, capsys, tmp_path):
        out_path = tmp_path / "a.json"
        code, _, _ = run(
            ["analyze", "--family", "main1-5", "--point", "0", "0",
             "--json", str(out_path)], capsys)
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["family"] == "main1-5"
        assert report["params"] == {"m": 2, "s": 0}
        (point,) = report["points"]
        assert point["u"] == [0.0, 0.0]
        assert point["signature"] == [0, 2, 0]
        assert point["radical_rank"] == 0
        assert point["H_rel"] == pytest.approx([1, 0, 0, 0, 1], abs=1e-9)
        assert point["flags"]["totally_umbilical"] is True
        assert point["flags"]["totally_geodesic"] is False
        assert point["flags"]["marginally_trapped"] is True
        assert report["reduction"]["translation_class"] == "v_L"
        assert report["full"] is True

    def test_degenerate_family_reports_rank(self, capsys, tmp_path):
        out_path = tmp_path / "a.json"
        run(["analyze", "--family", "light1-6", "--json", str(out_path)],
            capsys)
        report = json.loads(out_path.read_text())
        assert all(p["radical_rank"] == 2 for p in report["points"])
        assert all(p["H_rel"] is None for p in report["points"])

    def test_identically_zero_metric(self, capsys):
        # plane-P at s = t = 0 is a null line: its metric vanishes
        code, out, _ = run(["analyze", "--family", "plane-P", "--param", "s=0",
                            "--param", "t=0", "--json", "-"], capsys)
        assert code == 0
        for p in json.loads(out)["points"]:
            assert p["signature"] == [0, 0, 1]
            assert p["radical_rank"] == 1
            assert p["H_norm"] is None
            assert p["flags"]["totally_umbilical"]
            assert p["flags"]["totally_geodesic"]

    def test_discrepancy_note_for_s_example(self, capsys, tmp_path):
        out_path = tmp_path / "a.json"
        run(["analyze", "--family", "S-example", "--json", str(out_path)],
            capsys)
        report = json.loads(out_path.read_text())
        assert any("allowed discrepancy" in n for n in report["notes"])

    def test_table_output(self, capsys):
        code, out, _ = run(["analyze", "--family", "main1-3",
                            "--param", "r=0.5", "--point", "0", "0"], capsys)
        assert code == 0
        assert "H_norm = 3.000000" in out
        assert "translation v_S" in out

    def test_domain_error_exit(self, capsys):
        # a point far outside the sphere chart's disc
        code, _, err = run(
            ["analyze", "--family", "main1-3", "--param", "r=0.5",
             "--point", "2", "2"], capsys)
        assert code == 1
        assert "coordinate" in err

    def test_non_finite_residual_fails_closed(self, capsys):
        # the jets are finite, but the parallelism residual overflows
        code, out, err = run(["analyze", "--family", "main1-4",
                              "--param", "r=1e100"], capsys)
        assert code == 1
        assert out == ""
        assert err == "domain error: non-finite residuals: parallel\n"

    def test_closed_form_overflow_names_the_family(self, capsys):
        # the catalog's expectation overflows before any chart is walked
        code, out, err = run(["analyze", "--family", "main1-4",
                              "--param", "r=1e155"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("domain error: family 'main1-4'")

    def test_domain_error_at_a_later_sample(self, capsys, monkeypatch):
        # the third of four samples leaves the sphere chart's disc; each
        # sample is analyzed alone, so no stack index names it wrongly
        points = np.array([[0.0, 0.1], [0.1, 0.0], [2.0, 2.0], [0.0, 0.0]])
        monkeypatch.setattr(ImmersionChart, "sample_points",
                            lambda self, count, seed=42: points[:count])
        code, _, err = run(["analyze", "--family", "main1-3",
                            "--param", "r=0.5"], capsys)
        assert code == 1
        assert "coordinate" in err
        assert "at point" not in err

    @pytest.mark.parametrize("family", ["main1-3", "light1-2"])
    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_batched_samples_match_single_points(self, capsys, family, m):
        # all samples go through one stacked analysis
        code, out, _ = run(["analyze", "--family", family,
                            "--param", f"m={m}", "--json", "-"], capsys)
        assert code == 0
        points = json.loads(out)["points"]
        assert len(points) == 4
        chart = instantiate(family, {"m": m})
        for p in points:
            rep = analyze_point(chart, np.array(p["u"]))
            assert p["signature"] == list(rep.metric_signature.as_tuple())
            assert p["radical_rank"] == rep.radical_rank
            assert p["flags"] == rep.flags()
            pairs = [(p["H_norm"], rep.h_norm), (p["H_rel"], rep.mean_curvature),
                     (p["g"], rep.metric)]
            pairs += [(p["residuals"][key], getattr(rep, attr)) for key, attr in (
                ("umbilical", "umbilicity_residual"),
                ("geodesic", "geodesic_residual"),
                ("minimal", "minimal_residual"),
                ("parallel", "parallel_residual"))]
            for got, want in pairs:
                if want is None:
                    assert got is None
                else:
                    np.testing.assert_allclose(got, want, rtol=1e-12,
                                               atol=1e-15)


def test_trace_targets_resolve(monkeypatch):
    # every layer the benchmark's traced run wraps still exists, so that a
    # rename fails here and not in the traced run; read-only, as below
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracing = importlib.import_module("tracing")
    missing = []
    for name, modname, clsname, attr in tracing.TARGETS:
        owner = importlib.import_module(f"umbilic.{modname}")
        if clsname is None:
            found = getattr(owner, attr, None) is not None
        else:
            cls = getattr(owner, clsname, None)
            found = cls is not None and attr in vars(cls)
        if not found:
            missing.append(name)
    assert missing == []


def test_verify_all_matches_reference(capsys, monkeypatch):
    # the benchmark's correctness gate, read-only: every record's status,
    # flags, ranks, hull class, h_norm and rho against the stored reference
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    code, out, _ = run(["verify-all", "--seed", "42", "--json", "-"], capsys)
    assert code == 0
    records = workloads.json_tail(out)["records"]
    reference = json.loads(workloads.REFERENCE.read_text())
    assert workloads.compare_catalog(records, reference, 42) == []


@pytest.mark.parametrize("workload", ["dim_sweep", "invariance"])
def test_benchmark_workloads_pass(workload, monkeypatch):
    # the benchmark's other two workloads, read-only: one pass at seed 42,
    # so that an API change breaking a benchmark caller fails here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    workloads = importlib.import_module("workloads")
    failures = {}
    for unit in workloads.build(workload, 42):
        bad = unit.check(unit.run())
        if bad:
            failures[unit.name] = bad
    assert failures == {}


@pytest.mark.parametrize("argv, code", [
    (["analyze", "--family", "main1-3", "--param", "r=nan"], 2),
    (["analyze", "--family", "main1-3", "--param", "r=inf"], 2),
    (["analyze", "--family", "psi-a", "--param", "a=nan"], 2),
    (["analyze", "--family", "main1-3", "--tol-zero", "nan"], 2),
    (["verify-all", "--tol", "nan"], 2),
    # finite but extreme: the closed forms overflow or divide by zero
    (["analyze", "--family", "main1-4", "--param", "r=1e200"], 1),
    (["analyze", "--family", "main1-3", "--param", "r=1e-200"], 1),
    # the metric's degeneracy is decided once, at --tol-zero
    (["analyze", "--family", "lightcone-L", "--tol-zero", "1e-17"], 0),
    (["verify-all", "--samples", "5", "--tol-zero", "1e-17"], 1),
    # degenerate at some sample points, non-degenerate at others
    (["verify-all", "--samples", "5", "--order", "2", "--tol-zero", "1e-16"],
     1),
    # jets overflow to inf or nan
    (["analyze", "--family", "light1-3", "--param", "r=1e160"], 1),
    (["analyze", "--family", "main1-4", "--param", "r=1e150"], 1),
    # a dimension that is not an integer is not truncated
    (["analyze", "--family", "main1-3", "--param", "m=2.5", "--point", "0", "0"],
     2),
    # a stack of points under- or overflows without a RuntimeWarning:
    # in the jets (a domain error) and in the sampled image values
    (["analyze", "--family", "main1-3", "--param", "m=3", "--param", "r=1e-100"],
     1),
    (["analyze", "--family", "light1-3", "--param", "r=1e100"], 0),
    # finite jets, but the parallelism residual overflows
    (["analyze", "--family", "main1-4", "--param", "r=1e100"], 1),
    # non-finite numbers are rejected where they are parsed
    (["moduli", "--a", "0,nan"], 2),
    (["moduli", "--a", "inf"], 2),
    (["analyze", "--family", "main1-3", "--point", "nan", "0"], 2),
    (["analyze", "--family", "main1-3", "--point", "0", "-inf"], 2),
])
def test_bad_numbers_fail_closed(argv, code, capsys):
    got, _, err = run(argv, capsys)
    assert got == code
    assert "Traceback" not in err


class TestModuli:
    @pytest.mark.parametrize("flag", [["--order", "2"], ["--tol-zero", "1e-9"]])
    def test_jet_options_rejected(self, flag, capsys):
        # the moduli walk reads neither, so it refuses them
        code, _, err = run(["moduli", "--a", "0,1", *flag], capsys)
        assert code == 2
        assert "unrecognized arguments" in err

    def test_own_options_accepted(self, capsys):
        code, out, _ = run(["moduli", "--a", "0,1", "--tol", "1e-7",
                            "--samples", "25", "--seed", "3"], capsys)
        assert code == 0
        assert "closure(u)" in out

    def test_table_and_verdict(self, capsys):
        code, out, _ = run(["moduli", "--a", "0,0.001,0.1,1"], capsys)
        assert code == 0
        assert "closure(u)" in out

    def test_json_rows(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        run(["moduli", "--a", "0,1", "--json", str(out_path)], capsys)
        rows = json.loads(out_path.read_text())["rows"]
        assert [r["class"] for r in rows] == ["g", "u"]
        assert rows[1]["distance"] == pytest.approx(2 ** 0.5, abs=1e-12)


class TestCatalogList:
    def test_lists_every_family(self, capsys):
        code, out, _ = run(["catalog", "list"], capsys)
        assert code == 0
        for fid in ("main1-7", "light2-6", "psi-a", "cv-parallel"):
            assert fid in out


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_share_no_state(self, capsys):
        argv = ["analyze", "--family", "main1-3", "--json", "-"]
        _, out, _ = run(argv[:3] + ["--param", "r=0.3"] + argv[3:], capsys)
        assert json.loads(out)["params"]["r"] == 0.3
        _, out, _ = run(argv, capsys)
        assert json.loads(out)["params"]["r"] == 0.5


class TestSeedHandling:
    def test_env_seed_used_as_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UMBILIC_SEED", "7")
        a = tmp_path / "a.json"
        run(["verify-all", "--samples", "5", "--json", str(a)], capsys)
        assert json.loads(a.read_text())["seed"] == 7

    def test_explicit_seed_wins(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("UMBILIC_SEED", "7")
        a = tmp_path / "a.json"
        run(["verify-all", "--samples", "5", "--seed", "3",
             "--json", str(a)], capsys)
        assert json.loads(a.read_text())["seed"] == 3

    @pytest.mark.parametrize("command", [
        ["verify-all"], ["analyze", "--family", "main1-3"],
        ["moduli", "--a", "0,1"]])
    @pytest.mark.parametrize("seed, env", [
        ("-1", None), (None, "abc"), (None, "-3"), (None, "1.5")])
    def test_bad_seed_is_a_usage_error(self, capsys, monkeypatch, command,
                                       seed, env):
        if env is None:
            monkeypatch.delenv("UMBILIC_SEED", raising=False)
        else:
            monkeypatch.setenv("UMBILIC_SEED", env)
        argv = command + ([] if seed is None else ["--seed", seed])
        code, out, err = run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert out == ""


def _jsonable_reference(x):
    """The element-by-element conversion that `_jsonable` shortcuts."""
    if isinstance(x, dict):
        return {str(k): _jsonable_reference(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable_reference(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable_reference(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        x = float(x)
        return None if x != x else x
    if isinstance(x, (np.integer,)):
        return int(x)
    if isinstance(x, (np.bool_,)):
        return bool(x)
    return x


_special = st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
_shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
_arrays = (hnp.arrays(np.float64, _shapes, elements=st.floats() | _special)
           | hnp.arrays(np.float32, _shapes,
                        elements=st.floats(width=32) | _special)
           | hnp.arrays(st.sampled_from([np.int64, np.bool_]), _shapes))
_leaves = (_arrays | st.floats() | _special | st.integers() | st.booleans()
           | st.none() | st.text(max_size=3)
           | st.floats(width=32).map(np.float32) | st.floats().map(np.float64)
           | st.integers(-2 ** 31, 2 ** 31).map(np.int64)
           | st.booleans().map(np.bool_))
_payloads = st.recursive(
    _leaves, lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3) | st.integers(), inner, max_size=3),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_payloads)
def test_jsonable_keeps_the_bytes(payload):
    def dump(f):
        return json.dumps(f(payload), sort_keys=True, indent=2)
    assert dump(_jsonable) == dump(_jsonable_reference)
