"""Tests for the command-line driver: exit codes, JSON output, determinism."""

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from umbilic import analysis, cli
from umbilic.analysis import (analyze_point, fullness, reduction_report,
                              verify_family)
from umbilic.catalog import family_ids, get_family, instantiate
from umbilic.charts import ImmersionChart
from umbilic.cli import main
from umbilic.congruence import classify
from umbilic.errors import DomainError, InputError

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

    @pytest.mark.parametrize("command", [
        ["analyze", "--family", "main1-3"], ["verify-all"]])
    def test_request_beyond_memory(self, capsys, command):
        # 10**15 points are beyond the address space: numpy refuses the
        # allocation at once, and nothing is allocated
        code, out, err = run(command + ["--samples", str(10**15)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: Unable to allocate ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("m", [400, 10**9])
    def test_oversize_dimension(self, capsys, m):
        code, out, err = run(["analyze", "--family", "main1-3",
                              "--param", f"m={m}"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: m={m}: ")

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

    def test_non_finite_summary_is_null(self, capsys, monkeypatch):
        # inf in one group's first record, NaN in the next: both must be
        # null, since JSON has no Infinity or NaN
        batch = analysis.point_table
        values = [float("inf"), float("nan")]

        def with_non_finite(*args, **kwargs):
            table = batch(*args, **kwargs)
            if values:
                table["umbilicity_residual"][0] = values.pop(0)
            return table

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        monkeypatch.setattr(analysis, "point_table", with_non_finite)
        code, out, _ = run(["verify-all", "--json", "-"], capsys)
        assert code == 1
        records = json.loads(out[out.index("\n{") + 1:],
                             parse_constant=no_constant)["records"]
        bad = [r for r in records
               if r["summary"]["umbilicity_residual"] is None]
        assert len(bad) == 2
        for r in bad:
            assert r["status"] == "fail"
            assert "non-finite residuals: umbilicity" in r["failures"]

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

    def test_mixed_branch_report_is_null_where_undefined(self, capsys):
        # at tol_zero=1e-16 S-theta's samples 0, 2 and 3 read degenerate and
        # sample 1 does not; a degenerate row has no mean curvature, no
        # minimality residual and no parallelism
        code, out, _ = run(["analyze", "--family", "S-theta",
                            "--tol-zero", "1e-16", "--json", "-"], capsys)
        assert code == 0
        undefined = {"H_norm", "H_rel", "residuals.minimal",
                     "residuals.parallel", "flags.marginally_trapped",
                     "flags.parallel"}
        for p, degenerate in zip(json.loads(out)["points"],
                                 [True, False, True, True]):
            assert p["radical_rank"] == degenerate
            nulls = {k for k, v in p.items() if v is None}
            nulls |= {f"{k}.{key}" for k in ("residuals", "flags")
                      for key, v in p[k].items() if v is None}
            assert nulls == (undefined if degenerate else set())

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
        assert err == ("domain error: sqrt argument -7.75 is not strictly "
                       "positive\n")

    def test_non_finite_residual_fails_closed(self, capsys):
        # the jets are finite, but the parallelism residual overflows and
        # the image is off its space form
        code, out, err = run(["analyze", "--family", "main1-4",
                              "--param", "r=1e100"], capsys)
        assert code == 1
        assert out == ""
        assert err == ("domain error: non-finite residuals: parallel; image "
                       "off its space form: ambient residual 3.399e+184 > "
                       "1e-07\n")

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
        assert "sqrt argument" in err
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


def _trust_lines(verdict) -> list[str]:
    """The failures of a verdict that refuse its samples."""
    return [f for f in verdict.failures if f.startswith(
        ("non-finite residuals: ", "image off its space form: "))]


# charts whose images leave their space form at a large radius
_UNTRUSTED = [("main1-4", 1e6), ("main1-4", 1e8), ("main1-4", 1e100),
              ("main1-6", 1e6), ("main2-4", 1e8)]


class TestTrustRule:
    """`analyze` and `classify` refuse a chart's samples with the lines
    the verifier fails them with, read from the same seed-42 points."""

    @pytest.mark.parametrize("fid, r", _UNTRUSTED)
    def test_analyze_fails_as_the_verifier_does(self, capsys, fid, r):
        want = _trust_lines(verify_family(fid, {"r": r}, samples=4))
        assert want
        code, out, err = run(["analyze", "--family", fid, "--param", f"r={r}",
                              "--samples", "4"], capsys)
        assert code == 1
        assert out == ""
        assert err == f"domain error: {'; '.join(want)}\n"

    @pytest.mark.parametrize("fid, r", _UNTRUSTED)
    def test_classify_gives_no_label(self, fid, r):
        # at r = 1e100 a RuntimeWarning once escaped (filterwarnings = error)
        res = classify(instantiate(fid, {"r": r}))
        assert (res.label, res.h_norm, res.params) == (None, None, {})
        assert res.notes == _trust_lines(verify_family(fid, {"r": r}))
        assert res.notes


@pytest.mark.parametrize("a", [1e100, 1e150, 1e154])
class TestNonFiniteSecondFundamentalForm:
    """cv-parallel's second fundamental form overflows at a large offset a:
    its rank is never asked of LAPACK, and the samples are refused by their
    own `non-finite residuals` line, not by a traceback."""

    def test_analyze_exits_1(self, capsys, a):
        code, out, err = run(["analyze", "--family", "cv-parallel",
                              "--param", f"a={a}"], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("domain error: non-finite residuals: ")
        assert "Traceback" not in err

    def test_verify_family_fails(self, a):
        verdict = verify_family("cv-parallel", {"a": a})
        assert verdict.status == "fail"
        assert verdict.failures[0].startswith("non-finite residuals: ")

    def test_classify_gives_no_label(self, a):
        res = classify(instantiate("cv-parallel", {"a": a}))
        assert (res.label, res.h_norm, res.params) == (None, None, {})


def test_trace_targets_resolve(monkeypatch):
    # the benchmark's recorder finds every layer its traced run wraps, so
    # that a rename fails here and not in the traced run; read-only, as
    # below, and undone before the next test
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    recorder = importlib.import_module("tracing").Recorder()
    before = dict(vars(analysis))
    try:
        recorder.install("umbilic")
        assert recorder.missing == []
    finally:
        recorder.uninstall()
    assert dict(vars(analysis)) == before


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
    (["verify-all", "--samples", "5", "--tol-zero", "1e-16"], 1),
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
    # the image is off its space form, by 1.7e+184
    (["analyze", "--family", "light1-3", "--param", "r=1e100"], 1),
    # finite residuals, but the image is off its space form
    (["analyze", "--family", "main1-4", "--param", "r=1e8"], 1),
    (["analyze", "--family", "main2-4", "--param", "r=1e6"], 1),
    (["moduli", "--a", "0,1e6"], 1),
    (["moduli", "--a", "0,1e4"], 0),
    # finite jets, but the parallelism residual overflows
    (["analyze", "--family", "main1-4", "--param", "r=1e100"], 1),
    # non-finite numbers are rejected where they are parsed
    (["moduli", "--a", "0,nan"], 2),
    (["moduli", "--a", "inf"], 2),
    (["analyze", "--family", "main1-3", "--point", "nan", "0"], 2),
    (["analyze", "--family", "main1-3", "--point", "0", "-inf"], 2),
    # finite, but the offset's image is too large to square
    (["moduli", "--a", "1e155"], 1),
    # the second fundamental form overflows before any rank is taken
    (["analyze", "--family", "cv-parallel", "--param", "a=1e100"], 1),
    (["analyze", "--family", "psi-a", "--param", "a=1.7e308"], 1),
    # a negative number in scientific notation or in a list is a value,
    # not an option
    (["moduli", "--a", "-1,0"], 0),
    (["moduli", "--a", "-1e-3,0"], 0),
    (["analyze", "--family", "main1-3", "--point", "-1e-3", "0.2"], 0),
    (["analyze", "--family", "main1-3", "--point", "-.2", "-2e-1"], 0),
    # every walk is order 3, so every asserted parallel is checked: neither
    # command takes an order
    (["verify-all", "--order", "2"], 2),
    (["analyze", "--family", "main1-3", "--order", "2"], 2),
])
def test_bad_numbers_fail_closed(argv, code, capsys):
    got, _, err = run(argv, capsys)
    assert got == code
    assert "Traceback" not in err


# every float parameter of every family, at the extremes of the floats
_FLOAT_PARAMS = [(fid, key) for fid in family_ids()
                 for key, v in get_family(fid).defaults.items()
                 if isinstance(v, float)]
_EXTREMES = [0.0, -0.0, 5e-324, 1e-300, 1e-100, 1e-8, 1e8, 1e100, 1e150,
             1e154, 1e200, 1e300, 1.7e308, -1e100, math.nan, math.inf,
             -math.inf]


def test_sweep_covers_every_float_parameter():
    assert len(_FLOAT_PARAMS) == 17
    assert {key for _, key in _FLOAT_PARAMS} == {"r", "a", "theta"}


@pytest.mark.parametrize("fid, key", _FLOAT_PARAMS)
def test_extreme_parameters_fail_closed(fid, key, capsys):
    # a library call raises a domain or input error or returns, and the
    # command exits with a documented code and no traceback; a
    # RuntimeWarning is an error here (pyproject filterwarnings)
    for value in _EXTREMES:
        params = {key: value}
        for call in (lambda: verify_family(fid, params),
                     lambda: classify(instantiate(fid, params)),
                     lambda: reduction_report(instantiate(fid, params)),
                     lambda: fullness(instantiate(fid, params))):
            try:
                call()
            except (DomainError, InputError):
                pass
        code, _, err = run(["analyze", "--family", fid, "--param",
                            f"{key}={value!r}", "--json", "-"], capsys)
        assert code in (0, 1, 2), (fid, value)
        assert "Traceback" not in err, (fid, value)


# integers that build small charts, or that `catalog._fits` or a range
# check refuses before anything is built; never one in 7-68, which builds
# real jets
_PARAM_INTS = st.sampled_from([*range(-3, 7), 10**6, 2**40])
_PARAM_FLOATS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]),
    st.floats(-4.0, 4.0), st.floats())


def _params(fid):
    return st.fixed_dictionaries({
        key: _PARAM_INTS if isinstance(v, int) else _PARAM_FLOATS
        for key, v in get_family(fid).defaults.items()})


@pytest.mark.parametrize("fid", family_ids())
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_fail_closed_property(fid, data):
    # the API raises only a domain or input error, the command exits 0, 1
    # or 2 with no traceback, and neither passes a non-finite parameter; a
    # RuntimeWarning is an error here (pyproject filterwarnings)
    params = data.draw(_params(fid))
    finite = all(map(math.isfinite, params.values()))
    try:
        assert verify_family(fid, params).status != "pass" or finite
    except (DomainError, InputError):
        pass
    argv = ["analyze", "--family", fid, "--json", "-"]
    for key, v in params.items():
        argv += ["--param", f"{key}={v!r}"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in ((0, 1, 2) if finite else (1, 2)), argv
    assert "Traceback" not in err.getvalue(), argv


def _run_into(stdout, argv, unbuffered):
    """`umbilic argv` in a child process writing to `stdout`: its exit
    code and stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parent.parent)}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    done = subprocess.run([sys.executable, "-m", "umbilic.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, env=env,
                          text=True, timeout=120)
    return done.returncode, done.stderr


@pytest.mark.parametrize("unbuffered", [False, True])
class TestUnwritableStdout:
    """A closed or full standard output is one `error:` line and exit 2,
    not a traceback or the interpreter's exit code 120."""

    @staticmethod
    def _check(code, err):
        assert code == 2
        assert err.startswith("error: cannot write standard output: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize("argv", [["catalog", "list"],
                                      ["verify-all", "--json", "-"]])
    def test_closed_pipe(self, argv, unbuffered):
        read, write = os.pipe()
        os.close(read)  # every write fails with EPIPE
        try:
            self._check(*_run_into(write, argv, unbuffered))
        finally:
            os.close(write)

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    def test_full_device(self, unbuffered):
        with open("/dev/full", "w") as full:
            self._check(*_run_into(full, ["catalog", "list"], unbuffered))


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

    def test_no_verdict_without_a_geodesic_row(self, capsys):
        # with no a = 0 row there is no "g" class for "u" to close onto
        code, out, _ = run(["moduli", "--a", "0.1,1"], capsys)
        assert code == 0
        assert "closure(u)" not in out
        assert len(out.splitlines()) == 3

    def test_overflowing_offset_fails_closed(self, capsys):
        code, out, err = run(["moduli", "--a", "0,1e155"], capsys)
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            "domain error: psi-a offset a=1e+155: non-finite residuals: "
            "geodesic, h_norm, minimal, parallel, ambient"]

    def test_large_offset_keeps_the_column(self, capsys):
        # a member off its space form is refused, named by its offset
        code, out, err = run(["moduli", "--a", "0,1e6,1e100"], capsys)
        assert code == 1
        assert out == ""
        assert err == ("domain error: psi-a offset a=1000000.0: image off its "
                       "space form: ambient residual 1.221e-04 > 1e-07\n")
        code, out, _ = run(["moduli", "--a", "0,1e4"], capsys)
        assert code == 0
        header, *rows, verdict = out.splitlines()
        assert [len(line) for line in rows] == [len(header)] * 2
        assert rows[1].endswith(" 14142.135624")
        assert verdict.startswith("closure(u)")

    def test_json_rows(self, capsys, tmp_path):
        out_path = tmp_path / "m.json"
        run(["moduli", "--a", "0,1", "--json", str(out_path)], capsys)
        rows = json.loads(out_path.read_text())["rows"]
        assert [r["class"] for r in rows] == ["g", "u"]
        assert rows[1]["distance"] == pytest.approx(2 ** 0.5, abs=1e-12)


_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e308, -1e308, math.inf,
                     -math.inf, math.nan]),
    st.floats().map(np.float64))
_TEXT = st.one_of(st.text(max_size=6), st.sampled_from(
    ['"', "\\", 'a"b\\c', "\x00\x1f\n\t\x7f", "é ü ß", "日本語", "\ud800",
     "\U0001f600"]))
_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(),
                    st.integers(-2 ** 300, 2 ** 300), _TEXT, _FLOATS)
_VALUES = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner), st.lists(inner).map(tuple), st.lists(_FLOATS),
    st.dictionaries(_TEXT, inner, max_size=4)), max_leaves=20)


def _dumps(payload):
    return json.dumps(payload, sort_keys=True, indent=2)


class TestJsonWriter:
    """`cli._json_text` against the `json` module it replaces."""

    @seed(2005)
    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(_TEXT, _VALUES, max_size=4))
    def test_bytes_equal_json_dumps(self, payload):
        assert cli._json_text(payload) == _dumps(payload)

    @pytest.mark.parametrize("bad", [{1, 2}, np.int64(3), np.float32(0.5)])
    def test_unserializable_raises_as_json_does(self, bad):
        for payload in (bad, {"a": [1.0, bad]}, [{"b": (bad,)}]):
            with pytest.raises(TypeError):
                _dumps(payload)
            with pytest.raises(TypeError):
                cli._json_text(payload)

    def test_reports_equal_json_dumps(self, capsys, monkeypatch):
        payloads = []
        dump = cli._dump_json

        def captured(payload, path):
            payloads.append(payload)
            dump(payload, path)

        monkeypatch.setattr(cli, "_dump_json", captured)
        for argv in (["analyze", "--family", "main1-3", "--param", "m=4"],
                     ["analyze", "--family", "light1-2", "--param", "m=4"],
                     ["analyze", "--family", "S-theta", "--tol-zero", "1e-16"],
                     ["moduli", "--a", "0,0.001,0.1,1"]):
            code, out, _ = run(argv + ["--json", "-"], capsys)
            assert code == 0
            assert out.startswith(_dumps(payloads[-1]) + "\n")
        assert len(payloads) == 4


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
