"""Unit tests for the benchmark's own helpers.

    python3 -m pytest perfbench/test_perfbench.py

They need neither numpy nor the package under test.
"""
import copy
import math

import pytest

import stats
from tracing import LAYERS, Recorder, layer_stats
from workloads import compare_catalog


# -- self time -------------------------------------------------------------

def _span(name, start, end, parent=-1, op=None):
    return (name, start, end, parent, op)


def test_self_time_subtracts_children():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 1.0, 3.0, parent=0),
             _span("c", 4.0, 8.0, parent=0),
             _span("b", 5.0, 6.0, parent=2)]
    got = layer_stats(spans, layers=["a", "b", "c"])
    assert got["a"] == {"calls": 1, "self_s": 4.0, "busy_s": 10.0}
    assert got["b"] == {"calls": 2, "self_s": 3.0, "busy_s": 3.0}
    assert got["c"] == {"calls": 1, "self_s": 3.0, "busy_s": 4.0}


def test_self_time_counts_overlapping_children_once():
    spans = [_span("a", 0.0, 10.0),
             _span("b", 2.0, 6.0, parent=0),
             _span("b", 4.0, 12.0, parent=0)]   # runs past its parent
    got = layer_stats(spans, layers=["a", "b"])
    assert got["a"]["self_s"] == pytest.approx(2.0)
    assert got["b"]["busy_s"] == pytest.approx(10.0)


def test_recursive_layer_is_busy_once():
    spans = [_span("t", 0.0, 4.0), _span("t", 1.0, 3.0, parent=0)]
    got = layer_stats(spans, layers=["t"])
    assert got["t"] == {"calls": 2, "self_s": 4.0, "busy_s": 4.0}


def test_layer_stats_keeps_only_selected_ops():
    spans = [_span("a", 0.0, 1.0, op=[1, 0]), _span("a", 2.0, 5.0, op=[2, 0])]
    got = layer_stats(spans, keep=lambda op: op[0] == 2, layers=["a"])
    assert got["a"] == {"calls": 1, "self_s": 3.0, "busy_s": 3.0}


def test_recorder_nests_spans_and_restores_targets():
    rec = Recorder()

    def inner(x):
        return x + 1

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_inner = rec.wrap("inner", inner)
    rec.op = "op-7"
    assert rec.wrap("outer", outer)(1) == 4
    (n0, s0, e0, p0, op0), (n1, s1, e1, p1, op1) = rec.spans
    assert (n0, p0, op0) == ("outer", -1, "op-7")
    assert (n1, p1, op1) == ("inner", 0, "op-7")
    assert s0 <= s1 <= e1 <= e0

    class Holder:
        value = staticmethod(inner)

    rec._replace(Holder, "value", wrapped_inner)
    rec.uninstall()
    assert Holder.value is inner


def test_install_wraps_rebound_names_methods_and_builds(monkeypatch):
    import sys
    import types

    def analyze_point(x):
        return x

    class ExprChart:
        def value(self, p):
            return p

    spec = types.SimpleNamespace(build=lambda params: params)
    modules = {
        "fakepkg": types.ModuleType("fakepkg"),
        "fakepkg.analysis": types.ModuleType("fakepkg.analysis"),
        "fakepkg.charts": types.ModuleType("fakepkg.charts"),
        "fakepkg.cli": types.ModuleType("fakepkg.cli"),
        "fakepkg.catalog": types.ModuleType("fakepkg.catalog"),
    }
    modules["fakepkg.analysis"].analyze_point = analyze_point
    modules["fakepkg.cli"].analyze_point = analyze_point  # from-import
    modules["fakepkg.charts"].ExprChart = ExprChart
    modules["fakepkg.catalog"].family_ids = lambda: ["f"]
    modules["fakepkg.catalog"].get_family = lambda fid: spec
    original_build = spec.build
    for name, module in modules.items():
        monkeypatch.setitem(sys.modules, name, module)

    rec = Recorder()
    rec.install(package="fakepkg")
    modules["fakepkg.cli"].analyze_point(1)
    modules["fakepkg.analysis"].analyze_point(2)
    ExprChart().value(3)
    spec.build({})
    assert [s[0] for s in rec.spans] == [
        "analysis.analyze_point", "analysis.analyze_point",
        "charts.ExprChart.value", "catalog.build"]
    # every other target is absent from the fake package and is listed
    assert set(rec.missing) == set(LAYERS) - {
        "analysis.analyze_point", "charts.ExprChart.value", "catalog.build"}
    rec.uninstall()
    assert modules["fakepkg.cli"].analyze_point is analyze_point
    assert spec.build is original_build
    assert "__wrapped__" not in vars(ExprChart.value)


# -- percentile with at least ten samples beyond it ---------------------------

def test_tail_is_highest_percentile_with_ten_beyond():
    assert stats.tail(range(1, 101)) == (90.0, 90)
    assert stats.tail(range(1, 1001)) == (99.0, 990)
    pct, value = stats.tail(range(1, 21))
    assert value == 10 and sum(x > value for x in range(1, 21)) == 10
    assert pct == 50.0


def test_tail_needs_more_than_ten_samples():
    assert stats.tail(range(10)) is None
    assert stats.tail(range(11)) == (100.0 / 11, 0)
    assert "tail" not in stats.summary([1.0, 2.0, 3.0])
    assert stats.summary([3.0, 1.0, 2.0])["median"] == 2.0


def test_geomean_and_union_length():
    assert stats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert stats.union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4
    assert stats.union_length([]) == 0.0


# -- metric names ------------------------------------------------------------

@pytest.mark.parametrize("name", [
    "setup_s", "units_per_s", "analysis.parallelism_residual.self_s",
    "charts.CompositeChart.jet_list.busy_s", "trace.overhead_ratio", "0-x"])
def test_valid_metric_names(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", [
    "", ".calls", "_x", "a b", "jets/evaluate", "rss(mb)", "x" * 65, "é"])
def test_invalid_metric_names(name):
    assert not stats.valid_metric_name(name)


def test_every_reported_metric_name_is_valid():
    from tracing import LAYERS
    names = [f"{layer}.{key}" for layer in LAYERS
             for key in ("calls", "self_s", "busy_s")]
    assert all(stats.valid_metric_name(n) for n in names)


# -- catalog reference comparison ---------------------------------------------

def _record(family, params, status="pass", h_norm=None, rho=None, **summary):
    base = {"umbilicity_residual": 1e-15, "geodesic_residual": 0.3,
            "radical_rank": 0, "metric_signature": [0, 2, 0],
            "first_normal_rank": 1, "hull_dim": 3,
            "translation_class": "v_S", "full": True,
            "parallel_residual": 1e-15}
    base.update(summary)
    if h_norm is not None:
        base["h_norm"] = h_norm
    if rho is not None:
        base["rho"] = rho
    return {"family": family, "params": params, "status": status,
            "failures": [], "discrepancies": [], "summary": base,
            "tol": 1e-7}


def _reference(records):
    from workloads import record_class
    fam = {"class": record_class(records[0]), "count": len(records),
           "defaults": records[0]["params"],
           "values": [records[0]["summary"].get("h_norm"),
                      records[0]["summary"].get("rho")]}
    drawn = [["main1-3", {"r": r["params"]["r"]}, r["summary"]["h_norm"],
              r["summary"]["rho"]] for r in records[1:]]
    return {"families": {"main1-3": fam}, "seeds": {"5": drawn}}


def _main13(r):
    return _record("main1-3", {"m": 2, "r": r, "s": 0},
                   h_norm=(1 - r * r) / (r * r), rho=math.sqrt(1 - r * r))


@pytest.fixture
def catalog_case():
    records = [_main13(0.5), _main13(0.3), _main13(0.7)]
    return records, _reference(records)


def test_reference_accepts_matching_records(catalog_case):
    records, ref = catalog_case
    assert compare_catalog(records, ref, seed=5) == []
    # an uncaptured seed still checks the classes and the default values
    assert compare_catalog(records, ref, seed=999) == []


def test_reference_counts_a_flipped_status(catalog_case):
    records, ref = catalog_case
    flipped = copy.deepcopy(records)
    flipped[1]["status"] = "discrepancy-noted"
    assert len(compare_catalog(flipped, ref, seed=5)) == 1
    flipped[1]["status"] = "fail"
    assert len(compare_catalog(flipped, ref, seed=999)) == 1


def test_reference_counts_a_perturbed_h_norm(catalog_case):
    records, ref = catalog_case
    for index, seed in ((1, 5), (0, 999)):
        moved = copy.deepcopy(records)
        moved[index]["summary"]["h_norm"] += 1e-3
        failures = compare_catalog(moved, ref, seed=seed)
        assert len(failures) == 1 and "h_norm" in failures[0]


def test_reference_counts_flags_ranks_and_hull_class(catalog_case):
    records, ref = catalog_case
    for key, value in (("parallel_residual", 1.0), ("radical_rank", 1),
                       ("hull_dim", 4), ("translation_class", "v_T")):
        changed = copy.deepcopy(records)
        changed[2]["summary"][key] = value
        assert len(compare_catalog(changed, ref, seed=5)) == 1, key


def test_reference_counts_missing_records_and_unknown_params(catalog_case):
    records, ref = catalog_case
    assert len(compare_catalog(records[:2], ref, seed=5)) == 1
    moved = copy.deepcopy(records)
    moved[2]["params"]["r"] = 0.71
    assert len(compare_catalog(moved, ref, seed=5)) == 1


def test_stored_reference_covers_the_catalog():
    import json
    from workloads import DISCREPANCY_FAMILIES, REFERENCE
    ref = json.loads(REFERENCE.read_text())
    fams = ref["families"]
    assert sum(f["count"] for f in fams.values()) == 92
    assert {fid for fid, f in fams.items()
            if f["class"]["status"] == "discrepancy-noted"} == DISCREPANCY_FAMILIES
    assert all(f["class"]["status"] != "fail" for f in fams.values())
    assert {"1", "2", "3", "7", "42", "123"} <= set(ref["seeds"])


# -- failure accounting --------------------------------------------------------

def test_run_pass_counts_failed_checks_and_crashes():
    from worker import run_pass
    from workloads import Unit

    def boom():
        raise ValueError("bad input")

    units = [Unit("ok", lambda: 1, lambda out: []),
             Unit("flipped", lambda: "fail", lambda out: [f"status {out}"]),
             Unit("records", lambda: None, lambda out: ["a", "b", "c"], 2),
             Unit("crash", boom, lambda out: [], 3)]
    got = run_pass(units)
    assert got["attempted"] == 7
    assert got["failed"] == 1 + 2 + 3
    assert len(got["times"]) == 4
    assert got["messages"][0] == "flipped: status fail"


def test_run_pass_times_each_unit_once_when_its_check_raises():
    from worker import run_pass
    from workloads import Unit

    def bad_check(out):
        return ["x"] if None <= 1.0 else []

    units = [Unit("raises", lambda: None, bad_check, 2),
             Unit("ok", lambda: 1, lambda out: [])]
    got = run_pass(units)
    assert len(got["times"]) == len(units)
    assert got["attempted"] == 3
    assert got["failed"] == 2
    assert got["messages"][0].startswith("raises: raised TypeError")
