"""Tests for the pointwise geometry engine and family verifier."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from umbilic import analysis
from umbilic import bilinear as B
from umbilic import jets as J
from umbilic.analysis import (analyze_point, analyze_points, build_frame,
                              fullness, induced_metric, parallelism_residual,
                              point_report, reduction_report, umbilicity_data,
                              untrusted, verify_families, verify_family)
from umbilic.bilinear import Signature
from umbilic.catalog import (family_ids, family_instance, get_family,
                             instances, instantiate)
from umbilic.charts import (ExprChart, ImmersionChart, fd_jet_arrays,
                            quadric_residual, stack_charts, stack_key,
                            transform_chart)
from umbilic.errors import DegenerateMetricError, DomainError, InputError

TOL = 1e-7


class TestInducedMetric:
    def test_round_sphere_metric_at_pole(self):
        ch = instantiate("akk-2", {"r": 1.0})
        g, sig = induced_metric(ch, np.zeros(2))
        np.testing.assert_allclose(g, np.eye(2), atol=1e-14)
        assert sig.as_tuple() == (0, 2, 0)

    def test_lightcone_metric_is_degenerate(self):
        # radial direction of the cone is null: g = diag(0, r^2-like)
        ch = instantiate("lightcone-L", {"n": 2, "s": 0})
        g, sig = induced_metric(ch, np.array([1.2, 0.1]))
        assert sig.as_tuple() == (0, 1, 1)

    def test_hyperbolic_chart_signature(self):
        ch = instantiate("main2-2", {"s": 1})
        _, sig = induced_metric(ch, np.array([0.2, 0.1]))
        assert sig.as_tuple() == (1, 1, 0)

    @pytest.mark.parametrize("fid", sorted(family_ids()))
    def test_is_the_frame_metric(self, fid):
        # one formula: the metric and the signature a frame decides
        ch = instantiate(fid)
        p = ch.sample_points(1, 42)[0]
        g, sig = induced_metric(ch, p)
        fr = build_frame(ch, p)
        assert np.array_equal(g, fr.metric)
        assert np.array_equal(sig.as_tuple(), fr.counts)


class TestMeanCurvature:
    def test_null_offset_sphere_vector(self):
        # codimension-2 marginally trapped inclusion: H_rel is a null vector
        ch = instantiate("main1-5")
        rep = analyze_point(ch, np.zeros(2))
        np.testing.assert_allclose(rep.mean_curvature, [1, 0, 0, 0, 1],
                                   atol=1e-9)
        assert rep.h_norm == pytest.approx(0.0, abs=1e-12)

    def test_small_sphere_norm(self):
        r = 0.5
        ch = instantiate("main1-3", {"r": r})
        rep = analyze_point(ch, np.array([0.05, -0.1]))
        assert rep.h_norm == pytest.approx((1 - r * r) / (r * r), abs=1e-10)

    def test_flat_vs_relative_identity(self):
        # <H_rel, H_rel> = <H_flat, H_flat> - eps for hypersurfaces of forms
        ch = instantiate("main2-6", {"r": 1.4})
        fr = build_frame(ch, np.array([0.1, 0.2]))
        rep = analyze_point(ch, np.array([0.1, 0.2]))
        G = ch.ambient.signature.metric()
        H_flat = rep.mean_curvature - ch.ambient.epsilon * fr.value
        flat_norm = float(H_flat @ G @ H_flat)
        assert rep.h_norm == pytest.approx(flat_norm - ch.ambient.epsilon,
                                           abs=1e-10)


class TestUmbilicity:
    @pytest.mark.parametrize("fid", ["main1-3", "main1-6", "main2-4",
                                     "akk-2", "akk-4"])
    def test_umbilical_families(self, fid):
        ch = instantiate(fid)
        for p in ch.sample_points(4, 21):
            rep = analyze_point(ch, p)
            assert rep.umbilicity_residual <= TOL

    @pytest.mark.parametrize("fid", ["clifford-control", "cv-parallel",
                                     "cubic-graph-control"])
    def test_negative_controls_have_a_gap(self, fid):
        ch = instantiate(fid)
        res = [analyze_point(ch, p).umbilicity_residual
               for p in ch.sample_points(4, 22)]
        assert min(res) >= 1e-2

    def test_quotient_umbilicity_on_the_cone(self):
        ch = instantiate("lightcone-L", {"n": 3, "s": 1})
        for p in ch.sample_points(4, 23):
            rep = analyze_point(ch, p)
            assert rep.radical_rank == 1
            assert rep.umbilicity_residual <= TOL
            assert rep.geodesic_residual > 1e-2

    def test_quotient_residual_is_representative_independent(self):
        # adding tangent vectors to the second derivatives changes their
        # representatives, not their classes modulo the tangent span
        ch = instantiate("light1-2", {"r": 0.6})
        p = ch.sample_points(1, 24)[0]
        fr = build_frame(ch, p)
        base = umbilicity_data(fr)
        i, j = J.packed_indices(fr.m, 2)
        rng = np.random.default_rng(25)
        for _ in range(20):
            c = rng.normal(size=(fr.m, fr.m, fr.m))
            c = c + c.transpose(1, 0, 2)          # symmetric in i, j
            shift = np.einsum("ijl,nl->ijn", c, fr.jac)[i, j]   # packed rows
            moved = dataclasses.replace(fr, second=fr.second + shift)
            data = umbilicity_data(moved)
            for key in ("umbilicity_residual", "geodesic_residual"):
                assert data[key] == pytest.approx(base[key], abs=1e-10)

    def test_degenerate_product_is_geodesic(self):
        ch = instantiate("light1-1")
        for p in ch.sample_points(3, 26):
            rep = analyze_point(ch, p)
            assert rep.geodesic_residual <= TOL
            assert rep.radical_rank == 1


class TestParallelism:
    @pytest.mark.parametrize("fid", ["main1-3", "main1-5", "main1-7",
                                     "main2-6", "akk-3", "cv-parallel",
                                     "clifford-control"])
    def test_parallel_families(self, fid):
        ch = instantiate(fid)
        for p in ch.sample_points(3, 27):
            assert analyze_point(ch, p).parallel_residual <= 1e-8

    def test_cubic_graph_is_not_parallel(self):
        ch = instantiate("cubic-graph-control")
        res = [analyze_point(ch, p).parallel_residual
               for p in ch.sample_points(4, 28)]
        assert min(res) >= 1e-2

    @pytest.mark.parametrize("fid", ["main1-3", "main2-6", "akk-3",
                                     "clifford-control",
                                     "cubic-graph-control"])
    def test_matches_the_loop_reference(self, fid):
        # reference: the normal part of d_k h_ij, one (i, j, k) of the
        # full tensors at a time
        ch = instantiate(fid)
        fr = build_frame(ch, ch.sample_points(1, 30)[0])
        gamma, h, _ = fr.tensors
        gamma = J.unpack(gamma, 2)                # [l, i, j]
        h = J.unpack(h, 2, axis=-2)               # [i, j, n]
        # the walked third derivatives, [i, j, k, n]
        third = J.unpack(np.swapaxes(fr.walked_third, -1, -2), 3, axis=-2)
        G, eps = ch.ambient.signature.metric(), ch.ambient.epsilon
        P_tan = fr.jac @ np.linalg.inv(fr.metric) @ fr.jac.T @ G
        worst = 0.0
        for i, j, k in np.ndindex(third.shape[:3]):
            v = third[i, j, k]
            v = v - eps * float(fr.value @ G @ v) * fr.value
            v = v - P_tan @ v
            v = v - (gamma[:, i, j] @ h[k] + gamma[:, k, i] @ h[j]
                     + gamma[:, k, j] @ h[i])
            worst = max(worst, float(np.linalg.norm(v)))
        assert parallelism_residual(fr) == pytest.approx(
            worst / fr.scale, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("fid", ["light1-2", "main1-3"])
    def test_third_block_is_never_projected_whole(self, fid):
        # the non-degenerate branch projects the small (N, k) side and
        # multiplies the walked third derivatives once, and the degenerate
        # branch never reads them: no (P, T3, N) copy is made
        ch = instantiate(fid, {"m": 32})
        fr = build_frame(ch, ch.sample_points(4, 31))
        tracemalloc.start()
        try:
            analysis.point_table(fr)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < fr.walked_third.nbytes

    def test_degenerate_metric_rejected(self):
        ch = instantiate("light1-1")
        fr = build_frame(ch, ch.sample_points(1, 29)[0])
        with pytest.raises(DegenerateMetricError):
            parallelism_residual(fr)


class TestReduction:
    def test_small_sphere_offset(self):
        red = reduction_report(instantiate("main1-3", {"r": 0.5}))
        assert red.hull_dim == 3
        assert red.translation_class == "v_S"
        assert red.rho == pytest.approx(np.sqrt(3) / 2, abs=1e-9)

    def test_null_offset(self):
        red = reduction_report(instantiate("main1-5"))
        assert red.translation_class == "v_L"

    def test_degenerate_hull_with_offset(self):
        red = reduction_report(instantiate("main1-7"))
        assert red.translation_class == "+N"
        assert red.direction_signature.degenerate

    def test_geodesic_is_linear(self):
        red = reduction_report(instantiate("main2-1"))
        assert red.translation_class == "linear"
        assert red.hull_dim == 3

    def test_samples_span_a_large_embedding(self):
        # m=39 embeds in 41 flat dimensions; 40 image points would span
        # at most a 39-dimensional hull
        ch = instantiate("main1-3", {"m": 39, "r": 0.5})
        red = reduction_report(ch)
        assert red.hull_dim == 40
        assert red.translation_class == "v_S"
        assert red.rho == pytest.approx(np.sqrt(3) / 2, abs=1e-9)
        assert fullness(ch)[0]


class TestFullness:
    def test_geodesic_slice_is_not_full(self):
        full, residual = fullness(instantiate("main1-1"))
        assert not full
        assert residual > 1e-2

    def test_null_offset_is_full(self):
        # the complement is a null line: restricted form vanishes
        full, _ = fullness(instantiate("main1-5"))
        assert full

    def test_curved_hypersurfaces_are_full(self):
        assert fullness(instantiate("akk-2"))[0]
        assert fullness(instantiate("light1-5"))[0]


class TestVerifyFamily:
    @pytest.mark.parametrize("fid", sorted(family_ids()))
    def test_all_entries_verify(self, fid):
        verdict = verify_family(fid)
        assert verdict.ok, verdict.failures

    def test_s_example_discrepancy_is_noted(self):
        verdict = verify_family("S-example")
        assert verdict.ok and verdict.status == "discrepancy-noted"
        assert verdict.discrepancies == [
            "radical_rank: computed 1, catalog asserts 2 "
            "(allowed discrepancy)"]

    def test_identically_zero_metric_verifies(self):
        # plane-P at s = t = 0: the metric vanishes, umbilicity is vacuous
        assert verify_family("plane-P", {"s": 0, "t": 0, "rad": 2}).ok

    def test_misannotation_is_caught(self):
        # verifying under a wrong expected parameterization must fail:
        # the r drawn for the chart differs from the annotated one
        verdict = verify_family("main1-3", {"r": 0.5})
        assert verdict.ok
        assert verdict.summary["h_norm"] == pytest.approx(3.0, abs=1e-9)

    def test_fd_cross_check_catches_overtight_zero_tol(self):
        # the oracle's truncation error shows up as metric rank at 1e-15
        verdict = verify_family("S-theta", tol_zero=1e-15)
        assert not verdict.ok
        assert any("metric signature unstable under the oracle cross-check"
                   in f for f in verdict.failures)

    def test_image_off_the_space_form_fails(self, monkeypatch):
        # a scaled image is still umbilical but no longer on S^n_p(1)
        spec = get_family("main1-3")
        build = spec.build

        def scaled(params):
            chart = build(params)
            return transform_chart(chart, 2 * np.eye(chart.ambient.flat_dim))

        monkeypatch.setattr(spec, "build", scaled)
        verdict = verify_family("main1-3")
        assert not verdict.ok
        assert any("image off its space form" in f for f in verdict.failures)

    def test_overflowing_radius_fails_closed_without_warnings(self):
        # a RuntimeWarning raises here (filterwarnings = error)
        verdict = verify_family("main1-4", {"m": 2, "s": 0, "r": 1e100})
        assert verdict.ok is False
        assert any("non-finite residuals" in f for f in verdict.failures)

    @pytest.mark.parametrize("a", [1e154, 1e160])
    def test_overflowing_offset_fails_closed_without_warnings(self, a):
        # the hull reduction of so large an image overflows too
        verdict = verify_family("psi-a", {"a": a})
        assert verdict.failures[0].startswith("non-finite residuals: ")

    def test_hull_sample_is_drawn_once(self, monkeypatch):
        # fullness and the hull reduction share one image sample, the
        # first rows of the record's one draw of chart points
        samples = []
        for name in ("fullness", "reduction_report"):
            def counted(*args, _f=getattr(analysis, name), **kwargs):
                samples.append(kwargs["sample"])
                return _f(*args, **kwargs)
            monkeypatch.setattr(analysis, name, counted)
        verdict = verify_family("main1-3")
        assert verdict.ok
        assert verdict.summary["full"] and verdict.summary["hull_dim"] == 3
        want = analysis.hull_sample(instantiate("main1-3"), 42)
        assert len(samples) == 2
        for got in samples:
            assert np.array_equal(got, want[None])

    @pytest.mark.parametrize("fid, hull", [("main1-3", True),
                                           ("light1-2", True),
                                           ("cubic-graph-control", False)])
    def test_one_walk_per_record(self, monkeypatch, fid, hull):
        # the residuals, the ambient check and the FD oracle read one frame:
        # one jet walk, one draw of chart points, and one value walk over
        # the hull sample (when judged) and the 9-point FD stencil
        calls = {"jet_arrays": [], "sample_points": [], "value": []}
        for cls, name in ((ImmersionChart, "jet_arrays"),
                          (ImmersionChart, "sample_points"),
                          (ExprChart, "value")):
            def counted(self, *args, _name=name, _method=getattr(cls, name),
                        **kwargs):
                calls[_name].append(args[0])
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        verdict = verify_family(fid, samples=5)
        assert verdict.ok
        assert len(calls["jet_arrays"]) == 1
        assert calls["sample_points"] == [40]
        assert [len(q) for q in calls["value"]] == [40 + 9 if hull else 9]

    def test_status_derives_from_the_lists(self):
        verdict = analysis.FamilyVerdict("main1-3", {})
        assert (verdict.ok, verdict.status) == (True, "pass")
        verdict.discrepancies.append("noted")
        assert (verdict.ok, verdict.status) == (True, "discrepancy-noted")
        verdict.failures.append("failed")
        assert (verdict.ok, verdict.status) == (False, "fail")

    @pytest.mark.parametrize("fid, field", [
        ("main1-3", "umbilicity_residual"),
        ("main1-3", "geodesic_residual"),
        ("main1-3", "parallel_residual"),
        ("main1-3", "h_norm"),
        ("main1-3", "minimal_residual"),
        ("light1-2", "umbilicity_residual"),
        ("clifford-control", "umbilicity_residual"),
        ("light1-2", "radical_last_var_residual"),
    ])
    def test_nan_residual_fails(self, monkeypatch, fid, field):
        # a NaN in the middle of the sample must not be dropped by max()
        # nor pass a comparison
        batch = analysis.point_table

        def with_nan(*args, **kwargs):
            table = batch(*args, **kwargs)
            table[field][2] = float("nan")
            return table

        monkeypatch.setattr(analysis, "point_table", with_nan)
        verdict = verify_family(fid)
        assert verdict.ok is False
        assert any("non-finite residuals" in f for f in verdict.failures)


def _judged(monkeypatch, fid, **changes):
    """`verify_family(fid)` against the catalog's expectation with `changes`
    made, and the point table it judged."""
    spec = get_family(fid)
    expect = spec.expect
    monkeypatch.setattr(spec, "expect",
                        lambda p: dataclasses.replace(expect(p), **changes))
    seen = []
    batch = analysis.point_table

    def captured(*args, **kwargs):
        seen.append(batch(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(analysis, "point_table", captured)
    verdict = verify_family(fid)
    (table,) = seen
    return verdict, table


class TestJudge:
    """The exact failure lines of a real family under a contradicting
    catalog expectation, in order."""

    @pytest.mark.parametrize("name, change", [
        ("umbilicity", {"totally_umbilical": False}),
        ("parallelism", {"parallel": False})])
    def test_negative_control(self, monkeypatch, name, change):
        verdict, _ = _judged(monkeypatch, "main1-3", **change)
        key = {"umbilicity": "umbilicity_residual",
               "parallelism": "parallel_residual"}[name]
        assert verdict.failures == [
            f"negative control: {name} residual "
            f"{verdict.summary[key]:.3e} below the required gap 0.01"]

    def test_h_norm_value_and_range(self, monkeypatch):
        verdict, _ = _judged(monkeypatch, "main1-3", h_norm=2.0,
                             h_norm_range=(-1.0, 0.0))
        h = verdict.summary["h_norm"]
        assert h == pytest.approx(3.0, abs=1e-9)
        assert verdict.failures == [
            f"h_norm: computed {h!r}, catalog asserts 2.0",
            f"h_norm {h!r} outside the open range (-1.0, 0.0)"]

    @pytest.mark.parametrize("fid, asserted", [("main1-3", True),
                                               ("main1-5", False)])
    def test_marginally_trapped(self, monkeypatch, fid, asserted):
        verdict, _ = _judged(monkeypatch, fid, marginally_trapped=asserted)
        assert verdict.failures == [
            f"marginally_trapped: computed {not asserted}, "
            f"catalog asserts {asserted}"]

    @pytest.mark.parametrize("fid", ["main1-3", "main1-5"])
    def test_translation_length(self, monkeypatch, fid):
        # main1-5 is a lightlike translation: no length is computed
        verdict, _ = _judged(monkeypatch, fid, rho=1.0)
        rho = verdict.summary["rho"]
        assert (rho is None) == (fid == "main1-5")
        assert verdict.failures == [
            f"translation length: computed {rho!r}, catalog asserts 1.0"]

    def test_radical_on_a_nondegenerate_metric(self, monkeypatch):
        verdict, _ = _judged(monkeypatch, "main1-3",
                             radical_contains_last_var=True)
        assert verdict.failures == [
            "radical asserted to contain the last chart direction but the "
            "metric is non-degenerate"]

    def test_last_direction_off_the_radical(self, monkeypatch):
        # the lightcone's radical is its radial direction
        verdict, table = _judged(monkeypatch, "light1-5",
                                 radical_contains_last_var=True)
        worst = max(table["radical_last_var_residual"])
        assert worst > 0.9
        assert verdict.failures == [
            f"last chart direction is not in the metric radical "
            f"(residual {worst:.3e})"]

    def test_mean_curvature_spread(self, monkeypatch):
        verdict, table = _judged(monkeypatch, "cubic-graph-control",
                                 totally_umbilical=True)
        h = table["h_norm"]
        assert verdict.failures == [
            f"umbilicity residual "
            f"{verdict.summary['umbilicity_residual']:.3e} > 1e-07",
            f"mean curvature norm varies over samples by "
            f"{max(h) - min(h):.3e}"]

    @pytest.mark.parametrize("field, value, failures", [
        ("umbilicity_residual", float("nan"),
         ["non-finite residuals: umbilicity"]),
        ("parallel_residual", float("inf"),
         ["non-finite residuals: parallel",
          "parallelism residual inf > 1e-07"]),
        # a NaN h_norm adds no range or value line of its own
        ("h_norm", float("nan"), ["non-finite residuals: h_norm"]),
        ("ambient_residual", float("nan"), ["non-finite residuals: ambient"]),
        ("ambient_residual", float("inf"),
         ["non-finite residuals: ambient",
          "image off its space form: ambient residual inf > 1e-07"])])
    def test_non_finite_residual(self, monkeypatch, field, value, failures):
        batch = analysis.point_table

        def with_value(*args, **kwargs):
            table = batch(*args, **kwargs)
            table[field][2] = value
            return table

        monkeypatch.setattr(analysis, "point_table", with_value)
        assert verify_family("main1-3").failures == failures

    def test_fd_disagreement(self, monkeypatch):
        # below the oracle's own truncation error every record disagrees
        walked, fd = [], []
        walk, derivatives = analysis.walk_jets, J.fd_derivatives

        def walk_captured(*args, **kwargs):
            walked.append(walk(*args, **kwargs))
            return walked[-1]

        def fd_captured(*args, **kwargs):
            fd.append(derivatives(*args, **kwargs))
            return fd[-1]

        monkeypatch.setattr(analysis, "walk_jets", walk_captured)
        monkeypatch.setattr(J, "fd_derivatives", fd_captured)
        monkeypatch.setattr(analysis, "FD_TOL", 1e-12)
        verdict = verify_family("main1-3")
        ((_, jac, hess, _),), ((_, fjac, fhess, _),) = walked, fd
        a = np.max(np.abs(jac[0] - fjac[0]))
        b = np.max(np.abs(hess[0] - fhess[0]))
        assert verdict.failures == [
            f"finite-difference oracle disagrees with jets "
            f"(jacobian {a:.3e}, hessian {b:.3e} > 1e-12)"]


class TestVerifyFamilies:
    """Records walked by family and stacked by (m, N) give the one-at-a-time
    verdicts."""

    # at tol=1e-15, 29 of the 92 records fail
    @pytest.mark.parametrize("kw", [{}, {"tol": 1e-15}, {"tol_zero": 1e-15}])
    def test_stacked_equals_one_at_a_time(self, kw):
        jobs = instances(42)
        assert len(jobs) == 92
        stacked = verify_families(jobs, samples=16, seed=42, **kw)
        for (fid, params), got in zip(jobs, stacked):
            want = verify_family(fid, params, samples=16, seed=42, **kw)
            assert (got.family_id, got.params) == (want.family_id, want.params)
            assert got.ok == want.ok
            assert got.failures == want.failures
            assert got.discrepancies == want.discrepancies
            assert got.summary.keys() == want.summary.keys()
            for key, value in want.summary.items():
                assert got.summary[key] == value, (fid, key)
        unstable = [f for v in stacked for f in v.failures
                    if "metric signature unstable" in f]
        assert bool(unstable) == ("tol_zero" in kw)

    def test_one_report_pass_per_group(self, monkeypatch):
        # one walk per family (U-flat is akk-4's chart under another name,
        # so the two share theirs) and one report per (m, N)
        jobs = instances(42)
        shapes, stacks = set(), set()
        for fid, params in jobs:
            ch = get_family(fid).build(params)
            shapes.add((ch.nvars, ch.ambient.flat_dim))
            stacks.add(stack_key(ch))
        assert (len(shapes), len(stacks)) == (6, 40)
        calls = {"point_table": 0, "jet_arrays": 0}
        point_table = analysis.point_table
        jet_arrays = ImmersionChart.jet_arrays

        def table(*args, **kwargs):
            calls["point_table"] += 1
            return point_table(*args, **kwargs)

        def walk(self, *args, **kwargs):
            calls["jet_arrays"] += 1
            return jet_arrays(self, *args, **kwargs)

        monkeypatch.setattr(analysis, "point_table", table)
        monkeypatch.setattr(ImmersionChart, "jet_arrays", walk)
        verify_families(jobs, samples=16, seed=42)
        assert calls == {"point_table": 6, "jet_arrays": 40}

    def test_no_object_per_point(self, monkeypatch):
        # the verifier judges columns: no PointReport, and the Signatures
        # it makes do not grow with the number of sample points
        made = {"PointReport": 0, "Signature": 0}
        for cls in (analysis.PointReport, Signature):
            def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                made[_cls.__name__] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        jobs = instances(42)
        verify_families(jobs, samples=5, seed=42)  # fills the lazy caches
        counts = []
        for samples in (5, 16):
            made.update(PointReport=0, Signature=0)
            verify_families(jobs, samples=samples, seed=42)
            counts.append(dict(made))
        assert counts[0] == counts[1]
        assert counts[1]["PointReport"] == 0
        assert counts[1]["Signature"] < 16 * len(jobs)

    def test_walk_error_is_the_single_record_error(self, monkeypatch):
        # the chart box leaves the sphere chart's disc, so the walk fails
        spec = get_family("main1-3")
        build = spec.build

        def widened(params):
            chart = build(params)
            chart.box = 10 * chart.box
            return chart

        monkeypatch.setattr(spec, "build", widened)
        with pytest.raises(DomainError) as alone:
            verify_family("main1-3")
        jobs = [("main2-3", None), ("main1-1", None), ("main1-3", None),
                ("main2-1", None)]
        with pytest.raises(DomainError) as stacked:
            verify_families(jobs)
        assert str(stacked.value) == str(alone.value)

    def test_verdicts_in_job_order_across_groups(self):
        jobs = [("main1-3", {"r": 0.3}), ("main2-3", {"r": 0.4}),
                ("main1-3", {"r": 0.6})]
        verdicts = verify_families(jobs)
        assert [(v.family_id, v.params["r"]) for v in verdicts] == [
            ("main1-3", 0.3), ("main2-3", 0.4), ("main1-3", 0.6)]
        for (fid, params), got in zip(jobs, verdicts):
            assert got.summary == verify_family(fid, params).summary

    def test_group_fd_arrays_are_the_single_point_oracle(self, monkeypatch):
        jobs = instances(42)
        got = []
        fd_derivatives = J.fd_derivatives

        def captured(*args, **kwargs):
            got.append(fd_derivatives(*args, **kwargs))
            return got[-1]

        monkeypatch.setattr(J, "fd_derivatives", captured)
        verify_families(jobs, samples=16, seed=42)
        monkeypatch.undo()
        groups: dict = {}
        for fid, params in jobs:
            chart = family_instance(fid, params)[2]
            groups.setdefault((chart.nvars, chart.ambient.flat_dim),
                              []).append(chart)
        assert len(got) == len(groups) == 6
        for arrays, charts in zip(got, groups.values()):
            for k, chart in enumerate(charts):
                point = chart.sample_points(16, 42)[0]
                want = fd_jet_arrays(chart, point, analysis.FD_STEP, order=2)
                for a, b in zip(arrays[:3], want[:3]):
                    assert np.array_equal(a[k], b), chart.name

    def test_stacked_hull_checks_equal_one_sample_calls(self):
        # the samples of one flat dimension, each with its own metric
        groups: dict = {}
        for fid, params in instances(42):
            chart = family_instance(fid, params)[2]
            groups.setdefault(chart.ambient.flat_dim, []).append(chart)
        for charts in groups.values():
            Y = np.stack([analysis.hull_sample(ch, 42) for ch in charts])
            w = np.stack([ch.ambient.weights() for ch in charts])
            full = fullness(charts[0], sample=Y, weights=w)
            red = reduction_report(charts[0], sample=Y, weights=w)
            assert len(full) == len(red) == len(charts)
            for k, ch in enumerate(charts):
                assert full[k] == fullness(ch, seed=42)
                want = reduction_report(ch, seed=42)
                for f in dataclasses.fields(want):
                    assert (getattr(red[k], f.name)
                            == getattr(want, f.name)), (ch.name, f.name)

    def test_one_draw_and_one_value_walk_per_record(self, monkeypatch):
        jobs = instances(42)
        calls = {"sample_points": 0, "value": 0}
        for cls, name in ((ImmersionChart, "sample_points"),
                          (ExprChart, "value")):
            def counted(self, *args, _name=name, _method=getattr(cls, name),
                        **kwargs):
                calls[_name] += 1
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(cls, name, counted)
        verify_families(jobs, samples=16, seed=42)
        assert calls == {"sample_points": 92, "value": 40}

    def test_group_mixes_flat_and_curved_space_forms(self, monkeypatch):
        # four space forms of flat dimension 4 in one frame: flat rows keep
        # their second derivatives and a zero ambient residual
        jobs = [("U-flat", None), ("main1-3", {"r": 0.3}), ("akk-4", None),
                ("main2-3", {"r": 0.7}), ("main1-3", None)]
        frames = []
        assemble = analysis.assemble_frame

        def captured(*args, **kwargs):
            frames.append(assemble(*args, **kwargs))
            return frames[-1]

        monkeypatch.setattr(analysis, "assemble_frame", captured)
        stacked = verify_families(jobs)
        monkeypatch.undo()
        (fr,) = frames
        assert fr.w.shape == (25, 4)
        assert fr.eps.tolist() == [0] * 5 + [1] * 5 + [0] * 5 + [-1] * 5 + [1] * 5
        for (fid, params), got in zip(jobs, stacked):
            want = verify_family(fid, params)
            assert got.status == want.status == "pass"
            assert got.failures == want.failures
            # repr tells -0.0 from 0.0, and a NaN from a number
            assert repr(got.summary) == repr(want.summary), fid

    def test_walk_error_of_a_stacked_draw_is_its_own(self, monkeypatch):
        # the second record's box leaves the sphere chart's disc: the family
        # walk fails past the first record's rows, and the error names the
        # point as the record's own walk does
        spec = get_family("main1-3")
        build = spec.build

        def widened(params):
            chart = build(params)
            if params["r"] == 0.3:
                chart.box = 10 * chart.box
            return chart

        monkeypatch.setattr(spec, "build", widened)
        jobs = [("main1-3", None), ("main1-3", {"r": 0.3})]
        with pytest.raises(DomainError) as alone:
            verify_family(*jobs[1])
        with pytest.raises(DomainError) as stacked:
            verify_families(jobs)
        assert str(stacked.value) == str(alone.value)
        assert " at point " in str(alone.value)

    @pytest.mark.parametrize("fid, r", [("main1-4", 1e155),
                                        ("main1-3", 1e-200)])
    def test_closed_form_arithmetic_error_names_the_family(self, fid, r):
        with pytest.raises(DomainError, match=fid):
            verify_family(fid, {"r": r})


class TestMixedFrame:
    """A frame whose points lie in different space forms gives each point
    the numbers its own space form gives it alone."""

    def test_flat_rows_skip_the_position_removal(self):
        # 0 times an overflowing position part would be NaN; akk-4 at
        # index 1 has -0.0 entries, which 0 times a negative one would flip:
        # a flat row keeps its walked second derivatives byte for byte
        flat = instantiate("akk-4", {"s": 1})
        curved = instantiate("main1-3", {"s": 1})
        pf, pc = flat.sample_points(5, 1), curved.sample_points(5, 1)
        big = tuple(1e110 * a for a in flat.jet_arrays(pf))
        w = np.stack([flat.ambient.weights()] * 5
                     + [curved.ambient.weights()] * 5)
        eps = np.repeat([0, 1], 5)
        mixed = analysis.assemble_frame(
            w, eps, np.concatenate([pf, pc]),
            [np.concatenate(a) for a in zip(big, curved.jet_arrays(pc))])
        alone = analysis.assemble_frame(w[:5], eps[:5], pf, big)
        walked = np.ascontiguousarray(np.swapaxes(big[2], -1, -2))
        assert np.signbit(walked).any()
        assert mixed.second[:5].tobytes() == walked.tobytes()
        assert alone.second.tobytes() == walked.tobytes()
        curved_alone = build_frame(curved, pc)
        assert mixed.second[5:].tobytes() == curved_alone.second.tobytes()

    def test_flat_rows_have_no_ambient_residual(self):
        flat, curved = instantiate("akk-4"), instantiate("main1-3")
        values = np.concatenate([flat.value(flat.sample_points(3, 1)),
                                 curved.value(curved.sample_points(3, 1))])
        w = np.stack([flat.ambient.weights()] * 3
                     + [curved.ambient.weights()] * 3)
        got = quadric_residual(w, np.repeat([0, 1], 3), values)
        assert got[:3].tolist() == [0.0] * 3
        np.testing.assert_array_equal(
            got[3:], quadric_residual(curved.ambient.weights(), 1, values[3:]))


def _dense_reference(w, eps, arrays, m):
    """The frame quantities by matrix products with each point's dense flat
    metric G = diag(w): metric, second, gamma, h, H, h_norm and the
    parallelism residual (the last five None on a degenerate metric)."""
    val, jac, hess, third = arrays
    N = w.shape[-1]
    G = np.zeros(w.shape + (N,))
    G[..., np.arange(N), np.arange(N)] = w
    eps = eps[..., None, None]

    def less_position(X, Y):
        return np.where(eps == 0, X, X - eps * Y)

    def times_G(y):
        return (y[..., None, :] @ G)[..., 0, :]

    T = np.swapaxes(jac, -1, -2)
    g = T @ G @ jac
    g = 0.5 * (g + np.swapaxes(g, -1, -2))
    D = np.swapaxes(hess, -1, -2)
    D = less_position(D, np.einsum("...pn,...n->...p", D, times_G(val))
                      [..., None] * val[..., None, :])
    out = dict(metric=g, second=D)
    if B.signature_counts(g, analysis.DEFAULT_ZERO_TOL)[..., 2].any():
        return out | dict.fromkeys(
            ("gamma", "h", "H", "h_norm", "parallel"))
    ginv = np.linalg.inv(g)
    gamma = np.linalg.solve(g, np.einsum("...ln,...pn->...lp", T @ G, D))
    h = D - np.swapaxes(jac @ gamma, -1, -2)
    i, j = J.packed_indices(m, 2)
    H = np.einsum("...p,...pn->...n",
                  ginv[..., i, j] * np.where(i == j, 1.0, 2.0), h) / m
    normal = np.eye(N) - (jac @ ginv @ T @ G)
    Q = np.linalg.eigh(normal @ np.swapaxes(normal, -1, -2))[1][..., m:]
    K = np.swapaxes(normal, -1, -2) @ Q
    K = less_position(K, times_G(val)[..., :, None] * (val[..., None, :] @ K))
    k, lead = N - m, g.shape[:-2]
    h_lc = J.unpack(h @ Q, 2, axis=-2)
    C = (np.swapaxes(gamma, -1, -2) @ h_lc.reshape(lead + (m, m * k))
         ).reshape(lead + (-1, k))
    c = np.take(C, J.split_triples(m), axis=-2)
    v = np.swapaxes(third, -1, -2) @ K - c[..., 0, :, :] - c[..., 1, :, :]
    v -= c[..., 2, :, :]
    scale = np.maximum(1.0, np.maximum(np.abs(D).max(axis=(-2, -1)),
                                       np.abs(g).max(axis=(-2, -1))))
    return out | dict(gamma=gamma, h=h, H=H, h_norm=(times_G(H) * H).sum(-1),
                      parallel=analysis._enorm(v, 1) / scale)


class TestDenseMetricReference:
    """Products with each point's metric weights give, bit for bit, the
    numbers of the dense metric's matrix products; a product that reads a
    transposed layout sums in another order and moves them by an ulp."""

    @staticmethod
    def _check(fr, want):
        for name in ("metric", "second"):
            assert np.array_equal(getattr(fr, name), want[name]), name
        if want["h"] is None:
            assert fr.branch[0]
            return
        for name, got in zip(("gamma", "h", "H"), fr.tensors):
            assert np.array_equal(got, want[name]), name
        table = analysis.point_table(fr)
        assert np.array_equal(table["h_norm"], want["h_norm"])
        assert np.array_equal(parallelism_residual(fr), want["parallel"])

    @pytest.mark.parametrize("fid", sorted(family_ids()))
    def test_analyze_points(self, fid):
        # the four points `umbilic analyze` reads by default
        ch = instantiate(fid)
        points = ch.sample_points(4, 42)
        amb = ch.ambient
        self._check(build_frame(ch, points), _dense_reference(
            np.broadcast_to(amb.weights(), (4, amb.flat_dim)),
            np.full(4, amb.epsilon), ch.jet_arrays(points), ch.nvars))

    def test_mixed_group(self, monkeypatch):
        # the flat and curved records of
        # `test_group_mixes_flat_and_curved_space_forms`, in one frame
        jobs = [("U-flat", None), ("main1-3", {"r": 0.3}), ("akk-4", None),
                ("main2-3", {"r": 0.7}), ("main1-3", None)]
        calls = []
        assemble = analysis.assemble_frame

        def captured(*args, **kwargs):
            calls.append((args, assemble(*args, **kwargs)))
            return calls[-1][1]

        monkeypatch.setattr(analysis, "assemble_frame", captured)
        verify_families(jobs)
        monkeypatch.undo()
        ((w, eps, points, arrays, _), fr), = calls
        assert len(set(eps.tolist())) == 3
        self._check(fr, _dense_reference(w, eps, arrays, points.shape[-1]))


PARAMETRIC = [fid for fid in family_ids() if get_family(fid).parametric]


class TestFamilyWalks:
    """A family's records walked at once, each point with its own record's
    constants, give each record's own walk, bit for bit."""

    def test_seventeen_parametric_families(self):
        assert len(PARAMETRIC) == 17
        assert {"S-theta", "cv-parallel", "psi-a"} <= set(PARAMETRIC)

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("fid", PARAMETRIC)
    def test_rows_equal_each_records_walk(self, fid, seed):
        charts = [family_instance(f, p)[2] for f, p in instances(seed)
                  if f == fid]
        assert len(charts) == 4 and len({stack_key(c) for c in charts}) == 1
        points = [c.sample_points(16, seed) for c in charts]
        # the verifier's value rows: a hull sample, then an FD stencil
        rows = [np.concatenate([c.sample_points(40, seed),
                                J.fd_stencil(p[0], analysis.FD_STEP, 2)])
                for c, p in zip(charts, points)]
        n = len(rows[0])
        jets = stack_charts(charts, [16] * 4).jet_arrays(np.concatenate(points))
        values = stack_charts(charts, [n] * 4).value(np.concatenate(rows))
        for k, chart in enumerate(charts):
            for got, want in zip(jets, chart.jet_arrays(points[k])):
                assert np.array_equal(got[16 * k:16 * (k + 1)], want)
            assert np.array_equal(values[n * k:n * (k + 1)],
                                  chart.value(rows[k]))

    def test_one_chart_is_its_own_stack(self):
        chart = instantiate("main1-3")
        assert stack_charts([chart], [5]) is chart


def _same_report(batch, single):
    assert batch.metric_signature == single.metric_signature
    assert batch.radical_rank == single.radical_rank
    assert batch.first_normal_rank == single.first_normal_rank
    assert batch.flags() == single.flags()
    np.testing.assert_array_equal(batch.point, single.point)
    for name in ("umbilicity_residual", "geodesic_residual", "h_norm",
                 "minimal_residual", "parallel_residual",
                 "radical_last_var_residual", "ambient_residual",
                 "mean_curvature", "metric"):
        got, want = getattr(batch, name), getattr(single, name)
        if want is None:
            assert got is None, name
        else:
            np.testing.assert_array_equal(got, want, err_msg=name)


class TestAnalyzePoints:
    """One frame on a (P, m) stack gives the single-point reports."""

    @pytest.mark.parametrize("fid", sorted(family_ids()))
    def test_catalog_samples_are_trusted(self, fid):
        ch = instantiate(fid)
        table = analyze_points(ch, ch.sample_points(5, 42))
        assert untrusted(table, analysis.DEFAULT_TOL) == [[]]
        np.testing.assert_array_equal(
            table["ambient_residual"],
            quadric_residual(ch.ambient.weights(), ch.ambient.epsilon,
                             ch.value(table["point"])))

    @pytest.mark.parametrize("fid", sorted(family_ids()))
    def test_stack_matches_single_points(self, fid):
        ch = instantiate(fid)
        points = ch.sample_points(5, 73)
        table = analyze_points(ch, points)
        assert len(table["point"]) == 5
        for k, p in enumerate(points):
            _same_report(point_report(table, k), analyze_point(ch, p))

    @pytest.mark.parametrize("call", [analyze_points, analyze_point,
                                      build_frame])
    def test_tol_zero_is_keyword_only(self, call):
        # a positional third argument is refused, never read as tol_zero
        ch = instantiate("main1-3")
        with pytest.raises(TypeError):
            call(ch, ch.sample_points(1, 73)[0], 2)

    @pytest.mark.parametrize("tol_zero", [float("nan"), float("inf")])
    def test_non_finite_tol_zero_fails_closed(self, tol_zero):
        # a NaN tol_zero once counted every eigenvalue as null, so the
        # non-umbilical cubic graph read totally umbilical
        ch = instantiate("cubic-graph-control")
        with pytest.raises(InputError, match="positive and finite"):
            analyze_point(ch, ch.sample_points(1, 73)[0], tol_zero=tol_zero)

    def test_mixed_branches_split_by_signature(self):
        # at tol_zero=1e-16 some S-theta samples read degenerate, some not
        ch = instantiate("S-theta")
        points = ch.sample_points(5, 42)
        table = analyze_points(ch, points, tol_zero=1e-16)
        assert set(table["metric_signature"][:, 2].tolist()) == {0, 1}
        for k, p in enumerate(points):
            _same_report(point_report(table, k),
                         analyze_point(ch, p, tol_zero=1e-16))
        fr = build_frame(ch, points, tol_zero=1e-16)
        with pytest.raises(InputError, match="mixes metric branches"):
            umbilicity_data(fr)

    def test_branch_rule_is_stated_once(self):
        # at tol_zero=1e-16 S-theta's samples 0, 2 and 3 read degenerate
        # and sample 1 does not: every column is NaN, and every report
        # field None, exactly where `_RESIDUALS` leaves it undefined
        ch = instantiate("S-theta")
        table = analyze_points(ch, ch.sample_points(4, 42), tol_zero=1e-16)
        degenerate = table["metric_signature"][:, 2] > 0
        assert degenerate.tolist() == [True, False, True, True]
        undefined = {col: ~np.where(degenerate, on[1], on[0])
                     for col, on in analysis._RESIDUALS.values()}
        # the mean curvature is defined with h_norm, and the rest everywhere
        undefined["mean_curvature"] = undefined["h_norm"]
        for col, values in table.items():
            nan = np.isnan(values).reshape(4, -1)
            want = undefined.get(col, np.zeros(4, bool))
            assert (nan.all(1) == want).all() and (nan.any(1) == want).all()
        for k in range(4):
            rep = point_report(table, k)
            for col, where in undefined.items():
                assert (getattr(rep, col) is None) == where[k], (col, k)

    def test_domain_error_names_coordinate_and_first_point(self):
        ch = instantiate("main1-3", {"r": 0.5})
        points = np.array([[0.0, 0.0], [0.1, 0.0], [2.0, 2.0], [3.0, 3.0]])
        with pytest.raises(DomainError, match=r"^sqrt argument -[\d.]+ is not "
                           r"strictly positive at point 2$"):
            analyze_points(ch, points)
        # a point analyzed alone is named by no stack index
        with pytest.raises(DomainError, match=r"not strictly positive$"):
            analyze_point(ch, points[2])

    def test_single_point_frame_shapes(self):
        ch = instantiate("main1-3", {"m": 3})
        p = ch.sample_points(1, 74)[0]
        fr = build_frame(ch, p)
        assert fr.jac.shape == (5, 3)
        # one row per sorted pair i <= j and per sorted triple i <= j <= k
        assert fr.second.shape == (6, 5)
        assert fr.walked_third.shape == (5, 10)
        assert fr.metric.shape == (3, 3)
        assert fr.counts.shape == (3,)
        assert np.ndim(fr.scale) == 0
        data = umbilicity_data(fr)
        assert np.ndim(data["umbilicity_residual"]) == 0
        assert data["mean_curvature"].shape == (5,)
        assert np.ndim(parallelism_residual(fr)) == 0
        stacked = build_frame(ch, p[None])
        assert stacked.second.shape == (1, 6, 5)
        assert np.array_equal(stacked.counts, fr.counts[None])
        assert parallelism_residual(stacked).shape == (1,)

    def test_take_of_every_point_keeps_every_field(self):
        # the zero tolerance travels with the signature it decided
        ch = instantiate("light1-2")
        fr = build_frame(ch, ch.sample_points(4, 5), tol_zero=1e-9)
        sub = fr.take(np.arange(4))
        for f in dataclasses.fields(analysis.Frame):
            got = getattr(sub, f.name)
            want = np.broadcast_to(getattr(fr, f.name), np.shape(got))
            assert np.array_equal(got, want), f.name
