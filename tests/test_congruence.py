"""Tests for congruence detection, the item classifier, and the moduli walk."""

import math

import numpy as np
import pytest

from umbilic import congruence
from umbilic.bilinear import random_pseudo_orthogonal
from umbilic.catalog import get_family, instantiate
from umbilic.charts import transform_chart
from umbilic.congruence import (AMBIGUITY_FACTOR, classify, congruence_test,
                                moduli_demo)
from umbilic.errors import DomainError, InputError


class TestCongruence:
    def test_chart_is_congruent_to_itself(self):
        ch = instantiate("main1-3")
        v = congruence_test(ch, instantiate("main1-3"))
        assert v.congruent
        assert v.gram_residual <= 1e-12

    def test_isometric_images_are_congruent(self):
        ch = instantiate("main2-4", {"r": 1.5})
        L = random_pseudo_orthogonal(ch.ambient.signature,
                                     np.random.default_rng(1))
        assert congruence_test(ch, transform_chart(ch, L)).congruent

    def test_kernel_regression_null_offset(self):
        # identical Gram matrices, different span dimensions: the pure
        # inner-product comparison would wrongly accept this pair
        a1 = instantiate("psi-a", {"a": 1.0})
        a0 = instantiate("psi-a", {"a": 0.0})
        v = congruence_test(a1, a0)
        assert v.gram_residual <= 1e-12
        assert not v.congruent
        assert (v.rank_a, v.rank_b) == (4, 3)
        assert v.rank_joint == 4

    def test_nonzero_offsets_are_pairwise_congruent(self):
        a1 = instantiate("psi-a", {"a": 1.0})
        a2 = instantiate("psi-a", {"a": 2.0})
        assert congruence_test(a1, a2).congruent

    def test_transitivity_on_the_u_block(self):
        charts = [instantiate("psi-a", {"a": a}) for a in (0.5, 1.0, 2.0)]
        verdicts = [congruence_test(x, y)
                    for x in charts for y in charts]
        assert all(v.congruent for v in verdicts)

    def test_different_geometry_not_congruent(self):
        v = congruence_test(instantiate("main1-3", {"r": 0.5}),
                            instantiate("main1-3", {"r": 0.6}))
        assert not v.congruent

    def test_domain_mismatch_rejected(self):
        with pytest.raises(InputError):
            congruence_test(instantiate("main1-3"),
                            instantiate("light1-6"))

    def test_overflowing_gram_is_not_congruent(self):
        # the Gram matrices overflow to inf and their difference to nan,
        # which no tolerance comparison may read as a match
        big = instantiate("psi-a", {"a": 1e155})
        with pytest.raises(DomainError, match="^charts 'psi-a' and 'psi-a': "
                           "the Gram residual is not finite$"):
            congruence_test(big, big)


class TestClassifier:
    @pytest.mark.parametrize("fid,params", [
        ("main1-3", {"r": 0.37}),
        ("main1-4", {"r": 2.2}),
        ("main1-6", {"r": 0.8}),
        ("main2-3", {"r": 0.61}),
        ("main2-4", {"r": 1.7}),
        ("main2-6", {"r": 1.2}),
        ("akk-2", {"r": 0.9}),
        ("akk-3", {"r": 1.3}),
    ])
    def test_radius_recovery(self, fid, params):
        res = classify(instantiate(fid, params))
        assert res.label == fid
        assert res.params["r"] == pytest.approx(params["r"], abs=1e-6)

    @pytest.mark.parametrize("fid", ["main1-1", "main1-2", "main1-5",
                                     "main1-7", "main2-1", "main2-2",
                                     "main2-5", "main2-7", "akk-1", "akk-4"])
    def test_fixed_items(self, fid):
        assert classify(instantiate(fid)).label == fid

    def test_round_trip_over_random_draws(self):
        rng = np.random.default_rng(99)
        fams = ([f"main1-{k}" for k in range(1, 8)]
                + [f"main2-{k}" for k in range(1, 8)]
                + [f"akk-{k}" for k in range(1, 5)])
        hits = 0
        for _ in range(50):
            fid = fams[rng.integers(len(fams))]
            spec = get_family(fid)
            params = dict(spec.defaults)
            if spec.parametric:
                params.update(spec.draw_params(rng))
            res = classify(spec.build(params))
            ok = res.label == fid
            if ok and "r" in params and "r" in res.params:
                ok = abs(res.params["r"] - params["r"]) <= 1e-6
            hits += ok
        assert hits == 50

    def test_classification_is_isometry_invariant(self):
        ch = instantiate("main1-6", {"r": 1.1})
        L = random_pseudo_orthogonal(ch.ambient.signature,
                                     np.random.default_rng(2))
        assert classify(transform_chart(ch, L)).label == "main1-6"

    def test_null_offset_family_classifies_as_item5(self):
        assert classify(instantiate("psi-a", {"a": 0.7})).label == "main1-5"

    def test_non_umbilical_input_refused(self):
        res = classify(instantiate("clifford-control"))
        assert res.label is None
        assert any("not totally umbilical" in n for n in res.notes)

    def test_nan_umbilicity_refused(self, monkeypatch):
        # a NaN residual in the middle of the sample is not umbilical
        batch = congruence.analyze_points

        def with_nan(*args, **kwargs):
            table = batch(*args, **kwargs)
            table["umbilicity_residual"][2] = float("nan")
            return table

        monkeypatch.setattr(congruence, "analyze_points", with_nan)
        res = classify(instantiate("main1-3"))
        assert res.label is None
        assert any("not totally umbilical" in n for n in res.notes)

    @pytest.mark.parametrize("fid", ["main1-3", "main2-3", "akk-2"])
    def test_folded_chain_matches_the_mirrored_chains(self, fid, monkeypatch):
        # the chain runs once on k = eps * h; every label, radius and note
        # must equal the two mirrored chains' at and next to each boundary
        tol = congruence.DEFAULT_TOL
        batch = congruence.analyze_points
        h_norm = [0.0]

        def with_h(*args, **kwargs):
            table = batch(*args, **kwargs)
            table["h_norm"][:], table["minimal_residual"][:] = h_norm[0], 1.0
            return table

        monkeypatch.setattr(congruence, "analyze_points", with_h)
        chart = instantiate(fid)
        grid = [-1e3, -5.0, 5.0, 1e3]
        for b in (0.0, tol, -tol, 1.0, -1.0, 1.0 + tol, 1.0 - tol,
                  -1.0 + tol, -1.0 - tol):
            grid += [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf)]
        for h in grid:
            h_norm[0] = float(h)
            res = classify(chart)
            want = _mirrored_chains(chart.ambient.epsilon, float(h), tol)
            assert (res.label, res.params, res.notes) == want, h

    def test_degenerate_input_refused(self):
        res = classify(instantiate("light1-5"))
        assert res.label is None

    def test_boundary_ambiguity_note(self):
        # h_norm a few tolerances away from 0 triggers the warning
        r = 1.0 / np.sqrt(1.0 + 5e-7)
        res = classify(instantiate("main1-3", {"r": r}))
        assert res.notes


def _near(x: float, value: float, tol: float) -> bool:
    return abs(x - value) <= tol


def _boundary_note(h: float, boundaries, tol: float, notes: list):
    for b in boundaries:
        if tol < abs(h - b) <= AMBIGUITY_FACTOR * tol:
            notes.append(
                f"mean curvature norm {h!r} is within {AMBIGUITY_FACTOR:g}x "
                f"tolerance of the classification boundary {b:g}")


def _mirrored_chains(eps, h, tol):
    """The classifier's chains for a non-minimal umbilical chart, written
    out once per sign of eps."""
    notes, params = [], {}
    near = _near
    if eps == 1:
        _boundary_note(h, (0.0, -1.0), tol, notes)
        if h > tol:
            label, params["r"] = "main1-3", 1 / math.sqrt(1 + h)
        elif near(h, 0.0, tol):
            label = "main1-5"
        elif h > -1.0 + tol:
            label, params["r"] = "main1-4", 1 / math.sqrt(1 + h)
        elif near(h, -1.0, tol):
            label = "main1-7"
        else:
            label, params["r"] = "main1-6", 1 / math.sqrt(-1 - h)
    elif eps == -1:
        _boundary_note(h, (0.0, 1.0), tol, notes)
        if h < -tol:
            label, params["r"] = "main2-3", 1 / math.sqrt(1 - h)
        elif near(h, 0.0, tol):
            label = "main2-5"
        elif h < 1.0 - tol:
            label, params["r"] = "main2-4", 1 / math.sqrt(1 - h)
        elif near(h, 1.0, tol):
            label = "main2-7"
        else:
            label, params["r"] = "main2-6", 1 / math.sqrt(h - 1)
    else:
        _boundary_note(h, (0.0,), tol, notes)
        if h > tol:
            label, params["r"] = "akk-2", 1 / math.sqrt(h)
        elif h < -tol:
            label, params["r"] = "akk-3", 1 / math.sqrt(-h)
        else:
            label = "akk-4"
    return label, params, notes


class TestModuli:
    def test_class_pattern_and_distances(self):
        a_values = [0.0, 1e-3, 1e-2, 1e-1, 1.0]
        records = moduli_demo(a_values)
        assert [r.cls for r in records] == ["g", "u", "u", "u", "u"]
        for rec in records:
            assert rec.distance == pytest.approx(abs(rec.a) * np.sqrt(2),
                                                 abs=1e-12)

    def test_single_geodesic_row(self):
        records = moduli_demo([0.0])
        assert len(records) == 1 and records[0].cls == "g"

    def test_distance_shrinks_while_class_stays(self):
        # the non-Hausdorff phenomenon: u-members approach g uniformly
        records = moduli_demo([10.0 ** -k for k in range(1, 6)])
        dists = [r.distance for r in records]
        assert all(r.cls == "u" for r in records)
        assert dists == sorted(dists, reverse=True)
        assert dists[-1] < 1e-4
