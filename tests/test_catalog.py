"""Tests for the family registry: completeness, validation, consistency."""

import numpy as np
import pytest

from umbilic.catalog import (expected_report, family_ids, get_family,
                             instantiate, resolve_params)
from umbilic.charts import ambient_residual
from umbilic.errors import InputError

EXPECTED_IDS = (
    [f"main1-{k}" for k in range(1, 8)]
    + [f"main2-{k}" for k in range(1, 8)]
    + [f"akk-{k}" for k in range(1, 5)]
    + [f"light1-{k}" for k in range(1, 8)]
    + [f"light2-{k}" for k in range(1, 8)]
    + ["psi-a", "S-example", "S-theta", "U-flat", "lightcone-L", "plane-P",
       "cv-parallel", "clifford-control", "cubic-graph-control"]
)

# (lightlike product family, the registered family it is built over)
NULL_PAIRS = [
    ("light1-2", "main1-3"), ("light1-3", "main1-4"), ("light1-4", "main1-6"),
    ("light1-6", "light1-5"), ("light1-7", "main1-5"),
    ("light2-2", "main2-3"), ("light2-3", "main2-4"), ("light2-4", "main2-6"),
    ("light2-6", "light2-5"), ("light2-7", "main2-5"),
]


class TestRegistry:
    def test_every_family_is_registered(self):
        assert sorted(EXPECTED_IDS) == family_ids()

    def test_unknown_id_rejected(self):
        with pytest.raises(InputError):
            get_family("main1-9")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(InputError):
            instantiate("main1-3", {"radius": 0.5})

    def test_aliases(self):
        assert get_family("lightcone").id == "lightcone-L"
        assert get_family("plane").id == "plane-P"

    def test_defaults_merge(self):
        assert resolve_params("main1-3", {"r": 0.25}) == {
            "m": 2, "s": 0, "r": 0.25}


class TestParameterValidation:
    @pytest.mark.parametrize("fid,bad", [
        ("main1-3", {"r": 1.0}),     # open range (0, 1)
        ("main1-3", {"r": 0.0}),
        ("main1-4", {"r": 1.0}),     # open range (1, inf)
        ("main2-3", {"r": 1.5}),
        ("main1-6", {"r": -0.5}),
        ("main1-1", {"s": 5}),       # index out of range for m=2
        ("main1-1", {"m": 0}),
        ("light1-6", {"m": 2}),      # cone factor needs m >= 3
        ("cv-parallel", {"a": 0.0}),
        ("lightcone-L", {"n": 1}),
        ("light2-1", {"s": 2}),      # base at m-1 needs s <= m-1
        ("light2-2", {"m": 3, "s": 3}),
        ("light2-3", {"s": 2}),
        ("light2-7", {"s": 2}),
    ])
    def test_out_of_range_rejected(self, fid, bad):
        with pytest.raises(InputError):
            instantiate(fid, bad)

    def test_message_names_the_given_m_and_s(self):
        # a lightlike product checks its base at m-1 but reports m itself
        with pytest.raises(InputError, match=r"s=2 out of range for m=2"):
            instantiate("light2-3", {"s": 2})

    def test_interior_values_accepted(self):
        instantiate("main1-3", {"r": 0.999})
        instantiate("main1-4", {"r": 1.001})
        instantiate("light1-6", {"m": 3, "s": 1})


class TestChartConsistency:
    @pytest.mark.parametrize("fid", sorted(EXPECTED_IDS))
    def test_image_lies_on_the_space_form(self, fid):
        chart = instantiate(fid)
        residual = ambient_residual(chart, chart.sample_points(25, 11))
        assert residual <= 1e-12

    @pytest.mark.parametrize("fid", sorted(EXPECTED_IDS))
    def test_chart_is_an_immersion(self, fid):
        chart = instantiate(fid)
        for p in chart.sample_points(4, 12):
            _, jac, _, _ = chart.jet_arrays(p, order=2)
            s = np.linalg.svd(jac, compute_uv=False)
            assert s[-1] > 1e-6

    def test_expected_report_validates_too(self):
        with pytest.raises(InputError):
            expected_report("main1-3", {"r": 2.0})

    @pytest.mark.parametrize("light,base", NULL_PAIRS)
    def test_lightlike_family_is_a_null_pair_over_its_base(self, light,
                                                           base):
        # the lightlike item is (t, base(u), t) over the base at m-1
        params = resolve_params(light, {"m": 3})
        chart = instantiate(light, params)
        core = instantiate(base, {**params, "m": 2})
        for u in core.sample_points(3, 13):
            for t in (-0.5, 0.0, 0.3):
                assert chart.value([*u, t]).tolist() == [
                    t, *core.value(u).tolist(), t]
        sig, base_sig = chart.ambient.signature, core.ambient.signature
        assert chart.ambient.epsilon == core.ambient.epsilon
        assert (sig.neg, sig.pos) == (base_sig.neg + 1, base_sig.pos + 1)
        assert np.array_equal(chart.box, np.vstack([core.box, [-0.7, 0.7]]))

    def test_parameter_continuity(self):
        # nearby parameters give nearby images at a fixed chart point
        p = np.array([0.1, -0.05])
        a = instantiate("main1-3", {"r": 0.4}).value(p)
        b = instantiate("main1-3", {"r": 0.4 + 1e-7}).value(p)
        assert np.max(np.abs(a - b)) < 1e-5


class TestExpectations:
    def test_geodesic_entries_marked(self):
        for fid in ("main1-1", "main1-2", "main2-1", "main2-2", "akk-1",
                    "light1-1", "light2-1"):
            assert expected_report(fid).totally_geodesic, fid

    def test_controls_marked_non_umbilical(self):
        for fid in ("cv-parallel", "clifford-control", "cubic-graph-control"):
            assert not expected_report(fid).totally_umbilical

    def test_light_item6_expects_rank_two(self):
        assert expected_report("light1-6").radical_rank == 2
        assert expected_report("light2-6").radical_rank == 2
        assert expected_report("light1-3").radical_rank == 1

    def test_psi_limit_switches_class(self):
        assert not expected_report("psi-a", {"a": 1.0}).totally_geodesic
        assert expected_report("psi-a", {"a": 0.0}).totally_geodesic

    def test_random_draws_stay_in_range(self):
        rng = np.random.default_rng(5)
        for fid in family_ids():
            spec = get_family(fid)
            if not spec.parametric:
                continue
            for _ in range(5):
                params = {**spec.defaults, **spec.draw_params(rng)}
                instantiate(fid, params)  # must validate
