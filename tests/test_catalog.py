"""Tests for the family registry: completeness, validation, consistency."""

import numpy as np
import pytest

from umbilic import catalog, charts
from umbilic.analysis import analyze_point, verify_family
from umbilic.catalog import (expected_report, family_ids, get_family,
                             instantiate, resolve_params)
from umbilic.charts import quadric_residual
from umbilic.errors import DomainError, InputError

EXPECTED_IDS = (
    [f"main1-{k}" for k in range(1, 8)]
    + [f"main2-{k}" for k in range(1, 8)]
    + [f"akk-{k}" for k in range(1, 5)]
    + [f"light1-{k}" for k in range(1, 8)]
    + [f"light2-{k}" for k in range(1, 8)]
    + ["psi-a", "S-example", "S-theta", "U-flat", "lightcone-L", "plane-P",
       "cv-parallel", "clifford-control", "cubic-graph-control"]
)

# every integer parameter of every family at 10**9, and oversize charts
# whose size is not m + 1 coordinates over m variables
OVERSIZE = sorted(
    {(fid, key, 10**9) for fid in EXPECTED_IDS
     for key, v in get_family(fid).defaults.items() if isinstance(v, int)}
    | {("main1-3", "m", 400), ("light1-2", "m", 400),
       ("lightcone-L", "n", 400), ("plane-P", "rad", 400),
       ("S-example", "m", 68)})

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

    @pytest.mark.parametrize("fid, base", [
        ("light1-2", "main1-3"), ("light1-3", "main1-4"),
        ("light1-4", "main1-6"), ("light2-2", "main2-3"),
        ("light2-3", "main2-4"), ("light2-4", "main2-6")])
    def test_product_reads_its_base_row(self, fid, base):
        # a lightlike product's radius and draws are its base row's
        spec, row = get_family(fid), get_family(base)
        assert spec.defaults == row.defaults
        draws = [s.draw_params(np.random.default_rng(5)) for s in (spec, row)]
        assert draws[0] == draws[1]


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
        ("main1-3", {"m": 2.5}),     # dimensions and indices are integers
        ("main1-1", {"s": 0.5}),
        ("light1-2", {"m": 3.5}),
        ("S-theta", {"m": 1.5}),
        ("lightcone-L", {"n": 2.5}),
        ("plane-P", {"rad": 1.5}),
    ])
    def test_out_of_range_rejected(self, fid, bad):
        with pytest.raises(InputError):
            instantiate(fid, bad)

    def test_message_names_the_given_m_and_s(self):
        # a lightlike product checks its base at m-1 but reports m itself
        with pytest.raises(InputError, match=r"s=2 out of range for m=2"):
            instantiate("light2-3", {"s": 2})

    @pytest.mark.parametrize("fid, m, bound", [
        ("light1-5", 1, 2), ("light2-5", 1, 2),
        ("light1-6", 1, 3), ("light1-6", 2, 3), ("light2-6", 2, 3)])
    def test_cone_needs_a_base_of_two_variables(self, fid, m, bound):
        # over one variable a cone is a null line, which is geodesic: the
        # verifier and the annotation, not totally geodesic, would disagree
        with pytest.raises(InputError, match=rf"^m={m}: need m >= {bound}$"):
            instantiate(fid, {"m": m, "s": 0})
        with pytest.raises(InputError, match=rf"^m={m}: need m >= {bound}$"):
            verify_family(fid, {"m": m, "s": 0})
        assert verify_family(fid, {"m": bound, "s": 0}).status == "pass"

    def test_integral_floats_accepted(self):
        p = np.array([0.1, -0.2, 0.05])
        for fid in ("main1-3", "light1-2"):
            a = instantiate(fid, {"m": 3.0})
            b = instantiate(fid, {"m": 3})
            assert a.nvars == 3
            assert np.array_equal(a.value(p), b.value(p))

    def test_overflowing_closed_form_is_a_domain_error(self):
        # the chart builds at r = 1e155, but its expectations overflow
        with pytest.raises(DomainError, match="family 'main1-4'"):
            instantiate("main1-4", {"r": 1e155})

    @pytest.mark.parametrize("fid, key, m", OVERSIZE)
    def test_oversize_dimension_refused_before_anything_is_built(
            self, monkeypatch, fid, key, m):
        # an m = 400 walk would need about 138 GB; the guard comes first
        def built(*args, **kwargs):
            raise AssertionError("built before the guard")

        for name in ("_ball_box", "_cone_box", "_flat_box", "ExprChart"):
            monkeypatch.setattr(catalog, name, built)
        with pytest.raises(InputError) as err:
            instantiate(fid, {key: m})
        # an index s is refused by its range, unless it sizes the chart;
        # the message names what sizes it
        if key != "s" or fid == "plane-P":
            label = (f"{key}={m}" if fid != "plane-P" else
                     "s={s} t={t} rad={rad}".format(**{"s": 1, "t": 1,
                                                        "rad": 1, key: m}))
            assert str(err.value) == (f"{label}: jets beyond 4000000 "
                                      f"entries per point")

    def test_largest_dimensions_accepted(self):
        assert instantiate("main1-3", {"m": 64}).nvars == 64
        assert instantiate("main1-3", {"m": 68}).nvars == 68
        with pytest.raises(InputError, match="^m=69: "):
            instantiate("main1-3", {"m": 69})
        # S-example's chart has m + 1 variables and m + 4 coordinates
        assert instantiate("S-example", {"m": 67}).nvars == 68

    def test_interior_values_accepted(self):
        instantiate("main1-3", {"r": 0.999})
        instantiate("main1-4", {"r": 1.001})
        instantiate("light1-6", {"m": 3, "s": 1})


class TestChartConsistency:
    @pytest.mark.parametrize("fid", sorted(EXPECTED_IDS))
    def test_image_lies_on_the_space_form(self, fid):
        chart = instantiate(fid)
        amb = chart.ambient
        residual = quadric_residual(amb.weights(), amb.epsilon,
                                    chart.value(chart.sample_points(25, 11)))
        assert residual.shape == (25,)
        assert residual.max() <= 1e-12

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

    @pytest.mark.parametrize("eps, fid, params", [
        (1, "psi-a", {"a": 1.0}), (-1, "main2-5", {})])
    def test_cone_composition_identity(self, eps, fid, params):
        # the space form through the lightcone one flat dimension up, then
        # back at unit offset, is the catalog's flat item of that space form
        comp = charts.compose(catalog.cone_hypersurface_map(2, 0, eps),
                              catalog.cone_embedding_chart(2, 0, eps))
        direct = instantiate(fid, params)
        assert comp.ambient == direct.ambient
        for p in direct.sample_points(10, 9):
            assert np.max(np.abs(comp.value(p) - direct.value(p))) <= 1e-12
            assert (analyze_point(comp, p).flags()
                    == analyze_point(direct, p).flags())

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

    def test_umbilical_items_are_the_non_degenerate_graph_rows(self):
        ids = {eps: [row[0] for row in catalog.umbilical_items(eps)]
               for eps in (1, -1, 0)}
        assert ids == {1: [f"main1-{k}" for k in range(1, 8)],
                       -1: [f"main2-{k}" for k in range(1, 8)],
                       0: [f"akk-{k}" for k in range(1, 5)]}

    def test_radius_rows_invert_h(self):
        # r = 1 / sqrt(sigma (h + eps)) undoes h(r) = sigma / r**2 - eps,
        # and h maps the radius range onto the h_norm range
        for eps in (1, -1, 0):
            for fid, g, e in catalog.umbilical_items(eps):
                if e.h_norm_range is None:
                    continue
                lo, hi = e.h_norm_range
                for params in [d[1] for d in catalog.instances(3)
                               if d[0] == fid]:
                    h = expected_report(fid, params).h_norm
                    assert lo < h < hi
                    assert g.radius(h) == pytest.approx(params["r"],
                                                        rel=1e-14)

    def test_random_draws_stay_in_range(self):
        rng = np.random.default_rng(5)
        for fid in family_ids():
            spec = get_family(fid)
            if not spec.parametric:
                continue
            for _ in range(5):
                params = {**spec.defaults, **spec.draw_params(rng)}
                instantiate(fid, params)  # must validate


def test_instances_are_the_defaults_then_seeded_draws():
    jobs = catalog.instances(42)
    assert jobs == catalog.instances(42) != catalog.instances(43)
    fids = [fid for fid, _ in jobs]
    assert fids == sorted(fids) and set(fids) == set(family_ids())
    for fid in family_ids():
        spec = get_family(fid)
        own = [params for f, params in jobs if f == fid]
        assert own[0] == spec.defaults
        assert len(own) == 1 + catalog.RANDOM_DRAWS * spec.parametric
        assert all(params.keys() == spec.defaults.keys() for params in own)


def test_allowed_discrepancy_needs_a_disagreement():
    e = expected_report("S-example")
    assert e.allows("radical_rank", 1)
    assert not e.allows("radical_rank", 2)   # agrees: nothing to allow
    assert not e.allows("radical_rank", 0)   # disagrees, not allowed
    assert not expected_report("main1-3").allows("radical_rank", 1)
