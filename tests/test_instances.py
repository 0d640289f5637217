import json
import math

import numpy as np
import pytest

from rqbm.instances import (
    INSTANCE_NAMES,
    affine_toward,
    build_example_2_3,
    build_example_final,
    build_example_sqrt,
    get_instance,
    perturb,
    random_space,
)
from rqbm.spaces import (
    FiniteSpace,
    SpaceError,
    check_b_rectangular,
    check_identity_axiom,
    classify,
    space_from_dict,
    space_to_dict,
)


class TestExampleTable:
    def test_listed_rows(self):
        space = build_example_2_3().space
        assert space.distance("1/6", "1/7") == 0.05
        assert space.distance("1/7", "1/6") == 0.04
        assert space.distance("1/2", "1/6") == 0.4
        assert space.distance("1/4", "1/4") == 0.0

    def test_symmetric_fill_of_unlisted_pairs(self):
        space = build_example_2_3().space
        # (4,3) is not listed; it takes the listed mirror value of (3,4)
        assert space.distance("1/4", "1/3") == space.distance("1/3", "1/4") == 0.4
        assert space.distance("1/6", "1/2") == 0.4

    def test_override_count(self):
        space = build_example_2_3().space
        assert len(space.overrides) == 30  # 21 listed + 9 mirrored

    def test_grid_part_uses_default_formula(self):
        space = build_example_2_3().space
        assert space.distance("1", "2") == 1.0
        assert space.distance("1.5", "1") == 0.25

    def test_claimed_coefficient_holds(self):
        space = build_example_2_3().space
        assert check_b_rectangular(space, 3.0).passed

    def test_grid_density_configurable(self):
        space = build_example_2_3(grid_points=5).space
        assert len(space.labels) == 6 + 5


class TestExampleInterval:
    def test_forward_distances(self):
        space = build_example_sqrt("sqrt").space
        assert float(space.distance(2.0, 1.0)) == 1.0
        assert float(space.distance(1.0, 2.0)) == 0.5

    def test_expected_fixed_point_is_one(self):
        for variant in ("sqrt", "fourth_root"):
            b = build_example_sqrt(variant)
            assert b.expected_fixed_point == 1.0
            assert b.note  # the out-of-domain 1/3 claim is documented

    def test_map_variants(self):
        assert build_example_sqrt("sqrt").selfmap.source == "sqrt(x)"
        assert build_example_sqrt("fourth_root").selfmap.source == "x ^ 0.25"
        with pytest.raises(ValueError):
            build_example_sqrt("cube_root")


class TestExampleFinal:
    def test_listed_rows(self):
        space = build_example_final().space
        assert space.distance("1/5", "1/6") == 0.5
        assert space.distance("1/3", "1/4") == 0.1
        assert space.distance("1/4", "1/3") == 0.05

    def test_map_values(self):
        b = build_example_final()
        assert b.selfmap.apply_label(b.space, "1/4") == 1.0
        assert b.selfmap.apply_label(b.space, "1") == 1.0
        assert b.selfmap.apply_label(b.space, "0.5") == (math.sqrt(0.5) + 3.0) / 4.0

    def test_parameters(self):
        b = build_example_final()
        assert b.s == 3.0 and b.expected_fixed_point == 1.0
        assert b.theta.source == "sqrt(t) + 1"
        assert b.phi.source == "(t + 1) / 2"


class TestRegistry:
    def test_names(self):
        assert set(INSTANCE_NAMES) == {
            "example-2-3", "example-sqrt", "example-fourth-root", "example-final"
        }
        for name in INSTANCE_NAMES:
            assert get_instance(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_instance("example-42")


class TestRoundTrip:
    @pytest.mark.parametrize("name", INSTANCE_NAMES)
    def test_bundle_space_round_trips(self, name):
        space = get_instance(name).space
        clone = space_from_dict(json.loads(json.dumps(space_to_dict(space))))
        if isinstance(space, FiniteSpace):
            assert clone.labels == space.labels
            assert np.array_equal(clone.distance_matrix, space.distance_matrix)
        else:
            g = np.linspace(space.lo, space.hi, 13)
            assert np.array_equal(
                np.asarray(space.distance(g[:, None], g[None, :])),
                np.asarray(clone.distance(g[:, None], g[None, :])),
            )


class TestRandomSpace:
    def test_metric_profile_is_metric(self):
        assert classify(random_space(4, 1, "metric")).is_metric

    def test_metric_profile_100_consecutive_seeds(self):
        for seed in range(100):
            assert classify(random_space(4, seed, "metric")).is_metric

    def test_quasi_seed_one_pinned(self):
        result = classify(random_space(4, 1, "quasi"))
        assert not result.is_symmetric
        assert result.is_quasi_identity
        assert result.is_rqb_at_s  # coefficient 4 bounds the directional scaling
        assert result.minimal_s == 1.2767236749245456

    def test_adversarial_seed_pinned(self):
        result = classify(random_space(5, 2, "adversarial"))
        assert not result.is_rqb_at_s
        assert result.minimal_s > 4.0

    def test_two_points_vacuous(self):
        report = check_b_rectangular(random_space(2, 0, "metric"), 1.0)
        assert report.vacuous and report.passed

    def test_determinism(self):
        a = random_space(5, 7, "quasi")
        b = random_space(5, 7, "quasi")
        assert np.array_equal(a.distance_matrix, b.distance_matrix)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_space(1, 0, "metric")
        with pytest.raises(ValueError):
            random_space(4, 0, "weird")


class TestPerturb:
    def test_break_identity_single_witness(self):
        broken = perturb(build_example_2_3().space, "break_identity", 3)
        report = check_identity_axiom(broken)
        assert not report.passed
        assert len(report.zero_off_diagonal) == 1

    def test_break_identity_many_seeds(self):
        for seed in range(10):
            base = random_space(5, seed, "quasi")
            broken = perturb(base, "break_identity", seed)
            assert not check_identity_axiom(broken).passed

    def test_break_quadrilateral_metric(self):
        for seed in range(10):
            base = random_space(5, seed, "metric")
            broken = perturb(base, "break_quadrilateral", seed, s=1.0)
            assert not check_b_rectangular(broken, 1.0).passed

    def test_break_quadrilateral_uses_claimed_s(self):
        base = random_space(6, 11, "quasi")  # claimed coefficient 4
        broken = perturb(base, "break_quadrilateral", 11)
        assert not check_b_rectangular(broken, 4.0).passed

    def test_two_point_break_quadrilateral_rejected(self):
        with pytest.raises(SpaceError):
            perturb(random_space(2, 0, "metric"), "break_quadrilateral", 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            perturb(random_space(4, 0, "metric"), "wobble", 0)

    @pytest.mark.parametrize("profile", ["metric", "quasi", "adversarial"])
    def test_matches_pairwise_reference(self, profile):
        for seed in range(12):
            base = random_space(6, seed, profile)
            labels, d = base.labels, base.distance
            rng = np.random.default_rng([3, seed])
            pairs = [(a, b) for a in labels for b in labels if a != b and d(a, b) > 0.0]
            a, b = pairs[int(rng.integers(len(pairs)))]
            assert perturb(base, "break_identity", seed).distance(a, b) == 0.0
            rng = np.random.default_rng([9, seed])
            i, j = int(rng.integers(6)), int(rng.integers(5))
            x, y = labels[i], labels[j + (j >= i)]
            cheapest = min(
                (d(x, u) + d(u, v)) + d(v, y)
                for u in labels for v in labels if len({x, y, u, v}) == 4
            )
            broken = perturb(base, "break_quadrilateral", seed)
            assert broken.distance(x, y) == base.claimed_s * cheapest + max(1.0, cheapest)

    def test_original_space_unchanged(self):
        base = random_space(4, 5, "metric")
        before = base.distance_matrix.copy()
        perturb(base, "break_identity", 5)
        assert np.array_equal(base.distance_matrix, before)


class TestAffineToward:
    def test_target_is_fixed(self):
        space = random_space(6, 3, "quasi")
        m = affine_toward(space, "p2", 0.5)
        assert m.table["p2"] == "p2"

    def test_total_on_space(self):
        space = random_space(6, 3, "quasi")
        m = affine_toward(space, "p0", 0.5)
        m.check_total(space)
        assert set(m.table) == set(space.labels)

    def test_ratio_validation(self):
        space = random_space(4, 0, "metric")
        with pytest.raises(ValueError):
            affine_toward(space, "p0", 1.0)
