import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from rqbm.contraction import SelfMap, check_linear_contraction
from rqbm.expr import EvalError
from rqbm.instances import (
    build_example_2_3,
    build_example_final,
    build_example_sqrt,
    random_space,
)
from rqbm.spaces import (
    AnalyticSpace,
    FiniteSpace,
    SpaceError,
    SpaceFormatError,
    UnknownLabelError,
    check_b_rectangular,
    check_identity_axiom,
    classify,
    minimal_rectangular_coefficient,
    space_from_dict,
    space_to_dict,
)


# --------------------------------------------------------------------------
# independent oracle: quadruple scan from a raw pair->distance callable
# --------------------------------------------------------------------------

def oracle_quad_scan(points, dist, s, tol=1e-9):
    """Plain-python sweep over admissible quadruples in lexicographic (x, u, v, y)
    order; returns (sup, violations in that order, first maximiser)."""
    sup = None
    first_max = None
    violations = []
    for x, u, v, y in itertools.permutations(points, 4):
        lhs = dist(x, y)
        rhs = dist(x, u) + dist(u, v) + dist(v, y)
        if rhs == 0.0:
            ratio = math.inf if lhs > 0 else None
        else:
            ratio = lhs / rhs
        if ratio is not None and (sup is None or ratio > sup):
            sup = ratio
            first_max = (x, u, v, y)
        if lhs > s * rhs + tol:
            violations.append((x, u, v, y))
    return sup, violations, first_max


def dict_distance(obj):
    """Distance function read directly off a space definition dict."""
    values = {p["label"]: p["value"] for p in obj["points"]}
    table = {(row["from"], row["to"]): row["d"] for row in obj.get("overrides") or []}

    def dist(a, b):
        if a == b:
            return 0.0
        if (a, b) in table:
            return table[(a, b)]
        return (values[a] - values[b]) ** 2

    return dist


@pytest.fixture(scope="module")
def table_space():
    return build_example_2_3().space


@pytest.fixture(scope="module")
def table_space_no_grid():
    obj = space_to_dict(build_example_2_3().space)
    obj["points"] = [p for p in obj["points"] if p["label"].startswith("1/")]
    return space_from_dict(obj)


@pytest.fixture(scope="module")
def piecewise_space():
    return AnalyticSpace.build(
        1.0, 2.0, "if(x >= y, (x - y)^2, 0.5 * (y - x)^2)", 2.0
    )


class TestResolveDistance:
    def test_override_rows(self, table_space):
        assert table_space.distance("1/2", "1/3") == 0.05
        assert table_space.distance("1/3", "1/2") == 0.04

    def test_diagonal_is_zero(self, table_space):
        assert table_space.distance("1/2", "1/2") == 0.0

    def test_default_formula(self, table_space):
        assert table_space.distance("1", "2") == 1.0

    def test_unknown_label(self, table_space):
        with pytest.raises(UnknownLabelError):
            table_space.distance("1/2", "1/99")

    def test_no_default_and_no_override(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], None, {("a", "b"): 1.0})
        with pytest.raises(SpaceError):
            space.distance("b", "a")

    def test_deterministic(self, table_space):
        a = table_space.distance("1/5", "1/6")
        b = table_space.distance("1/5", "1/6")
        assert a == b == 0.08


class TestDistanceTable:
    def test_matrix_raises_for_first_undefined_pair(self):
        space = FiniteSpace.build(
            [("a", 0.0), ("b", 1.0), ("c", 2.0)], None,
            {("a", "b"): 1.0, ("a", "c"): 1.0, ("c", "a"): 1.0},
        )
        message = "no override for ('b', 'a') and the space has no default formula"
        with pytest.raises(SpaceError) as err:
            space.distance_matrix
        assert str(err.value) == message

    def test_matrix_is_read_only(self, table_space):
        D = table_space.distance_matrix
        with pytest.raises(ValueError):
            D[0, 1] = 7.0
        assert table_space.distance(table_space.labels[0], table_space.labels[1]) != 7.0

    def test_each_formula_pair_evaluated_once(self, monkeypatch):
        import rqbm.expr

        calls = []
        evaluate = rqbm.expr.evaluate

        def counting(node, bindings):
            # one entry per evaluated pair, whether bound as scalars or as arrays
            xs, ys = np.broadcast_arrays(bindings["x"], bindings["y"])
            calls.extend(zip(xs.ravel().tolist(), ys.ravel().tolist()))
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", counting)
        points = [("a", 0.0), ("b", 1.0), ("c", 2.5), ("d", 4.0)]
        space = FiniteSpace.build(points, "(x - y)^2", {("a", "b"): 3.0, ("c", "a"): 0.5})
        D = space.distance_matrix
        for i, a in enumerate(space.labels):
            for j, b in enumerate(space.labels):
                assert space.distance(a, b) == D[i, j]
        overridden = {(0.0, 1.0), (2.5, 0.0)}
        want = [(x, y) for _, x in points for _, y in points if x != y and (x, y) not in overridden]
        assert calls == want


    @pytest.mark.parametrize("values, default, message", [
        ([0.0, 1.0, 2.0], "sqrt(x - y)", "sqrt of a negative value in 'sqrt(x - y)'"),
        ([0.0, 1.0, 2.0], "x - y + 0.5", "distance ('a', 'b') = -0.5 must be finite and >= 0"),
        ([0.0, 1.0, 2.0, 900.0], "min(exp(x * y), 1) * (x - y)^2",
         "non-finite result in 'exp(x * y)'"),
        # ('b', 'a') is negative before ('c', 'a') fails to evaluate
        ([0.0, 1.0, 10.0], "if(x > 5, sqrt(0 - x), y - x)",
         "distance ('b', 'a') = -1.0 must be finite and >= 0"),
    ])
    def test_first_failing_formula_pair_raises_its_own_error(self, values, default, message):
        with pytest.raises((SpaceError, EvalError)) as err:
            FiniteSpace.build(zip("abcd", values), default)
        assert str(err.value) == message

    def test_image_distances_match_distance_value(self):
        bundle = build_example_final(5)
        space = bundle.space
        _, ledger = check_linear_contraction(space, bundle.selfmap, 0.5, 3.0, details=True)
        image = {l: bundle.selfmap.apply_label(space, l) for l in space.labels}
        want = [space.distance_value(image[a], image[b]) for a, b in ledger.ids]
        assert ledger.d_img.tolist() == want

    def test_unlabeled_image_without_formula_raises(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], None, {("a", "b"): 1.0, ("b", "a"): 1.0})
        selfmap = SelfMap.hybrid({"a": "b"}, "x / 2")
        with pytest.raises(SpaceError, match="outside the labeled carrier"):
            check_linear_contraction(space, selfmap, 0.5, 1.0)


class TestNegativeAnalyticDistance:
    SOURCE = "(x-y)^2*(1 - 2*if(x>1.4, if(x<1.6,1,0),0))"

    def test_scalar_sample_refused(self):
        space = AnalyticSpace.build(1.0, 2.0, self.SOURCE)
        with pytest.raises(SpaceError) as err:
            space.distance(1.5, 1.0)
        assert str(err.value) == "distance (1.5, 1.0) = -0.25 must be finite and >= 0"

    def test_first_negative_sample_in_c_order(self):
        space = AnalyticSpace.build(1.0, 2.0, self.SOURCE)
        g = np.array([1.0, 1.5, 1.55])
        with pytest.raises(SpaceError) as err:
            space.distance(g[:, None], g[None, :])
        assert str(err.value) == "distance (1.5, 1.0) = -0.25 must be finite and >= 0"

    @pytest.mark.parametrize("operation", [
        check_identity_axiom,
        lambda space: check_b_rectangular(space, 2.0),
        minimal_rectangular_coefficient,
        classify,
    ])
    def test_every_scan_refuses(self, operation):
        with pytest.raises(SpaceError, match="must be finite and >= 0"):
            operation(AnalyticSpace.build(1.0, 2.0, self.SOURCE))


class TestIdentityAxiom:
    def test_full_table_passes(self, table_space):
        report = check_identity_axiom(table_space)
        assert report.passed
        assert report.pairs_checked == len(table_space.labels) ** 2

    def test_degenerate_zero_table(self):
        labels = [("a", 0.0), ("b", 1.0), ("c", 2.0)]
        overrides = {(p, q): 0.0 for p, _ in labels for q, _ in labels if p != q}
        space = FiniteSpace.build(labels, None, overrides)
        report = check_identity_axiom(space)
        assert not report.passed
        assert len(report.zero_off_diagonal) == 6  # every ordered distinct pair

    def test_analytic_squared_difference(self):
        space = AnalyticSpace.build(1.0, 2.0, "(x - y)^2")
        report = check_identity_axiom(space, grid_points=50)
        assert report.passed
        assert report.pairs_checked == 2500


class TestBRectangular:
    def test_example_table_at_coefficient_3(self, table_space):
        report = check_b_rectangular(table_space, 3.0)
        assert report.passed and not report.vacuous
        assert report.quadruples_checked == 57120

    def test_three_points_vacuous(self):
        pts = [("a", 0.0), ("b", 1.0), ("c", 3.0)]
        ov = {(p, q): abs(x - y) for (p, x), (q, y) in itertools.permutations(pts, 2)}
        space = FiniteSpace.build(pts, None, ov)
        report = check_b_rectangular(space, 1.0)
        assert report.passed and report.vacuous
        assert report.quadruples_checked == 0

    def test_final_table_fails_at_1_with_large_witness(self):
        space = build_example_final().space
        report = check_b_rectangular(space, 1.0)
        assert not report.passed
        assert any(
            v.x == "1/5" and v.y == "1/6" and v.lhs == 0.5 for v in report.violations
        )

    def test_matches_oracle_on_table_part(self, table_space_no_grid):
        obj = space_to_dict(table_space_no_grid)
        dist = dict_distance(obj)
        labels = [p["label"] for p in obj["points"]]
        for s in (1.0, 2.0, 3.0):
            _, want, _ = oracle_quad_scan(labels, dist, s)
            got = check_b_rectangular(table_space_no_grid, s)
            assert {(v.x, v.u, v.v, v.y) for v in got.violations} == set(want)

    def test_order_independence(self, table_space_no_grid):
        obj = space_to_dict(table_space_no_grid)
        baseline = check_b_rectangular(table_space_no_grid, 1.0)
        want = {(v.x, v.u, v.v, v.y, v.lhs, v.rhs_sum) for v in baseline.violations}
        rng = np.random.default_rng(5)
        for _ in range(3):
            shuffled = dict(obj)
            shuffled["points"] = list(obj["points"])
            rng.shuffle(shuffled["points"])
            space = space_from_dict(shuffled)
            got = check_b_rectangular(space, 1.0)
            assert {(v.x, v.u, v.v, v.y, v.lhs, v.rhs_sum) for v in got.violations} == want


class TestMinimalCoefficient:
    def test_example_table_full(self, table_space):
        bound = minimal_rectangular_coefficient(table_space)
        # supremum attained by equally spaced grid quadruples
        assert bound.value == 3.0000000000000004
        assert bound.value <= 3.0 + 1e-9
        assert check_b_rectangular(table_space, bound.value).passed

    def test_example_table_a_only_matches_oracle(self, table_space_no_grid):
        obj = space_to_dict(table_space_no_grid)
        dist = dict_distance(obj)
        labels = [p["label"] for p in obj["points"]]
        sup, _, _ = oracle_quad_scan(labels, dist, math.inf)
        bound = minimal_rectangular_coefficient(table_space_no_grid)
        assert bound.value == sup == 0.4 / 0.14
        assert bound.witness.ratio == bound.value

    def test_collinear_euclidean_at_most_1(self):
        pts = [(f"p{i}", float(i)) for i in range(5)]
        ov = {
            (f"p{i}", f"p{j}"): abs(i - j) * 1.0
            for i in range(5)
            for j in range(5)
            if i != j
        }
        space = FiniteSpace.build(pts, None, ov)
        bound = minimal_rectangular_coefficient(space)
        assert bound.value <= 1.0 + 1e-9

    def test_two_points_undefined(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], "(x - y)^2")
        bound = minimal_rectangular_coefficient(space)
        assert bound.value is None

    def test_piecewise_grid_value(self, piecewise_space):
        # independent numpy oracle over the same grid + seeded quadruples
        g = np.linspace(1.0, 2.0, 40)
        D = np.where(
            g[:, None] >= g[None, :],
            (g[:, None] - g[None, :]) ** 2,
            0.5 * (g[None, :] - g[:, None]) ** 2,
        )
        idx = np.arange(40)
        sup = -math.inf
        for i in range(40):
            rhs = D[i, :][:, None, None] + D[:, :, None] + D[None, :, :]
            lhs = D[i, :][None, None, :]
            adm = (
                (idx[:, None, None] != idx[None, :, None])
                & (idx[:, None, None] != i) & (idx[None, :, None] != i)
                & (idx[:, None, None] != idx[None, None, :])
                & (idx[None, :, None] != idx[None, None, :])
                & (idx[None, None, :] != i)
            )
            with np.errstate(all="ignore"):
                ratio = np.where(adm & (rhs > 0), lhs / rhs, -math.inf)
            sup = max(sup, float(ratio.max()))
        rng = np.random.default_rng(0)
        xs, us, vs, ys = (rng.uniform(1.0, 2.0, 10_000) for _ in range(4))

        def eta(a, b):
            return np.where(a >= b, (a - b) ** 2, 0.5 * (b - a) ** 2)

        rr = eta(xs, us) + eta(us, vs) + eta(vs, ys)
        sup = max(sup, float((eta(xs, ys) / rr).max()))

        bound = minimal_rectangular_coefficient(piecewise_space)
        assert bound.value == sup == 3.0000000000000004
        # the claimed coefficient 2 is genuinely exceeded on this space
        assert bound.value > 2.0

    def test_consistency_with_checker(self, table_space_no_grid):
        bound = minimal_rectangular_coefficient(table_space_no_grid)
        assert check_b_rectangular(table_space_no_grid, bound.value).passed
        assert not check_b_rectangular(table_space_no_grid, bound.value - 1e-3).passed


class TestClassify:
    def test_example_table_asymmetric(self, table_space):
        result = classify(table_space)
        assert not result.is_symmetric
        assert ("1/2", "1/3", 0.05, 0.04) in result.asymmetry_witnesses
        assert result.is_quasi_identity
        assert result.is_rqb_at_s  # claimed coefficient 3 holds

    def test_final_table_asymmetric(self):
        result = classify(build_example_final().space)
        assert not result.is_symmetric
        assert ("1/3", "1/4", 0.1, 0.05) in result.asymmetry_witnesses
        # the claimed coefficient 3 does not actually hold on this table
        assert not result.is_rqb_at_s
        assert result.minimal_s > 3.0

    def test_planar_euclidean_is_metric(self):
        space = random_space(6, 1, "metric")
        result = classify(space)
        assert result.is_metric
        assert result.is_quasi_identity and result.is_symmetric
        assert result.is_rectangular
        assert result.is_b_metric_at_s and result.is_rqb_at_s

    def test_metric_implies_weaker_classes(self):
        for seed in range(5):
            result = classify(random_space(5, seed, "metric"))
            if result.is_metric:
                assert result.is_b_metric_at_s
                assert result.is_rectangular
                assert result.is_rqb_at_s

    def test_rqb_monotone_in_s(self, table_space_no_grid):
        bound = minimal_rectangular_coefficient(table_space_no_grid)
        for bump in (0.0, 0.5, 1.0, 10.0):
            assert check_b_rectangular(table_space_no_grid, bound.value + bump).passed

    def test_analytic_piecewise(self, piecewise_space):
        result = classify(piecewise_space)
        assert result.is_quasi_identity
        assert not result.is_symmetric  # the halved increasing branch
        assert not result.is_rqb_at_s   # the claimed coefficient 2 fails
        assert result.minimal_s == 3.0000000000000004
        assert check_b_rectangular(piecewise_space, result.minimal_s).passed

    def test_negative_coefficient_rejected(self, table_space_no_grid):
        for op in (check_b_rectangular, classify):
            with pytest.raises(ValueError, match="s must be >= 0"):
                op(table_space_no_grid, -1.0)


class TestHierarchyProperty:
    @given(st.integers(min_value=0, max_value=40))
    def test_symmetric_triangle_implies_coefficient_1(self, seed):
        space = random_space(5, seed, "metric")
        D = space.distance_matrix
        assert np.allclose(D, D.T)
        report = check_b_rectangular(space, 1.0)
        assert report.passed

    @given(st.integers(min_value=0, max_value=40))
    def test_passing_coefficient_bounds_the_minimum(self, seed):
        space = random_space(5, seed, "quasi")
        bound = minimal_rectangular_coefficient(space)
        for s in (bound.value, bound.value + 1.0, 4.0):
            if check_b_rectangular(space, s).passed:
                assert bound.value <= s + 1e-9


class TestQuadrilateralPassOracle:
    @given(
        st.integers(min_value=4, max_value=7).flatmap(
            lambda n: st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)
        ),
        st.sampled_from([1.0, 1.5, 2.0]),
        st.integers(min_value=0, max_value=5),
    )
    def test_order_truncation_and_ties_match_oracle(self, table, s, k):
        # small integer distances make ratios tie and rhs vanish
        n = math.isqrt(len(table))
        labels = [f"p{i}" for i in range(n)]
        overrides = {
            (a, b): float(table[i * n + j])
            for i, a in enumerate(labels)
            for j, b in enumerate(labels)
            if i != j
        }
        space = FiniteSpace.build([(a, float(i)) for i, a in enumerate(labels)], None, overrides)
        sup, want, first_max = oracle_quad_scan(
            labels, lambda a, b: 0.0 if a == b else overrides[(a, b)], s
        )

        report = check_b_rectangular(space, s, max_violations=k)
        assert [(v.x, v.u, v.v, v.y) for v in report.violations] == want[:k]
        assert report.violation_count == len(want)

        bound = minimal_rectangular_coefficient(space)
        if sup is None:  # every quadruple has rhs = lhs = 0: reported as 0, no witness
            assert bound.value == 0.0 and bound.witness is None
        else:
            assert bound.value == sup
            witness = bound.witness
            assert (witness.x, witness.u, witness.v, witness.y) == first_max

        result = classify(space, s)
        at_s = check_b_rectangular(space, s, max_violations=1)
        at_1 = check_b_rectangular(space, 1.0)
        ok_id = result.identity.passed
        assert result.is_rqb_at_s == (ok_id and at_s.passed)
        assert result.quadrilateral_witness == (at_s.violations[0] if at_s.violations else None)
        assert result.minimal_s == bound.value
        assert result.is_rectangular == (ok_id and result.is_symmetric and at_1.passed)

    def test_truncated_list_is_prefix_on_grid_then_random(self):
        space = build_example_sqrt().space
        scan = dict(grid_points=6, random_samples=300, seed=0)
        full = check_b_rectangular(space, 1.0, **scan)
        on_grid = sum(1 for v in full.violations if v.x in space.grid(6))
        assert 0 < on_grid < full.violation_count == len(full.violations)
        for k in (1, on_grid, on_grid + 1, full.violation_count + 1):
            cut = check_b_rectangular(space, 1.0, max_violations=k, **scan)
            assert cut.violations == full.violations[:k]
            assert cut.violation_count == full.violation_count


class TestSerialization:
    def test_round_trip_table(self, table_space):
        obj = space_to_dict(table_space)
        clone = space_from_dict(json.loads(json.dumps(obj)))
        assert clone.labels == table_space.labels
        assert np.array_equal(clone.distance_matrix, table_space.distance_matrix)

    def test_round_trip_analytic(self, piecewise_space):
        obj = space_to_dict(piecewise_space)
        clone = space_from_dict(json.loads(json.dumps(obj)))
        g = np.linspace(1.0, 2.0, 17)
        a = np.asarray(piecewise_space.distance(g[:, None], g[None, :]))
        b = np.asarray(clone.distance(g[:, None], g[None, :]))
        assert np.array_equal(a, b)

    def test_missing_kind(self):
        with pytest.raises(SpaceFormatError):
            space_from_dict({"points": []})

    def test_bad_point_entry(self):
        with pytest.raises(SpaceFormatError):
            space_from_dict({"kind": "finite", "points": [{"label": "a"}]})

    def test_unknown_kind(self):
        with pytest.raises(SpaceFormatError):
            space_from_dict({"kind": "fuzzy"})


class TestConstructionInvariants:
    def test_negative_override_rejected(self):
        with pytest.raises(SpaceError):
            FiniteSpace.build([("a", 0.0), ("b", 1.0)], None, {("a", "b"): -1.0, ("b", "a"): 1.0})

    def test_nonzero_diagonal_override_rejected(self):
        with pytest.raises(SpaceError):
            FiniteSpace.build([("a", 0.0)], None, {("a", "a"): 2.0})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SpaceError):
            FiniteSpace.build([("a", 0.0), ("a", 1.0)], "(x - y)^2")

    def test_duplicate_values_rejected(self):
        # a shared value would make label_for_value and map images alias
        with pytest.raises(SpaceError, match="'a' and 'c' share the value 0.5"):
            FiniteSpace.build([("a", 0.5), ("b", 1.0), ("c", 0.5)], "(x - y)^2")

    def test_override_unknown_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            FiniteSpace.build([("a", 0.0)], None, {("a", "zz"): 1.0})

    def test_analytic_needs_vanishing_diagonal(self):
        with pytest.raises(SpaceError):
            AnalyticSpace.build(0.0, 1.0, "(x - y)^2 + 1")

    def test_claimed_s_below_one_rejected(self):
        with pytest.raises(SpaceError):
            AnalyticSpace.build(0.0, 1.0, "(x - y)^2", claimed_s=0.5)
