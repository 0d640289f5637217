import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rqbm.expr
from rqbm._report import to_json
from rqbm.contraction import (
    MapError,
    MapRangeError,
    SelfMap,
    best_exponent,
    check_linear_contraction,
    check_theta_contraction,
    check_theta_phi_contraction,
    pair_set,
)
from rqbm.expr import EvalError, to_source
from rqbm.instances import (
    affine_toward,
    build_example_final,
    build_example_sqrt,
    random_space,
)
from rqbm.spaces import AnalyticSpace, FiniteSpace, SpaceError, carrier_sample
from rqbm.thetaphi import builtin_phi, builtin_theta
from test_expr import _exprs

# closed forms of the builtin thetas and phis, on numpy scalars: numpy's
# elementary functions agree bit for bit between scalars and arrays, where
# the math module's can differ from them in the last place
THETA_FORMS = {
    "exp-sqrt": lambda t: np.exp(np.sqrt(t)),
    "sqrt-plus-1": lambda t: np.sqrt(t) + 1.0,
}
PHI_FORMS = {
    "midpoint": lambda t: (t + 1.0) / 2.0,
    "pow-0.5": lambda t: np.power(t, 0.5),
}


def two_point_swap():
    space = FiniteSpace.build(
        [("a", 0.0), ("b", 1.0)], None, {("a", "b"): 1.0, ("b", "a"): 1.0}
    )
    return space, SelfMap.from_table({"a": "b", "b": "a"})


@pytest.fixture(scope="module")
def sqrt_bundle():
    return build_example_sqrt("sqrt")


@pytest.fixture(scope="module")
def fourth_bundle():
    return build_example_sqrt("fourth_root")


class TestSelfMap:
    def test_table_totality(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], "(x - y)^2")
        with pytest.raises(MapError):
            SelfMap.from_table({"a": "b"}).check_total(space)

    def test_table_unknown_target(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], "(x - y)^2")
        with pytest.raises(Exception):
            SelfMap.from_table({"a": "zz", "b": "a"}).check_total(space)

    def test_analytic_range_violation(self):
        space = AnalyticSpace.build(1.0, 2.0, "(x - y)^2")
        bad = SelfMap.from_expression("x + 5")
        with pytest.raises(MapRangeError):
            bad.apply_value(space, 1.5)
        with pytest.raises(MapRangeError):
            bad.apply_array(space, np.array([1.0, 1.5]))

    def test_hybrid_dispatch(self):
        bundle = build_example_final()
        assert bundle.selfmap.apply_label(bundle.space, "1/4") == 1.0
        assert bundle.selfmap.apply_label(bundle.space, "1") == 1.0
        v = bundle.selfmap.apply_value(bundle.space, 0.81)
        assert v == (math.sqrt(0.81) + 3.0) / 4.0

    def test_value_table_target(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], "(x - y)^2")
        m = SelfMap.from_table({"a": 0.25, "b": "a"})
        assert m.apply_label(space, "a") == 0.25
        assert m.apply_label(space, "b") == 0.0


class TestHybridMapImages:
    def test_one_map_call_for_the_labels_off_the_table(self, monkeypatch, capsys):
        import rqbm.cli
        import rqbm.expr

        calls = []
        evaluate = rqbm.expr.evaluate

        def counting(node, bindings):
            calls.append(node)
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", counting)
        argv = ["contraction", "--instance", "example-final", "--grid", "200", "--kind", "theta_phi"]
        assert rqbm.cli.main(argv) in (0, 1)
        assert json.loads(capsys.readouterr().out)["command"] == "contraction"
        # label by label, the map alone would make 200 calls here
        assert len(calls) <= 10

    def test_first_failing_label_raises_its_own_error(self):
        bundle = build_example_final()
        selfmap = SelfMap.hybrid({l: 1.0 for l in bundle.space.labels[:4]}, "sqrt(0.8 - x)")
        failing = [l for l in bundle.space.labels[4:] if bundle.space.value_of(l) > 0.8]
        with pytest.raises(EvalError) as want:
            selfmap.apply_label(bundle.space, failing[0])
        with pytest.raises(EvalError) as got:
            pair_set(carrier_sample(bundle.space), selfmap, 3.0)
        assert str(got.value) == str(want.value)


def reference_images(selfmap, space, xs):
    """Value by value in order: a labeled value's table image, else one scalar
    walk of the expression (at the label's value, on a finite space); the
    first walk that raises raises.  On an interval, the first image outside it
    then raises."""
    out = []
    for x in xs:
        label = space.label_for_value(x)
        if label is not None and label in (selfmap.table or {}):
            target = selfmap.table[label]
            out.append(space.value_of(target) if isinstance(target, str) else target)
        else:
            at = x if label is None else space.value_of(label)
            out.append(rqbm.expr.evaluate(selfmap.expr, {"x": at}))
    if isinstance(space, AnalyticSpace):
        for x, image in zip(xs, out):
            if not space.lo <= image <= space.hi:
                raise MapRangeError(
                    f"map image {image!r} of {x!r} leaves [{space.lo}, {space.hi}]")
    return np.array(out, dtype=np.float64)


_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
                    st.floats(min_value=-50.0, max_value=50.0))


@st.composite
def guarded_maps(draw):
    """``if(x RELOP c, ...)`` with one branch that leaves its domain on some
    side of a cut, taken or not; or a random expression in x."""
    c, cut = (draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0])) for _ in range(2))
    risky = draw(st.sampled_from(["sqrt(x - {})", "ln(x - {})", "1 / (x - {})",
                                  "(x - {}) ^ 0.5", "sqrt({} - x)"])).format(cut)
    safe = draw(st.sampled_from(["x / 2", "0.5", "abs(x) / 4", "min(x, 0) - 1"]))
    relop = draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="]))
    branches = draw(st.permutations([safe, risky]))
    guarded = f"if(x {relop} {c}, {branches[0]}, {branches[1]})"
    return draw(st.one_of(st.just(guarded), _exprs(("x",)).map(to_source)))


def _outcome(call):
    try:
        return call().tobytes()
    except (EvalError, MapRangeError) as err:
        return type(err), str(err)


class TestApplyArrayOracle:
    @given(guarded_maps(), st.lists(_VALUES, min_size=1, max_size=8))
    def test_interval_matches_value_by_value_reference(self, source, xs):
        space = AnalyticSpace.build(-100.0, 100.0, "abs(x - y)")
        selfmap = SelfMap.from_expression(source)
        want = _outcome(lambda: reference_images(selfmap, space, xs))
        assert _outcome(lambda: selfmap.apply_array(space, np.array(xs))) == want

    @given(guarded_maps(), st.data())
    def test_hybrid_matches_value_by_value_reference(self, source, data):
        values = data.draw(st.lists(_VALUES, min_size=1, max_size=5, unique=True))
        labels = [f"p{i}" for i in range(len(values))]
        space = FiniteSpace.build(zip(labels, values), "abs(x - y)")
        ruled = data.draw(st.lists(st.sampled_from(labels), unique=True))
        table = {l: data.draw(st.one_of(st.sampled_from(labels), _VALUES)) for l in ruled}
        selfmap = SelfMap.hybrid(table, source)
        xs = data.draw(st.lists(st.one_of(st.sampled_from(values), _VALUES), min_size=1,
                                max_size=8))
        want = _outcome(lambda: reference_images(selfmap, space, xs))
        assert _outcome(lambda: selfmap.apply_array(space, np.array(xs))) == want

    def test_untaken_branch_leaves_its_domain(self):
        selfmap = SelfMap.from_expression("if(x >= 0.5, x / 2, sqrt(x - 0.6))")
        xs = np.linspace(0.5, 1.0, 1001)
        images = selfmap.apply_array(AnalyticSpace.build(0.0, 1.0, "abs(x - y)"), xs)
        assert np.array_equal(images, xs / 2)

    def test_interior_failure_is_the_value_alone(self):
        space = AnalyticSpace.build(0.0, 1.0, "abs(x - y)")
        selfmap = SelfMap.from_expression("0.5 + 0 * ln(abs(x - 0.5))")
        with pytest.raises(EvalError) as alone:
            selfmap.apply_value(space, 0.5)
        with pytest.raises(EvalError) as grid:
            selfmap.apply_array(space, np.linspace(0.0, 1.0, 11))
        assert str(grid.value) == str(alone.value) == (
            "ln of a non-positive value in 'ln(abs(x - 0.5))'")


class TestThetaPhiContraction:
    def test_two_point_swap_fails_with_exact_witness(self):
        space, swap = two_point_swap()
        cert = check_theta_phi_contraction(
            pair_set(carrier_sample(space), swap, 1.0, builtin_theta("sqrt-plus-1")),
            builtin_phi("midpoint"),
        )
        assert cert.verdict == "fail"
        w = cert.worst_pair
        assert (w.x, w.y) == ("a", "b")  # first enumerated of the tied pair
        assert w.lhs == 2.0 and w.rhs == 1.5 and w.slack == -0.5

    def test_diagonal_pairs_skipped(self):
        space, swap = two_point_swap()
        cert = check_theta_phi_contraction(
            pair_set(carrier_sample(space), swap, 1.0, builtin_theta("sqrt-plus-1")),
            builtin_phi("midpoint"),
        )
        assert cert.pairs_total == 4
        assert cert.pairs_skipped == 2  # (a,a) and (b,b)

    def test_final_example_certificate(self):
        b = build_example_final()
        cert = check_theta_phi_contraction(
            pair_set(carrier_sample(b.space), b.selfmap, 3.0, b.theta), b.phi)
        # the composed condition genuinely fails near the lower interval end
        assert cert.verdict == "fail"
        assert cert.violation_count == 12
        w = cert.worst_pair
        assert (w.x, w.y) == ("1/3", "0.5")
        assert w.lhs == 1.2196699141100895
        assert w.rhs == 1.0833333333333335

    def test_final_example_pairs_against_oracle(self):
        b = build_example_final()
        pairs = pair_set(carrier_sample(b.space), b.selfmap, 3.0, b.theta)
        cert = check_theta_phi_contraction(pairs, b.phi)
        table = {(x, y): b.space.distance(x, y) for x in b.space.labels for y in b.space.labels}
        values = {l: b.space.value_of(l) for l in b.space.labels}
        in_table = {f"1/{n}" for n in range(3, 7)}
        mism = 0
        got = pair_verdicts(pairs, b.phi(pairs.th_pre))
        assert got.count("violation") == cert.violation_count == 12
        for k in range(pairs.d_img.size):
            x, y = pairs.pair(k)
            tx = 1.0 if x in in_table else (math.sqrt(values[x]) + 3.0) / 4.0
            ty = 1.0 if y in in_table else (math.sqrt(values[y]) + 3.0) / 4.0
            d_img = 0.0 if tx == ty else abs(tx - ty) ** 2
            if d_img == 0.0:
                want = "skipped"
            else:
                lhs = math.sqrt(9.0 * d_img) + 1.0
                rhs = ((math.sqrt(table[(x, y)]) + 1.0) + 1.0) / 2.0
                want = "violation" if lhs > rhs + 1e-9 else "satisfied"
            if got[k] != want:
                mism += 1
        assert mism == 0

    def test_constant_map_vacuous(self):
        b = build_example_final()
        const = SelfMap.from_table({l: 1.0 for l in b.space.labels})
        cert = check_theta_phi_contraction(
            pair_set(carrier_sample(b.space), const, 3.0, b.theta), b.phi)
        assert cert.verdict == "pass" and cert.vacuous
        assert cert.pairs_checked == 0
        assert cert.pairs_skipped == cert.pairs_total


class TestThetaContraction:
    def test_identity_map_vacuous(self, sqrt_bundle):
        ident = SelfMap.from_expression("x")
        cert = check_theta_contraction(
            pair_set(carrier_sample(sqrt_bundle.space, 10), ident, 2.0, sqrt_bundle.theta,
                     random_pairs=100), 0.5,
        )
        # d(Tx, Ty) = d(x, y) so only diagonal pairs lack a positive image
        assert cert.verdict == "fail" or cert.pairs_checked > 0

    def test_sqrt_variant_fails_everywhere(self, sqrt_bundle):
        cert = check_theta_contraction(
            pair_set(carrier_sample(sqrt_bundle.space, 50), sqrt_bundle.selfmap, 2.0,
                     sqrt_bundle.theta), 0.5,
        )
        assert cert.verdict == "fail"
        assert cert.violation_count == cert.pairs_checked == 12450
        w = cert.worst_pair
        assert (w.x, w.y) == (2.0, 1.0)
        assert w.lhs == 2.289714471244359
        assert w.rhs == 1.6487212707001282

    def test_fourth_root_variant_passes(self, fourth_bundle):
        cert = check_theta_contraction(
            pair_set(carrier_sample(fourth_bundle.space, 50), fourth_bundle.selfmap, 2.0,
                     fourth_bundle.theta), 0.5,
        )
        assert cert.verdict == "pass"
        assert cert.violation_count == 0
        assert cert.worst_pair.slack == 6.641987362110413e-06

    def test_fourth_root_oracle_spot_check(self, fourth_bundle):
        # direct arithmetic at a handful of pairs
        s = 2.0
        for x, y in [(2.0, 1.0), (1.5, 1.2), (1.01, 1.0), (1.0, 1.9)]:
            tx, ty = x ** 0.25, y ** 0.25
            d_img = (tx - ty) ** 2 if tx >= ty else 0.5 * (ty - tx) ** 2
            d_pre = (x - y) ** 2 if x >= y else 0.5 * (y - x) ** 2
            lhs = math.exp(math.sqrt(s * s * d_img))
            rhs = math.exp(math.sqrt(d_pre)) ** 0.5
            assert lhs <= rhs + 1e-9

    def test_domain_violation_reported(self):
        space = FiniteSpace.build(
            [("a", 0.0), ("b", 1.0), ("c", 2.0)],
            None,
            {
                ("a", "b"): 0.0, ("b", "a"): 0.0,
                ("a", "c"): 1.0, ("c", "a"): 1.0,
                ("b", "c"): 1.0, ("c", "b"): 1.0,
            },
        )
        broken = SelfMap.from_table({"a": "a", "b": "c", "c": "c"})
        cert = check_theta_contraction(
            pair_set(carrier_sample(space), broken, 1.0, builtin_theta("exp-sqrt")), 0.5)
        assert cert.verdict == "fail"
        assert cert.domain_violation == ("a", "b")

    def test_monotone_in_r(self, fourth_bundle):
        pairs = pair_set(carrier_sample(fourth_bundle.space, 25), fourth_bundle.selfmap, 2.0,
                         fourth_bundle.theta, random_pairs=500)
        c1 = check_theta_contraction(pairs, 0.5)
        c2 = check_theta_contraction(pairs, 0.8)
        assert c1.verdict == "pass" and c2.verdict == "pass"
        assert c2.worst_pair.slack >= c1.worst_pair.slack

    def test_monotone_in_s(self, sqrt_bundle):
        at2, at3 = (
            check_theta_contraction(pair_set(carrier_sample(sqrt_bundle.space, 25),
                                             sqrt_bundle.selfmap, s, sqrt_bundle.theta,
                                             random_pairs=500), 0.5)
            for s in (2.0, 3.0)
        )
        assert at2.verdict == "fail"
        assert at3.verdict == "fail"

    def test_parameter_validation(self, sqrt_bundle):
        with pytest.raises(ValueError):
            check_theta_contraction(
                pair_set(carrier_sample(sqrt_bundle.space), sqrt_bundle.selfmap, 2.0,
                         sqrt_bundle.theta), 1.5
            )
        with pytest.raises(ValueError):
            pair_set(carrier_sample(sqrt_bundle.space), sqrt_bundle.selfmap, 0.5, sqrt_bundle.theta)


class TestLinearContraction:
    def test_constant_map_vacuous(self, sqrt_bundle):
        const = SelfMap.from_expression("x * 0 + 1.5")
        cert = check_linear_contraction(
            pair_set(carrier_sample(sqrt_bundle.space, 10), const, 2.0, random_pairs=50), 0.5
        )
        assert cert.verdict == "pass" and cert.vacuous

    def test_two_point_swap_witness(self):
        space, swap = two_point_swap()
        cert = check_linear_contraction(pair_set(carrier_sample(space), swap, 1.0), 0.5)
        assert cert.verdict == "fail"
        w = cert.worst_pair
        assert w.lhs == 1.0 and w.rhs == 0.5
        assert w.slack == -0.5

    def test_sqrt_map_k09_matches_oracle(self, sqrt_bundle):
        cert = check_linear_contraction(
            pair_set(carrier_sample(sqrt_bundle.space, 50), sqrt_bundle.selfmap, 2.0,
                     random_pairs=0),
            0.9,
        )
        # near-diagonal pairs break the linear bound: 4*(sqrt(x)-sqrt(y))^2
        # approaches (x-y)^2 from above-0.9 scale as x,y -> 1
        assert cert.verdict == "fail"
        assert cert.violation_count == 66
        w = cert.worst_pair
        assert (w.x, w.y) == (1.1428571428571428, 1.0)


class TestBestExponent:
    def test_constant_map_zero(self, sqrt_bundle):
        const = SelfMap.from_expression("x * 0 + 1.5")
        bound = best_exponent(
            pair_set(carrier_sample(sqrt_bundle.space, 10), const, 2.0, sqrt_bundle.theta,
                     random_pairs=50)
        )
        assert bound.value == 0.0 and bound.feasible

    def test_two_point_swap_infeasible(self):
        space, swap = two_point_swap()
        bound = best_exponent(pair_set(carrier_sample(space), swap, 1.0, builtin_theta("exp-sqrt")))
        assert bound.value == 1.0
        assert not bound.feasible

    def test_fourth_root_frozen_value(self, fourth_bundle):
        bound = best_exponent(
            pair_set(carrier_sample(fourth_bundle.space, 50), fourth_bundle.selfmap, 2.0,
                     fourth_bundle.theta)
        )
        assert bound.feasible
        assert bound.value == 0.497134902334961  # just under the claimed 1/2
        assert bound.value < 0.5

    @pytest.mark.parametrize("variant, limit", [("fourth_root", 0.75), ("sqrt", 1.5)])
    def test_exponent_at_the_true_coefficient(self, variant, limit):
        # at s = 3 the supremum is s times the map's slope at 1, approached by
        # ever closer pairs near 1: the finer grid comes closer from below
        b = build_example_sqrt(variant)
        coarse, fine = (
            best_exponent(pair_set(carrier_sample(b.space, g), b.selfmap, 3.0, b.theta)).value
            for g in (40, 200)
        )
        assert coarse < fine < limit
        assert math.isclose(fine, limit, rel_tol=0.01)

    def test_bracketing_property(self, fourth_bundle):
        pairs = pair_set(carrier_sample(fourth_bundle.space, 50), fourth_bundle.selfmap, 2.0,
                         fourth_bundle.theta)
        bound = best_exponent(pairs)
        above = check_theta_contraction(pairs, bound.value + 1e-9)
        below = check_theta_contraction(pairs, bound.value - 1e-3)
        assert above.verdict == "pass"
        assert below.verdict == "fail"

    def test_domain_violation_infeasible(self):
        space = FiniteSpace.build(
            [("a", 0.0), ("b", 1.0), ("c", 2.0)],
            None,
            {
                ("a", "b"): 0.0, ("b", "a"): 0.0,
                ("a", "c"): 1.0, ("c", "a"): 1.0,
                ("b", "c"): 1.0, ("c", "b"): 1.0,
            },
        )
        broken = SelfMap.from_table({"a": "a", "b": "c", "c": "c"})
        bound = best_exponent(
            pair_set(carrier_sample(space), broken, 1.0, builtin_theta("exp-sqrt")))
        assert not bound.feasible
        assert bound.domain_violation == ("a", "b")


class TestReductionIdentity:
    """The exponent form equals the composed form with the power family."""

    @pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
    def test_on_analytic_instance(self, fourth_bundle, r):
        pairs = pair_set(carrier_sample(fourth_bundle.space, 30), fourth_bundle.selfmap, 2.0,
                         fourth_bundle.theta, random_pairs=2000)
        a = check_theta_contraction(pairs, r)
        b = check_theta_phi_contraction(pairs, builtin_phi(f"pow-{r}"))
        assert a.verdict == b.verdict
        assert a.worst_pair == b.worst_pair
        assert a.pairs_checked == b.pairs_checked

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("r", [0.3, 0.5, 0.8])
    def test_on_random_quasi_spaces(self, seed, r):
        space = random_space(6, seed, "quasi")
        rng = np.random.default_rng([7, seed])
        target = space.labels[int(rng.integers(len(space.labels)))]
        selfmap = affine_toward(space, target, 0.5)
        pairs = pair_set(carrier_sample(space), selfmap, 4.0, builtin_theta("exp-sqrt"))
        a = check_theta_contraction(pairs, r)
        b = check_theta_phi_contraction(pairs, builtin_phi(f"pow-{r}"))
        assert a.verdict == b.verdict
        assert a.worst_pair == b.worst_pair


class TestCertificateReplay:
    def test_worst_pair_replays_bit_exactly(self, fourth_bundle):
        cert = check_theta_contraction(
            pair_set(carrier_sample(fourth_bundle.space, 50), fourth_bundle.selfmap, 2.0,
                     fourth_bundle.theta), 0.5,
        )
        w = cert.worst_pair
        space, selfmap, theta = fourth_bundle.space, fourth_bundle.selfmap, fourth_bundle.theta
        tx = selfmap.apply_value(space, w.x)
        ty = selfmap.apply_value(space, w.y)
        lhs = float(theta(2.0 * 2.0 * float(space.distance(tx, ty))))
        rhs = float(theta(float(space.distance(w.x, w.y)))) ** 0.5
        assert lhs == w.lhs
        assert rhs == w.rhs

    def test_worst_pair_replay_finite(self):
        b = build_example_final()
        cert = check_theta_phi_contraction(
            pair_set(carrier_sample(b.space), b.selfmap, 3.0, b.theta), b.phi)
        w = cert.worst_pair
        tx = b.selfmap.apply_label(b.space, w.x)
        ty = b.selfmap.apply_label(b.space, w.y)
        lhs = float(b.theta(3.0 * 3.0 * b.space.distance_value(tx, ty)))
        rhs = float(b.phi(float(b.theta(b.space.distance(w.x, w.y)))))
        assert lhs == w.lhs
        assert rhs == w.rhs


class TestPairNaming:
    # on [1, 2], d(x, y) = 0 exactly when x <= y, and T takes both grid ends
    # to 1.5: the four grid pairs are skipped, so every witness is a random pair
    SPACE = "if(x < y, 0, x - y)"
    MAP = "1.5 + (x - 1) * (2 - x)"
    GRID, SAMPLE = 2, dict(random_pairs=50, seed=3)

    def test_grid_pairs_then_random_pairs(self):
        space = AnalyticSpace.build(1.0, 2.0, self.SPACE)
        selfmap, theta = SelfMap.from_expression(self.MAP), builtin_theta("exp-sqrt")
        rng = np.random.default_rng(3)
        xs, ys = rng.uniform(1.0, 2.0, 50), rng.uniform(1.0, 2.0, 50)
        want = [(x, y) for x in (1.0, 2.0) for y in (1.0, 2.0)]
        want += list(zip(xs.tolist(), ys.tolist()))
        pairs = pair_set(carrier_sample(space, self.GRID), selfmap, 1.0, theta, **self.SAMPLE)
        cert = check_theta_contraction(pairs, 0.5)
        assert [pairs.pair(k) for k in range(54)] == want and cert.pairs_total == 54
        image = {v: selfmap.apply_value(space, v) for pair in want for v in pair}
        assert pairs.d_pre.tolist() == [space.distance(x, y) for x, y in want]
        assert pairs.d_img.tolist() == [space.distance(image[x], image[y]) for x, y in want]

        verdicts = pair_verdicts(pairs, np.power(pairs.th_pre, 0.5))
        assert verdicts[:4] == ["skipped"] * 4
        assert cert.domain_violation == want[verdicts.index("domain")]
        slack = np.where(pairs.checked, np.power(pairs.th_pre, 0.5) - pairs.th_img, np.inf)
        w = cert.worst_pair
        assert (w.x, w.y) == want[int(np.argmin(slack))]

        bound = best_exponent(pairs)
        with np.errstate(all="ignore"):  # unchecked pairs may give 0 / 0
            ratio = np.log(theta(pairs.d_img)) / np.log(theta(pairs.d_pre))
        ratio = np.where(pairs.checked, ratio, 0.0)
        assert bound.witness == want[int(np.argmax(ratio))]
        assert bound.domain_violation == cert.domain_violation


class TestPairPassPrecedence:
    # the carrier table is read before the map is applied
    def test_analytic_table_error_before_a_map_leaving_the_domain(self):
        space = AnalyticSpace.build(1.0, 2.0, "(x - y)^2 + 0 * ln(x - y + 0.5)")
        with pytest.raises(EvalError) as err:
            pair_set(carrier_sample(space), SelfMap.from_expression("x - 5"), 1.0)
        assert str(err.value) == "ln of a non-positive value in 'ln(x - y + 0.5)'"

    def test_finite_undefined_pair_before_a_failing_map(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], None, {("a", "b"): 1.0})
        with pytest.raises(SpaceError) as err:
            pair_set(carrier_sample(space), SelfMap.from_expression("sqrt(0.5 - x)"), 1.0)
        assert str(err.value) == (
            "no override for ('b', 'a') and the space has no default formula"
        )


class TestSharedPairSet:
    """A pair set is built once and read by any number of operations: the map
    and theta are evaluated by ``pair_set`` only."""

    GRID, SAMPLE = 11, {"random_pairs": 50, "seed": 3}

    @pytest.fixture
    def calls(self, monkeypatch):
        nodes = []
        evaluate = rqbm.expr.evaluate

        def recording(node, bindings):
            nodes.append(node)
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", recording)
        return nodes

    def test_the_operations_evaluate_nothing_again(self, calls):
        b = build_example_sqrt("sqrt")
        pairs = pair_set(carrier_sample(b.space, self.GRID), b.selfmap, 2.0, b.theta,
                         **self.SAMPLE)
        assert b.selfmap.expr in calls and b.theta.expr in calls
        before = len(calls)
        check_theta_contraction(pairs, 0.5)
        best_exponent(pairs)
        check_linear_contraction(pairs, 0.5)
        assert len(calls) == before

    def test_the_set_is_read_only(self):
        b = build_example_sqrt("sqrt")
        pairs = pair_set(carrier_sample(b.space, self.GRID), b.selfmap, 2.0, b.theta,
                         **self.SAMPLE)
        cert = check_theta_contraction(pairs, 0.5)
        for name in ("xs", "ys", "d_img", "d_pre", "skipped", "checked", "th_img", "th_pre",
                     "ratio"):
            with pytest.raises(ValueError):
                getattr(pairs, name)[0] = 0
        with pytest.raises(AttributeError):
            pairs.s = 3.0
        assert check_theta_contraction(pairs, 0.5) == cert

    def test_a_linear_check_ignores_the_theta_mask(self):
        # d(a, b) = 0 < d(Ta, Tb): a domain violation for theta, not for the linear form
        space = FiniteSpace.build(
            [("a", 0.0), ("b", 1.0), ("c", 2.0)],
            None,
            {
                ("a", "b"): 0.0, ("b", "a"): 0.0,
                ("a", "c"): 1.0, ("c", "a"): 1.0,
                ("b", "c"): 1.0, ("c", "b"): 1.0,
            },
        )
        broken = SelfMap.from_table({"a": "a", "b": "c", "c": "c"})
        with_theta = pair_set(carrier_sample(space), broken, 1.0, builtin_theta("exp-sqrt"))
        assert best_exponent(with_theta).domain_violation == ("a", "b")
        cert = check_linear_contraction(with_theta, 0.5)
        plain = check_linear_contraction(pair_set(carrier_sample(space), broken, 1.0), 0.5)
        assert cert.domain_violation is None and cert.max_ratio == math.inf
        assert to_json(cert) == to_json(plain)


def pair_verdicts(pairs, rhs, tol=1e-9):
    """Per pair of a set built with theta, read from its arrays: skipped,
    domain, violation (th_img above ``rhs`` + tol) or satisfied."""
    return ["skipped" if pairs.skipped[k] else "domain" if not pairs.checked[k]
            else "violation" if pairs.th_img[k] > rhs[k] + tol else "satisfied"
            for k in range(pairs.d_img.size)]


def oracle_pairs(labels, dist, image, s, theta, rhs_of):
    """Per-pair reference in (x, y) label order: (pair, status, lhs, rhs, ratio).

    With a theta (a closed form), a pair with d(x,y) = 0 < d(Tx,Ty) is a
    domain violation and ``rhs_of`` maps theta(d(x,y)) to the rhs; without
    one it is the linear form and ``rhs_of`` maps d(x,y) to the rhs.
    """
    rows = []
    for x in labels:
        for y in labels:
            d_img = np.float64(dist(image[x], image[y]))
            d_pre = np.float64(dist(x, y))
            if d_img == 0.0:
                rows.append(((x, y), "skipped", None, None, 0.0))
            elif theta is not None and d_pre == 0.0:
                rows.append(((x, y), "domain", None, None, 0.0))
            elif theta is not None:
                lhs, th_pre = theta(s * s * d_img), theta(d_pre)
                num, den = np.log(lhs), np.log(th_pre)
                ratio = (num / den if den > 0 else math.inf) if num > 0 else 0.0
                rows.append(((x, y), "checked", lhs, rhs_of(th_pre), ratio))
            else:
                lhs = s * s * d_img
                ratio = math.inf if d_pre == 0.0 else lhs / d_pre
                rows.append(((x, y), "checked", lhs, rhs_of(d_pre), ratio))
    return rows


def assert_matches_oracle(cert, pairs, lhs, rhs, rows, tol=1e-9):
    """``cert``, and pair by pair the set's names, masks and the form's sides
    ``lhs`` and ``rhs`` (computed from the set's arrays), against the oracle."""
    checked = [r for r in rows if r[1] == "checked"]
    violated = [r for r in checked if r[2] > r[3] + tol]
    domain = [r[0] for r in rows if r[1] == "domain"]
    assert cert.pairs_total == len(rows)
    assert cert.pairs_checked == len(checked)
    assert cert.pairs_skipped == sum(r[1] == "skipped" for r in rows)
    assert cert.violation_count == len(violated)
    assert cert.domain_violation == (domain[0] if domain else None)
    assert cert.verdict == ("fail" if violated or domain else "pass")
    assert cert.max_ratio == max(r[4] for r in rows)
    if checked:
        worst = min(checked, key=lambda r: r[3] - r[2])  # min keeps the first of ties
        w = cert.worst_pair
        assert ((w.x, w.y), w.lhs, w.rhs, w.slack) == (
            worst[0], worst[2], worst[3], worst[3] - worst[2]
        )
    else:
        assert cert.worst_pair is None
    for k, (pair, status, want_lhs, want_rhs, _) in enumerate(rows):
        assert pairs.pair(k) == pair
        assert (pairs.skipped[k], pairs.checked[k]) == (status == "skipped", status == "checked")
        if status == "checked":
            assert (lhs[k], rhs[k]) == (want_lhs, want_rhs)


class TestPairPassOracle:
    @given(
        st.integers(min_value=2, max_value=6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n),
                st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
            )
        ),
        st.sampled_from([1.0, 1.5, 2.0]),
        st.sampled_from([0.3, 0.5, 0.8]),
        st.sampled_from(sorted(THETA_FORMS)),
        st.sampled_from(sorted(PHI_FORMS)),
    )
    def test_every_operation_matches_per_pair_oracle(self, data, s, r, theta_name, phi_name):
        # small integer distances make pairs tie and d(x, y) = 0 occur off the diagonal
        table, targets = data
        n = len(targets)
        labels = [f"p{i}" for i in range(n)]
        overrides = {
            (a, b): float(table[i * n + j])
            for i, a in enumerate(labels)
            for j, b in enumerate(labels)
            if i != j
        }
        space = FiniteSpace.build([(a, float(i)) for i, a in enumerate(labels)], None, overrides)
        image = {a: labels[t] for a, t in zip(labels, targets)}
        selfmap = SelfMap.from_table(image)
        theta, phi = builtin_theta(theta_name), builtin_phi(phi_name)
        theta_form, phi_form = THETA_FORMS[theta_name], PHI_FORMS[phi_name]

        def dist(a, b):
            return overrides.get((a, b), 0.0)  # only the diagonal has no override

        def oracle(form, rhs_of):
            return oracle_pairs(labels, dist, image, s, form, rhs_of)

        sample = carrier_sample(space)
        pairs, plain = pair_set(sample, selfmap, s, theta), pair_set(sample, selfmap, s)
        theta_rows = oracle(theta_form, lambda th: np.power(th, r))
        assert_matches_oracle(
            check_theta_contraction(pairs, r),
            pairs, pairs.th_img, np.power(pairs.th_pre, r), theta_rows,
        )
        assert_matches_oracle(
            check_theta_phi_contraction(pairs, phi),
            pairs, pairs.th_img, phi(pairs.th_pre), oracle(theta_form, phi_form),
        )
        linear = check_linear_contraction(plain, r)
        assert_matches_oracle(
            linear, plain, s * s * plain.d_img, r * plain.d_pre, oracle(None, lambda d: r * d),
        )
        assert check_linear_contraction(pairs, r) == linear  # theta's mask is not the linear one

        bound = best_exponent(pairs)
        checked = [row for row in theta_rows if row[1] == "checked"]
        domain = [row[0] for row in theta_rows if row[1] == "domain"]
        assert bound.pairs_checked == len(checked)
        assert bound.pairs_skipped == sum(row[1] == "skipped" for row in theta_rows)
        assert bound.domain_violation == (domain[0] if domain else None)
        if checked:
            top = max(theta_rows, key=lambda row: row[4])  # max keeps the first of ties
            assert bound.value == top[4]
            assert bound.witness == (top[0] if top[1] == "checked" else None)
        else:
            assert (bound.value, bound.witness) == (0.0, None)
        assert bound.feasible == (not domain and bound.value < 1.0)


class TestNanCoefficientRefused:
    def test_pair_pass(self, fourth_bundle):
        b = fourth_bundle
        for theta in (None, b.theta):
            with pytest.raises(ValueError, match=r"^coefficient s must be >= 1, got nan$"):
                pair_set(carrier_sample(b.space), b.selfmap, math.nan, theta)
