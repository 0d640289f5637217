import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rqbm.expr as ex
from rqbm.contraction import MapError, MapRangeError, SelfMap, check_theta_contraction, pair_set
from rqbm.expr import EvalError, parse
from rqbm.instances import build_example_final, build_example_sqrt
from rqbm.solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_SOLVE_TOL,
    PicardTrace,
    _iterate,
    cauchy_diagnostics,
    limit_sandwich_check,
    picard_iterate,
    uniqueness_scan,
    verify_fixed_point,
)
from rqbm.spaces import (
    AnalyticSpace,
    FiniteSpace,
    SpaceError,
    UnknownLabelError,
    _formula_distance,
    carrier_sample,
)


def two_point(d_ab=1.0, d_ba=1.0):
    return FiniteSpace.build(
        [("a", 0.0), ("b", 1.0)], None, {("a", "b"): d_ab, ("b", "a"): d_ba}
    )


@pytest.fixture(scope="module")
def sqrt_bundle():
    return build_example_sqrt("sqrt")


@pytest.fixture(scope="module")
def final_bundle():
    return build_example_final()


class TestPicardIterate:
    def test_sqrt_from_two(self, sqrt_bundle):
        trace = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, tol=1e-9)
        assert trace.terminated_by == "tolerance"
        assert trace.steps <= 40
        assert abs(trace.limit - 1.0) < 1e-8
        # regression pin for the deterministic run
        assert trace.steps == 30

    def test_fixed_start_terminates_immediately(self):
        space = two_point()
        to_a = SelfMap.from_table({"a": "a", "b": "a"})
        trace = picard_iterate(space, to_a, "a")
        assert trace.terminated_by == "exact_fixed_point"
        assert trace.steps == 1
        assert trace.fwd_step == (0.0,)
        assert trace.limit_label == "a"

    def test_final_example_from_table_start(self, final_bundle):
        trace = picard_iterate(final_bundle.space, final_bundle.selfmap, "1/3")
        assert trace.terminated_by == "exact_fixed_point"
        assert trace.steps == 2
        assert trace.limit == 1.0
        assert trace.limit_label == "1"
        assert trace.values[1] == 1.0  # the whole table part maps straight to 1

    def test_exact_termination_is_bit_stable(self, final_bundle):
        # one more application of the map reproduces the limit exactly
        for start in final_bundle.space.labels[:4]:
            trace = picard_iterate(final_bundle.space, final_bundle.selfmap, start)
            assert trace.terminated_by == "exact_fixed_point"
            again = final_bundle.selfmap.apply_value(final_bundle.space, trace.limit)
            assert again == trace.limit

    def test_swap_cycle_detected(self):
        space = two_point()
        swap = SelfMap.from_table({"a": "b", "b": "a"})
        trace = picard_iterate(space, swap, "a")
        assert trace.terminated_by == "cycle_detected"
        assert trace.limit is None
        assert trace.values == (0.0, 1.0, 0.0)

    def test_iterates_follow_the_map(self, sqrt_bundle):
        trace = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, tol=1e-9)
        for a, b in zip(trace.values, trace.values[1:]):
            assert b == math.sqrt(a)

    def test_unknown_start_label(self, final_bundle):
        with pytest.raises(UnknownLabelError):
            picard_iterate(final_bundle.space, final_bundle.selfmap, "9/7")

    def test_start_outside_domain(self, sqrt_bundle):
        with pytest.raises(ValueError):
            picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 5.0)

    def test_determinism(self, sqrt_bundle):
        a = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0)
        b = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0)
        assert a.values == b.values
        assert a.fwd_step == b.fwd_step
        assert a.terminated_by == b.terminated_by

    def test_max_iter_reached(self, sqrt_bundle):
        trace = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, max_iter=3, tol=1e-15)
        assert trace.terminated_by == "max_iter"
        assert trace.steps == 3
        assert trace.limit is None

    def test_series_lengths(self, sqrt_bundle):
        trace = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, tol=1e-9)
        n = trace.steps
        assert len(trace.values) == n + 1
        assert len(trace.bwd_step) == n
        assert len(trace.fwd_skip) == n - 1
        assert len(trace.bwd_skip) == n - 1


class TestCauchyDiagnostics:
    def test_sqrt_trace_all_decreasing(self, sqrt_bundle):
        trace = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, tol=1e-10)
        diag = cauchy_diagnostics(trace, tol=1e-9)
        assert diag.passed
        for s in diag.series:
            assert s.monotone and s.tail_ok

    def test_constant_map_trace(self, sqrt_bundle):
        const = SelfMap.from_expression("x * 0 + 1.5")
        trace = picard_iterate(sqrt_bundle.space, const, 2.0)
        # 2.0 -> 1.5 -> 1.5: forward steps (0.25, 0.0); every series is
        # monotone, but the one-entry skip series has no room to decay
        assert trace.terminated_by == "exact_fixed_point"
        diag = cauchy_diagnostics(trace)
        for s in diag.series:
            assert s.monotone
        assert diag.series[0].tail_ok and diag.series[1].tail_ok
        assert diag.series[2].tail_value == 0.25
        assert not diag.series[2].tail_ok

    def test_all_zero_series_vacuous_pass(self, sqrt_bundle):
        trace = PicardTrace(
            space=sqrt_bundle.space,
            selfmap=SelfMap.from_expression("x"),
            values=(1.0, 1.0, 1.0),
            labels=(None, None, None),
            fwd_step=(0.0, 0.0),
            bwd_step=(0.0, 0.0),
            fwd_skip=(0.0,),
            bwd_skip=(0.0,),
            terminated_by="exact_fixed_point",
            limit=1.0,
            limit_label=None,
            tol=1e-10,
        )
        diag = cauchy_diagnostics(trace)
        assert diag.passed

    def test_cycle_flagged_as_non_decreasing(self):
        space = two_point()
        swap = SelfMap.from_table({"a": "b", "b": "a"})
        trace = picard_iterate(space, swap, "a")
        diag = cauchy_diagnostics(trace)
        assert not diag.passed
        fwd = diag.series[0]
        assert not fwd.monotone
        assert fwd.first_violation == 1

    def test_short_trace_rejected(self):
        space = two_point()
        to_a = SelfMap.from_table({"a": "a", "b": "a"})
        trace = picard_iterate(space, to_a, "a")
        with pytest.raises(ValueError):
            cauchy_diagnostics(trace)


class TestVerifyFixedPoint:
    def test_sqrt_fixed_point(self, sqrt_bundle):
        verdict = verify_fixed_point(sqrt_bundle.space, sqrt_bundle.selfmap, 1.0, 1e-12)
        assert verdict.verified
        assert verdict.fwd_residual == 0.0 and verdict.bwd_residual == 0.0

    def test_final_example_fixed_point(self, final_bundle):
        verdict = verify_fixed_point(final_bundle.space, final_bundle.selfmap, 1.0, 1e-12)
        assert verdict.verified

    def test_not_fixed_at_two(self, sqrt_bundle):
        verdict = verify_fixed_point(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, 1e-12)
        assert not verdict.verified
        # d(Tz, z) = d(sqrt 2, 2) takes the halved increasing branch
        assert verdict.fwd_residual == 0.5 * (2.0 - math.sqrt(2.0)) ** 2
        assert verdict.bwd_residual == (2.0 - math.sqrt(2.0)) ** 2
        assert abs(verdict.bwd_residual - 0.343146) < 1e-6


class TestUniquenessScan:
    def test_sqrt_grid_starts(self, sqrt_bundle):
        starts = [float(v) for v in np.linspace(1.0, 2.0, 21)]
        report = uniqueness_scan(sqrt_bundle.space, sqrt_bundle.selfmap, starts)
        assert report.passed
        assert abs(report.representative - 1.0) < 1e-8
        assert not report.non_converged

    def test_final_example_all_labels(self, final_bundle):
        report = uniqueness_scan(
            final_bundle.space, final_bundle.selfmap, list(final_bundle.space.labels),
            tol=1e-10, merge_tol=1e-8,
        )
        assert report.passed
        assert report.representative == 1.0
        assert report.max_mutual_distance <= 1e-8

    def test_identity_map_two_fixed_points(self):
        space = two_point()
        ident = SelfMap.from_table({"a": "a", "b": "b"})
        report = uniqueness_scan(space, ident, ["a", "b"])
        assert not report.passed
        assert len(report.limits) == 2

    def test_empty_starts_rejected(self, sqrt_bundle):
        with pytest.raises(ValueError):
            uniqueness_scan(sqrt_bundle.space, sqrt_bundle.selfmap, [])


class TestLimitSandwich:
    def test_sqrt_trace_observer_two(self, sqrt_bundle):
        trace = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, tol=1e-10)
        report = limit_sandwich_check(trace, 2.0, 2.0, 10)
        assert report.passed
        # forward reference d(limit, 2) uses the cheap increasing branch
        assert abs(report.fwd_reference - 0.5) < 1e-9
        assert abs(report.bwd_reference - 1.0) < 1e-8

    def test_observer_equal_to_limit_rejected(self, sqrt_bundle):
        trace = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, tol=1e-10)
        with pytest.raises(ValueError):
            limit_sandwich_check(trace, trace.limit, 2.0, 5)

    def test_non_converged_trace_rejected(self, sqrt_bundle):
        trace = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, max_iter=2, tol=1e-15)
        with pytest.raises(ValueError):
            limit_sandwich_check(trace, 2.0, 2.0, 2)

    def test_degenerate_band_in_symmetric_space(self):
        space = AnalyticSpace.build(0.0, 2.0, "abs(x - y)")
        affine = SelfMap.from_expression("0.5 * x + 0.5")
        trace = picard_iterate(space, affine, 2.0)
        report = limit_sandwich_check(trace, 0.0, 1.0, 3)
        assert report.passed
        assert abs(report.fwd_tail_min - report.fwd_reference) < 1e-9
        assert abs(report.fwd_tail_max - report.fwd_reference) < 1e-9


class TestCertifiedContractionConsequences:
    def test_certified_map_converges_and_verifies(self):
        b = build_example_sqrt("fourth_root")
        cert = check_theta_contraction(
            pair_set(carrier_sample(b.space, 30), b.selfmap, 2.0, b.theta, random_pairs=1000), 0.5
        )
        assert cert.verdict == "pass"
        tol = 1e-10
        for start in (1.0, 1.3, 2.0):
            trace = picard_iterate(b.space, b.selfmap, start, tol=tol)
            assert trace.converged
            verdict = verify_fixed_point(b.space, b.selfmap, trace.limit, 10 * tol)
            assert verdict.verified

    def test_strict_decrease_while_positive(self):
        b = build_example_sqrt("fourth_root")
        trace = picard_iterate(b.space, b.selfmap, 2.0, tol=1e-10)
        for prev, nxt in zip(trace.fwd_step, trace.fwd_step[1:]):
            if prev > 0:
                assert nxt < prev

    def test_uniqueness_for_certified_map(self):
        b = build_example_sqrt("fourth_root")
        report = uniqueness_scan(
            b.space, b.selfmap, [float(v) for v in np.linspace(1.0, 2.0, 5)]
        )
        assert report.passed


# --------------------------------------------------------------------------
# independent oracle: scalar Picard from the overrides and scalar evaluation
# --------------------------------------------------------------------------

def ref_label(space, v):
    if isinstance(space, AnalyticSpace):
        return None
    return dict(zip(space.values.tolist(), space.labels)).get(v)


def ref_distance(space, a, b):
    """d(a, b) from the overrides plus scalar calls of the formula."""
    if isinstance(space, AnalyticSpace):
        d = ex.evaluate(space.formula, {"x": a, "y": b})
    else:
        if a == b:
            return 0.0
        la, lb = ref_label(space, a), ref_label(space, b)
        if la is not None and lb is not None and (la, lb) in space.overrides:
            return space.overrides[(la, lb)]
        if space.default_formula is None:
            if la is not None and lb is not None:
                raise SpaceError(
                    f"no override for ({la!r}, {lb!r}) and the space has no default formula"
                )
            raise SpaceError(
                "value lies outside the labeled carrier and no default formula exists"
            )
        d = ex.evaluate(space.default_formula, {"x": a, "y": b})
    if d < 0.0:
        raise SpaceError(f"distance ({a!r}, {b!r}) = {d!r} must be finite and >= 0")
    return d


def ref_map(space, selfmap, v):
    if isinstance(space, AnalyticSpace):
        out = ex.evaluate(selfmap.expr, {"x": v})
        if not space.lo <= out <= space.hi:
            raise MapRangeError(f"map image {out!r} of {v!r} leaves [{space.lo}, {space.hi}]")
        return out
    label = ref_label(space, v)
    if label is not None and selfmap.table and label in selfmap.table:
        target = selfmap.table[label]
        return space.value_of(target) if isinstance(target, str) else float(target)
    if selfmap.expr is None:
        what = f"label {label!r}" if label is not None else f"value {v!r}"
        raise MapError(f"map has no rule for {what}")
    return ex.evaluate(selfmap.expr, {"x": v if label is None else space.value_of(label)})


def ref_picard(space, selfmap, x0, max_iter, tol):
    """The iteration one start and one scalar step at a time."""
    selfmap.check_total(space)
    finite = isinstance(space, FiniteSpace)
    if isinstance(x0, str):
        x = space.value_of(x0)
    elif finite and ref_label(space, x0) is None and space.default_formula is None:
        raise UnknownLabelError(f"start value {x0!r} matches no labeled point")
    elif not finite and not space.contains(x0):
        raise ValueError(f"start {x0!r} outside [{space.lo}, {space.hi}]")
    else:
        x = x0
    values, labels = [x], [ref_label(space, x)]
    fwd, bwd, fwd_skip, bwd_skip = [], [], [], []
    seen = {labels[0] if labels[0] is not None else x}
    terminated, limit = "max_iter", None
    for _ in range(max_iter):
        xn = ref_map(space, selfmap, x)
        values.append(xn)
        labels.append(ref_label(space, xn))
        fwd.append(ref_distance(space, x, xn))
        bwd.append(ref_distance(space, xn, x))
        if len(values) >= 3:
            fwd_skip.append(ref_distance(space, values[-3], xn))
            bwd_skip.append(ref_distance(space, xn, values[-3]))
        key = labels[-1] if labels[-1] is not None else xn
        if fwd[-1] == 0.0:
            terminated, limit = "exact_fixed_point", xn
            break
        if finite and key in seen:
            terminated = "cycle_detected"
            break
        seen.add(key)
        if max(fwd[-1], bwd[-1]) < tol and abs(xn - x) < tol:
            terminated, limit = "tolerance", xn
            break
        x = xn
    return (values, labels, fwd, bwd, fwd_skip, bwd_skip, terminated, limit,
            ref_label(space, limit) if limit is not None else None, tol)


def bits(obj):
    """Floats by their bits (the sign of zero included), sequences element-wise."""
    if isinstance(obj, float):
        return float.hex(obj)
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    return obj


def trace_fields(trace):
    return (trace.values, trace.labels, trace.fwd_step, trace.bwd_step, trace.fwd_skip,
            trace.bwd_skip, trace.terminated_by, trace.limit, trace.limit_label, trace.tol)


def outcome(fn, *args):
    """What a call returns, bit for bit, or the type and text of what it raises."""
    try:
        return "ok", bits(fn(*args))
    except Exception as e:  # noqa: BLE001 - the error itself is compared
        return type(e).__name__, str(e)


_VALUES = [0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
_MAPS = ["x / 2 + 0.5", "2 - x", "x * x / 2", "sqrt(x + 1) - 0.5", "0 * x + 0.75",
         "(x + 1) / 2", "sqrt(0.9 - x)", "-x"]
_FORMULAS = [None, "(x - y)^2", "abs(x - y)", "if(x > y, x - y, 2 * (y - x))"]
_MAX_ITER = [1, 2, 3, DEFAULT_MAX_ITER]


@st.composite
def finite_cases(draw):
    n = draw(st.integers(2, 7))
    values = draw(st.lists(st.sampled_from(_VALUES), min_size=n, max_size=n, unique=True))
    labels = [f"p{i}" for i in range(n)]
    pairs = [(a, b) for a in labels for b in labels if a != b]
    formula = draw(st.sampled_from(_FORMULAS))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=len(pairs))) if formula else pairs
    if formula is None and draw(st.booleans()):
        chosen = chosen[1:]  # one pair left undefined
    overrides = {p: draw(st.sampled_from([0.25, 0.5, 1.0, 2.0])) for p in chosen}
    space = FiniteSpace.build(list(zip(labels, values)), formula, overrides)
    kind = draw(st.sampled_from(["table", "expression", "hybrid"]))
    expression = draw(st.sampled_from(_MAPS))
    covered = labels if kind == "table" else draw(st.lists(st.sampled_from(labels), unique=True))
    targets = labels + [0.125, 0.6]  # raw values off the carrier
    table = {a: draw(st.sampled_from(targets)) for a in covered}
    selfmap = {"table": lambda: SelfMap.from_table(table),
               "expression": lambda: SelfMap.from_expression(expression),
               "hybrid": lambda: SelfMap.hybrid(table, expression)}[kind]()
    # -0.0 names the point at 0.0 when there is one, and the map reads that point's value
    starts = draw(st.lists(st.sampled_from(labels + [0.125, 0.6, -0.0]), min_size=1, max_size=5))
    return space, selfmap, starts


# below 1.25 the map converges to 1.02, so a start ends by tolerance or by
# max_iter; above, it swaps x with 3.03125 - x, half a grid step off the carrier
_MIXED = "if(x < 1.25, x / 2 + 0.51, 3.03125 - x)"
_NEAR = 1.02 + 2.0 ** -40  # a table target within tol of that limit


@st.composite
def many_start_cases(draw):
    """10 to 40 points on a 1/16 grid, every label a start.  At max_iter 3
    or 5 one scan ends starts at an exact fixed point, in a label cycle, in an
    unlabeled cycle (through 1.3 and 1.73125), by tolerance (through the target
    next to 1.02) and by max_iter; at 40 and up every start converges or cycles."""
    n = draw(st.integers(10, 40))
    values = draw(st.lists(st.sampled_from([k / 16 for k in range(41)]), min_size=n,
                           max_size=n, unique=True))
    labels = [f"p{i}" for i in range(n)]
    space = FiniteSpace.build(list(zip(labels, values)), draw(st.sampled_from(_FORMULAS[1:])))
    fixed, a, b, loose, near, *rest = draw(st.permutations(labels))
    table = {fixed: fixed, a: b, b: a, loose: 1.3, near: _NEAR}
    for c in draw(st.lists(st.sampled_from(rest), unique=True)):
        table[c] = draw(st.sampled_from(labels + [_NEAR, 1.3, 0.6]))
    return space, SelfMap.hybrid(table, _MIXED), labels


@st.composite
def analytic_cases(draw):
    lo = draw(st.sampled_from([0.0, 1.0]))
    space = AnalyticSpace.build(lo, lo + 1.0, draw(st.sampled_from(_FORMULAS[1:])))
    a = draw(st.sampled_from([-0.5, 0.0, 0.25, 0.5, 0.9, 1.0]))
    c = draw(st.sampled_from([0.0, 0.3, 0.5, 1.0]))  # a few of these leave the domain
    affine = f"{a} * (x - {lo}) + {lo + c}"
    source = draw(st.sampled_from([affine, affine, affine, f"sqrt(x - {lo + c})"]))
    grid = [lo + k / 8 for k in range(9)] + [lo + 1.5]  # the last one is outside
    starts = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=5))
    return space, SelfMap.from_expression(source), starts


class TestLockstepOracle:
    def check(self, space, selfmap, starts, max_iter):
        tol = DEFAULT_SOLVE_TOL
        refs = [outcome(ref_picard, space, selfmap, s0, max_iter, tol) for s0 in starts]
        for s0, want in zip(starts, refs):
            got = outcome(lambda: trace_fields(picard_iterate(space, selfmap, s0, max_iter, tol)))
            assert got == want
        failed = [r for r in refs if r[0] != "ok"]
        got = outcome(lambda: uniqueness_scan(space, selfmap, starts, max_iter, tol).to_dict())
        if failed:  # the first start that fails raises its own error
            assert got == failed[0]
            return
        ends = [(s0, fields[6], fields[7]) for s0, (_, fields) in zip(starts, refs)]
        converged = ("exact_fixed_point", "tolerance")
        limits = [(s0, end, float.fromhex(lim)) for s0, end, lim in ends if end in converged]
        stray = [[s0, end] for s0, end, _ in ends if end not in converged]
        assert got[0] == "ok"
        report = got[1]
        assert report["limits"] == bits([list(l) for l in limits])
        assert report["non_converged"] == bits(stray)
        if not limits:
            assert (report["passed"], report["representative"]) == (False, None)
            return
        rep = limits[0][2]
        worst, ok = 0.0, True
        for _, _, lim in limits:
            d1, d2 = ref_distance(space, rep, lim), ref_distance(space, lim, rep)
            worst = max(worst, d1, d2)
            ok = ok and d1 <= 100.0 * tol and d2 <= 100.0 * tol
        assert (report["passed"], report["max_mutual_distance"]) == (ok, bits(worst))

    @settings(max_examples=150)
    @given(finite_cases(), st.sampled_from(_MAX_ITER))
    def test_finite_spaces_match_scalar_reference(self, case, max_iter):
        self.check(*case, max_iter)

    @settings(max_examples=30, deadline=None)
    @given(many_start_cases(), st.sampled_from([1, 2, 3, 5, 40, DEFAULT_MAX_ITER]))
    def test_many_starts_match_scalar_reference(self, case, max_iter):
        self.check(*case, max_iter)

    @settings(max_examples=150)
    @given(analytic_cases(), st.sampled_from(_MAX_ITER))
    def test_analytic_spaces_match_scalar_reference(self, case, max_iter):
        self.check(*case, max_iter)

    def test_signed_zero_start_maps_the_point_value(self):
        # -0.0 names the point at 0.0, so the map reads 0.0 and -x gives -0.0
        space = FiniteSpace.build([("z", 0.0), ("a", 1.0)], "(x - y)^2")
        selfmap = SelfMap.from_expression("-x")
        self.check(space, selfmap, [-0.0, "a", 0.0], DEFAULT_MAX_ITER)
        assert bits(picard_iterate(space, selfmap, -0.0).values) == bits((-0.0, -0.0))

    def test_unlabeled_two_cycle_off_the_carrier(self):
        # 0.55 and 1.45 both lie between the 40 grid points, and 2 - x swaps them
        b = build_example_final(40)
        selfmap = SelfMap.from_expression("2 - x")
        self.check(b.space, selfmap, [0.55, *b.space.labels], DEFAULT_MAX_ITER)
        trace = picard_iterate(b.space, selfmap, 0.55)
        assert (trace.terminated_by, trace.labels) == ("cycle_detected", (None, None, None))
        assert trace.values == (0.55, 2 - 0.55, 0.55)

    def test_earlier_start_failing_later_raises_first(self):
        # 1.8 leaves the domain in the first round, 1.0 only in the fourth
        space = AnalyticSpace.build(1.0, 2.0, "(x - y)^2")
        selfmap = SelfMap.from_expression("x + 0.3")
        with pytest.raises(MapRangeError) as err:
            uniqueness_scan(space, selfmap, [1.0, 1.8])
        assert str(err.value) == "map image 2.2 of 1.9000000000000001 leaves [1.0, 2.0]"

    def test_finite_earlier_start_failing_later_raises_first(self):
        # from 0.6 the map first reads sqrt(-0.1); from 0.125 it first succeeds
        space = FiniteSpace.build([("a", 0.125), ("b", 0.6)], "(x - y)^2")
        selfmap = SelfMap.from_expression("sqrt(0.5 - x) * 2")
        with pytest.raises(EvalError) as want:
            picard_iterate(space, selfmap, "a")
        with pytest.raises(EvalError) as got:
            uniqueness_scan(space, selfmap, ["a", "b"])
        assert str(got.value) == str(want.value)
        assert "sample index" not in str(got.value)

    def test_scan_makes_one_array_call_per_series_and_round(self, monkeypatch):
        b = build_example_final(400)
        calls = []
        evaluate = ex.evaluate

        def counting(node, bindings):
            calls.append(node)
            return evaluate(node, bindings)

        monkeypatch.setattr(ex, "evaluate", counting)
        report = uniqueness_scan(b.space, b.selfmap, list(b.space.labels))
        assert report.passed
        # one start at a time, the scan makes about 23,000 scalar calls
        assert len(calls) <= 100


class TestSandwichNanCoefficient:
    def test_refused(self, sqrt_bundle):
        trace = picard_iterate(sqrt_bundle.space, sqrt_bundle.selfmap, 2.0, tol=1e-10)
        with pytest.raises(ValueError, match="coefficient s must be >= 1"):
            limit_sandwich_check(trace, 2.0, math.nan, 10)


# --------------------------------------------------------------------------
# failing starts: the lock-step against one run per start
# --------------------------------------------------------------------------

def by_start(space, selfmap, starts, max_iter):
    """The traces of one ``picard_iterate`` per start, in start order: the
    first start that fails on its own raises its error."""
    return [trace_fields(picard_iterate(space, selfmap, s0, max_iter)) for s0 in starts]


def lockstep(space, selfmap, starts, max_iter):
    return [trace_fields(t) for t in _iterate(space, selfmap, starts, max_iter,
                                              DEFAULT_SOLVE_TOL)]


# On [0, 2] the first three maps climb by a fixed step until a guard sends
# them into a failing branch, so a start fails at a round its distance to the
# guard sets; the third halves starts below 0.5 toward its fixed point 0.
_CLIMBING = [
    "if(x > 1.6, sqrt(1.6 - x), x + 0.15)",  # an EvalError
    "if(x > 1.6, x + 0.5, x + 0.15)",  # a MapRangeError
    "if(x < 0.5, x / 2, if(x > 1.5, ln(1.5 - x), x + 0.2))",
    "if(x < 0.3, x + 1.6, x / 2 + 0.5)",  # a jump the ln distance refuses
    "x / 2 + 0.5",
    "2 - x",
]
# the second fails where y - x >= 1.5, and the fourth is negative where x > 1.9 > y
_CLIMBING_DISTANCES = [
    "abs(x - y)",
    "abs(x - y) + 0 * ln(x - y + 1.5)",
    "if(x >= y, x - y, 2 * (y - x))",
    "abs(x - y) * if(x > 1.9, if(y < 1.9, -1, 1), 1)",
]
_CLIMBING_ITER = [1, 2, 3, 5, 12, 40, 200]


@st.composite
def failing_analytic_cases(draw):
    space = AnalyticSpace.build(0.0, 2.0, draw(st.sampled_from(_CLIMBING_DISTANCES)))
    grid = [k / 8 for k in range(17)] + [0.1, 1.55]
    refused = [2.5, -1.0, "p0"]  # outside the interval, or a label
    starts = draw(st.lists(st.sampled_from(grid + refused), min_size=1, max_size=6))
    return space, SelfMap.from_expression(draw(st.sampled_from(_CLIMBING))), starts


@st.composite
def failing_hybrid_cases(draw):
    """Points on [0, 2] with a default formula; the table sends some labels to
    other labels or off the carrier, and the expression maps the rest."""
    n = draw(st.integers(3, 9))
    values = draw(st.lists(st.sampled_from([k / 8 for k in range(17)]), min_size=n,
                           max_size=n, unique=True))
    labels = [f"p{i}" for i in range(n)]
    points, formula = list(zip(labels, values)), draw(st.sampled_from(_CLIMBING_DISTANCES))
    try:
        space = FiniteSpace.build(points, formula)
    except (EvalError, SpaceError):  # the formula is left to the pairs off the carrier
        space = FiniteSpace.build(points, formula, {
            (a, b): abs(u - v) for a, u in points for b, v in points if a != b})
    covered = draw(st.lists(st.sampled_from(labels), unique=True, max_size=n - 1))
    table = {a: draw(st.sampled_from(labels + [0.1, 1.55])) for a in covered}
    selfmap = SelfMap.hybrid(table, draw(st.sampled_from(_CLIMBING)))
    starts = draw(st.lists(st.sampled_from(labels + [0.1, 1.55, "zz"]), min_size=1,
                           max_size=6))
    return space, selfmap, starts


class TestFailingStartsOracle:
    """A failing start ends the start list where it stands: the lock-step
    raises what the first start, in order, that fails on its own raises, and
    otherwise gives every start's trace."""

    def check(self, space, selfmap, starts, max_iter):
        want = outcome(by_start, space, selfmap, starts, max_iter)
        assert outcome(lockstep, space, selfmap, starts, max_iter) == want
        got = outcome(lambda: uniqueness_scan(space, selfmap, starts, max_iter).to_dict())
        assert got[0] == want[0]
        if want[0] != "ok":
            assert got == want

    @settings(max_examples=150, deadline=None)
    @given(failing_analytic_cases(), st.sampled_from(_CLIMBING_ITER))
    @example((AnalyticSpace.build(0.0, 2.0, "abs(x - y)"),
              SelfMap.from_expression(_CLIMBING[0]), [0.0, 1.5]), 40)
    @example((AnalyticSpace.build(0.0, 2.0, "abs(x - y)"),
              SelfMap.from_expression(_CLIMBING[1]), [1.5, 0.0, 2.5]), 40)
    def test_analytic_spaces_match_the_runs_by_start(self, case, max_iter):
        self.check(*case, max_iter)

    @settings(max_examples=150, deadline=None)
    @given(failing_hybrid_cases(), st.sampled_from(_CLIMBING_ITER))
    def test_hybrid_spaces_match_the_runs_by_start(self, case, max_iter):
        self.check(*case, max_iter)

    def test_later_start_failing_in_an_earlier_round(self):
        # 1.5 fails in round 2 and 0.0 in round 12: 0.0 runs on alone and raises
        space = AnalyticSpace.build(0.0, 2.0, "abs(x - y)")
        selfmap = SelfMap.from_expression("if(x > 1.6, ln(1.6 - x), x + 0.15)")
        with pytest.raises(EvalError) as want:
            picard_iterate(space, selfmap, 0.0)
        with pytest.raises(EvalError) as got:
            uniqueness_scan(space, selfmap, [0.0, 1.5])
        assert str(got.value) == str(want.value) == "ln of a non-positive value in 'ln(1.6 - x)'"

    @pytest.mark.parametrize("starts, error, message", [
        # 1.0 fails in round 4, after 1.8 in round 1 and 5.0 before round 1
        ([1.0, 5.0, 1.8], MapRangeError, "map image 2.2 of 1.9000000000000001 leaves [1.0, 2.0]"),
        ([1.8, 1.0, 5.0], MapRangeError, "map image 2.1 of 1.8 leaves [1.0, 2.0]"),
        ([5.0, 1.0], ValueError, "start 5.0 outside [1.0, 2.0]"),
        (["a", 1.8], UnknownLabelError, "analytic spaces take numeric starts"),
    ])
    def test_refused_start_ends_the_start_list(self, starts, error, message):
        space = AnalyticSpace.build(1.0, 2.0, "(x - y)^2")
        selfmap = SelfMap.from_expression("x + 0.3")
        with pytest.raises(error) as err:
            uniqueness_scan(space, selfmap, starts)
        assert str(err.value) == message
        assert outcome(by_start, space, selfmap, starts, DEFAULT_MAX_ITER) == (
            error.__name__, message)

    def test_failing_scan_of_1000_starts_runs_once(self, monkeypatch):
        # only the last start fails, in round 1: the other 999 run on together, in about
        # 35 rounds of five calls each, where a run per start would make over 2,000 calls
        space = AnalyticSpace.build(0.0, 2.0, "abs(x - y)")
        selfmap = SelfMap.from_expression("if(x >= 1.999, sqrt(1.9 - x) + 1, x / 2 + 0.5)")
        calls = []
        evaluate = ex.evaluate
        monkeypatch.setattr(ex, "evaluate", lambda node, b: calls.append(node) or evaluate(node, b))
        with pytest.raises(EvalError, match=r"^sqrt of a negative value in 'sqrt\(1.9 - x\)'$"):
            uniqueness_scan(space, selfmap, np.linspace(0.0, 2.0, 1000).tolist())
        assert len(calls) <= 400


# --------------------------------------------------------------------------
# the failure mask on the errors of array calls
# --------------------------------------------------------------------------

_LINE = FiniteSpace.build([("a", 0.0), ("b", 0.5), ("c", 1.0)], "abs(x - y)")
_BARE = FiniteSpace.build([("a", 0.0), ("b", 1.0)], None, {("b", "a"): 2.0})
_FORMULA_OFF = FiniteSpace.build(
    [("a", 0.0), ("b", 1.0)], "if(x > y, sqrt(x - y - 0.5), ln(y - x - 0.25) + 2)",
    {("a", "b"): 1.0, ("b", "a"): 1.0})
_SIGNED = FiniteSpace.build([("a", 0.0), ("b", 1.0)], "x - y", {("a", "b"): 1.0})
# fails where x <= 1.9 and y - x >= 0.5, and is negative where y < x > 1.9
_INTERVAL = AnalyticSpace.build(0.0, 2.0, "if(x > 1.9, y - x, (x - y)^2 + 0 * ln(x - y + 0.5))")


def _images(space, selfmap):
    return lambda xs: selfmap.apply_array(space, np.array(xs))


def _distances(space):
    return lambda a, b: space.distance_value(np.array(a), np.array(b))


# (the call, its arguments, the mask it must raise)
MASK_CASES = {
    "target-names-no-label": (
        _images(_LINE, SelfMap.from_table({"a": "b", "b": "yy", "c": "zz"})),
        ([0.0, 1.0, 0.5],), [False, True, True]),
    "no-rule-for-value": (_images(_LINE, SelfMap.from_table({"a": "b"})),
                          ([0.0, 0.25, 1.0],), [False, True, True]),
    "no-rule-for-label": (_images(_LINE, SelfMap.from_table({"a": "b"})),
                          ([0.0, 1.0, 0.25],), [False, True, True]),
    "no-expression": (_images(AnalyticSpace.build(0.0, 1.0, "abs(x - y)"),
                              SelfMap.from_table({})), ([0.5, 0.25],), [True, True]),
    "map-fails-past-the-table": (
        _images(_LINE, SelfMap.hybrid({"a": "b"}, "if(x > 0.75, sqrt(0.75 - x), ln(x - 0.25))")),
        ([0.0, 0.5, 1.0, 0.125],), [False, False, True, True]),
    "map-fails-at-an-unlabeled-value": (
        _images(_LINE, SelfMap.hybrid({"a": "b"}, "if(x > 0.75, sqrt(0.75 - x), ln(x - 0.25))")),
        ([0.0, 0.125, 0.5, 1.0],), [False, True, False, True]),
    "image-leaves-the-interval": (
        _images(AnalyticSpace.build(0.0, 1.0, "abs(x - y)"), SelfMap.from_expression("2 * x")),
        ([0.25, 0.75, 0.5, 1.0],), [False, True, False, True]),
    "no-override": (_distances(_BARE), ([0.0, 0.5, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]),
                    [True, True, False, True]),
    "off-the-carrier-without-a-formula": (
        _distances(_BARE), ([[0.5], [0.0]], [0.0, 1.0, 0.25]),
        [[True, True, True], [False, True, True]]),
    "default-formula-fails": (
        _distances(_FORMULA_OFF), ([[0.0], [0.75]], [1.0, 0.4, 0.5]),
        [[False, False, False], [True, True, True]]),
    "default-formula-is-negative": (
        _distances(_SIGNED), ([0.5, 0.25, 1.0, 0.0], [0.25, 0.5, 0.0, 0.75]),
        [False, True, False, True]),
    "formula-fails-first": (
        _distances(_INTERVAL), ([[0.0], [1.95]], [1.0, 0.0, 2.0]),
        [[True, False, True], [True, True, False]]),
    "formula-is-negative-first": (
        _distances(_INTERVAL), ([[1.95], [0.0]], [1.0, 0.0, 2.0]),
        [[True, True, False], [True, False, True]]),
}


class TestErrorMasks:
    """Every error an array call raises carries ``bad``: the call's shape,
    True at every value that fails the check that raised, its first True the
    value that the message names (the same call on that value alone raises
    the same error)."""

    @pytest.mark.parametrize("case", MASK_CASES.values(), ids=MASK_CASES.keys())
    def test_mask_names_the_first_failing_value(self, case):
        call, args, mask = case
        with pytest.raises(Exception) as err:
            call(*args)
        bad = err.value.bad
        shape = np.broadcast_shapes(*(np.shape(a) for a in args))
        assert (bad.shape, bad.dtype) == (shape, bool)
        assert bad.tolist() == mask
        k = np.unravel_index(int(np.argmax(bad)), shape)
        alone = [[np.broadcast_to(a, shape)[k]] for a in args]
        with pytest.raises(type(err.value)) as one:
            call(*alone)
        assert str(one.value) == str(err.value)

    def test_formula_mask_keeps_only_needed_pairs(self):
        formula = parse("sqrt(x - y)", {"x", "y"})
        x, y = np.array([[0.0], [1.0]]), np.array([0.5, 2.0, 0.0])
        need = np.array([[False, True, True], [True, True, True]])
        with pytest.raises(EvalError) as err:
            _formula_distance(formula, x, y, x, y, need)
        assert err.value.bad.tolist() == [[False, True, False], [False, True, False]]
        assert str(err.value) == "sqrt of a negative value in 'sqrt(x - y)'"
