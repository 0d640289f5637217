import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rqbm.expr as ex
from rqbm.contraction import MapError, MapRangeError, SelfMap, check_theta_contraction
from rqbm.expr import EvalError
from rqbm.instances import build_example_final, build_example_sqrt
from rqbm.solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_SOLVE_TOL,
    PicardTrace,
    cauchy_diagnostics,
    limit_sandwich_check,
    picard_iterate,
    uniqueness_scan,
    verify_fixed_point,
)
from rqbm.spaces import AnalyticSpace, FiniteSpace, SpaceError, UnknownLabelError


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
            b.space, b.selfmap, b.theta, 0.5, 2.0, grid_points=30, random_pairs=1000
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
