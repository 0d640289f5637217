import math

import numpy as np
import pytest

from rqbm.contraction import SelfMap, check_theta_contraction
from rqbm.instances import build_example_final, build_example_sqrt
from rqbm.solver import (
    PicardTrace,
    cauchy_diagnostics,
    limit_sandwich_check,
    picard_iterate,
    uniqueness_scan,
    verify_fixed_point,
)
from rqbm.spaces import AnalyticSpace, FiniteSpace, UnknownLabelError


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
