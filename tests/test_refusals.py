"""Every library refusal below raises its own error type and message.

One row per refusal: the call, the error type, and the exact message.
"""
import math

import numpy as np
import pytest

from rqbm.contraction import (
    MapError,
    SelfMap,
    best_exponent,
    check_linear_contraction,
    check_theta_contraction,
    check_theta_phi_contraction,
    pair_set,
)
from rqbm.instances import build_example_sqrt, perturb
from rqbm.solver import limit_sandwich_check, picard_iterate, verify_fixed_point
from rqbm.spaces import (
    AnalyticSpace,
    FiniteSpace,
    SpaceError,
    SpaceFormatError,
    UnknownLabelError,
    carrier_sample,
    check_b_rectangular,
    space_from_dict,
)
from rqbm.thetaphi import builtin_phi, iterate_phi, log_grid, validate_phi


def sqrt_space():
    return build_example_sqrt().space


def sqrt_trace():
    return picard_iterate(sqrt_space(), SelfMap.from_expression("sqrt(x)"), 2.0)


def sqrt_pairs(with_theta=True):
    b = build_example_sqrt()
    return pair_set(carrier_sample(b.space, 5), b.selfmap, 2.0,
                    b.theta if with_theta else None, random_pairs=10)


def two_points():
    return FiniteSpace.build([("a", 0.0), ("b", 1.0)], "(x - y)^2")


REFUSALS = {
    "space file not an object": (
        lambda: space_from_dict([]),
        SpaceFormatError, "space definition must be a JSON object"),
    "space file with no points": (
        lambda: space_from_dict({"kind": "finite", "points": []}),
        SpaceFormatError, "'points' must be a non-empty list"),
    "space file override without d": (
        lambda: space_from_dict({"kind": "finite", "points": [{"label": "a", "value": 0.0}],
                                 "overrides": [{"from": "a", "to": "a"}]}),
        SpaceFormatError, "bad override entry at index 0: 'd'"),
    "space file domain without hi": (
        lambda: space_from_dict({"kind": "analytic", "domain": {"lo": 0.0}, "forward": "x"}),
        SpaceFormatError, "bad 'domain': 'hi'"),
    "finite space with no points": (
        lambda: FiniteSpace.build([]),
        SpaceError, "a finite space needs at least one point"),
    "interval with lo = hi": (
        lambda: AnalyticSpace.build(1.0, 1.0, "(x - y)^2"),
        SpaceError, "domain must be a finite interval [lo, hi] with lo < hi"),
    "grid of one point": (
        lambda: sqrt_space().grid(1),
        SpaceError, "grid needs at least 2 points"),
    "break_identity on an all-zero table": (
        lambda: perturb(FiniteSpace.build([("a", 0.0), ("b", 1.0)], None,
                                          {("a", "b"): 0.0, ("b", "a"): 0.0}),
                        "break_identity", 0),
        SpaceError, "every off-diagonal distance is already zero"),
    "negative max_violations": (
        lambda: check_b_rectangular(carrier_sample(sqrt_space()), 2.0, max_violations=-1),
        ValueError, "max_violations must be >= 0"),
    "infinite coefficient in a scan": (
        lambda: check_b_rectangular(carrier_sample(sqrt_space()), math.inf),
        ValueError, "coefficient s must be finite"),
    **{f"scan tol of {tol}": (
        lambda tol=tol: check_b_rectangular(carrier_sample(sqrt_space()), 2.0, tol=tol),
        ValueError, "tol must be finite") for tol in (math.inf, math.nan)},
    "infinite claimed coefficient on a table": (
        lambda: FiniteSpace.build([("a", 0.0)], claimed_s=math.inf),
        SpaceError, "claimed coefficient must be finite"),
    "infinite claimed coefficient on an interval": (
        lambda: AnalyticSpace.build(1.0, 2.0, "(x - y)^2", claimed_s=math.inf),
        SpaceError, "claimed coefficient must be finite"),
    "label start on an interval": (
        lambda: picard_iterate(sqrt_space(), SelfMap.from_expression("sqrt(x)"), "a"),
        UnknownLabelError, "analytic spaces take numeric starts"),
    "picard max_iter 0": (
        lambda: picard_iterate(sqrt_space(), SelfMap.from_expression("sqrt(x)"), 2.0,
                               max_iter=0),
        ValueError, "max_iter must be >= 1"),
    "picard tol 0": (
        lambda: picard_iterate(sqrt_space(), SelfMap.from_expression("sqrt(x)"), 2.0, tol=0.0),
        ValueError, "tol must be > 0"),
    "picard tol inf": (
        lambda: picard_iterate(sqrt_space(), SelfMap.from_expression("sqrt(x)"), 2.0,
                               tol=math.inf),
        ValueError, "tol must be finite"),
    "sandwich at an infinite coefficient": (
        lambda: limit_sandwich_check(sqrt_trace(), 2.0, math.inf, 1),
        ValueError, "coefficient s must be finite"),
    "sandwich tail 0": (
        lambda: limit_sandwich_check(sqrt_trace(), 2.0, 2.0, 0),
        ValueError, "tail_len must be within the trace length"),
    "sandwich tail past the trace": (
        lambda: (lambda t: limit_sandwich_check(t, 2.0, 2.0, len(t.values) + 1))(sqrt_trace()),
        ValueError, "tail_len must be within the trace length"),
    "power phi without a number": (
        lambda: builtin_phi("pow-x"),
        KeyError, "bad power suffix in builtin phi 'pow-x'"),
    "log grid with lo = hi": (
        lambda: log_grid(1, 1),
        ValueError, "log grid needs 0 < lo < hi"),
    "phi iterate count -1": (
        lambda: iterate_phi(builtin_phi("midpoint"), 2.0, -1),
        ValueError, "n must be >= 0"),
    "phi grid below 1": (
        lambda: validate_phi(builtin_phi("midpoint"), grid=np.array([0.5, 2.0])),
        ValueError, "grid must be nonempty, within [1, inf), sorted ascending"),
    "unknown validation check": (
        lambda: validate_phi(builtin_phi("midpoint")).check("nope"),
        KeyError, "nope"),
    "table map checked on an interval": (
        lambda: pair_set(carrier_sample(sqrt_space()), SelfMap.from_table({"a": "a"}), 2.0),
        MapError, "an analytic space needs an expression map"),
    "pair set below coefficient 1": (
        lambda: pair_set(carrier_sample(sqrt_space()), SelfMap.from_expression("sqrt(x)"), 0.5),
        ValueError, "coefficient s must be >= 1, got 0.5"),
    "pair set at an infinite coefficient": (
        lambda: pair_set(carrier_sample(sqrt_space()), SelfMap.from_expression("sqrt(x)"),
                         math.inf),
        ValueError, "coefficient s must be finite, got inf"),
    **{f"exponent r of {r}": (
        lambda r=r: check_theta_contraction(sqrt_pairs(), r),
        ValueError, f"exponent r must lie in (0, 1), got {r}") for r in (0.0, 1.0, math.nan)},
    **{f"factor k of {k}": (
        lambda k=k: check_linear_contraction(sqrt_pairs(), k),
        ValueError, f"factor k must lie in (0, 1), got {k}") for k in (0.0, 1.5)},
    **{f"contraction tol of {tol}": (
        lambda tol=tol: check_linear_contraction(sqrt_pairs(), 0.5, tol=tol),
        ValueError, "tol must be finite") for tol in (math.inf, math.nan)},
    "exponent form on a pair set without theta": (
        lambda: check_theta_contraction(sqrt_pairs(with_theta=False), 0.5),
        ValueError, "the exponent form needs a pair set built with a theta"),
    "composed form on a pair set without theta": (
        lambda: check_theta_phi_contraction(sqrt_pairs(with_theta=False), builtin_phi("midpoint")),
        ValueError, "the composed form needs a pair set built with a theta"),
    "best exponent on a pair set without theta": (
        lambda: best_exponent(sqrt_pairs(with_theta=False)),
        ValueError, "best_exponent needs a pair set built with a theta"),
    "table map applied on an interval": (
        lambda: verify_fixed_point(sqrt_space(), SelfMap.from_table({"a": "a"}), 1.0),
        MapError, "an analytic space needs an expression map"),
    "table map whose target label is missing": (
        lambda: verify_fixed_point(two_points(), SelfMap.from_table({"a": "zz", "b": "a"}), "a"),
        UnknownLabelError, "unknown label 'zz'"),
    "table map with no rule for the label": (
        lambda: verify_fixed_point(two_points(), SelfMap.from_table({"b": "a"}), "a"),
        MapError, "map has no rule for label 'a'"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    # a KeyError's str() quotes its message; its first argument is the message
    assert raised.value.args[0] == message
