"""No operation keeps state on its inputs.

After any public check, pair set or solver call, a space, a map and the
carrier sample every check of a bundle shares hold only the attributes their
construction set, the sample's arrays are unchanged and still read-only, and
the arrays a check built are freed when it returns.
"""
import tracemalloc

import pytest

from rqbm.contraction import (
    best_exponent,
    check_linear_contraction,
    check_theta_contraction,
    check_theta_phi_contraction,
    pair_set,
)
from rqbm.instances import build_example_final, build_example_sqrt
from rqbm.solver import picard_iterate, uniqueness_scan
from rqbm.spaces import (
    carrier_sample,
    check_b_rectangular,
    check_identity_axiom,
    classify,
    minimal_rectangular_coefficient,
)
from rqbm.thetaphi import builtin_phi

# an interval with an expression map, and a finite carrier with a table map
BUNDLES = {
    "interval": lambda: (build_example_sqrt(), [1.2, 1.8]),
    "finite": lambda: (build_example_final(), ["1/3", "0.5", "1.5"]),
}
GRID, SCAN = 8, {"random_samples": 20}


def pairs_of(b, sample):
    return pair_set(sample, b.selfmap, 3.0, b.theta, random_pairs=20)


OPERATIONS = {
    "check_identity_axiom": lambda b, sample, starts: check_identity_axiom(sample),
    "check_b_rectangular": lambda b, sample, starts: check_b_rectangular(sample, 2.0, **SCAN),
    "minimal_rectangular_coefficient":
        lambda b, sample, starts: minimal_rectangular_coefficient(sample, **SCAN),
    "classify": lambda b, sample, starts: classify(sample, 2.0, **SCAN),
    "pair_set": lambda b, sample, starts: pairs_of(b, sample),
    "check_theta_contraction":
        lambda b, sample, starts: check_theta_contraction(pairs_of(b, sample), 0.5),
    "check_theta_phi_contraction": lambda b, sample, starts: check_theta_phi_contraction(
        pairs_of(b, sample), builtin_phi("midpoint")),
    "check_linear_contraction":
        lambda b, sample, starts: check_linear_contraction(pairs_of(b, sample), 0.5),
    "best_exponent": lambda b, sample, starts: best_exponent(pairs_of(b, sample)),
    "picard_iterate": lambda b, sample, starts: picard_iterate(b.space, b.selfmap, starts[0]),
    "uniqueness_scan": lambda b, sample, starts: uniqueness_scan(b.space, b.selfmap, starts),
}


@pytest.mark.parametrize("bundle", BUNDLES.values(), ids=BUNDLES.keys())
@pytest.mark.parametrize("operation", OPERATIONS.values(), ids=OPERATIONS.keys())
def test_space_and_map_keep_only_their_construction(bundle, operation):
    b, starts = bundle()
    sample = carrier_sample(b.space, GRID)  # one sample for every call below
    inputs = {"space": b.space, "map": b.selfmap, "sample": sample}
    built = {name: dict(vars(obj)) for name, obj in inputs.items()}
    arrays = {name: getattr(sample, name).copy() for name in ("values", "table")}
    operation(b, sample, starts)
    operation(b, sample, starts)  # a second call finds nothing to reuse either
    for name, obj in inputs.items():
        now = vars(obj)
        assert now.keys() == built[name].keys(), name
        assert all(now[key] is value for key, value in built[name].items()), name
    for name, before in arrays.items():
        array = getattr(sample, name)
        assert not array.flags.writeable and array.tobytes() == before.tobytes(), name


def test_identity_check_frees_its_grid():
    space = build_example_sqrt().space
    tracemalloc.start()
    try:
        sample = carrier_sample(space, 1000)  # an 8 MB table, held by the sample alone
        report = check_identity_axiom(sample)
        del sample
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.pairs_checked == 1000 * 1000
    assert held < 1 << 20
