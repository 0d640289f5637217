"""No operation keeps state on its inputs.

After any public check, pair set or solver call, a space and a map hold only
the attributes their construction set, and the arrays a check built are
freed when it returns.
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
SAMPLE = {"grid_points": 8, "random_samples": 20}


def pairs_of(b):
    return pair_set(b.space, b.selfmap, 3.0, b.theta, grid_points=8, random_pairs=20)


OPERATIONS = {
    "check_identity_axiom": lambda b, starts: check_identity_axiom(b.space, 8),
    "check_b_rectangular": lambda b, starts: check_b_rectangular(b.space, 2.0, **SAMPLE),
    "minimal_rectangular_coefficient":
        lambda b, starts: minimal_rectangular_coefficient(b.space, **SAMPLE),
    "classify": lambda b, starts: classify(b.space, 2.0, **SAMPLE),
    "pair_set": lambda b, starts: pairs_of(b),
    "check_theta_contraction": lambda b, starts: check_theta_contraction(pairs_of(b), 0.5),
    "check_theta_phi_contraction":
        lambda b, starts: check_theta_phi_contraction(pairs_of(b), builtin_phi("midpoint")),
    "check_linear_contraction": lambda b, starts: check_linear_contraction(pairs_of(b), 0.5),
    "best_exponent": lambda b, starts: best_exponent(pairs_of(b)),
    "picard_iterate": lambda b, starts: picard_iterate(b.space, b.selfmap, starts[0]),
    "uniqueness_scan": lambda b, starts: uniqueness_scan(b.space, b.selfmap, starts),
}


@pytest.mark.parametrize("bundle", BUNDLES.values(), ids=BUNDLES.keys())
@pytest.mark.parametrize("operation", OPERATIONS.values(), ids=OPERATIONS.keys())
def test_space_and_map_keep_only_their_construction(bundle, operation):
    b, starts = bundle()
    built = {name: dict(vars(obj)) for name, obj in (("space", b.space), ("map", b.selfmap))}
    operation(b, starts)
    operation(b, starts)  # a second call finds nothing to reuse either
    for name, obj in (("space", b.space), ("map", b.selfmap)):
        now = vars(obj)
        assert now.keys() == built[name].keys(), name
        assert all(now[key] is value for key, value in built[name].items()), name


def test_identity_check_frees_its_grid():
    space = build_example_sqrt().space
    tracemalloc.start()
    try:
        report = check_identity_axiom(space, 1000)  # an 8 MB table while it runs
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed and report.pairs_checked == 1000 * 1000
    assert held < 1 << 20
