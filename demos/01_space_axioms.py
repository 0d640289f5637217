#!/usr/bin/env python3
"""Tour of asymmetric distance spaces and their axiom checkers.

A space is either a finite labeled carrier with a distance table over a
formula default, or a real interval with a closed-form distance.  The two
axioms under test:

  (i)  d(a, b) = 0  exactly when  a = b
  (ii) d(x, y) <= s * (d(x, u) + d(u, v) + d(v, y))
       for all quadruples with u, v distinct and different from x, y

Run: python demos/01_space_axioms.py
"""
from rqbm import (
    build_example_2_3,
    carrier_sample,
    check_b_rectangular,
    check_identity_axiom,
    classify,
    minimal_rectangular_coefficient,
    space_from_dict,
)

BAR = "-" * 72

# A space definition is plain JSON: labeled points, optional overrides,
# and a default formula in x and y for every pair the table leaves out.
tiny = space_from_dict({
    "kind": "finite",
    "points": [
        {"label": "a", "value": 0.0},
        {"label": "b", "value": 1.0},
        {"label": "c", "value": 2.0},
        {"label": "d", "value": 3.5},
    ],
    "default": "(x - y)^2",
    "overrides": [
        {"from": "a", "to": "b", "d": 0.3},
        {"from": "b", "to": "a", "d": 0.1},   # asymmetric on purpose
    ],
    "claimed_s": 3.0,
})

print(BAR)
print("a hand-made 4-point space")
print(BAR)
print("d(a, b) =", tiny.distance("a", "b"), " (table)")
print("d(b, a) =", tiny.distance("b", "a"), " (table, other direction)")
print("d(a, c) =", tiny.distance("a", "c"), " (formula default)")

# Every check reads a carrier sample, built once per space and passed to
# each check: all labels of a finite space, or a grid on an interval.
sample = carrier_sample(tiny)
identity = check_identity_axiom(sample)
print("identity axiom:", "pass" if identity.passed else "fail")

quad = check_b_rectangular(sample, 3.0)
print(f"quadrilateral at s=3: {'pass' if quad.passed else 'fail'} "
      f"({quad.quadruples_checked} quadruples)")

bound = minimal_rectangular_coefficient(sample)
print("tightest coefficient on this space:", bound.value)
print("attained at:", bound.witness.to_dict())

# The shipped asymmetric table: six reciprocal labels over a squared
# difference default, claimed coefficient 3.
print()
print(BAR)
print("the built-in 6-point table (plus an 11-point grid on [1, 2])")
print(BAR)
space = build_example_2_3().space
print("rho(1/2, 1/3) =", space.distance("1/2", "1/3"))
print("rho(1/3, 1/2) =", space.distance("1/3", "1/2"))
print("rho(1, 2)     =", space.distance("1", "2"), " (default formula)")

sample = carrier_sample(space)
report = check_b_rectangular(sample, 3.0)
print(f"claimed coefficient 3: {'holds' if report.passed else 'falsified'} "
      f"over {report.quadruples_checked} quadruples")

bound = minimal_rectangular_coefficient(sample)
print("tightest coefficient:", bound.value)

# Classification runs every scan at once: symmetry, metric and b-metric
# triangles, the s = 1 quadrilateral, and the quadrilateral at claimed s.
result = classify(sample)
print()
print("classification:")
for key, val in result.to_dict().items():
    if isinstance(val, bool) or key in ("s", "minimal_s"):
        print(f"  {key:<20} {val}")
print("first asymmetry witness:", result.asymmetry_witnesses[0])

# Three points admit no quadruple at all: the check is vacuously true and
# says so explicitly rather than claiming a substantive pass.
small = space_from_dict({
    "kind": "finite",
    "points": [{"label": p, "value": float(i)} for i, p in enumerate("abc")],
    "default": "abs(x - y)",
    "overrides": [],
    "claimed_s": None,
})
vac = check_b_rectangular(carrier_sample(small), 1.0)
print()
print(f"3-point space: passed={vac.passed}, vacuous={vac.vacuous}")
