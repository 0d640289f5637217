#!/usr/bin/env python3
"""Property-based falsification: generated spaces, planted defects, detection.

Three seeded generator profiles:

  metric       Euclidean table of planar points (a genuine metric)
  quasi        the same table with per-direction scales in [0.5, 2]
  adversarial  quasi with one ordered pair inflated 5-50x

Two planted defects, each guaranteed by construction to break its axiom:
zeroing one positive off-diagonal distance breaks the identity axiom, and
inflating one distance above s times its cheapest three-hop detour breaks
the quadrilateral inequality.

Run: python demos/05_falsification.py
"""
from rqbm import (
    carrier_sample,
    check_b_rectangular,
    check_identity_axiom,
    classify,
    minimal_rectangular_coefficient,
    perturb,
    random_space,
)

BAR = "-" * 72

print(BAR)
print("what the three profiles look like (seed 1, n = 5)")
print(BAR)
for profile in ("metric", "quasi", "adversarial"):
    sample = carrier_sample(random_space(5, 1, profile))  # one sample for both checks
    result = classify(sample)
    bound = minimal_rectangular_coefficient(sample)
    print(f"  {profile:<12} symmetric={str(result.is_symmetric):<5} "
          f"metric={str(result.is_metric):<5} "
          f"holds at claimed s={result.is_rqb_at_s}  "
          f"(tightest coefficient {bound.value:.3f})")

print()
print(BAR)
print("planted defects are always detected")
print(BAR)
trials = 50
caught_identity = 0
caught_quadrilateral = 0
for seed in range(trials):
    profile = "metric" if seed % 2 == 0 else "quasi"
    base = random_space(5, seed, profile)

    broken = perturb(base, "break_identity", seed)
    if not check_identity_axiom(carrier_sample(broken)).passed:
        caught_identity += 1

    broken = perturb(base, "break_quadrilateral", seed)
    if not check_b_rectangular(carrier_sample(broken), base.claimed_s, max_violations=1).passed:
        caught_quadrilateral += 1

print(f"  identity defects caught:      {caught_identity}/{trials}")
print(f"  quadrilateral defects caught: {caught_quadrilateral}/{trials}")

print()
print(BAR)
print("one defect in detail (seed 7, quasi)")
print(BAR)
base = random_space(5, 7, "quasi")
broken = perturb(base, "break_quadrilateral", 7)
report = check_b_rectangular(carrier_sample(broken), base.claimed_s, max_violations=3)
print(f"check at claimed coefficient {base.claimed_s}: "
      f"{report.violation_count} violations")
witness = report.violations[0]
print(f"witness quadruple ({witness.x}, {witness.u}, {witness.v}, {witness.y}):")
print(f"  direct distance {witness.lhs:.4f}")
print(f"  three-hop sum   {witness.rhs_sum:.4f}")
print(f"  ratio           {witness.ratio:.4f}  > {base.claimed_s}")
