#!/usr/bin/env python3
"""Certifying contraction conditions over exhaustive and sampled pair sets.

Three conditions, each an implication gated on a positive image distance
d(Tx, Ty) > 0:

  exponent form   theta(s^2 d(Tx,Ty)) <= theta(d(x,y)) ^ r
  composed form   theta(s^2 d(Tx,Ty)) <= phi(theta(d(x,y)))
  linear form     s^2 d(Tx,Ty) <= k d(x,y)

A certificate either passes with the worst observed slack or carries a
replayable witness pair.  Skipped pairs are counted, never silently passed.
Each check reads a pair set built once by ``pair_set`` from a carrier
sample (``carrier_sample``: all labels, or a grid on an interval); a check
and ``best_exponent`` on the same sample, map, s and seed can share one.

Run: python demos/03_contraction_certificates.py
"""
from rqbm import (
    best_exponent,
    build_example_final,
    build_example_sqrt,
    builtin_phi,
    carrier_sample,
    check_linear_contraction,
    check_theta_contraction,
    check_theta_phi_contraction,
    pair_set,
)

BAR = "-" * 72


def show(cert):
    print(f"  verdict: {cert.verdict}" + ("  (vacuous)" if cert.vacuous else ""))
    print(f"  pairs: {cert.pairs_total} total, {cert.pairs_checked} checked, "
          f"{cert.pairs_skipped} skipped, {cert.violation_count} violations")
    if cert.worst_pair:
        w = cert.worst_pair
        print(f"  worst pair ({w.x!r}, {w.y!r}): lhs={w.lhs!r} rhs={w.rhs!r} "
              f"slack={w.slack!r}")


# The interval [1, 2] with the piecewise-squared distance ships with two map
# variants: the literal square root, and the fourth root its accompanying
# estimates actually use.  Only the fourth root satisfies the exponent
# condition at r = 1/2, s = 2.
print(BAR)
print("exponent form on the piecewise-squared interval, r = 1/2, s = 2")
print(BAR)
passes = {}
for variant in ("sqrt", "fourth_root"):
    b = build_example_sqrt(variant)
    passes[variant] = pair_set(carrier_sample(b.space, 50), b.selfmap, 2.0, b.theta)
    cert = check_theta_contraction(passes[variant], 0.5)
    print(f"map {variant}:")
    show(cert)

print()
print("tightest exponent for each variant (feasible when below 1):")
for variant, pairs in passes.items():
    bound = best_exponent(pairs)
    print(f"  {variant:<12} r* = {bound.value!r}  feasible={bound.feasible}")

# The composed condition on the final table space fails honestly: near the
# lower end of the interval the inequality flips sign, and the certificate
# pins the witness.
print()
print(BAR)
print("composed form on the 4-point table over [1/2, 3/2], s = 3")
print(BAR)
b = build_example_final()
cert = check_theta_phi_contraction(pair_set(carrier_sample(b.space), b.selfmap, 3.0, b.theta),
                                   b.phi)
show(cert)

# The linear form with k = 0.9 fails for nearly equal arguments, where
# 4 (sqrt x - sqrt y)^2 is about (x - y)^2 and 0.9 (x - y)^2 is below it.
print()
print(BAR)
print("linear form on the interval, k = 0.9, s = 2")
print(BAR)
b = build_example_sqrt("sqrt")
cert = check_linear_contraction(pair_set(carrier_sample(b.space, 50), b.selfmap, 2.0), 0.9)
show(cert)

# With the power family phi(t) = t^r the composed form reduces to the
# exponent form pointwise, so both checkers must agree pair for pair.
print()
print(BAR)
print("reduction identity: composed with t^r equals exponent with r")
print(BAR)
b = build_example_sqrt("fourth_root")
pairs = pair_set(carrier_sample(b.space, 30), b.selfmap, 2.0, b.theta)
for r in (0.3, 0.5, 0.8):
    a = check_theta_contraction(pairs, r)
    c = check_theta_phi_contraction(pairs, builtin_phi(f"pow-{r}"))
    same = a.verdict == c.verdict and a.worst_pair == c.worst_pair
    print(f"  r = {r}: verdicts {a.verdict}/{c.verdict}, worst pairs identical: {same}")
