"""End-to-end acceptance gate.

Every criterion runs at its stated tolerance and prints one PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them).  One
criterion asserts a claimed coefficient that the space genuinely violates;
it is kept exactly as stated and marked as an expected failure with the
falsifying witness documented in the assertion message.
"""
import json
import math
import time

import numpy as np
import pytest

from rqbm.cli import main
from rqbm.contraction import (
    check_theta_contraction,
    check_theta_phi_contraction,
    pair_set,
)
from rqbm.instances import (
    affine_toward,
    build_example_final,
    build_example_sqrt,
    perturb,
    random_space,
)
from rqbm.solver import cauchy_diagnostics, picard_iterate, uniqueness_scan
from rqbm.spaces import (
    carrier_sample,
    check_b_rectangular,
    check_identity_axiom,
    space_to_dict,
)
from rqbm.thetaphi import PhiSpec, builtin_phi, builtin_theta, iterate_phi, validate_phi


def announce(criterion: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"ACCEPTANCE {criterion}: {tag}{suffix}")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_criterion_1_table_regression(capsys):
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "verify", "--instance", "example-2-3", "--s", "3")
    report = json.loads(out)
    code_c, out_c = run_cli(capsys, "classify", "--instance", "example-2-3")
    cls = json.loads(out_c)["classification"]
    elapsed = time.perf_counter() - t0
    ok = (
        code == 0
        and report["passed"]
        and report["quadrilateral"]["quadruples_checked"] == 57120
        and ["1/2", "1/3", 0.05, 0.04] in cls["asymmetry_witnesses"]
        and elapsed < 1.0
    )
    announce("1", ok, f"exhaustive verify at 3 + asymmetry witness, {elapsed:.2f}s")
    assert code == 0 and report["passed"]
    assert report["quadrilateral"]["quadruples_checked"] == 57120
    assert ["1/2", "1/3", 0.05, 0.04] in cls["asymmetry_witnesses"]
    assert elapsed < 1.0


def test_criterion_2_minimal_coefficient(capsys):
    t0 = time.perf_counter()
    code, out = run_cli(capsys, "min-s", "--instance", "example-2-3")
    value = json.loads(out)["minimal_coefficient"]["value"]
    code_at, _ = run_cli(capsys, "verify", "--instance", "example-2-3", "--s", str(value))
    code_below, _ = run_cli(
        capsys, "verify", "--instance", "example-2-3", "--s", str(value - 1e-3)
    )
    elapsed = time.perf_counter() - t0
    ok = value <= 3.0 + 1e-9 and code_at == 0 and code_below == 1 and elapsed < 1.0
    announce("2", ok, f"minimal coefficient {value!r}, {elapsed:.2f}s")
    assert value <= 3.0 + 1e-9
    assert code_at == 0
    assert code_below == 1
    assert elapsed < 1.0


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the claimed coefficient 2 is falsified by equally spaced quadruples: "
        "with points 2 > 5/3 > 4/3 > 1 the distance of the outer pair is 1 "
        "while the three hops sum to 1/3, forcing a coefficient of 3; the "
        "40-point grid attains ratio 3.0000000000000004"
    ),
)
def test_criterion_3_sampled_verification_at_two():
    space = build_example_sqrt("sqrt").space
    report = check_b_rectangular(
        carrier_sample(space, 40), 2.0, random_samples=10_000, seed=0, tol=1e-9,
        max_violations=1,
    )
    announce("3a", report.violation_count == 0,
             f"coefficient 2: {report.violation_count} violations")
    assert report.violation_count == 0


def test_criterion_3_coefficient_one_and_true_bound():
    t0 = time.perf_counter()
    space = build_example_sqrt("sqrt").space
    at_one = check_b_rectangular(
        carrier_sample(space, 40), 1.0, random_samples=10_000, seed=0, tol=1e-9,
        max_violations=1,
    )
    at_three = check_b_rectangular(
        carrier_sample(space, 40), 3.0, random_samples=10_000, seed=0, tol=1e-9,
        max_violations=1,
    )
    elapsed = time.perf_counter() - t0
    ok = (not at_one.passed) and at_three.passed and elapsed < 10.0
    announce("3b", ok,
             f"coefficient 1 falsified, derived bound 3 verified, {elapsed:.2f}s")
    assert not at_one.passed
    assert at_one.violation_count >= 1
    assert at_three.passed  # the derived coefficient for this space
    assert elapsed < 10.0


@pytest.mark.parametrize("variant", ["sqrt", "fourth_root"])
def test_criterion_4_root_fixed_point(variant):
    bundle = build_example_sqrt(variant)
    trace = picard_iterate(bundle.space, bundle.selfmap, 2.0, tol=1e-10)
    diag = cauchy_diagnostics(trace, tol=1e-9)
    ok = (
        trace.converged
        and trace.steps <= 60
        and abs(trace.limit - 1.0) < 1e-8
        and diag.passed
    )
    announce("4", ok, f"{variant}: {trace.steps} steps, limit {trace.limit!r}")
    assert trace.converged
    assert trace.steps <= 60
    assert abs(trace.limit - 1.0) < 1e-8
    for series in diag.series:
        assert series.monotone
        assert series.tail_value < 1e-9


def test_criterion_5_final_example_end_to_end():
    t0 = time.perf_counter()
    bundle = build_example_final()  # table part plus 11-point grid
    scan = uniqueness_scan(
        bundle.space, bundle.selfmap, list(bundle.space.labels),
        tol=1e-10, merge_tol=1e-8,
    )
    all_at_one = scan.passed and abs(scan.representative - 1.0) < 1e-8

    wide = build_example_final(grid_points=50)
    pairs = pair_set(carrier_sample(wide.space), wide.selfmap, 3.0, wide.theta)
    cert = check_theta_phi_contraction(pairs, wide.phi)
    phi_pre = wide.phi(pairs.th_pre)
    # independent oracle: direct re-evaluation of the composed inequality
    # at every pair, from the raw definition dict
    obj = space_to_dict(wide.space)
    values = {p["label"]: p["value"] for p in obj["points"]}
    table = {(r["from"], r["to"]): r["d"] for r in obj["overrides"]}
    in_table = {f"1/{n}" for n in range(3, 7)}

    def dist(a, b):
        if a == b:
            return 0.0
        if (a, b) in table:
            return table[(a, b)]
        return abs(values[a] - values[b]) ** 2

    def dist_v(u, v):
        return 0.0 if u == v else abs(u - v) ** 2

    agree = 0
    for k in range(pairs.d_img.size):
        x, y = pairs.pair(k)
        tx = 1.0 if x in in_table else (math.sqrt(values[x]) + 3.0) / 4.0
        ty = 1.0 if y in in_table else (math.sqrt(values[y]) + 3.0) / 4.0
        d_img = dist_v(tx, ty)
        if d_img == 0.0:
            want = "skipped"
        else:
            lhs = math.sqrt(9.0 * d_img) + 1.0
            rhs = ((math.sqrt(dist(x, y)) + 1.0) + 1.0) / 2.0
            want = "violation" if lhs > rhs + 1e-9 else "satisfied"
        # the checker's verdict, read from the pass's arrays
        got = ("skipped" if pairs.skipped[k] else "domain" if not pairs.checked[k]
               else "violation" if pairs.th_img[k] > phi_pre[k] + 1e-9 else "satisfied")
        if got == want:
            agree += 1
    elapsed = time.perf_counter() - t0
    total = pairs.d_img.size
    ok = all_at_one and agree == total and elapsed < 5.0
    announce(
        "5", ok,
        f"all {len(scan.limits)} starts reach 1; "
        f"checker agrees with the oracle on {agree}/{total} pairs "
        f"(condition itself: {cert.verdict}); {elapsed:.2f}s",
    )
    assert all_at_one
    assert not scan.non_converged
    assert agree == total
    assert elapsed < 5.0


def test_criterion_6_reduction_identity():
    t0 = time.perf_counter()
    theta = builtin_theta("exp-sqrt")
    checked = 0
    for seed in range(50):
        space = random_space(6, seed, "quasi")
        rng = np.random.default_rng([7, seed])
        target = space.labels[int(rng.integers(len(space.labels)))]
        selfmap = affine_toward(space, target, 0.5)
        for r in (0.3, 0.5, 0.8):
            pairs = pair_set(carrier_sample(space), selfmap, 4.0, theta)
            a = check_theta_contraction(pairs, r)
            b = check_theta_phi_contraction(pairs, builtin_phi(f"pow-{r}"))
            assert a.verdict == b.verdict, (seed, r)
            assert a.worst_pair == b.worst_pair, (seed, r)
            assert a.pairs_checked == b.pairs_checked
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked == 150 and elapsed < 30.0
    announce("6", ok, f"{checked} certificate pairs identical, {elapsed:.2f}s")
    assert checked == 150
    assert elapsed < 30.0


def test_criterion_7_falsification_suite():
    t0 = time.perf_counter()
    detected_identity = 0
    detected_quad = 0
    for seed in range(100):
        profile = "metric" if seed % 2 == 0 else "quasi"
        base = random_space(5, seed, profile)
        s = base.claimed_s
        broken_id = perturb(base, "break_identity", seed)
        if not check_identity_axiom(carrier_sample(broken_id)).passed:
            detected_identity += 1
        broken_quad = perturb(base, "break_quadrilateral", seed)
        if not check_b_rectangular(carrier_sample(broken_quad), s, max_violations=1).passed:
            detected_quad += 1
    elapsed = time.perf_counter() - t0
    ok = detected_identity == 100 and detected_quad == 100 and elapsed < 30.0
    announce(
        "7", ok,
        f"identity {detected_identity}/100, quadrilateral {detected_quad}/100, "
        f"{elapsed:.2f}s",
    )
    assert detected_identity == 100
    assert detected_quad == 100
    assert elapsed < 30.0


def test_criterion_8_phi_iteration_closed_form():
    phi = builtin_phi("midpoint")
    exact = all(
        iterate_phi(phi, 2.0, n) == 1.0 + 2.0 ** -n for n in (1, 10, 30)
    )
    report = validate_phi(
        PhiSpec.from_source("identity", "t"), list(np.linspace(1.0, 10.0, 10))
    )
    below = report.check("below-identity")
    rejected = not report.passed and not below.passed and bool(below.witnesses)
    announce("8", exact and rejected,
             "closed form exact; identity candidate rejected with witness")
    assert exact
    assert rejected
    assert (2.0, 2.0) in below.witnesses


def test_criterion_9_parser_vectors(capsys):
    from rqbm.expr import evaluate, parse

    vectors = {
        "1+2*3": 7.0,
        "(1+2)*3": 9.0,
        "-2^2": -4.0,
        "2^3^2": 512.0,
    }
    bitwise = all(evaluate(parse(src, set()), {}) == want for src, want in vectors.items())
    piecewise = parse("if(x >= y, (x-y)^2, 0.5*(y-x)^2)", {"x", "y"})
    boundary = all(
        evaluate(piecewise, {"x": v, "y": v}) == 0.0 for v in (1.0, 1.25, 2.0)
    )
    code = main(["solve", "--instance", "example-sqrt", "--map", "x + ", "--start", "2"])
    err = capsys.readouterr().err
    malformed = code == 2 and "byte 4" in err
    ok = bitwise and boundary and malformed
    announce("9", ok, "precedence table bit-exact; malformed input exits 2 with offset")
    assert bitwise
    assert boundary
    assert malformed


def test_criterion_10_report_determinism(capsys):
    commands = [
        ["verify", "--instance", "example-2-3", "--s", "3"],
        ["min-s", "--instance", "example-2-3"],
        ["classify", "--instance", "example-2-3"],
        ["validate-theta", "--theta", "builtin:exp-sqrt"],
        ["validate-phi", "--phi", "builtin:midpoint"],
        ["contraction", "--instance", "example-final", "--kind", "theta_phi",
         "--grid", "50"],
        ["solve", "--instance", "example-final", "--start", "1/3",
         "--uniqueness-starts", "all"],
        ["falsify", "--trials", "10"],
        ["verify", "--instance", "example-sqrt", "--s", "3"],
    ]
    stable = True
    for argv in commands:
        code1, out1 = run_cli(capsys, *argv)
        code2, out2 = run_cli(capsys, *argv)
        stable = stable and code1 == code2 and out1 == out2
        assert out1 == out2, argv
        assert code1 == code2, argv
        json.loads(out1)  # every report parses back
    announce("10", stable, f"{len(commands)} commands byte-identical on rerun")
    assert stable
