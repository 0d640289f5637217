import argparse
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rqbm.cli
import rqbm.spaces
from rqbm._report import Result, to_json
from rqbm.cli import MAX_POINTS, _grid_size, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestVerify:
    def test_example_at_claimed_coefficient(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--instance", "example-2-3", "--s", "3")
        assert code == 0
        assert report["passed"] is True
        assert report["schema"] == 1
        assert report["quadrilateral"]["violation_count"] == 0

    def test_example_fails_at_one(self, capsys):
        code, report, _ = run_json(capsys, "verify", "--instance", "example-2-3", "--s", "1")
        assert code == 1
        assert report["passed"] is False
        assert report["quadrilateral"]["violations"]  # witnesses present

    def test_space_file(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        code, _, _ = run(
            capsys, "instances", "export", "--name", "example-2-3", "--out", str(path)
        )
        assert code == 0
        code, report, _ = run_json(capsys, "verify", "--space", str(path), "--s", "3")
        assert code == 0 and report["passed"]

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, "verify", "--s", "3")
        assert code == 2
        code, _, err = run(
            capsys, "verify", "--space", "x.json", "--instance", "example-2-3"
        )
        assert code == 2


class TestClassify:
    def test_asymmetry_witness_values(self, capsys):
        code, report, _ = run_json(capsys, "classify", "--instance", "example-2-3")
        cls = report["classification"]
        assert cls["is_symmetric"] is False
        assert ["1/2", "1/3", 0.05, 0.04] in cls["asymmetry_witnesses"]
        assert code == 1  # asymmetry witnesses mean a failed symmetry check

    def test_metric_space_clean(self, capsys, tmp_path):
        from rqbm.instances import random_space
        from rqbm.spaces import dump_space

        path = tmp_path / "metric.json"
        dump_space(random_space(5, 0, "metric"), str(path))
        code, report, _ = run_json(capsys, "classify", "--space", str(path))
        assert code == 0
        assert report["classification"]["is_metric"] is True


class TestMinS:
    def test_bracketing(self, capsys):
        code, report, _ = run_json(capsys, "min-s", "--instance", "example-2-3")
        assert code == 0
        value = report["minimal_coefficient"]["value"]
        assert value <= 3.0 + 1e-9
        code_at, _, _ = run(
            capsys, "verify", "--instance", "example-2-3", "--s", str(value)
        )
        assert code_at == 0
        code_below, _, _ = run(
            capsys, "verify", "--instance", "example-2-3", "--s", str(value - 1e-3)
        )
        assert code_below == 1


class TestValidate:
    def test_theta_builtin(self, capsys):
        code, report, _ = run_json(capsys, "validate-theta", "--theta", "builtin:exp-sqrt")
        assert code == 0 and report["passed"]

    def test_theta_expression(self, capsys):
        code, report, _ = run_json(capsys, "validate-theta", "--theta", "sqrt(t) + 1")
        assert code == 0

    def test_phi_identity_rejected(self, capsys):
        code, report, _ = run_json(capsys, "validate-phi", "--phi", "t")
        assert code == 1
        checks = {c["name"]: c for c in report["validation"]["checks"]}
        assert checks["below-identity"]["passed"] is False

    def test_unknown_builtin(self, capsys):
        code, _, err = run(capsys, "validate-theta", "--theta", "builtin:zeta")
        assert code == 2


class TestContraction:
    def test_instance_defaults(self, capsys):
        code, report, _ = run_json(
            capsys, "contraction", "--instance", "example-final", "--kind", "theta_phi"
        )
        assert code == 1  # the composed condition fails on this space
        cert = report["certificate"]
        assert cert["verdict"] == "fail"
        assert cert["worst_pair"]["x"] == "1/3"

    def test_theta_r_flags(self, capsys):
        code, report, _ = run_json(
            capsys, "contraction", "--instance", "example-fourth-root",
            "--kind", "theta_r", "--exponent", "0.5", "--grid", "50",
        )
        assert code == 0
        assert report["certificate"]["verdict"] == "pass"

    def test_linear(self, capsys):
        code, report, _ = run_json(
            capsys, "contraction", "--instance", "example-sqrt", "--kind", "linear",
            "--k", "0.9", "--grid", "50",
        )
        assert code == 1
        # 66 grid violations plus the seeded random pairs near the diagonal
        assert report["certificate"]["violation_count"] == 295

    def test_best_exponent_flag(self, capsys):
        code, report, _ = run_json(
            capsys, "contraction", "--instance", "example-fourth-root",
            "--kind", "theta_r", "--exponent", "0.5", "--grid", "50",
            "--best-exponent",
        )
        assert report["best_exponent"]["value"] == 0.497134902334961

    def test_missing_parameters(self, capsys):
        code, _, err = run(
            capsys, "contraction", "--instance", "example-sqrt", "--kind", "linear"
        )
        assert code == 2

    def test_best_exponent_shares_the_pair_pass(self, capsys, monkeypatch):
        import rqbm.expr

        calls = []
        evaluate = rqbm.expr.evaluate

        def counting(node, bindings):
            calls.append(node)
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", counting)
        argv = ["contraction", "--instance", "example-final", "--grid", "200",
                "--kind", "theta_r", "--exponent", "0.5"]
        code, plain, _ = run_json(capsys, *argv)
        without = len(calls)
        calls.clear()
        code_flag, report, _ = run_json(capsys, *argv, "--best-exponent")
        assert len(calls) == without
        assert code_flag == code
        assert report.pop("best_exponent")["witness"] is not None
        assert report == plain

    @pytest.mark.parametrize("kind", [
        ("--kind", "theta_r", "--exponent", "0.5"),
        ("--kind", "theta_phi"),
        ("--kind", "linear", "--k", "0.5"),  # its set holds theta for --best-exponent only
    ], ids=lambda k: k[1])
    def test_best_exponent_matches_the_library_call(self, capsys, kind):
        from rqbm.contraction import best_exponent, pair_set
        from rqbm.spaces import carrier_sample
        from rqbm.instances import get_instance

        bundle = get_instance("example-final", 11)
        _, report, _ = run_json(capsys, "contraction", "--instance", "example-final",
                                "--grid", "11", *kind, "--best-exponent")
        want = best_exponent(pair_set(carrier_sample(bundle.space, 11), bundle.selfmap,
                                      bundle.space.claimed_s, bundle.theta))
        assert report["best_exponent"] == json.loads(to_json(want))

    def test_theta_is_parsed_only_where_it_is_read(self, capsys):
        argv = ["contraction", "--instance", "example-final", "--grid", "11",
                "--kind", "linear", "--k", "0.5"]
        code, plain, _ = run_json(capsys, *argv)
        code_bad, report, _ = run_json(capsys, *argv, "--theta", "((")
        assert code_bad == code == 1 and report == plain
        code, out, err = run(capsys, *argv, "--theta", "((", "--best-exponent")
        assert (code, out, err) == (2, "", "error: unexpected end of input (at byte 2)\n")

    @pytest.mark.parametrize("theta, name", [((), "sqrt-plus-1"), (("--theta", "t + 1"), "t + 1")],
                             ids=["instance", "flag"])
    def test_linear_best_exponent_names_its_theta(self, capsys, theta, name):
        argv = ["contraction", "--instance", "example-final", "--grid", "11",
                "--kind", "linear", "--k", "0.5", *theta]
        _, plain, _ = run_json(capsys, *argv)
        _, report, _ = run_json(capsys, *argv, "--best-exponent")
        assert "theta" not in plain["config"]
        assert report["config"] == {**plain["config"], "theta": name}

    @pytest.mark.parametrize("kind, check", [
        (("--kind", "theta_r", "--exponent", "0.5"), "check_theta_contraction"),
        (("--kind", "theta_phi"), "check_theta_phi_contraction"),
        (("--kind", "linear", "--k", "0.5"), "check_linear_contraction"),
    ], ids=["theta_r", "theta_phi", "linear"])
    def test_runs_the_public_checks_on_one_pair_set(self, capsys, monkeypatch, kind, check):
        calls = []
        names = ["pair_set", "check_theta_contraction", "check_theta_phi_contraction",
                 "check_linear_contraction", "best_exponent"]
        for name in names:
            def recording(*args, _name=name, _fn=getattr(rqbm.cli, name), **kwargs):
                result = _fn(*args, **kwargs)
                calls.append((_name, args, result))
                return result
            monkeypatch.setattr(rqbm.cli, name, recording)
        run_json(capsys, "contraction", "--instance", "example-final", "--grid", "11",
                 *kind, "--best-exponent")
        assert [name for name, _, _ in calls] == ["pair_set", check, "best_exponent"]
        pairs = calls[0][2]
        assert pairs.source == "exhaustive:15x15" and pairs.theta is not None
        assert calls[1][1] == calls[2][1] == (pairs,)

    @pytest.mark.parametrize("kind, unread, message", [
        (("--kind", "linear", "--k", "0.5"), ("--exponent", "0.3", "--phi", "builtin:midpoint"),
         "--kind linear does not read --exponent, --phi"),
        (("--kind", "theta_r", "--exponent", "0.5"), ("--k", "0.5"),
         "--kind theta_r does not read --k"),
        (("--kind", "theta_r", "--exponent", "0.5"), ("--phi", "builtin:midpoint"),
         "--kind theta_r does not read --phi"),
        (("--kind", "theta_phi"), ("--exponent", "0.5", "--k", "0.5"),
         "--kind theta_phi does not read --exponent, --k"),
        (("--exponent", "0.5"), ("--k", "0.5"), "--kind theta_r does not read --k"),  # default
    ], ids=["linear", "theta_r-k", "theta_r-phi", "theta_phi", "default"])
    def test_flags_the_kind_does_not_read_are_refused(self, capsys, kind, unread, message):
        argv = ["contraction", "--instance", "example-final", "--grid", "11", *kind]
        assert run_json(capsys, *argv)[0] in (0, 1)
        assert run(capsys, *argv, *unread) == (2, "", f"error: {message}\n")
        assert run(capsys, *argv, *unread, "--best-exponent")[0] == 2

    @pytest.mark.parametrize("source", ["space", "instance"])
    def test_best_exponent_without_a_theta_is_refused(self, capsys, tmp_path, source):
        # example-2-3 carries no theta, and an exported space file carries none either
        where = ["--instance", "example-2-3"]
        if source == "space":
            path = tmp_path / "space.json"
            run(capsys, "instances", "export", "--name", "example-2-3", "--out", str(path))
            where = ["--space", str(path)]
        argv = ["contraction", *where, "--kind", "linear", "--k", "0.5", "--map", "x/2"]
        assert run_json(capsys, *argv)[0] == 1
        assert run(capsys, *argv, "--best-exponent") == (
            2, "", "error: --best-exponent needs --theta (the space or instance carries none)\n")


class TestSolve:
    def test_final_example_from_table_label(self, capsys):
        code, report, _ = run_json(
            capsys, "solve", "--instance", "example-final", "--start", "1/3"
        )
        assert code == 0
        assert report["trace"]["terminated_by"] == "exact_fixed_point"
        assert report["trace"]["limit"] == 1.0
        assert report["fixed_point"]["verified"] is True

    def test_sqrt_with_diagnostics(self, capsys):
        code, report, _ = run_json(
            capsys, "solve", "--instance", "example-sqrt", "--start", "2.0",
            "--tol", "1e-10", "--diagnostics",
        )
        assert code == 0
        assert report["diagnostics"]["passed"] is True
        assert abs(report["trace"]["limit"] - 1.0) < 1e-8

    def test_diagnostics_on_a_short_trace(self, capsys):
        code, report, _ = run_json(
            capsys, "solve", "--instance", "example-sqrt", "--start", "1", "--diagnostics",
        )
        assert code == 0 and report["passed"] is True
        assert report["trace"]["steps"] == 1
        assert report["diagnostics"] == {
            "passed": True, "note": "trace too short for skip-distance diagnostics",
        }

    def test_uniqueness_starts_all(self, capsys):
        code, report, _ = run_json(
            capsys, "solve", "--instance", "example-final", "--start", "1/3",
            "--uniqueness-starts", "all",
        )
        assert code == 0
        assert report["uniqueness"]["passed"] is True

    def test_uniqueness_starts_list(self, capsys):
        code, report, _ = run_json(
            capsys, "solve", "--instance", "example-sqrt", "--start", "2.0",
            "--uniqueness-starts", "1.0,1.5,2.0",
        )
        assert code == 0
        assert len(report["uniqueness"]["limits"]) == 3

    def test_explicit_map_expression(self, capsys):
        code, report, _ = run_json(
            capsys, "solve", "--instance", "example-sqrt", "--map", "x ^ 0.25",
            "--start", "2.0",
        )
        assert code == 0

    def test_missing_start(self, capsys):
        code, _, _ = run(capsys, "solve", "--instance", "example-sqrt")
        assert code == 2


class TestFalsify:
    def test_metric_profile(self, capsys):
        code, report, _ = run_json(
            capsys, "falsify", "--profile", "metric", "--trials", "10", "--size", "5"
        )
        assert code == 0
        assert report["detected"] == report["total"] == 20

    def test_quasi_profile(self, capsys):
        code, report, _ = run_json(
            capsys, "falsify", "--profile", "quasi", "--trials", "5",
            "--kind", "break_quadrilateral",
        )
        assert code == 0
        assert report["total"] == 5


class TestInstances:
    def test_list(self, capsys):
        code, report, _ = run_json(capsys, "instances", "list")
        assert code == 0
        names = [e["name"] for e in report["instances"]]
        assert "example-2-3" in names and "example-final" in names

    @pytest.mark.parametrize("unread, flags", [
        (("--grid", "50", "--name", "example-sqrt"), "--name, --grid"),
        (("--out", "list.json"), "--out"),
    ], ids=["grid-name", "out"])
    def test_list_refuses_the_export_flags(self, capsys, tmp_path, monkeypatch, unread, flags):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "instances", "list", *unread) == (
            2, "", f"error: instances list does not read {flags}\n")
        assert list(tmp_path.iterdir()) == []

    def test_export_round_trip(self, capsys, tmp_path):
        from rqbm.spaces import load_space

        path = tmp_path / "final.json"
        code, _, _ = run(
            capsys, "instances", "export", "--name", "example-final", "--out", str(path)
        )
        assert code == 0
        space = load_space(str(path))
        assert space.distance("1/5", "1/6") == 0.5

    def test_export_needs_name(self, capsys):
        code, _, _ = run(capsys, "instances", "export")
        assert code == 2

    def test_export_refuses_grid_on_an_interval(self, capsys, tmp_path):
        path = tmp_path / "sqrt.json"
        argv = ["instances", "export", "--name", "example-sqrt", "--out", str(path)]
        assert run(capsys, *argv, "--grid", "50") == (
            2, "", "error: --grid sets a finite carrier; 'example-sqrt' is an interval, "
            "exported as its formula\n")
        assert not path.exists()
        assert run(capsys, *argv)[0] == 0


class TestErrorPaths:
    def test_malformed_space_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "finite", "points": [')
        code, _, err = run(capsys, "verify", "--space", str(path), "--s", "1")
        assert code == 2
        assert "line" in err and "column" in err

    def test_expression_error_carries_byte_offset(self, capsys):
        code, _, err = run(
            capsys, "solve", "--instance", "example-sqrt", "--map", "x + ",
            "--start", "2.0",
        )
        assert code == 2
        assert "byte 4" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "verify", "--space", "/does/not/exist.json", "--s", "1")
        assert code == 2

    @pytest.mark.parametrize("command", ["verify", "classify"])
    def test_negative_coefficient(self, capsys, command):
        code, out, err = run(capsys, command, "--instance", "example-2-3", "--s", "-1")
        assert code == 2
        assert out == ""
        assert "s must be >= 0" in err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--instance", "example-2-3", "--s", "inf"], "coefficient s must be finite"),
        (["contraction", "--instance", "example-final", "--kind", "linear", "--k", "0.5",
          "--s", "inf"], "coefficient s must be finite, got inf"),
        (["solve", "--instance", "example-final", "--start", "1/3", "--tol", "inf"],
         "tol must be finite"),
    ])
    def test_infinite_coefficient_or_tolerance(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_infinite_claimed_coefficient(self, capsys, tmp_path):
        path = tmp_path / "claimed.json"
        path.write_text('{"kind": "finite", "points": [{"label": "a", "value": 0.0}], '
                        '"claimed_s": Infinity}')
        assert run(capsys, "verify", "--space", str(path)) == (
            2, "", "error: claimed coefficient must be finite\n")

    def test_duplicate_point_value(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({
            "kind": "finite",
            "points": [{"label": "a", "value": 0.5}, {"label": "b", "value": 1.0},
                       {"label": "c", "value": 0.5}],
            "default": "(x - y)^2",
        }))
        code, out, err = run(capsys, "verify", "--space", str(path), "--s", "1")
        assert code == 2
        assert out == ""
        assert "'a' and 'c'" in err

    def test_escaping_phi(self, capsys):
        code, out, err = run(capsys, "validate-phi", "--phi", "t/2")
        assert code == 2
        assert out == ""
        assert err == "error: iterate of 't/2' left [1, inf): phi(1.0) = 0.5\n"

    @pytest.mark.parametrize("command", ["verify", "classify", "min-s"])
    def test_negative_analytic_distance(self, capsys, tmp_path, command):
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({
            "kind": "analytic", "domain": {"lo": 1.0, "hi": 2.0},
            "forward": "(x-y)^2*(1 - 2*if(x>1.4, if(x<1.6,1,0),0))",
        }))
        code, out, err = run(capsys, command, "--space", str(path))
        assert code == 2
        assert out == ""
        assert "must be finite and >= 0" in err

    def test_map_image_leaving_the_domain(self, capsys):
        code, out, err = run(
            capsys, "contraction", "--instance", "example-sqrt", "--map", "x + 0.5", "--grid", "5"
        )
        assert (code, out) == (2, "")
        assert err == "error: map image 2.25 of 1.75 leaves [1.0, 2.0]\n"

    @pytest.mark.parametrize("argv", [
        # a failing map expression names its value as a call on that value alone does
        ("contraction", "--instance", "example-sqrt", "--map", "sqrt(x - 1.5)", "--grid", "5"),
        ("solve", "--instance", "example-sqrt", "--map", "sqrt(x - 1.5)", "--start", "1.2"),
    ])
    def test_failing_map_expression(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: sqrt of a negative value in 'sqrt(x - 1.5)'\n"

    def test_failing_map_on_a_finite_carrier(self, capsys):
        code, out, err = run(
            capsys, "contraction", "--instance", "example-final", "--map", "sqrt(0.8 - x)",
            "--kind", "linear", "--k", "0.5",
        )
        assert (code, out) == (2, "")
        assert err == "error: sqrt of a negative value in 'sqrt(0.8 - x)'\n"

    @pytest.mark.parametrize("argv", [
        ("verify",),
        ("classify",),
        ("min-s",),
        ("contraction", "--kind", "linear", "--k", "0.5", "--map", "2 - x/2"),
    ])
    def test_failing_analytic_formula_names_no_sample_index(self, capsys, tmp_path, argv):
        # the first failing pair raises the error a call on that pair alone gives
        path = tmp_path / "failing.json"
        path.write_text(json.dumps({
            "kind": "analytic", "domain": {"lo": 1.0, "hi": 2.0},
            "forward": "(x - y)^2 + 0 * ln(x - y + 0.5)",
        }))
        code, out, err = run(capsys, argv[0], "--space", str(path), *argv[1:])
        assert (code, out) == (2, "")
        assert err == "error: ln of a non-positive value in 'ln(x - y + 0.5)'\n"

    @pytest.mark.parametrize("argv, message", [
        (("contraction", "--instance", "example-2-3", "--kind", "theta_r",
          "--theta", "builtin:exp", "--map", "x"), "theta_r needs --exponent"),
        (("contraction", "--instance", "example-2-3", "--kind", "theta_phi",
          "--theta", "builtin:exp", "--map", "x"), "theta_phi needs --phi"),
        (("contraction", "--instance", "example-2-3"),
         "--map is required (the instance carries none)"),
        (("solve", "--instance", "example-sqrt", "--start", "1.5", "--uniqueness-starts", "all"),
         "--uniqueness-starts all needs a finite space"),
        (("solve", "--instance", "example-final", "--start", "zz"),
         "start 'zz' is neither a label nor a number"),
    ], ids=["exponent", "phi", "map", "uniqueness-all", "start"])
    def test_usage_errors(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_refused(self, capsys, trials):
        code, out, err = run(capsys, "falsify", "--trials", trials)
        assert (code, out) == (2, "")
        assert f"falsify needs at least 1 trial, got {int(trials)}" in err

    @pytest.mark.parametrize("grid", ["0", "1", "-3"])
    @pytest.mark.parametrize("command", [
        ("verify", "--instance", "example-sqrt"),
        ("solve", "--instance", "example-final", "--start", "1/3"),
        ("instances", "export", "--name", "example-final"),
    ])
    def test_grid_below_two_refused(self, capsys, command, grid):
        code, out, err = run(capsys, *command, "--grid", grid)
        assert (code, out) == (2, "")
        assert f"a grid needs at least 2 points, got {int(grid)}" in err

    def test_grid_type_at_the_limit(self):
        assert MAX_POINTS == 1000
        assert _grid_size(str(MAX_POINTS)) == MAX_POINTS
        with pytest.raises(argparse.ArgumentTypeError, match="at most 1000 points are allowed, got 1001"):
            _grid_size(str(MAX_POINTS + 1))

    @pytest.mark.parametrize("command", [
        ("verify", "--instance", "example-sqrt"),
        ("contraction", "--instance", "example-sqrt"),
        ("solve", "--instance", "example-final", "--start", "1/3"),
        ("instances", "export", "--name", "example-final"),
    ])
    def test_grid_above_the_limit_refused(self, capsys, command):
        code, out, err = run(capsys, *command, "--grid", str(MAX_POINTS + 1))
        assert (code, out) == (2, "")
        assert "at most 1000 points are allowed, got 1001" in err

    def test_size_above_the_limit_refused(self, capsys):
        assert run(capsys, "falsify", "--size", str(MAX_POINTS + 1)) == (
            2, "", "error: falsify needs at most 1000 points, got 1001\n"
        )

    @pytest.mark.parametrize("size", ["0", "1", "-2"])
    def test_size_below_two_refused(self, capsys, size):
        assert run(capsys, "falsify", "--size", size) == (2, "", "error: need at least 2 points\n")

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_schema_error_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text('{"kind": "analytic", "forward": "(x-y)^2"}')
        code, _, err = run(capsys, "verify", "--space", str(path), "--s", "1")
        assert code == 2
        assert "domain" in err


class TestVerifyGridEvaluations:
    def test_one_grid_evaluation_for_both_checks(self, capsys, monkeypatch):
        import rqbm.expr

        shapes = []
        evaluate = rqbm.expr.evaluate

        def recording(node, bindings):
            shapes.append(np.broadcast(*bindings.values()).shape)
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", recording)
        code, report, _ = run_json(capsys, "verify", "--instance", "example-sqrt", "--grid", "5")
        assert code in (0, 1) and report["identity"]["pairs_checked"] == 25
        # the identity and quadrilateral checks read one carrier sample
        assert shapes.count((5, 5)) == 1


class TestVerifySkipsTheSupremum:
    def test_no_witness_is_built(self, capsys, monkeypatch):
        # example-2-3 holds at s = 3: no violating row, and no supremum to report
        from rqbm.spaces import QuadrupleViolation

        built = []
        init = QuadrupleViolation.__init__

        def recording(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QuadrupleViolation, "__init__", recording)
        code, report, _ = run_json(capsys, "verify", "--instance", "example-2-3", "--s", "3")
        assert code == 0 and report["quadrilateral"]["quadruples_checked"] > 0
        assert built == []


class TestOnlyClassifySearchesTriangles:
    @pytest.mark.parametrize("argv, searched", [
        (("classify", "--instance", "example-sqrt", "--grid", "11"), [1.0, 2.0]),
        (("classify", "--instance", "example-2-3", "--s", "1"), [1.0]),
        (("verify", "--instance", "example-sqrt", "--grid", "11", "--s", "1"), []),
        (("min-s", "--instance", "example-sqrt", "--grid", "11"), []),
        (("falsify", "--trials", "5", "--size", "6"), []),
        # no violation at 1 means none at s >= 1; below 1 there may be one
        (("classify", "--space", "METRIC", "--s", "2"), [1.0]),
        (("classify", "--space", "METRIC", "--s", "0.5"), [1.0, 0.5]),
    ], ids=["classify", "classify-s1", "verify", "min-s", "falsify", "metric-s2", "metric-s0.5"])
    def test_triangle_search_calls(self, capsys, monkeypatch, tmp_path, argv, searched):
        if "METRIC" in argv:
            from rqbm.instances import random_space
            from rqbm.spaces import dump_space

            path = tmp_path / "metric.json"
            dump_space(random_space(6, 0, "metric"), str(path))
            argv = [str(path) if a == "METRIC" else a for a in argv]
        calls = []
        search = rqbm.spaces._first_triangle

        def recording(pts, D, s, tol):
            calls.append(s)
            return search(pts, D, s, tol)

        monkeypatch.setattr(rqbm.spaces, "_first_triangle", recording)
        code, _, _ = run(capsys, *argv)
        assert code in (0, 1)
        assert calls == searched


class TestDeterminism:
    COMMANDS = [
        ("verify", "--instance", "example-2-3", "--s", "3"),
        ("min-s", "--instance", "example-2-3"),
        ("classify", "--instance", "example-2-3"),
        ("validate-theta", "--theta", "builtin:exp-sqrt"),
        ("validate-phi", "--phi", "builtin:midpoint"),
        ("contraction", "--instance", "example-final", "--kind", "theta_phi"),
        ("solve", "--instance", "example-final", "--start", "1/3",
         "--uniqueness-starts", "all"),
        ("falsify", "--trials", "5"),
    ]

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--instance", "example-2-3", "--s", "3",
            "--out", str(path),
        )
        assert path.read_text() == out

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "min-s", "--instance", "example-2-3")
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert json.loads(json.dumps(obj)) == obj

    def test_text_format_renders(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--instance", "example-2-3", "--s", "3",
            "--format", "text",
        )
        assert code == 0
        assert "passed" in out and "quadrilateral" in out


class TestReportShape:
    CASES = [*TestDeterminism.COMMANDS, ("instances", "list"),
             ("instances", "export", "--name", "example-2-3", "--out", "OUT")]

    @staticmethod
    def plain_types(value) -> set:
        """The exact types anywhere in a report tree, each result expanded to
        its report and each exact tuple counted as a list, as the JSON writer
        writes them."""
        if isinstance(value, Result):
            return TestReportShape.plain_types(value.to_dict())
        if isinstance(value, dict):
            return {dict}.union(*map(TestReportShape.plain_types, value.values()))
        if isinstance(value, (list, tuple)):
            kind = list if type(value) is tuple else type(value)
            return {kind}.union(*map(TestReportShape.plain_types, value))
        return {type(value)}

    @pytest.mark.parametrize("argv", CASES,
                             ids=[a[0] for a in TestDeterminism.COMMANDS] + ["list", "export"])
    def test_header_exit_code_and_plain_tree(self, capsys, monkeypatch, tmp_path, argv):
        argv = [str(tmp_path / "space.json") if a == "OUT" else a for a in argv]
        emitted = []
        emit = rqbm.cli._emit

        def recording(report, *rest):
            emitted.append(report)
            emit(report, *rest)

        monkeypatch.setattr(rqbm.cli, "_emit", recording)
        code, out, _ = run(capsys, *argv)
        report = json.loads(out)
        assert list(report)[:4] == ["schema", "command", "config", "passed"]
        assert report["command"] == argv[0]
        assert code == (0 if report["passed"] is True else 1)
        assert self.plain_types(emitted[0]) <= {dict, list, str, int, float, bool, type(None)}
        text_code, _, _ = run(capsys, *argv, "--format", "text")
        assert text_code == code


class TestParserBuildsOnlyTheChosenSubcommand:
    # every subcommand's options as the parser offered them before it built
    # only the chosen subcommand
    SPACE, REPORT = ["--space", "--instance", "--grid", "--seed"], ["--out", "--format"]
    OPTIONS = {
        "verify": [*SPACE, "--s", *REPORT],
        "classify": [*SPACE, "--s", *REPORT],
        "min-s": [*SPACE, *REPORT],
        "validate-theta": ["--theta", *REPORT],
        "validate-phi": ["--phi", *REPORT],
        "contraction": [*SPACE, "--kind", "--map", "--theta", "--phi", "--exponent", "--k",
                        "--s", "--best-exponent", *REPORT],
        "solve": [*SPACE, "--map", "--start", "--tol", "--max-iter", "--diagnostics",
                  "--uniqueness-starts", *REPORT],
        "falsify": ["--profile", "--kind", "--trials", "--size", "--seed", *REPORT],
        "instances": ["--name", "--grid", "--out", "--format"],
    }
    CASES = [["--help"], *([name, "--help"] for name in OPTIONS), ["no-such-command"],
             ["solve", "--no-such-option"], ["verify", "--grid", "1"], []]

    @staticmethod
    def full(argv, capsys):
        """What the parser with every subcommand's arguments prints for ``argv``."""
        with pytest.raises(SystemExit) as exit_:
            rqbm.cli._build_parser().parse_args(argv)
        captured = capsys.readouterr()
        return (2 if exit_.value.code else 0), captured.out, captured.err

    @pytest.mark.parametrize("argv", CASES, ids=[" ".join(a) or "empty" for a in CASES])
    def test_help_and_usage_errors_match_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, *argv) == self.full(argv, capsys)

    @pytest.mark.parametrize("name", OPTIONS)
    def test_each_subcommand_keeps_its_options(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")
        _, out, _ = run(capsys, name, "--help")
        assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) == {"--help", *self.OPTIONS[name]}

    def test_other_subcommands_get_no_arguments(self, capsys):
        parser = rqbm.cli._build_parser(["solve", "--start", "1"])
        with pytest.raises(SystemExit):
            parser.parse_args(["verify", "--instance", "example-2-3"])
        assert "unrecognized arguments: --instance example-2-3" in capsys.readouterr().err


def _workload_commands() -> list[list[str]]:
    """Every command of the three benchmark workloads at seed 0."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [c["argv"] for w in workloads.WORKLOADS for c in workloads.commands(w, 0)]


class TestOneJsonWriter:
    COMMANDS = _workload_commands()

    @pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(a[:3]) for a in COMMANDS])
    def test_reports_skip_json_and_the_plain_copy(self, capsys, monkeypatch, tmp_path, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a report went through the json module's encoder")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        monkeypatch.setattr(json.encoder.JSONEncoder, "iterencode", refuse)
        writes = []
        monkeypatch.setattr(rqbm.cli, "to_json", lambda tree: writes.append(tree) or to_json(tree))
        # instances list refuses --out
        out = [] if argv[:2] == ["instances", "list"] else ["--out", str(tmp_path / "report")]
        code, report, err = run(capsys, *argv, *out)
        assert len(writes) == 1 and err == ""
        text_code, text, _ = run(capsys, *argv, "--format", "text")
        assert len(writes) == 2 and text_code == code
        # the text renders the tree the JSON holds
        assert text == rqbm.cli._render_text(json.loads(report))
        if out:
            assert (tmp_path / "report").read_text() == report
            run(capsys, *argv, "--format", "text", *out)
            assert (tmp_path / "report").read_text() == text


class TestRefusedInputs:
    @pytest.mark.parametrize("argv, message", [
        (("verify", "--instance", "example-2-3", "--s", "nan"), "coefficient s must be >= 0"),
        (("classify", "--instance", "example-2-3", "--s", "nan"), "coefficient s must be >= 0"),
        (("contraction", "--instance", "example-sqrt", "--s", "nan"),
         "coefficient s must be >= 1, got nan"),
        (("contraction", "--instance", "example-sqrt", "--map", "²"),
         "unexpected character '²' (at byte 0)"),
        (("contraction", "--instance", "example-sqrt", "--exponent", "2"),
         "exponent r must lie in (0, 1), got 2.0"),
        (("contraction", "--instance", "example-sqrt", "--kind", "linear", "--k", "0"),
         "factor k must lie in (0, 1), got 0.0"),
        # the pair set is built before the check reads r
        (("contraction", "--instance", "example-sqrt", "--map", "x - 5", "--exponent", "2"),
         "map image -4.0 of 1.0 leaves [1.0, 2.0]"),
    ])
    def test_exit_two(self, capsys, argv, message):
        assert run(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_nan_claimed_coefficient_in_a_space_file(self, capsys, tmp_path):
        path = tmp_path / "space.json"
        path.write_text('{"kind": "finite", "points": [{"label": "a", "value": 0}], '
                        '"claimed_s": NaN}')
        assert run(capsys, "verify", "--space", str(path)) == (
            2, "", "error: claimed coefficient must be >= 1\n")

    def test_unwritable_out(self, capsys, tmp_path):
        out = tmp_path / "missing" / "r.json"
        code, stdout, err = run(capsys, "verify", "--instance", "example-2-3", "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: [Errno 2] No such file or directory: {str(out)!r}\n"


# Runs a workload's commands whose name is given (all when none is) in one
# fresh process, the validate commands first, and prints which lazily imported
# numpy subpackages each left loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import workloads
from rqbm.cli import main
names = sys.argv[3:]
argvs = sorted((c["argv"] for c in workloads.commands(sys.argv[2], 0)
                if not names or c["argv"][0] in names),
               key=lambda argv: not argv[0].startswith("validate-"))
rows = []
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    rows.append([argv[0], code, [m for m in ("numpy.ma", "numpy.random") if m in sys.modules]])
print(json.dumps(rows))
"""


def probe_imports(workload, *names):
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(root / "bench"), workload,
                           *names], env=env, capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout)


def test_fixed_point_commands_import_no_numpy_ma():
    # numpy imports both on first use, and each import is a large share of a validate command
    rows = probe_imports("fixed-point")
    assert len(rows) == 9 and all(code in (0, 1) for _, code, _ in rows)
    assert [row for row in rows if row[0].startswith("validate-")] == [
        ["validate-phi", 0, []], ["validate-phi", 0, []], ["validate-theta", 0, []]]
    assert not any("numpy.ma" in loaded for _, _, loaded in rows)


def test_falsify_commands_import_no_numpy_random():
    # falsify draws its seeded streams through rqbm._pcg; numpy.random costs
    # about 14 ms to import, a large share of each falsify command
    assert probe_imports("falsify-small", "falsify") == [["falsify", 0, []]] * 3


# each command of the other two workloads, in probe order, with its exit code
_WORKLOAD_EXITS = {
    "quad-scan": [("classify", 1), ("classify", 1), ("verify", 1), ("min-s", 0)],
    "fixed-point": [("validate-phi", 0), ("validate-phi", 0), ("validate-theta", 0)]
    + [("contraction", 1)] * 4 + [("solve", 0)] * 2,
}


@pytest.mark.parametrize("workload", sorted(_WORKLOAD_EXITS))
def test_workload_commands_import_no_numpy_random(workload):
    # the analytic random phases draw through rqbm._pcg too, so no command
    # loads numpy.random (or numpy.ma)
    assert probe_imports(workload) == [[name, code, []] for name, code in _WORKLOAD_EXITS[workload]]
