import json

import pytest

from rqbm.cli import main


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

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_schema_error_names_field(self, capsys, tmp_path):
        path = tmp_path / "bad2.json"
        path.write_text('{"kind": "analytic", "forward": "(x-y)^2"}')
        code, _, err = run(capsys, "verify", "--space", str(path), "--s", "1")
        assert code == 2
        assert "domain" in err


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
