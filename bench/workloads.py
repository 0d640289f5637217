"""The three benchmark workloads and the verdict fields of every command.

A workload is a fixed list of README-style ``rqbm`` command lines.  Where a
command takes ``--seed`` or ``--start`` the value is derived from the workload
seed, so the same seed always yields the same command list.

``verdict(argv, rc, report)`` extracts the fields that carry a command's
verdict.  Each command names the subset of those fields that its seed cannot
change (``invariant``); they are checked on every seed, while the remaining
fields are checked only on seeds whose goldens were recorded.
"""
from __future__ import annotations

WORKLOADS = ("quad-scan", "falsify-small", "fixed-point")

ALL = "all"  # every verdict field is seed-independent

# Starts for the solver; the seed picks one.
_FINAL_STARTS = ("1/3", "1/4", "1/5", "1/6")
_SQRT_STARTS = tuple(repr(1.0 + k / 16) for k in range(1, 17))  # 1.0625 .. 2.0


def commands(workload: str, seed: int) -> list[dict]:
    """Command lines of ``workload`` for ``seed``: dicts with id, argv, invariant."""
    s = str(seed % 2**32)
    if workload == "quad-scan":
        cmds = [
            (["classify", "--instance", "example-sqrt", "--seed", s],
             ("rc", "passed", "is_quasi_identity", "is_symmetric", "is_metric",
              "is_rectangular", "is_b_metric_at_s", "is_rqb_at_s", "identity.passed",
              "triangle_witness", "quadrilateral_witness", "asymmetry_count")),
            (["classify", "--instance", "example-2-3", "--grid", "40", "--seed", s], ALL),
            (["verify", "--instance", "example-sqrt", "--seed", s],
             ("rc", "passed", "identity.passed", "quadrilateral.passed",
              "first_violation")),
            (["min-s", "--instance", "example-sqrt", "--grid", "80", "--seed", s],
             ("rc", "passed")),
        ]
    elif workload == "falsify-small":
        counts = ("rc", "passed", "detected", "total")
        cmds = [
            (["falsify", "--profile", "metric", "--size", "8", "--trials", "600",
              "--seed", s], counts),
            (["falsify", "--profile", "quasi", "--size", "6", "--trials", "600",
              "--seed", s], counts),
            (["falsify", "--profile", "adversarial", "--size", "5", "--trials", "600",
              "--seed", s], counts),
            (["verify", "--instance", "example-2-3", "--s", "3", "--seed", s], ALL),
            (["min-s", "--instance", "example-2-3", "--seed", s], ALL),
            (["classify", "--instance", "example-2-3", "--seed", s], ALL),
            (["instances", "list"], ALL),
        ]
    elif workload == "fixed-point":
        final = ["--instance", "example-final", "--grid", "200", "--seed", s]
        cmds = [
            (["contraction", *final, "--kind", "theta_phi"], ALL),
            (["contraction", *final, "--kind", "theta_r", "--exponent", "0.5",
              "--best-exponent"], ALL),
            (["contraction", *final, "--kind", "linear", "--k", "0.5"], ALL),
            (["contraction", "--instance", "example-sqrt", "--grid", "200",
              "--best-exponent", "--seed", s],
             ("rc", "passed", "certificate.verdict", "certificate.pairs_total",
              "best_exponent.feasible")),
            (["solve", "--instance", "example-final", "--grid", "400", "--start",
              _FINAL_STARTS[seed % len(_FINAL_STARTS)], "--uniqueness-starts", "all"],
             ("rc", "passed", "trace.terminated_by", "trace.limit",
              "fixed_point.verified", "uniqueness.passed")),
            (["solve", "--instance", "example-sqrt", "--start",
              _SQRT_STARTS[seed % len(_SQRT_STARTS)], "--diagnostics"],
             ("rc", "passed", "trace.terminated_by", "fixed_point.verified",
              "diagnostics.passed")),
            (["validate-phi", "--phi", "builtin:midpoint"], ALL),
            (["validate-phi", "--phi", "builtin:pow-0.5"], ALL),
            (["validate-theta", "--theta", "builtin:exp-sqrt"], ALL),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return [
        {"id": f"{workload}/{k}", "argv": argv, "invariant": inv}
        for k, (argv, inv) in enumerate(cmds)
    ]


def _get(obj, path: str):
    for key in path.split("."):
        if not isinstance(obj, dict):
            return None
        obj = obj.get(key)
    return obj


def verdict(argv: list[str], rc: int, report: dict) -> dict:
    """The verdict-carrying fields of one command's exit code and JSON report."""
    out = {"rc": rc, "passed": report.get("passed")}
    sub = argv[0]
    if sub == "verify":
        q = report["quadrilateral"]
        out.update({
            "identity.passed": _get(report, "identity.passed"),
            "quadrilateral.passed": q["passed"],
            "quadrilateral.quadruples_checked": q["quadruples_checked"],
            "quadrilateral.violation_count": q["violation_count"],
            "first_violation": q["violations"][0] if q["violations"] else None,
        })
    elif sub == "classify":
        c = report["classification"]
        for key in ("is_quasi_identity", "is_symmetric", "is_metric", "is_rectangular",
                    "is_b_metric_at_s", "is_rqb_at_s", "minimal_s",
                    "triangle_witness", "quadrilateral_witness"):
            out[key] = c[key]
        out["identity.passed"] = c["identity"]["passed"]
        out["asymmetry_count"] = len(c["asymmetry_witnesses"])
    elif sub == "min-s":
        m = report["minimal_coefficient"]
        out.update({
            "minimal_s": m["value"],
            "witness": m["witness"],
            "quadruples_checked": m["quadruples_checked"],
        })
    elif sub == "falsify":
        out.update({"detected": report["detected"], "total": report["total"]})
    elif sub == "instances":
        out["names"] = [e["name"] for e in report["instances"]]
    elif sub == "contraction":
        c = report["certificate"]
        for key in ("verdict", "pairs_total", "pairs_checked", "pairs_skipped",
                    "violation_count", "worst_pair", "max_ratio"):
            out[f"certificate.{key}"] = c[key]
        if "best_exponent" in report:
            for key in ("value", "feasible", "witness"):
                out[f"best_exponent.{key}"] = report["best_exponent"][key]
    elif sub == "solve":
        for path in ("trace.terminated_by", "trace.steps", "trace.limit",
                     "trace.limit_label", "fixed_point.verified",
                     "diagnostics.passed", "uniqueness.passed"):
            out[path] = _get(report, path)
    elif sub in ("validate-phi", "validate-theta"):
        v = report["validation"]
        out["max_defect"] = v["max_defect"]
        out["checks"] = {c["name"]: c["passed"] for c in v["checks"]}
    return out


def invariant_fields(cmd: dict, fields: dict) -> dict:
    """The part of ``fields`` that ``cmd`` declares independent of its seed."""
    inv = cmd["invariant"]
    if inv == ALL:
        return dict(fields)
    return {k: fields[k] for k in inv}
