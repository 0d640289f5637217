"""Batch command-line front door with deterministic machine-readable reports.

Exit codes: 0 all checks passed; 1 a check failed (witnesses are in the
report); 2 usage or input error.  Reports are JSON (default) or aligned
text; identical configurations produce byte-identical JSON.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .contraction import (
    MapError,
    SelfMap,
    best_exponent,
    check_linear_contraction,
    check_theta_contraction,
    check_theta_phi_contraction,
)
from .expr import ExprError
from .instances import INSTANCE_NAMES, get_instance, perturb, random_space
from .solver import (
    cauchy_diagnostics,
    picard_iterate,
    uniqueness_scan,
    verify_fixed_point,
)
from .spaces import (
    FiniteSpace,
    SpaceError,
    check_b_rectangular,
    check_identity_axiom,
    classify,
    dump_space,
    load_space,
    minimal_rectangular_coefficient,
    space_to_dict,
)
from .thetaphi import IterateEscapeError, phi_spec, theta_spec, validate_phi, validate_theta

SCHEMA = 1


class UsageError(Exception):
    pass


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------

def _emit(report: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        payload = json.dumps(report, indent=2, ensure_ascii=True) + "\n"
    else:
        payload = _render_text(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    sys.stdout.write(payload)


def _render_text(obj: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    width = max((len(str(k)) for k in obj), default=0)
    for key, val in obj.items():
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(val, indent + 1))
        elif isinstance(val, list):
            if not val:
                lines.append(f"{pad}{key:<{width}}  []")
            elif all(not isinstance(v, (dict, list)) for v in val) and len(val) <= 8:
                lines.append(f"{pad}{key:<{width}}  {val!r}")
            else:
                lines.append(f"{pad}{key}: ({len(val)} entries)")
                for v in val[:20]:
                    if isinstance(v, dict):
                        lines.append(_render_text(v, indent + 1))
                        lines.append(f"{pad}  --")
                    else:
                        lines.append(f"{pad}  {v!r}")
                if len(val) > 20:
                    lines.append(f"{pad}  ... {len(val) - 20} more")
        else:
            lines.append(f"{pad}{key:<{width}}  {val!r}")
    text = "\n".join(lines)
    return text + ("\n" if indent == 0 else "")


# --------------------------------------------------------------------------
# Shared argument handling
# --------------------------------------------------------------------------

def _add_space_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", help="path to a space definition file (JSON)")
    p.add_argument("--instance", help=f"built-in instance: {', '.join(INSTANCE_NAMES)}")
    p.add_argument("--grid", type=int, default=None,
                   help="grid density (instance carrier and analytic sampling)")
    p.add_argument("--seed", type=int, default=0, help="seed for all sampling (default 0)")


def _add_report_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="also write the report to this path")
    p.add_argument("--format", choices=("json", "text"), default="json")


def _resolve_space(args) -> tuple:
    if bool(args.space) == bool(args.instance):
        raise UsageError("exactly one of --space or --instance is required")
    if args.space:
        return load_space(args.space), None, {"space": args.space}
    bundle = get_instance(args.instance, args.grid)
    return bundle.space, bundle, {"instance": args.instance}


def _scan_grid(args, default: int = 40) -> int:
    return args.grid if args.grid else default


def _parse_start(space, text: str):
    if isinstance(space, FiniteSpace) and text in space.labels:
        return text
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"start {text!r} is neither a label nor a number") from None


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_verify(args) -> tuple[int, dict]:
    space, bundle, src = _resolve_space(args)
    s = args.s if args.s is not None else (space.claimed_s or 1.0)
    identity = check_identity_axiom(space, _scan_grid(args))
    rect = check_b_rectangular(
        space, s, grid_points=_scan_grid(args), seed=args.seed, max_violations=100
    )
    passed = identity.passed and rect.passed
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "config": {**src, "s": s, "seed": args.seed},
        "passed": passed,
        "identity": identity.to_dict(),
        "quadrilateral": rect.to_dict(),
    }
    return (0 if passed else 1), report


def _cmd_classify(args) -> tuple[int, dict]:
    space, bundle, src = _resolve_space(args)
    result = classify(
        space, args.s, grid_points=_scan_grid(args), seed=args.seed
    )
    clean = (
        result.is_quasi_identity
        and result.is_symmetric
        and result.is_rqb_at_s
    )
    report = {
        "schema": SCHEMA,
        "command": "classify",
        "config": {**src, "s": result.s, "seed": args.seed},
        "passed": clean,
        "classification": result.to_dict(),
    }
    return (0 if clean else 1), report


def _cmd_min_s(args) -> tuple[int, dict]:
    space, bundle, src = _resolve_space(args)
    bound = minimal_rectangular_coefficient(
        space, grid_points=_scan_grid(args), seed=args.seed
    )
    report = {
        "schema": SCHEMA,
        "command": "min-s",
        "config": {**src, "seed": args.seed},
        "passed": True,
        "minimal_coefficient": bound.to_dict(),
    }
    return 0, report


def _cmd_validate_theta(args) -> tuple[int, dict]:
    spec = theta_spec(args.theta)
    result = validate_theta(spec)
    report = {
        "schema": SCHEMA,
        "command": "validate-theta",
        "config": {"theta": args.theta},
        "passed": result.passed,
        "validation": result.to_dict(),
    }
    return (0 if result.passed else 1), report


def _cmd_validate_phi(args) -> tuple[int, dict]:
    spec = phi_spec(args.phi)
    result = validate_phi(spec)
    report = {
        "schema": SCHEMA,
        "command": "validate-phi",
        "config": {"phi": args.phi},
        "passed": result.passed,
        "validation": result.to_dict(),
    }
    return (0 if result.passed else 1), report


def _resolve_map(args, bundle) -> SelfMap:
    if args.map:
        return SelfMap.from_expression(args.map)
    if bundle is not None and bundle.selfmap is not None:
        return bundle.selfmap
    raise UsageError("--map is required (the instance carries none)")


def _cmd_contraction(args) -> tuple[int, dict]:
    space, bundle, src = _resolve_space(args)
    selfmap = _resolve_map(args, bundle)
    s = args.s if args.s is not None else (
        bundle.s if bundle and bundle.s else space.claimed_s or 1.0
    )
    grid = _scan_grid(args)
    theta = None
    if args.theta:
        theta = theta_spec(args.theta)
    elif bundle is not None and bundle.theta is not None:
        theta = bundle.theta
    config = {**src, "kind": args.kind, "s": s, "seed": args.seed,
              "map": selfmap.describe()}
    if args.kind == "theta_r":
        if theta is None:
            raise UsageError("theta_r needs --theta")
        r = args.exponent if args.exponent is not None else (bundle.r if bundle else None)
        if r is None:
            raise UsageError("theta_r needs --exponent")
        cert = check_theta_contraction(
            space, selfmap, theta, r, s,
            grid_points=grid, seed=args.seed,
        )
        config["theta"], config["exponent"] = theta.name, r
    elif args.kind == "theta_phi":
        if theta is None:
            raise UsageError("theta_phi needs --theta")
        phi = phi_spec(args.phi) if args.phi else (bundle.phi if bundle else None)
        if phi is None:
            raise UsageError("theta_phi needs --phi")
        cert = check_theta_phi_contraction(
            space, selfmap, theta, phi, s,
            grid_points=grid, seed=args.seed,
        )
        config["theta"], config["phi"] = theta.name, phi.name
    elif args.kind == "linear":
        if args.k is None:
            raise UsageError("linear needs --k")
        cert = check_linear_contraction(
            space, selfmap, args.k, s, grid_points=grid, seed=args.seed
        )
        config["k"] = args.k
    else:
        raise UsageError(f"unknown contraction kind {args.kind!r}")
    report = {
        "schema": SCHEMA,
        "command": "contraction",
        "config": config,
        "passed": cert.passed,
        "certificate": cert.to_dict(),
    }
    if args.best_exponent and theta is not None:
        report["best_exponent"] = best_exponent(
            space, selfmap, theta, s, grid_points=grid, seed=args.seed
        ).to_dict()
    return (0 if cert.passed else 1), report


def _cmd_solve(args) -> tuple[int, dict]:
    space, bundle, src = _resolve_space(args)
    selfmap = _resolve_map(args, bundle)
    if args.start is None:
        raise UsageError("--start is required")
    start = _parse_start(space, args.start)
    trace = picard_iterate(space, selfmap, start, args.max_iter, args.tol)
    passed = trace.converged
    report = {
        "schema": SCHEMA,
        "command": "solve",
        "config": {
            **src, "map": selfmap.describe(), "start": args.start,
            "tol": args.tol, "max_iter": args.max_iter,
        },
        "passed": passed,
        "trace": trace.to_dict(),
    }
    if trace.limit is not None:
        verdict = verify_fixed_point(space, selfmap, trace.limit, 10 * args.tol)
        report["fixed_point"] = verdict.to_dict()
        passed = passed and verdict.verified
    if args.diagnostics:
        if len(trace.values) >= 3:
            diag = cauchy_diagnostics(trace)
            report["diagnostics"] = diag.to_dict()
            passed = passed and diag.passed
        else:
            report["diagnostics"] = {
                "passed": True,
                "note": "trace too short for skip-distance diagnostics",
            }
    if args.uniqueness_starts:
        if args.uniqueness_starts == "all":
            if not isinstance(space, FiniteSpace):
                raise UsageError("--uniqueness-starts all needs a finite space")
            starts = list(space.labels)
        else:
            starts = [
                _parse_start(space, tok)
                for tok in args.uniqueness_starts.split(",") if tok
            ]
        scan = uniqueness_scan(space, selfmap, starts, args.max_iter, args.tol)
        report["uniqueness"] = scan.to_dict()
        passed = passed and scan.passed
    report["passed"] = passed
    return (0 if passed else 1), report


def _cmd_falsify(args) -> tuple[int, dict]:
    kinds = (
        ["break_identity", "break_quadrilateral"]
        if args.kind == "both"
        else [args.kind]
    )
    runs = []
    all_detected = True
    for seed in range(args.seed, args.seed + args.trials):
        base = random_space(args.size, seed, args.profile)
        for kind in kinds:
            broken = perturb(base, kind, seed)
            if kind == "break_identity":
                detected = not check_identity_axiom(broken).passed
            else:
                s = base.claimed_s or 1.0
                detected = not check_b_rectangular(broken, s, max_violations=1).passed
            runs.append({"seed": seed, "kind": kind, "detected": detected})
            all_detected = all_detected and detected
    report = {
        "schema": SCHEMA,
        "command": "falsify",
        "config": {
            "profile": args.profile, "kind": args.kind, "size": args.size,
            "trials": args.trials, "seed": args.seed,
        },
        "passed": all_detected,
        "detected": sum(1 for r in runs if r["detected"]),
        "total": len(runs),
        "runs": runs,
    }
    return (0 if all_detected else 1), report


def _cmd_instances(args) -> tuple[int, dict]:
    if args.action == "list":
        entries = []
        for name in INSTANCE_NAMES:
            b = get_instance(name)
            entries.append({
                "name": name,
                "description": b.description,
                "kind": "finite" if isinstance(b.space, FiniteSpace) else "analytic",
                "has_map": b.selfmap is not None,
            })
        return 0, {
            "schema": SCHEMA, "command": "instances",
            "config": {"action": "list"},
            "passed": True, "instances": entries,
        }
    if args.action == "export":
        if not args.name or not args.out_file:
            raise UsageError("export needs --name and --out")
        bundle = get_instance(args.name, args.grid)
        dump_space(bundle.space, args.out_file)
        return 0, {
            "schema": SCHEMA, "command": "instances",
            "config": {"action": "export", "name": args.name, "out": args.out_file},
            "passed": True,
            "space": space_to_dict(bundle.space),
        }
    raise UsageError(f"unknown instances action {args.action!r}")


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rqbm",
        description="verify axioms, certify contractions, and solve fixed points "
        "on asymmetric generalized metric spaces",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="identity + quadrilateral axioms at a coefficient")
    _add_space_args(p)
    p.add_argument("--s", type=float, default=None)
    _add_report_args(p)
    p.set_defaults(run=_cmd_verify)

    p = sub.add_parser("classify", help="full class membership report")
    _add_space_args(p)
    p.add_argument("--s", type=float, default=None)
    _add_report_args(p)
    p.set_defaults(run=_cmd_classify)

    p = sub.add_parser("min-s", help="tightest quadrilateral coefficient")
    _add_space_args(p)
    _add_report_args(p)
    p.set_defaults(run=_cmd_min_s)

    p = sub.add_parser("validate-theta", help="validate a theta candidate")
    p.add_argument("--theta", required=True, help='expression in t or "builtin:NAME"')
    _add_report_args(p)
    p.set_defaults(run=_cmd_validate_theta)

    p = sub.add_parser("validate-phi", help="validate a phi candidate")
    p.add_argument("--phi", required=True, help='expression in t or "builtin:NAME"')
    _add_report_args(p)
    p.set_defaults(run=_cmd_validate_phi)

    p = sub.add_parser("contraction", help="certify a contraction condition")
    _add_space_args(p)
    p.add_argument("--kind", choices=("theta_r", "theta_phi", "linear"),
                   default="theta_r")
    p.add_argument("--map", help="self-map expression in x")
    p.add_argument("--theta")
    p.add_argument("--phi")
    p.add_argument("--exponent", type=float, default=None, help="r for theta_r")
    p.add_argument("--k", type=float, default=None, help="factor for linear")
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--best-exponent", action="store_true",
                   help="also search the tightest exponent")
    _add_report_args(p)
    p.set_defaults(run=_cmd_contraction)

    p = sub.add_parser("solve", help="run the fixed-point iteration")
    _add_space_args(p)
    p.add_argument("--map", help="self-map expression in x")
    p.add_argument("--start", help="a label or a number")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.add_argument("--diagnostics", action="store_true")
    p.add_argument("--uniqueness-starts",
                   help='comma-separated starts, or "all" for every label')
    _add_report_args(p)
    p.set_defaults(run=_cmd_solve)

    p = sub.add_parser("falsify", help="generate-and-check loop over seeds")
    p.add_argument("--profile", choices=("metric", "quasi", "adversarial"),
                   default="metric")
    p.add_argument("--kind",
                   choices=("break_identity", "break_quadrilateral", "both"),
                   default="both")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--size", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    _add_report_args(p)
    p.set_defaults(run=_cmd_falsify)

    p = sub.add_parser("instances", help="list or export built-in instances")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("--name")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--out", dest="out_file")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(run=_cmd_instances, out=None)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code, report = args.run(args)
    except (UsageError, ExprError, SpaceError, MapError, IterateEscapeError,
            KeyError, ValueError, OSError) as e:
        msg = e.args[0] if (isinstance(e, KeyError) and e.args) else str(e)
        sys.stderr.write(f"error: {msg}\n")
        return 2
    out = getattr(args, "out", None)
    fmt = getattr(args, "format", "json")
    _emit(report, fmt, out)
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
