"""Batch command-line front door with deterministic machine-readable reports.

A report holds ``schema``, ``command``, ``config`` and ``passed``, then the
command's sections.  Exit codes: 0 passed; 1 a check failed (witnesses are
in the report); 2 usage or input error.  Reports are JSON (default) or
aligned text; identical configurations produce byte-identical JSON.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from ._report import plain
from .contraction import (
    MapError,
    SelfMap,
    best_exponent,
    check_linear_contraction,
    check_theta_contraction,
    check_theta_phi_contraction,
)
from .expr import ExprError
from .instances import INSTANCE_NAMES, _broken_tables, get_instance
from .solver import (
    DEFAULT_MAX_ITER,
    DEFAULT_SOLVE_TOL,
    cauchy_diagnostics,
    picard_iterate,
    uniqueness_scan,
    verify_fixed_point,
)
from .spaces import (
    DEFAULT_GRID_POINTS,
    FiniteSpace,
    SpaceError,
    _identity_verdicts,
    _rectangular_verdicts,
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
# The most points a --grid or a falsify --size may ask for: a table grows as
# n^2 and a scan's stage 1 as n^3.  At 1,000 points on a 2-vCPU host,
# `contraction --instance example-sqrt --best-exponent` peaks at 234 MiB and
# `min-s --instance example-sqrt` takes about 13 s.
MAX_POINTS = 1000
# Table elements per chunk of falsify trials, so memory stays bounded for any --trials.
_TRIAL_CHUNK = 1 << 18


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

def _integer_at_least(least: int, refusal: str, most: int | None = None):
    """An argparse type: an integer of at least ``least``, and at most ``most``
    when given; a lower one is refused as ``refusal`` (the lower values would
    alias others or prove nothing), a higher one as over the limit."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < least:
            raise argparse.ArgumentTypeError(f"{refusal}, got {n}")
        if most is not None and n > most:
            raise argparse.ArgumentTypeError(f"at most {most} points are allowed, got {n}")
        return n
    return parse


_grid_size = _integer_at_least(2, "a grid needs at least 2 points", MAX_POINTS)
_trial_count = _integer_at_least(1, "falsify needs at least 1 trial")


def _add_space_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--space", help="path to a space definition file (JSON)")
    p.add_argument("--instance", help=f"built-in instance: {', '.join(INSTANCE_NAMES)}")
    p.add_argument("--grid", type=_grid_size, default=None,
                   help=f"grid density (instance carrier and analytic sampling), 2 to {MAX_POINTS}")
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


def _scan_grid(args) -> int:
    return args.grid if args.grid else DEFAULT_GRID_POINTS


def _parse_start(space, text: str):
    if isinstance(space, FiniteSpace) and text in space.labels:
        return text
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"start {text!r} is neither a label nor a number") from None


# --------------------------------------------------------------------------
# Subcommands: each returns (passed, config, sections); ``main`` writes the
# report header and the exit code.
# --------------------------------------------------------------------------

def _cmd_verify(args) -> tuple[bool, dict, dict]:
    space, bundle, src = _resolve_space(args)
    s = args.s if args.s is not None else (space.claimed_s or 1.0)
    grid = _scan_grid(args)
    identity = check_identity_axiom(space, grid)
    rect = check_b_rectangular(space, s, grid_points=grid, seed=args.seed, max_violations=100)
    return (identity.passed and rect.passed, {**src, "s": s, "seed": args.seed},
            {"identity": identity, "quadrilateral": rect})


def _cmd_classify(args) -> tuple[bool, dict, dict]:
    space, bundle, src = _resolve_space(args)
    result = classify(
        space, args.s, grid_points=_scan_grid(args), seed=args.seed
    )
    clean = (
        result.is_quasi_identity
        and result.is_symmetric
        and result.is_rqb_at_s
    )
    return clean, {**src, "s": result.s, "seed": args.seed}, {"classification": result}


def _cmd_min_s(args) -> tuple[bool, dict, dict]:
    space, bundle, src = _resolve_space(args)
    bound = minimal_rectangular_coefficient(
        space, grid_points=_scan_grid(args), seed=args.seed
    )
    return True, {**src, "seed": args.seed}, {"minimal_coefficient": bound}


def _cmd_validate_theta(args) -> tuple[bool, dict, dict]:
    result = validate_theta(theta_spec(args.theta))
    return result.passed, {"theta": args.theta}, {"validation": result}


def _cmd_validate_phi(args) -> tuple[bool, dict, dict]:
    result = validate_phi(phi_spec(args.phi))
    return result.passed, {"phi": args.phi}, {"validation": result}


def _resolve_map(args, bundle) -> SelfMap:
    if args.map:
        return SelfMap.from_expression(args.map)
    if bundle is not None and bundle.selfmap is not None:
        return bundle.selfmap
    raise UsageError("--map is required (the instance carries none)")


def _cmd_contraction(args) -> tuple[bool, dict, dict]:
    space, bundle, src = _resolve_space(args)
    selfmap = _resolve_map(args, bundle)
    s = args.s if args.s is not None else (space.claimed_s or 1.0)
    sampling = {"grid_points": _scan_grid(args), "seed": args.seed}
    theta = None
    if args.kind != "linear" or args.best_exponent:  # the commands that read theta
        theta = theta_spec(args.theta) if args.theta else (bundle.theta if bundle else None)
    config = {**src, "kind": args.kind, "s": s, "seed": args.seed,
              "map": selfmap.describe()}
    if args.kind == "theta_r":
        if theta is None:
            raise UsageError("theta_r needs --theta")
        r = args.exponent if args.exponent is not None else (bundle.r if bundle else None)
        if r is None:
            raise UsageError("theta_r needs --exponent")
        cert = check_theta_contraction(space, selfmap, theta, r, s, **sampling)
        config["theta"], config["exponent"] = theta.name, r
    elif args.kind == "theta_phi":
        if theta is None:
            raise UsageError("theta_phi needs --theta")
        phi = phi_spec(args.phi) if args.phi else (bundle.phi if bundle else None)
        if phi is None:
            raise UsageError("theta_phi needs --phi")
        cert = check_theta_phi_contraction(space, selfmap, theta, phi, s, **sampling)
        config["theta"], config["phi"] = theta.name, phi.name
    elif args.kind == "linear":
        if args.k is None:
            raise UsageError("linear needs --k")
        cert = check_linear_contraction(space, selfmap, args.k, s, **sampling)
        config["k"] = args.k
    else:
        raise UsageError(f"unknown contraction kind {args.kind!r}")
    sections = {"certificate": cert}
    if args.best_exponent and theta is not None:  # the check's pair set, kept on the map
        sections["best_exponent"] = best_exponent(space, selfmap, theta, s, **sampling)
        config["theta"] = theta.name
    return cert.passed, config, sections


def _cmd_solve(args) -> tuple[bool, dict, dict]:
    space, bundle, src = _resolve_space(args)
    selfmap = _resolve_map(args, bundle)
    if args.start is None:
        raise UsageError("--start is required")
    start = _parse_start(space, args.start)
    trace = picard_iterate(space, selfmap, start, args.max_iter, args.tol)
    config = {**src, "map": selfmap.describe(), "start": args.start,
              "tol": args.tol, "max_iter": args.max_iter}
    passed = trace.converged
    sections = {"trace": trace}
    if trace.limit is not None:
        verdict = verify_fixed_point(space, selfmap, trace.limit, 10 * args.tol)
        sections["fixed_point"] = verdict
        passed = passed and verdict.verified
    if args.diagnostics:
        if len(trace.values) >= 3:
            diag = cauchy_diagnostics(trace)
            sections["diagnostics"] = diag
            passed = passed and diag.passed
        else:
            sections["diagnostics"] = {
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
        sections["uniqueness"] = scan
        passed = passed and scan.passed
    return passed, config, sections


def _cmd_falsify(args) -> tuple[bool, dict, dict]:
    kinds = (
        ["break_identity", "break_quadrilateral"]
        if args.kind == "both"
        else [args.kind]
    )
    if args.size > MAX_POINTS:
        raise UsageError(f"falsify needs at most {MAX_POINTS} points, got {args.size}")
    seeds = range(args.seed, args.seed + args.trials)
    step = max(1, _TRIAL_CHUNK // max(1, args.size) ** 2)
    found = {kind: [] for kind in kinds}
    for lo in range(0, len(seeds), step):  # in order, so the first failing trial raises
        tables, s = _broken_tables(args.size, seeds[lo:lo + step], args.profile, kinds)
        for kind in kinds:  # each stack is released once its verdicts are in
            D = tables.pop(kind)
            found[kind] += (_identity_verdicts(D) if kind == "break_identity"
                            else _rectangular_verdicts(D, s)).tolist()
    runs = [
        {"seed": seed, "kind": kind, "detected": found[kind][t]}
        for t, seed in enumerate(seeds) for kind in kinds
    ]
    config = {"profile": args.profile, "kind": args.kind, "size": args.size,
              "trials": args.trials, "seed": args.seed}
    detected = sum(1 for r in runs if r["detected"])
    return (detected == len(runs), config,
            {"detected": detected, "total": len(runs), "runs": runs})


def _cmd_instances(args) -> tuple[bool, dict, dict]:
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
        return True, {"action": "list"}, {"instances": entries}
    if args.action == "export":
        if not args.name or not args.out_file:
            raise UsageError("export needs --name and --out")
        bundle = get_instance(args.name, args.grid)
        dump_space(bundle.space, args.out_file)
        return (True, {"action": "export", "name": args.name, "out": args.out_file},
                {"space": space_to_dict(bundle.space)})
    raise UsageError(f"unknown instances action {args.action!r}")


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

def _build_parser(argv: list[str] | None = None) -> argparse.ArgumentParser:
    """The parser with every subcommand; given ``argv``, only the subcommand it
    names gets its arguments (the top-level help shows the others by name)."""
    top = argparse.ArgumentParser(
        prog="rqbm",
        description="verify axioms, certify contractions, and solve fixed points "
        "on asymmetric generalized metric spaces",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    # the top level takes no option values, so its first positional names the subcommand
    chosen = None if argv is None else next((a for a in argv if not a.startswith("-")), "")

    def command(name: str, summary: str, run, **defaults):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run, **defaults)
        return p if chosen in (None, name) else None

    if p := command("verify", "identity + quadrilateral axioms at a coefficient", _cmd_verify):
        _add_space_args(p)
        p.add_argument("--s", type=float, default=None)
        _add_report_args(p)

    if p := command("classify", "full class membership report", _cmd_classify):
        _add_space_args(p)
        p.add_argument("--s", type=float, default=None)
        _add_report_args(p)

    if p := command("min-s", "tightest quadrilateral coefficient", _cmd_min_s):
        _add_space_args(p)
        _add_report_args(p)

    if p := command("validate-theta", "validate a theta candidate", _cmd_validate_theta):
        p.add_argument("--theta", required=True, help='expression in t or "builtin:NAME"')
        _add_report_args(p)

    if p := command("validate-phi", "validate a phi candidate", _cmd_validate_phi):
        p.add_argument("--phi", required=True, help='expression in t or "builtin:NAME"')
        _add_report_args(p)

    if p := command("contraction", "certify a contraction condition", _cmd_contraction):
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

    if p := command("solve", "run the fixed-point iteration", _cmd_solve):
        _add_space_args(p)
        p.add_argument("--map", help="self-map expression in x")
        p.add_argument("--start", help="a label or a number")
        p.add_argument("--tol", type=float, default=DEFAULT_SOLVE_TOL)
        p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
        p.add_argument("--diagnostics", action="store_true")
        p.add_argument("--uniqueness-starts",
                       help='comma-separated starts, or "all" for every label')
        _add_report_args(p)

    if p := command("falsify", "generate-and-check loop over seeds", _cmd_falsify):
        p.add_argument("--profile", choices=("metric", "quasi", "adversarial"),
                       default="metric")
        p.add_argument("--kind",
                       choices=("break_identity", "break_quadrilateral", "both"),
                       default="both")
        p.add_argument("--trials", type=_trial_count, default=20)
        p.add_argument("--size", type=int, default=5,
                       help=f"points per trial, 2 to {MAX_POINTS}")
        p.add_argument("--seed", type=int, default=0)
        _add_report_args(p)

    if p := command("instances", "list or export built-in instances", _cmd_instances, out=None):
        p.add_argument("action", choices=("list", "export"))
        p.add_argument("--name")
        p.add_argument("--grid", type=_grid_size, default=None)
        p.add_argument("--out", dest="out_file")
        p.add_argument("--format", choices=("json", "text"), default="json")

    return top


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        passed, config, sections = args.run(args)
    except (UsageError, ExprError, SpaceError, MapError, IterateEscapeError,
            KeyError, ValueError, OSError) as e:
        msg = e.args[0] if (isinstance(e, KeyError) and e.args) else str(e)
        sys.stderr.write(f"error: {msg}\n")
        return 2
    report = plain({"schema": SCHEMA, "command": args.command, "config": config,
                    "passed": passed, **sections})
    try:
        _emit(report, args.format, args.out)  # opens --out before stdout is written
    except OSError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    return 0 if passed else 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
