"""The rqbm benchmark: README-style CLI commands, each in a fresh process.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): quad-scan, falsify-small, fixed-point.
Load is a closed loop with one client: the commands of a workload run one
after another as a pass, and passes repeat while a further pass still fits
in S seconds (at least one pass runs).  Every verdict is checked against
``goldens.json``.

--trace 0 prints the end-to-end metrics: setup_s (median fresh
``rqbm --version``), batch_s (median pass time), slowest_cmd_s (median time
of the slowest command), peak_rss_mb (highest command peak RSS), and the
fail ratio of commands whose exit code or verdict differs from the goldens.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (medians over passes; every ``*_s`` is self
time), the tracing overhead, and checks that traced reports are
byte-identical to untraced ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  Full results, provenance and spans go to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

import harness
from workloads import WORKLOADS, commands

SETUP_REPEATS = 7
OUT = harness.BENCH / "out"

END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "slowest_cmd_s": "s",
                    "peak_rss_mb": "MiB"}

SUBCOMMANDS = ("classify", "verify", "min-s", "falsify", "instances", "contraction",
               "solve", "validate-phi", "validate-theta")

# Per-layer metrics of a traced pass: name -> unit.
PER_LAYER_UNITS = {
    "expr.parses": "count", "expr.parse_s": "s",
    "expr.scalar_evals": "count", "expr.scalar_eval_s": "s",
    "expr.array_evals": "count", "expr.array_elements": "count",
    "expr.array_eval_s": "s", "expr.eval_errors": "count",
    "spaces.space_builds": "count", "spaces.space_build_s": "s",
    "spaces.distance_calls": "count", "spaces.distance_s": "s",
    "spaces.scan_calls": "count", "spaces.scan_s": "s",
    "spaces.quadruples_checked": "count", "spaces.violations_found": "count",
    "spaces.witnesses_built": "count", "spaces.witness_build_s": "s",
    "spaces.witnesses_kept": "count", "spaces.witness_keep_ratio": "ratio",
    "spaces.classify_s": "s", "spaces.identity_s": "s",
    "thetaphi.validate_calls": "count", "thetaphi.validate_s": "s",
    "thetaphi.spec_calls": "count", "thetaphi.spec_call_s": "s",
    "contraction.check_calls": "count", "contraction.check_s": "s",
    "contraction.pairs_total": "count", "contraction.pairs_checked": "count",
    "contraction.pairs_skipped": "count",
    "contraction.map_applies": "count", "contraction.map_apply_s": "s",
    "solver.picard_calls": "count", "solver.picard_steps": "count",
    "solver.picard_s": "s", "solver.uniqueness_s": "s", "solver.converged_ratio": "ratio",
    "instances.builds": "count", "instances.build_s": "s",
    "instances.generated_spaces": "count", "instances.generate_s": "s",
    "cli.commands": "count",
    **{f"cli.cmd_s.{sub}": "s" for sub in SUBCOMMANDS},
    "cli.emit_s": "s", "cli.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

# Span layer -> (calls metric, self-seconds metric).
_SPAN_METRICS = {
    "expr.parse": ("expr.parses", "expr.parse_s"),
    "spaces.build": ("spaces.space_builds", "spaces.space_build_s"),
    "spaces.scan": ("spaces.scan_calls", "spaces.scan_s"),
    "spaces.classify": (None, "spaces.classify_s"),
    "spaces.identity": (None, "spaces.identity_s"),
    "thetaphi.validate": ("thetaphi.validate_calls", "thetaphi.validate_s"),
    "contraction.check": ("contraction.check_calls", "contraction.check_s"),
    "solver.picard": ("solver.picard_calls", "solver.picard_s"),
    "solver.uniqueness": (None, "solver.uniqueness_s"),
    "instances.build": ("instances.builds", "instances.build_s"),
    "instances.generate": ("instances.generated_spaces", "instances.generate_s"),
    "cli.main": ("cli.commands", "cli.emit_s"),
}

# Leaf key -> (calls metric, self-seconds metric).
_LEAF_METRICS = {
    "expr.evaluate.scalar": ("expr.scalar_evals", "expr.scalar_eval_s"),
    "expr.evaluate.array": ("expr.array_evals", "expr.array_eval_s"),
    "spaces.distance": ("spaces.distance_calls", "spaces.distance_s"),
    "spaces.witness": ("spaces.witnesses_built", "spaces.witness_build_s"),
    "thetaphi.spec_call": ("thetaphi.spec_calls", "thetaphi.spec_call_s"),
    "contraction.map_apply": ("contraction.map_applies", "contraction.map_apply_s"),
}

# Span count -> metric.
_COUNT_METRICS = {
    "quadruples": "spaces.quadruples_checked",
    "violations": "spaces.violations_found",
    "kept": "spaces.witnesses_kept",
    "pairs_total": "contraction.pairs_total",
    "pairs_checked": "contraction.pairs_checked",
    "pairs_skipped": "contraction.pairs_skipped",
    "steps": "solver.picard_steps",
    "converged": "solver.converged",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(results: list[dict]) -> dict:
    """Per-layer metrics of one traced pass (all but the tracing overhead)."""
    m = dict.fromkeys(PER_LAYER_UNITS, 0)
    m["solver.converged"] = 0
    for res in results:
        m["cli.report_bytes"] += res.get("bytes", 0)
        for span in res.get("spans") or ():
            calls, secs = _SPAN_METRICS.get(span["name"], (None, None))
            if calls:
                m[calls] += 1
            if secs:
                m[secs] += span["self"]
            if span["name"] == "cli.main":
                m[f"cli.cmd_s.{res['argv'][0]}"] += span["end"] - span["start"]
            for key, value in span["counts"].items():
                m[_COUNT_METRICS[key]] += value
            for key, (n, took, elements, errors) in span["leaf"].items():
                calls, secs = _LEAF_METRICS[key]
                m[calls] += n
                m[secs] += took
                if key.startswith("expr."):
                    m["expr.eval_errors"] += errors
                    m["expr.array_elements"] += elements
    m["spaces.witness_keep_ratio"] = _ratio(m["spaces.witnesses_kept"],
                                            m["spaces.violations_found"])
    m["solver.converged_ratio"] = _ratio(m.pop("solver.converged"),
                                         m["solver.picard_calls"])
    return m


def _check_pass(goldens, cmds, seed, results, tally, untraced=None) -> None:
    """Tally one pass against the goldens and, for a traced pass, against the
    report bytes of the untraced pass it follows."""
    for k, (cmd, res) in enumerate(zip(cmds, results)):
        verdict = harness.check(goldens, cmd, seed, res)
        mismatch = verdict["mismatch"]
        if untraced is not None and res.get("sha256") != untraced[k].get("sha256"):
            mismatch = [*mismatch, "traced report bytes"]
        tally["attempted"] += 1
        tally["full"] = tally["full"] and verdict["full"]
        tally["changed"] += verdict["changed"]
        if mismatch:
            tally["failed"] += 1
            tally["mismatches"].append({"id": cmd["id"], "fields": mismatch})


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    goldens = harness.load_goldens()
    cmds = commands(workload, seed)
    setup = [] if trace else harness.time_setup(SETUP_REPEATS)
    tally = {"attempted": 0, "failed": 0, "changed": 0, "full": True, "mismatches": []}
    passes, traced_passes = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        results = harness.run_pass(cmds)
        _check_pass(goldens, cmds, seed, results, tally)
        passes.append(results)
        if trace:
            traced = harness.run_pass(cmds, trace=True)
            _check_pass(goldens, cmds, seed, traced, tally, untraced=results)
            traced_passes.append(traced)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    return {"cmds": cmds, "setup": setup, "passes": passes,
            "traced_passes": traced_passes, "tally": tally}


def _batch(results: list[dict]) -> float:
    return sum(r.get("seconds", 0.0) for r in results)


def _summary(values: list[float]) -> tuple:
    """Median, first and third quartile, and sample count."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, len(values)


def end_to_end(measured: dict) -> tuple[dict, dict]:
    """End-to-end metric summaries, and the slowest command."""
    passes, cmds = measured["passes"], measured["cmds"]
    times = [[p[k].get("seconds", 0.0) for p in passes] for k in range(len(cmds))]
    slowest = max(range(len(cmds)), key=lambda k: statistics.median(times[k]))
    rss = [r.get("maxrss_kb", 0) / 1024 for p in passes for r in p]
    return {
        "setup_s": _summary(measured["setup"]),
        "batch_s": _summary([_batch(p) for p in passes]),
        "slowest_cmd_s": _summary(times[slowest]),
        "peak_rss_mb": (max(rss), max(rss), max(rss), len(rss)),
    }, cmds[slowest]


def per_layer(measured: dict) -> dict:
    per_pass = [layer_metrics(p) for p in measured["traced_passes"]]
    out = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    plain = statistics.median(map(_batch, measured["passes"]))
    traced = statistics.median(map(_batch, measured["traced_passes"]))
    out["trace.overhead_ratio"] = _ratio(traced, plain)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        harness.check_layout()
    except harness.LayoutError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    measured = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    tally = measured["tally"]
    prov = harness.provenance()
    first = measured["passes"][0][0]
    prov.update(numpy=first.get("numpy"), child_python=first.get("python"))
    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(measured['passes'])}  commands {len(measured['cmds'])}")
    print("goldens: " + ("all verdict fields checked" if tally["full"] else
                         "this seed has no recorded goldens: only seed-independent "
                         "fields checked, seed-specific fields unchecked"))
    print(f"provenance: {json.dumps(prov, sort_keys=True)}")
    summary = None
    if args.trace:
        metrics, units = per_layer(measured), PER_LAYER_UNITS
        for name, value in metrics.items():
            print(f"  {name:<32} {value:>14.6g} {units[name]}")
    else:
        e2e, slowest = end_to_end(measured)
        metrics, units = {k: v[0] for k, v in e2e.items()}, END_TO_END_UNITS
        summary = {k: dict(zip(("median", "q1", "q3", "n"), v)) for k, v in e2e.items()}
        print(f"  {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'n':>4}  unit")
        for name, (value, q1, q3, n) in e2e.items():
            print(f"  {name:<16} {value:>10.4f} {q1:>10.4f} {q3:>10.4f} {n:>4}  {units[name]}")
        print(f"  slowest command: {slowest['id']} (rqbm {' '.join(slowest['argv'])})")
    fail_ratio = tally["failed"] / tally["attempted"]
    print(f"  {'fail_ratio':<16} {fail_ratio:>10.4f}  fraction "
          f"({tally['failed']} of {tally['attempted']} commands)")
    print(f"reports changed vs goldens (informational): {tally['changed']} "
          f"of {tally['attempted']}")
    for miss in tally["mismatches"][:10]:
        print(f"  MISMATCH {miss['id']}: {', '.join(miss['fields'])}")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [span for p in measured["passes"] + measured["traced_passes"]
             for r in p for span in (r.pop("spans", None) or ())]
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "provenance": prov, "metrics": metrics,
                   "summary": summary, "fail_ratio": fail_ratio, "tally": tally,
                   "setup": measured["setup"], "passes": measured["passes"],
                   "traced_passes": measured["traced_passes"]}, fh)
    if args.trace:
        with open(OUT / f"{stem}-spans.json", "w", encoding="utf-8") as fh:
            json.dump(spans, fh)

    print(json.dumps({
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
