"""Self-checks of the benchmark itself.

Usage: python3 bench/selfcheck.py

Checks, on the cheap falsify-small workload, that
  * the same seed gives the same command list, verdicts and report bytes twice;
  * a tampered golden raises the fail ratio above 0, on a recorded seed and,
    through a seed-independent field, on an unrecorded one;
  * the tracer leaves every report byte-identical;
  * every metric in BENCHMARK.json is produced with its unit, and nothing else;
  * the benchmark refuses to run, with no result line, in a directory that
    holds only BENCHMARK.json and the benchmark's own files.
Exits 1 if any check fails.
"""
from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import harness
import run
from workloads import WORKLOADS, commands

WORKLOAD = "falsify-small"
# Per-layer metrics that cannot be measured from outside the program, with
# the reason; every other per-layer metric in BENCHMARK.json must be produced.
UNMEASURED: dict[str, str] = {}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def fail_ratio(goldens: dict, seed: int, results: list[dict]) -> float:
    tally = {"attempted": 0, "failed": 0, "changed": 0, "full": True, "mismatches": []}
    run._check_pass(goldens, commands(WORKLOAD, seed), seed, results, tally)
    return tally["failed"] / tally["attempted"]


def main() -> int:
    goldens = harness.load_goldens()
    seed = goldens["default_seed"]
    unrecorded = max(goldens["recorded_seeds"]) + 1

    expect(all(commands(w, s) == commands(w, s) for w in WORKLOADS for s in (0, 1, 99)),
           "same seed gives the same command lists")
    cmds = commands(WORKLOAD, seed)
    first, second = harness.run_pass(cmds), harness.run_pass(cmds)
    expect([r["verdict"] for r in first] == [r["verdict"] for r in second]
           and [r["sha256"] for r in first] == [r["sha256"] for r in second],
           "same seed gives the same verdicts and report bytes twice")
    expect(fail_ratio(goldens, seed, first) == 0.0, "untampered goldens pass")

    tampered = copy.deepcopy(goldens)
    fields = tampered["commands"][f"{WORKLOAD}/0"]["seeds"][str(seed)]["fields"]
    fields["detected"] += 1
    expect(fail_ratio(tampered, seed, first) > 0.0,
           "a tampered seed golden raises the fail ratio above 0")
    tampered = copy.deepcopy(goldens)
    tampered["commands"][f"{WORKLOAD}/3"]["invariant"]["passed"] = False
    other = harness.run_pass(commands(WORKLOAD, unrecorded))
    expect(fail_ratio(goldens, unrecorded, other) == 0.0
           and fail_ratio(tampered, unrecorded, other) > 0.0,
           "a tampered seed-independent golden fails an unrecorded seed")

    traced = harness.run_pass(cmds, trace=True)
    expect([r["sha256"] for r in traced] == [r["sha256"] for r in first],
           "traced reports are byte-identical to untraced ones")

    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    produced = {**dict.fromkeys(run.layer_metrics(traced)), "trace.overhead_ratio": None}
    expect(set(produced) == set(run.PER_LAYER_UNITS), "tracer yields every per-layer metric")
    expect(set(declared) | set(UNMEASURED) == set(run.PER_LAYER_UNITS)
           and all(run.PER_LAYER_UNITS[k] == u for k, u in declared.items()),
           "BENCHMARK.json per_layer matches the produced metrics and units")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end matches the produced metrics and units")

    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(harness.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(harness.BENCH, Path(tmp) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", WORKLOAD, "--seed", "0", "--seconds", "1",
             "--trace", "0"], cwd=tmp, capture_output=True, text=True, timeout=180,
        )
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "refuses to run without the program (exit code "
           f"{proc.returncode})")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
