"""Record the verdict goldens of every workload command.

Usage: python3 bench/goldens.py FIRST_SEED LAST_SEED

Runs one untraced pass of each workload for every seed in the inclusive
range and writes ``bench/goldens.json``: per command, the verdict fields and
report SHA-256 of each seed, plus the fields the command declares
seed-independent.  Refuses to write if a declared seed-independent field
differs between seeds, or if a command fails to produce a report.
"""
from __future__ import annotations

import json
import sys

import harness
from workloads import WORKLOADS, commands, invariant_fields

DEFAULT_SEED = 0
HELD_OUT_SEED = 1


def record(seeds: list[int]) -> dict:
    entries: dict[str, dict] = {}
    for workload in WORKLOADS:
        for seed in seeds:
            cmds = commands(workload, seed)
            for cmd, res in zip(cmds, harness.run_pass(cmds)):
                if "verdict" not in res:
                    raise RuntimeError(f"{cmd['id']} seed {seed}: {res['error']}")
                inv = invariant_fields(cmd, res["verdict"])
                entry = entries.setdefault(cmd["id"], {"invariant": inv, "seeds": {}})
                if inv != entry["invariant"]:
                    diff = sorted(k for k in inv if inv[k] != entry["invariant"][k])
                    raise RuntimeError(
                        f"{cmd['id']}: fields declared seed-independent differ "
                        f"at seed {seed}: {diff}"
                    )
                entry["seeds"][str(seed)] = {
                    "argv": cmd["argv"], "fields": res["verdict"], "sha256": res["sha256"],
                }
            print(f"recorded {workload} seed {seed}", file=sys.stderr, flush=True)
    return {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "recorded_seeds": seeds,
        "provenance": harness.provenance(),
        "commands": entries,
    }


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv)
    seeds = list(range(first, last + 1))
    if DEFAULT_SEED not in seeds or HELD_OUT_SEED not in seeds:
        print("the range must hold the default and the held-out seed", file=sys.stderr)
        return 2
    goldens = record(seeds)
    with open(harness.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
