"""Print the exit code and the SHA-256 of stdout and stderr of every report command.

The commands are every workload command of ``bench/workloads.py`` at the
given seeds, each again with ``--format text``, a fixed list of error cases
(some read a space file that the script writes under the system temp
directory, at a fixed path so that the printed argv is stable: an analytic
space whose formula fails, and a space whose claimed coefficient is NaN),
solver cases that between them reach every Picard ending, contraction cases
whose ``--best-exponent`` reads the pair set of the check before it, and the
help and usage-error text of the parser (wrapped at ``COLUMNS=80``), and the
carrier cases: two instance exports (each to a fixed temp path), three space
files whose carrier is refused (a NaN value, a value two labels share, a
duplicated label), and a linear contraction given a theta that does not
parse, with and without ``--best-exponent``.  Each runs
through ``rqbm.cli.main`` in this process, one line per command: exit code
(or ``raised`` and the exception a command let escape), stdout digest,
stderr digest, argv.

``rqbm`` is imported from ``PYTHONPATH``, so the same script run against two
checkouts tells whether any report byte changed between them::

    PYTHONPATH=/path/to/parent/src python tools/report_digests.py --seeds 0 1 > before.txt
    PYTHONPATH=src python tools/report_digests.py --seeds 0 1 > after.txt
    diff before.txt after.txt
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import shlex
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402

import rqbm.cli  # noqa: E402

# an analytic space whose formula fails where x - y <= -0.5
FAILING_SPACE = Path(tempfile.gettempdir()) / "rqbm-failing-analytic.json"
FAILING_FORMULA = "(x - y)^2 + 0 * ln(x - y + 0.5)"
# a finite space whose claimed coefficient is NaN
NAN_SPACE = Path(tempfile.gettempdir()) / "rqbm-nan-claimed.json"
# an --out path in a directory that does not exist
UNWRITABLE_OUT = Path(tempfile.gettempdir()) / "rqbm-no-such-dir" / "report.json"
# finite spaces whose carrier is refused
REFUSED_CARRIERS = {
    Path(tempfile.gettempdir()) / f"rqbm-{name}.json": {
        "kind": "finite", "default": "(x - y)^2",
        "points": [{"label": label, "value": value} for label, value in points],
    }
    for name, points in [("nan-value", [("a", 0.0), ("b", math.nan)]),
                         ("shared-value", [("a", 0.5), ("b", 1.0), ("c", 0.5)]),
                         ("duplicate-label", [("a", 0.0), ("b", 1.0), ("a", 2.0)])]
}

ERROR_CASES = [
    ["classify", "--instance", "no-such-instance"],
    ["verify", "--instance", "example-2-3", "--grid", "1"],
    ["verify", "--instance", "example-2-3", "--s", "-1"],
    ["falsify", "--trials", "0"],
    ["falsify", "--size", "3"],
    ["contraction", "--instance", "example-sqrt", "--map", "x - 5"],
    ["solve", "--instance", "example-sqrt", "--map", "ln(x - 1.5)", "--start", "1.2"],
    ["contraction", "--instance", "example-sqrt", "--kind", "theta_phi"],
    ["verify", "--space", str(FAILING_SPACE)],
    ["contraction", "--space", str(FAILING_SPACE), "--kind", "linear", "--k", "0.5",
     "--map", "2 - x/2"],
    ["verify", "--instance", "example-2-3", "--s", "nan"],
    ["classify", "--instance", "example-2-3", "--s", "nan"],
    ["contraction", "--instance", "example-sqrt", "--s", "nan"],
    ["verify", "--space", str(NAN_SPACE)],
    ["verify", "--instance", "example-2-3", "--out", str(UNWRITABLE_OUT)],
    ["contraction", "--instance", "example-sqrt", "--map", "²"],
    # the lexer's and parser's messages
    *(["contraction", "--instance", "example-sqrt", "--map", source]
      for source in ["1e+", ".5e", "x ! 2", "(x", "2 x", "x²", "sqrt(x, 2)"]),
    ["validate-theta", "--theta", "t ⁄ 2"],
]

SOLVER_CASES = [
    # label cycles
    ["solve", "--instance", "example-2-3", "--map", "2.5 - x", "--start", "1.05",
     "--uniqueness-starts", "all"],
    # unlabeled cycles, off the carrier
    ["solve", "--instance", "example-final", "--grid", "40", "--map", "2 - x", "--start", "0.55",
     "--uniqueness-starts", "all"],
    # exact fixed points and max_iter in one scan
    ["solve", "--instance", "example-final", "--start", "1/3", "--uniqueness-starts", "all",
     "--max-iter", "2"],
    ["solve", "--instance", "example-sqrt", "--start", "2.0", "--max-iter", "3", "--diagnostics"],
    # a trace too short for the skip-distance diagnostics
    ["solve", "--instance", "example-sqrt", "--start", "1", "--diagnostics"],
]

# theta added to a linear pass, a theta pass reused, and a theta that fails
# after a linear pass
PAIR_PASS_CASES = [
    ["contraction", "--instance", "example-final", "--grid", "11", *kind, "--best-exponent"]
    for kind in (["--kind", "linear", "--k", "0.5"],
                 ["--kind", "theta_phi"],
                 ["--kind", "linear", "--k", "0.5", "--theta", "ln(t - 1)"])
]

SUBCOMMANDS = ["verify", "classify", "min-s", "validate-theta", "validate-phi", "contraction",
               "solve", "falsify", "instances"]
HELP_CASES = [
    ["--help"],
    *([name, "--help"] for name in SUBCOMMANDS),
    ["no-such-command"],
    ["solve", "--no-such-option"],
]

CARRIER_CASES = [
    ["instances", "export", "--name", "example-2-3",
     "--out", str(Path(tempfile.gettempdir()) / "rqbm-export-2-3.json")],
    ["instances", "export", "--name", "example-final", "--grid", "5",
     "--out", str(Path(tempfile.gettempdir()) / "rqbm-export-final-5.json")],
    *(["verify", "--space", str(path)] for path in REFUSED_CARRIERS),
    *(["contraction", "--instance", "example-final", "--grid", "11", "--kind", "linear",
       "--k", "0.5", "--theta", "((", *flag] for flag in ([], ["--best-exponent"])),
]


def digest_line(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = rqbm.cli.main(argv)
        except Exception as e:  # reported on its line, so the later commands still run
            code = f"raised {type(e).__name__}"
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{code} {sha[0]} {sha[1]} {shlex.join(argv)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1],
                        help="workload seeds (default: 0 1)")
    args = parser.parse_args(argv)
    json_runs = [
        cmd["argv"]
        for seed in args.seeds
        for workload in workloads.WORKLOADS
        for cmd in workloads.commands(workload, seed)
    ]
    text_runs = [run + ["--format", "text"] for run in json_runs]
    FAILING_SPACE.write_text(json.dumps({
        "kind": "analytic", "domain": {"lo": 1.0, "hi": 2.0}, "forward": FAILING_FORMULA,
    }))
    NAN_SPACE.write_text(json.dumps({
        "kind": "finite", "points": [{"label": "a", "value": 0.0}], "claimed_s": math.nan,
    }))
    for path, obj in REFUSED_CARRIERS.items():
        path.write_text(json.dumps(obj))
    os.environ["COLUMNS"] = "80"  # argparse wraps help text at the terminal width
    cases = ERROR_CASES + SOLVER_CASES + PAIR_PASS_CASES + HELP_CASES + CARRIER_CASES
    for run in json_runs + text_runs + cases:
        print(digest_line(run), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
