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
parse, with and without ``--best-exponent``; then the range refusals of r
and k, ``--best-exponent`` with no theta to read, and ``--grid`` on an
interval's export; then validate cases whose phi iterates settle at
different steps, never settle, rise or escape, and thetas with a jump; and
the flags a contraction kind or ``instances list`` does not read; then scan
cases whose kept witnesses span many rows, or rows with one violating column,
and analytic random phases (verify, min-s, contraction and classify) at
seeds of two and five words and a negative one; then array evaluation
cases: an analytic space that fails only late in C order (and a solve
whose first step fails on it), maps whose
untaken branch leaves its domain or that fail at an interior value, and a
finite space whose default formula fails only on the diagonal (each space
file written at a fixed temp path); then failing Picard scans: uniqueness
starts that fail only late, a later start that fails in an earlier round
than an earlier one, and a start outside the interval after a failing one;
then the branches of the quadrilateral operations' one quadruple set:
``classify`` at s = 1, ``verify`` and ``classify`` at s = 0, and ``verify``,
``min-s`` and ``classify`` on a grid of three points, where only the random
quadruples count.
Each runs through ``rqbm.cli.main`` in this process, one line per command:
exit code (or ``raised`` and the exception a command let escape), stdout
digest, stderr digest, argv.  Then comes one line per demo under
``demos/``, run in this process as ``__main__``, in the same form with the
demo's path for argv, so that a change to the library API shows in its
public examples.  Last come falsify cases whose seeded draws take different
paths: seeds of one to five 32-bit words in one stack, a negative seed, the
two-point table, the adversarial profile's integer draw, and trials over
three chunks, each again with ``--format text``.  Last of all come the
commands that write a file, each to a fixed temp path that is removed
first: reports written with ``--out`` (JSON and text) and instance exports.
Their lines add the file's digest (``-`` when none was written) before the
argv.  After them, every case from the error cases to the quadruple-set
cases runs again with ``--format text``, in the same order.

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
import runpy
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
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
    # a carrier fault is reported before a bad s: the sample is built first
    ["contraction", "--space", str(FAILING_SPACE), "--kind", "linear", "--k", "0.5",
     "--map", "2 - x/2", "--s", "nan"],
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

# r and k outside (0, 1); r with a map that leaves the interval, where the pair
# set is built first and the map's error is reported; --best-exponent where no
# theta is given or carried; and --grid on an interval's export
RANGE_CASES = [
    ["contraction", "--instance", "example-sqrt", "--exponent", "2"],
    ["contraction", "--instance", "example-sqrt", "--kind", "linear", "--k", "0"],
    ["contraction", "--instance", "example-sqrt", "--map", "x - 5", "--exponent", "2"],
    ["contraction", "--instance", "example-2-3", "--kind", "linear", "--k", "0.5",
     "--map", "x/2", "--best-exponent"],
    ["instances", "export", "--name", "example-sqrt", "--grid", "50",
     "--out", str(Path(tempfile.gettempdir()) / "rqbm-export-sqrt-50.json")],
]

# phi iterates that settle at different steps, never settle, rise, or escape;
# thetas whose slopes jump at t = 2 (a full median window) and at t = 900 (the
# truncated windows at the grid's end)
VALIDATE_CASES = [
    *(["validate-phi", "--phi", phi] for phi in ["if(t > 1.25, t - 0.1, t)", "t^0.999",
                                                 "2*t - 1", "if(t > 1.25, t - 0.3, t)"]),
    *(["validate-theta", "--theta", f"if(t > {at}, 100 * t, t) + 1"] for at in (2, 900)),
]

# flags the chosen contraction kind, or instances list, does not read
UNREAD_FLAG_CASES = [
    ["contraction", "--instance", "example-final", "--grid", "11", "--kind", "linear",
     "--k", "0.5", "--exponent", "0.3", "--phi", "builtin:midpoint"],
    ["contraction", "--instance", "example-sqrt", "--k", "0.5"],
    ["contraction", "--instance", "example-final", "--kind", "theta_phi", "--exponent", "0.5"],
    ["instances", "list", "--grid", "50", "--name", "example-sqrt"],
    ["instances", "list", "--out", str(Path(tempfile.gettempdir()) / "rqbm-list.json")],
]

# seeds of one and two words, and of four and five (2^128 - 3 on), in one
# stack; a negative seed; two points, so break_identity draws among two
# entries; the adversarial integer draw; and 150 trials of 60 points, in
# three chunks of trials
FALSIFY_CASES = [
    ["falsify", "--seed", "4294967290", "--trials", "12"],
    ["falsify", "--seed", str(2**128 - 3), "--trials", "6"],
    ["falsify", "--seed", "-1"],
    ["falsify", "--size", "2", "--kind", "break_identity"],
    ["falsify", "--profile", "adversarial", "--size", "4"],
    ["falsify", "--profile", "quasi", "--size", "60", "--trials", "150"],
]

# kept witnesses over many rows (100 across 16) and in rows where one column
# violates; classify's one witness at s; the supremum's witness; and the
# analytic random phases at seeds of two and five 32-bit words, and a negative one
SCAN_CASES = [
    ["verify", "--instance", "example-2-3", "--s", "2.8"],
    ["verify", "--instance", "example-final", "--grid", "40", "--s", "3"],
    ["classify", "--instance", "example-2-3", "--s", "0.5"],
    ["min-s", "--instance", "example-final"],
    *([command, "--instance", "example-sqrt", "--seed", seed]
      for seed in (str(2**40), str(2**130), "-1")
      for command in ("verify", "min-s", "contraction", "classify")),
]

# an analytic space that fails only at (2, 0) of a grid on [0, 2], and a finite
# space whose default formula fails only where x = y, which no table entry reads
LATE_SPACE = Path(tempfile.gettempdir()) / "rqbm-late-failing.json"
DIAGONAL_SPACE = Path(tempfile.gettempdir()) / "rqbm-diagonal-failing.json"
EVAL_SPACES = {
    LATE_SPACE: {"kind": "analytic", "domain": {"lo": 0.0, "hi": 2.0},
                 "forward": "sqrt(y - x + 1.999) * abs(x - y)"},
    DIAGONAL_SPACE: {"kind": "finite", "default": "abs(x - y) + 0 * ln(abs(x - y))",
                     "points": [{"label": f"p{i}", "value": i / 4} for i in range(6)]},
}
EVAL_CASES = [
    *([command, "--space", str(LATE_SPACE)] for command in ("verify", "min-s")),
    # a start whose first step, 0 -> 2, has d(2, 0) fail: the start's own error
    ["solve", "--space", str(LATE_SPACE), "--map", "2 - x", "--start", "0"],
    # each branch leaves its domain where the other is taken, and the result passes
    *([command, "--instance", "example-sqrt", "--map", "if(x >= 1.5, sqrt(x), 1 + sqrt(1.5 - x))",
       *more] for command, more in (("contraction", []), ("solve", ["--start", "1.2"]))),
    # the first failing grid value is interior, 1.5128...
    ["contraction", "--instance", "example-sqrt", "--map", "1 + sqrt(1.5 - x)"],
    *([command, "--space", str(DIAGONAL_SPACE)] for command in ("verify", "classify")),
]

# failing Picard scans: uniqueness starts of which only those near 1.5 fail; a
# later start (1.95) that fails in round 1, before an earlier one (1.3) fails in
# round 2, which is the one reported; and a start outside [1, 2] after a start
# that fails and after one that converges
_CLIMB = "if(x > 1.9, sqrt(1.9 - x), if(x < 1.2, x, x * 1.3))"
FAILING_SCAN_CASES = [
    ["solve", "--instance", "example-final", "--grid", "40", "--start", "1/3",
     "--uniqueness-starts", "all", "--map", "if(x >= 1.4999, sqrt(1.4 - x), (sqrt(x) + 3) / 4)"],
    *(["solve", "--instance", "example-sqrt", "--start", "1.0", "--uniqueness-starts", starts,
       "--map", _CLIMB] for starts in ("1.0,1.3,1.95", "1.3,5", "1.0,5,1.95")),
]

# the branches where the quadrilateral operations read one quadruple set:
# classify's check at s = 1, which is also its check at 1; s = 0, which meets
# the three-hop table's inf at y = x; and a grid of three points, which holds
# no quadruple, so that only the random ones count
QUAD_SET_CASES = [
    ["classify", "--instance", "example-sqrt", "--s", "1"],
    *([command, "--instance", "example-sqrt", "--s", "0"] for command in ("verify", "classify")),
    *([command, "--instance", "example-sqrt", "--grid", "3"]
      for command in ("verify", "min-s", "classify")),
    ["verify", "--instance", "example-sqrt", "--grid", "3", "--s", "1"],
]

# commands that write a file at their last argument: reports also written
# with --out, in both formats and with one of the large falsify reports, and
# the instance exports of a formula and of two finite carriers
OUT_FILE = str(Path(tempfile.gettempdir()) / "rqbm-out.txt")
FILE_CASES = [
    *([*argv, *fmt, "--out", OUT_FILE] for fmt in ([], ["--format", "text"]) for argv in [
        ["verify", "--instance", "example-2-3", "--s", "2.8"],
        ["solve", "--instance", "example-final", "--start", "1/3", "--uniqueness-starts", "all"],
        ["falsify", "--profile", "metric", "--size", "8", "--trials", "600"],
    ]),
    *(["instances", "export", "--name", name, *grid, "--out", OUT_FILE]
      for name, grid in [("example-sqrt", []), ("example-2-3", []),
                         ("example-final", ["--grid", "5"])]),
]

DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _digest(run, name: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run()
        except Exception as e:  # reported on its line, so the later commands still run
            code = f"raised {type(e).__name__}"
    sha = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{code} {sha[0]} {sha[1]} {name}"


def digest_line(argv: list[str]) -> str:
    return _digest(lambda: rqbm.cli.main(argv), shlex.join(argv))


def file_line(argv: list[str]) -> str:
    """``digest_line`` with the digest of the file written at ``argv[-1]`` before the argv."""
    path = Path(argv[-1])
    path.unlink(missing_ok=True)
    code, out, err, name = digest_line(argv).split(" ", 3)
    written = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"
    return f"{code} {out} {err} {written} {name}"


def demo_line(path: Path) -> str:
    def run() -> int:
        runpy.run_path(str(path), run_name="__main__")
        return 0
    return _digest(run, str(path.relative_to(ROOT)))


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
    for path, obj in {**REFUSED_CARRIERS, **EVAL_SPACES}.items():
        path.write_text(json.dumps(obj))
    os.environ["COLUMNS"] = "80"  # argparse wraps help text at the terminal width
    cases = (ERROR_CASES + SOLVER_CASES + PAIR_PASS_CASES + HELP_CASES + CARRIER_CASES
             + RANGE_CASES + VALIDATE_CASES + UNREAD_FLAG_CASES + SCAN_CASES + EVAL_CASES
             + FAILING_SCAN_CASES + QUAD_SET_CASES)
    for run in json_runs + text_runs + cases:
        print(digest_line(run), flush=True)
    for path in DEMOS:
        print(demo_line(path), flush=True)
    for run in FALSIFY_CASES + [run + ["--format", "text"] for run in FALSIFY_CASES]:
        print(digest_line(run), flush=True)
    for run in FILE_CASES:
        print(file_line(run), flush=True)
    for run in cases:
        print(digest_line(run + ["--format", "text"]), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
