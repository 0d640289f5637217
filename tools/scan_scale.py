"""Time the quadrilateral scan, falsify and array evaluation at sizes no workload reaches.

Runs ``min-s``, ``classify`` and a failing ``verify --s 2`` on
``example-sqrt`` at grids 200, 400 and 1000, ``solve --start 1/3
--uniqueness-starts all`` on ``example-final`` (the fixed-point workload's
slowest command, which builds a table of (grid + 4)^2 distances) at grids
400 and 1000, then ``falsify`` on one 1000-point trial and on 2000 trials of
60 points, each once, through ``rqbm.cli.main`` in this process, and prints
one JSON line per command: the command, the grid (a falsify line gives its
size and trials instead), the exit code, the wall-clock seconds of the call
and the SHA-256 of its stdout.  ``--skip verify:1000`` (or ``--skip
classify:1000``, or ``--skip falsify:60``, by size) leaves a command out (it
prints ``"seconds": null``), for a checkout where it would run for an hour.

Then come the cliff cases of array evaluation, where the walk over whole
arrays cannot vouch for every element and a walk per element would take
seconds: a conditional whose untaken branch leaves its domain on a 300 x 300
grid; a 400-point finite space whose default formula is guarded on the
diagonal; ``verify`` of an analytic space that fails only late in C order,
at grids 100, 300 and 1000, from the space file of ``report_digests.py``
(written again under the system temp directory); a map with an
out-of-domain untaken branch on 100,000 values; and the failing Picard
scans, where a run per start would take seconds: ``uniqueness_scan`` from
1,000 starts of which only the last fails, and ``solve --uniqueness-starts
all`` on ``example-final`` at grid 1000 with a map that fails only near
1.5.  A cliff line gives ``rc`` (``raised`` and the exception name for a
library call that raises) and the SHA-256 of what the call gave: its
result's bytes (or the error's text), or the command's stdout then stderr.  Their keys start with ``cliff``, e.g.
``--skip cliff:verify-late:1000``.

``rqbm`` is imported from ``PYTHONPATH``, so two checkouts can be timed, and
their reports compared, command for command::

    PYTHONPATH=/path/to/parent/src python tools/scan_scale.py --skip verify:1000
    PYTHONPATH=src python tools/scan_scale.py
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import time

import numpy as np

from report_digests import EVAL_SPACES, LATE_SPACE
from rqbm._report import to_json
from rqbm.cli import main
from rqbm.contraction import SelfMap
from rqbm.expr import evaluate, parse
from rqbm.solver import uniqueness_scan
from rqbm.spaces import AnalyticSpace, FiniteSpace

GRIDS = (200, 400, 1000)
# name -> (argv, the grids it runs at)
COMMANDS = {
    "min-s": (["min-s", "--instance", "example-sqrt"], GRIDS),
    "classify": (["classify", "--instance", "example-sqrt"], GRIDS),
    "verify": (["verify", "--instance", "example-sqrt", "--s", "2"], GRIDS),
    "solve": (["solve", "--instance", "example-final", "--start", "1/3",
               "--uniqueness-starts", "all"], (400, 1000)),
}
# (size, trials, more flags): one trial's million-draw stream, and 2000
# trials in chunks
FALSIFY = [
    (1000, 1, ["--profile", "quasi", "--kind", "break_identity", "--seed", "3"]),
    (60, 2000, ["--profile", "quasi"]),
]


def run(argv: list[str]) -> tuple[int, float, str]:
    """Exit code, wall seconds and stdout digest of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        rc = main(argv)
        seconds = time.perf_counter() - start
    return rc, seconds, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _cliff_grid() -> bytes:
    g = np.linspace(0.0, 1.0, 300)
    e = parse("if(x >= y, sqrt(x - y), 2 * sqrt(y - x))", {"x", "y"})
    return evaluate(e, {"x": g[:, None], "y": g[None, :]}).tobytes()


def _cliff_build() -> bytes:
    points = [(f"p{i}", v) for i, v in enumerate(np.linspace(0.0, 1.0, 400).tolist())]
    space = FiniteSpace.build(points, "if(x == y, 0, (x - y)^2 / abs(x - y))")
    return space.distance_matrix.tobytes()


def _cliff_map() -> bytes:
    space = AnalyticSpace.build(0.0, 1.0, "abs(x - y)")
    selfmap = SelfMap.from_expression("if(x >= 0.5, x / 2, sqrt(x - 0.6))")
    return selfmap.apply_array(space, np.linspace(0.5, 1.0, 100_000)).tobytes()


def _cliff_scan() -> bytes:
    space = AnalyticSpace.build(0.0, 2.0, "abs(x - y)")
    selfmap = SelfMap.from_expression("if(x >= 1.999, sqrt(1.9 - x) + 1, x / 2 + 0.5)")
    return to_json(uniqueness_scan(space, selfmap, np.linspace(0.0, 2.0, 1000).tolist())).encode()


def _cliff_command(argv: list[str]):
    def call() -> tuple[int, bytes]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        return rc, (out.getvalue() + err.getvalue()).encode()
    return call


def _cliff_verify(grid: int):
    return _cliff_command(["verify", "--space", str(LATE_SPACE), "--grid", str(grid)])


# key -> (line fields, the call: result bytes, or (exit code, output bytes))
CLIFFS = {
    "cliff:grid-300": ({"case": "conditional on a 300 x 300 grid"}, _cliff_grid),
    "cliff:build-400": ({"case": "400-point finite space guarded on the diagonal"},
                        _cliff_build),
    **{f"cliff:verify-late:{grid}": ({"case": "verify of a late-failing space", "grid": grid},
                                     _cliff_verify(grid)) for grid in (100, 300, 1000)},
    "cliff:map-100000": ({"case": "map with an untaken sqrt branch on 100,000 values"},
                         _cliff_map),
    "cliff:scan-1000": ({"case": "uniqueness_scan of 1,000 starts, the last one failing"},
                        _cliff_scan),
    "cliff:solve-late:1000": (
        {"case": "solve --uniqueness-starts all with a map failing near 1.5", "grid": 1000},
        _cliff_command(["solve", "--instance", "example-final", "--grid", "1000",
                        "--start", "1/3", "--uniqueness-starts", "all",
                        "--map", "if(x >= 1.4999, sqrt(1.4 - x), (sqrt(x) + 3) / 4)"])),
}


def run_cliff(call) -> tuple[int | str, float, str]:
    """Exit code (0 for a library call, ``raised`` and the exception name when
    it raises), wall seconds and the digest of what the call gave."""
    start = time.perf_counter()
    try:
        got = call()
        rc, data = got if isinstance(got, tuple) else (0, got)
    except Exception as e:  # reported on its line, so the later cases still run
        rc, data = f"raised {type(e).__name__}", str(e).encode()
    seconds = time.perf_counter() - start
    return rc, seconds, hashlib.sha256(data).hexdigest()


def cli() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--skip", action="append", default=[], metavar="COMMAND:GRID",
                    help="leave out one command at one grid, e.g. verify:1000")
    skip = set(ap.parse_args().skip)
    runs = [(f"{name}:{grid}", {"command": name, "grid": grid}, [*argv, "--grid", str(grid)])
            for grid in GRIDS for name, (argv, grids) in COMMANDS.items() if grid in grids]
    runs += [(f"falsify:{size}", {"command": "falsify", "size": size, "trials": trials},
              ["falsify", "--size", str(size), "--trials", str(trials), *flags])
             for size, trials, flags in FALSIFY]
    for key, row, argv in runs:
        row.update(rc=None, seconds=None, stdout_sha256=None)
        if key not in skip:
            rc, seconds, digest = run(argv)
            row.update(rc=rc, seconds=round(seconds, 3), stdout_sha256=digest)
        print(json.dumps(row), flush=True)
    LATE_SPACE.write_text(json.dumps(EVAL_SPACES[LATE_SPACE]))
    for key, (fields, call) in CLIFFS.items():
        row = {"command": key.split(":")[0], **fields, "rc": None, "seconds": None,
               "sha256": None}
        if key not in skip:
            rc, seconds, digest = run_cliff(call)
            row.update(rc=rc, seconds=round(seconds, 4), sha256=digest)
        print(json.dumps(row), flush=True)


if __name__ == "__main__":
    cli()
