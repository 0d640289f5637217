"""Time the quadrilateral scan and falsify at sizes that no benchmark workload reaches.

Runs ``min-s`` and a failing ``verify --s 2`` on ``example-sqrt`` at grids
200, 400 and 1000, ``solve --start 1/3 --uniqueness-starts all`` on
``example-final`` (the fixed-point workload's slowest command, which builds
a table of (grid + 4)^2 distances) at grids 400 and 1000, then ``falsify``
on one 1000-point trial and on 2000 trials of 60 points, each once, through
``rqbm.cli.main`` in this process, and prints one JSON line per command: the
command, the grid (a falsify line gives its size and trials instead), the
exit code, the wall-clock seconds of the call and the SHA-256 of its stdout.
``--skip verify:1000`` (or ``--skip falsify:60``, by size) leaves a command
out (it prints ``"seconds": null``), for a checkout where it would run for
an hour.

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

from rqbm.cli import main

GRIDS = (200, 400, 1000)
# name -> (argv, the grids it runs at)
COMMANDS = {
    "min-s": (["min-s", "--instance", "example-sqrt"], GRIDS),
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


if __name__ == "__main__":
    cli()
