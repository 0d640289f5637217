"""Time the quadrilateral scan at grids that no benchmark workload reaches.

Runs ``min-s`` and a failing ``verify --s 2`` on ``example-sqrt`` at grids
200, 400 and 1000, each once, through ``rqbm.cli.main`` in this process, and
prints one JSON line per command: the command, the grid, the exit code, the
wall-clock seconds of the call and the SHA-256 of its stdout.  ``--skip
verify:1000`` leaves a command out (it prints ``"seconds": null``), for a
checkout where it would run for an hour.

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
COMMANDS = {
    "min-s": ["min-s", "--instance", "example-sqrt"],
    "verify": ["verify", "--instance", "example-sqrt", "--s", "2"],
}


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
    for grid in GRIDS:
        for name, argv in COMMANDS.items():
            row = {"command": name, "grid": grid,
                   "rc": None, "seconds": None, "stdout_sha256": None}
            if f"{name}:{grid}" not in skip:
                rc, seconds, digest = run([*argv, "--grid", str(grid)])
                row.update(rc=rc, seconds=round(seconds, 3), stdout_sha256=digest)
            print(json.dumps(row), flush=True)


if __name__ == "__main__":
    cli()
