"""Process-level plumbing shared by the benchmark scripts.

Every command runs in its own fresh ``python3 bench/child.py`` process, one at
a time, with ``RQBM_THREADS`` unset and the checkout's ``src`` first on the
path.  Verdicts are compared with ``goldens.json``.
"""
from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from workloads import verdict

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDENS = BENCH / "goldens.json"
CMD_TIMEOUT_S = 150
_MISSING = object()


class LayoutError(Exception):
    """The checkout lacks the program or the goldens."""


def check_layout() -> None:
    for path in (SRC / "rqbm" / "cli.py", GOLDENS):
        if not path.is_file():
            raise LayoutError(f"missing {path.relative_to(ROOT)}")


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("RQBM_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def time_setup(repeats: int) -> list[float]:
    """Wall seconds of fresh ``python -m rqbm.cli --version`` processes.

    One unmeasured run first fills the bytecode and page caches, which a user
    pays once per install, not once per command.
    """
    env = child_env()
    times = []
    for _ in range(repeats + 1):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "rqbm.cli", "--version"], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=CMD_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or not proc.stdout.startswith("rqbm "):
            raise RuntimeError(f"rqbm --version failed: {proc.stderr.strip()}")
    return times[1:]


def run_command(cmd: dict, trace: bool) -> dict:
    """Run one command in a fresh process; never raises for a failing command."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "1" if trace else "0", cmd["id"],
         *cmd["argv"]],
        env=child_env(), cwd=ROOT, capture_output=True, timeout=CMD_TIMEOUT_S,
    )
    out = {"id": cmd["id"], "argv": cmd["argv"]}
    try:
        res = json.loads(proc.stdout)
        fields = verdict(cmd["argv"], res["rc"], json.loads(res["report"]))
    except (ValueError, KeyError, TypeError, IndexError):
        err = proc.stderr.decode(errors="replace").strip().splitlines()
        out.update(error=err[-1] if err else f"child exit code {proc.returncode}")
        return out
    raw = res["report"].encode()
    out.update(
        rc=res["rc"], seconds=res["seconds"], maxrss_kb=res["maxrss_kb"],
        bytes=len(raw), sha256=hashlib.sha256(raw).hexdigest(),
        verdict=fields,
        python=res["python"], numpy=res["numpy"], spans=res["spans"],
    )
    return out


def run_pass(cmds: list[dict], trace: bool = False) -> list[dict]:
    return [run_command(cmd, trace) for cmd in cmds]


def provenance() -> dict:
    """Machine, interpreter and code identity, recorded with every result."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rqbm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def load_goldens() -> dict:
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def check(goldens: dict, cmd: dict, seed: int, result: dict) -> dict:
    """Compare one command result with the goldens.

    Returns ``mismatch`` (verdict fields that differ, empty when correct),
    ``full`` (whether this seed has goldens, so every field was checked) and
    ``changed`` (report bytes differ from the recorded ones: informational).
    """
    if "verdict" not in result:
        return {"mismatch": ["error: " + result.get("error", "no result")],
                "full": False, "changed": False}
    entry = goldens["commands"].get(cmd["id"])
    if entry is None:
        return {"mismatch": ["no goldens for this command"], "full": False,
                "changed": False}
    fields = result["verdict"]
    expected = dict(entry["invariant"])
    recorded = entry["seeds"].get(str(seed))
    if recorded is not None:
        expected.update(recorded["fields"])
    mismatch = sorted(k for k in expected if fields.get(k, _MISSING) != expected[k])
    return {
        "mismatch": mismatch,
        "full": recorded is not None,
        "changed": recorded is not None and recorded["sha256"] != result["sha256"],
    }
