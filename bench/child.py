"""Run one ``rqbm`` command in this fresh process and report on it.

Usage: python3 bench/child.py TRACE CMD_ID ARGV...

Imports ``rqbm.cli`` from the checkout's ``src``, then times
``rqbm.cli.main(ARGV)`` with stdout captured.  With TRACE = 1 the public
functions and methods of every module are wrapped first (see ``Tracer``).
Writes one JSON object to stdout: exit code, seconds, peak RSS, the report
text, versions and (traced) the spans.
"""
from __future__ import annotations

import functools
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import rqbm.cli  # noqa: E402

perf_counter = time.perf_counter

# Calls recorded as one span each: layer name -> (module, attribute) list.
SPANS = {
    "expr.parse": [("rqbm.expr", "parse")],
    "spaces.build": [("rqbm.spaces", "FiniteSpace.__post_init__"),
                     ("rqbm.spaces", "AnalyticSpace.__post_init__")],
    "spaces.identity": [("rqbm.spaces", "check_identity_axiom")],
    "spaces.scan": [("rqbm.spaces", "check_b_rectangular"),
                    ("rqbm.spaces", "minimal_rectangular_coefficient")],
    "spaces.classify": [("rqbm.spaces", "classify")],
    "thetaphi.validate": [("rqbm.thetaphi", "validate_theta"),
                          ("rqbm.thetaphi", "validate_phi")],
    "contraction.check": [("rqbm.contraction", "check_theta_contraction"),
                          ("rqbm.contraction", "check_theta_phi_contraction"),
                          ("rqbm.contraction", "check_linear_contraction"),
                          ("rqbm.contraction", "best_exponent")],
    "solver.picard": [("rqbm.solver", "picard_iterate")],
    "solver.uniqueness": [("rqbm.solver", "uniqueness_scan")],
    "instances.build": [("rqbm.instances", "get_instance")],
    "instances.generate": [("rqbm.instances", "random_space"),
                           ("rqbm.instances", "perturb")],
    "cli.main": [("rqbm.cli", "main")],
    "cli.run": [("rqbm.cli", name) for name in dir(rqbm.cli) if name.startswith("_cmd_")],
}

# Calls made up to ~10^5 times per command: counted and timed on the
# enclosing span instead of stored one span per call.
LEAVES = {
    "expr.evaluate": [("rqbm.expr", "evaluate")],
    "spaces.distance": [("rqbm.spaces", "FiniteSpace.distance"),
                        ("rqbm.spaces", "FiniteSpace.distance_value")],
    "spaces.witness": [("rqbm.spaces", "QuadrupleViolation.__init__")],
    "thetaphi.spec_call": [("rqbm.thetaphi", "ThetaSpec.__call__"),
                           ("rqbm.thetaphi", "PhiSpec.__call__")],
    "contraction.map_apply": [("rqbm.contraction", "SelfMap.apply_label"),
                              ("rqbm.contraction", "SelfMap.apply_value"),
                              ("rqbm.contraction", "SelfMap.apply_array")],
}


def _scan_counts(r) -> dict:
    if hasattr(r, "violation_count"):
        return {"quadruples": r.quadruples_checked, "violations": r.violation_count,
                "kept": len(r.violations)}
    return {"quadruples": r.quadruples_checked}


def _pair_counts(r) -> dict:
    total = getattr(r, "pairs_total", r.pairs_checked + r.pairs_skipped)
    return {"pairs_total": total, "pairs_checked": r.pairs_checked,
            "pairs_skipped": r.pairs_skipped}


# Counts read from the returned report objects, per span layer.
COUNTS = {
    "spaces.scan": _scan_counts,
    "contraction.check": _pair_counts,
    "solver.picard": lambda r: {"steps": r.steps, "converged": int(r.converged)},
}


def _evaluate_kind(args) -> tuple[str, int]:
    arrays = [v for v in args[1].values() if isinstance(v, np.ndarray)]
    if arrays:
        return "expr.evaluate.array", int(np.broadcast(*arrays).size)
    return "expr.evaluate.scalar", 0


class _Frame:
    __slots__ = ("child",)

    def __init__(self):
        self.child = 0.0  # seconds covered by direct children


class Tracer:
    """Spans around the public calls of every ``rqbm`` module, held in memory.

    A span records name, start, end, parent, command id and self time (its
    duration minus the part its child spans and leaf calls cover).  Leaf
    calls add [calls, self seconds, array elements, errors] to the
    innermost open span under their layer name.
    """

    def __init__(self, cmd: str):
        self.cmd = cmd
        self.spans: list[dict] = []
        self._stack: list[_Frame] = []
        self._span: dict | None = None

    def install(self) -> None:
        for layer, targets in SPANS.items():
            for module, attr in targets:
                self._patch(module, attr, self._wrap_span(layer, COUNTS.get(layer)))
        for layer, targets in LEAVES.items():
            kind = _evaluate_kind if layer == "expr.evaluate" else None
            for module, attr in targets:
                self._patch(module, attr, self._wrap_leaf(layer, kind))

    @staticmethod
    def _patch(module: str, attr: str, wrap) -> None:
        """Replace ``module.attr``, and every other rqbm module's import of it."""
        owner = sys.modules[module]
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, name, wrap(cls.__dict__[name]))
            return
        original = getattr(owner, attr)
        wrapped = wrap(original)
        for name, mod in list(sys.modules.items()):
            if name == "rqbm" or name.startswith("rqbm."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _wrap_span(self, layer: str, counts):
        tracer = self

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                parent = tracer._span
                span = {"id": len(tracer.spans),
                        "parent": None if parent is None else parent["id"],
                        "cmd": tracer.cmd, "name": layer, "fn": fn.__qualname__,
                        "leaf": {}, "counts": {}}
                frame = _Frame()
                tracer.spans.append(span)
                tracer._stack.append(frame)
                tracer._span = span
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = perf_counter()
                    tracer._stack.pop()
                    tracer._span = parent
                    if tracer._stack:
                        tracer._stack[-1].child += end - start
                    span.update(start=start, end=end, self=end - start - frame.child)
                if counts is not None:
                    span["counts"] = counts(result)
                return result
            return traced
        return wrap

    def _wrap_leaf(self, layer: str, kind):
        tracer = self

        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                key, elements = kind(args) if kind is not None else (layer, 0)
                frame = _Frame()
                stack = tracer._stack
                stack.append(frame)
                failed = 0
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    failed = 1
                    raise
                finally:
                    took = perf_counter() - start
                    stack.pop()
                    if stack:
                        stack[-1].child += took
                    leaf = tracer._span["leaf"]
                    agg = leaf.get(key)
                    if agg is None:
                        agg = leaf[key] = [0, 0.0, 0, 0]
                    agg[0] += 1
                    agg[1] += took - frame.child
                    agg[2] += elements
                    agg[3] += failed
            return traced
        return wrap


def main(argv: list[str]) -> int:
    trace, cmd_id, cmd_argv = argv[0] == "1", argv[1], argv[2:]
    tracer = Tracer(cmd_id) if trace else None
    if tracer is not None:
        tracer.install()
    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    try:
        start = perf_counter()
        rc = rqbm.cli.main(cmd_argv)
        seconds = perf_counter() - start
    finally:
        sys.stdout = real_stdout
    result = {
        "rc": rc,
        "seconds": seconds,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "report": captured.getvalue(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "spans": tracer.spans if tracer is not None else None,
    }
    real_stdout.write(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
