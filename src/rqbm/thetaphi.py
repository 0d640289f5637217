"""Candidate comparison functions and their family-membership validators.

Two families are checked by sampling:

* theta candidates: increasing continuous maps (0, inf) -> (1, inf) whose
  values approach 1 exactly when the argument approaches 0;
* phi candidates: nondecreasing continuous maps [1, inf) -> [1, inf) whose
  iterates converge to 1 from every start (hence phi(1) = 1 and phi(t) < t
  for t > 1).

Continuity is not decidable from samples; a secant-jump heuristic stands in
for it and is reported as such.  Limit conditions are checked on finite
prefixes against fixed thresholds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import expr as ex
from ._report import Result

__all__ = [
    "ThetaSpec",
    "PhiSpec",
    "PropertyCheck",
    "ValidationReport",
    "IterateEscapeError",
    "THETA_BUILTINS",
    "PHI_BUILTINS",
    "builtin_theta",
    "builtin_phi",
    "theta_spec",
    "phi_spec",
    "validate_theta",
    "validate_phi",
    "iterate_phi",
    "default_theta_grid",
    "default_phi_grid",
    "log_grid",
]


class IterateEscapeError(Exception):
    """An iterate of a phi candidate left [1, inf)."""


@dataclass(frozen=True)
class ThetaSpec:
    """A candidate in variable t for either family: theta, (0, inf) -> (1, inf),
    or phi, [1, inf) -> [1, inf) (``PhiSpec`` names this same class)."""

    name: str
    source: str
    expr: ex.Expr

    @classmethod
    def from_source(cls, name: str, source: str) -> "ThetaSpec":
        return cls(name, source, ex.parse(source, {"t"}))

    def __call__(self, t):
        return ex.evaluate(self.expr, {"t": t})


PhiSpec = ThetaSpec


THETA_BUILTINS = {
    "exp-sqrt": "exp(sqrt(t))",
    "sqrt-plus-1": "sqrt(t) + 1",
    "exp": "exp(t)",
}

PHI_BUILTINS = {
    "midpoint": "(t + 1) / 2",
}


def builtin_theta(name: str) -> ThetaSpec:
    try:
        return ThetaSpec.from_source(name, THETA_BUILTINS[name])
    except KeyError:
        raise KeyError(
            f"unknown builtin theta {name!r}; known: {', '.join(sorted(THETA_BUILTINS))}"
        ) from None


def builtin_phi(name: str) -> PhiSpec:
    """Registered phi candidates; ``pow-R`` gives the power family t^R, 0 < R < 1."""
    if name.startswith("pow-"):
        try:
            r = float(name[4:])
        except ValueError:
            raise KeyError(f"bad power suffix in builtin phi {name!r}") from None
        if not 0.0 < r < 1.0:
            raise KeyError(f"power builtin needs an exponent in (0, 1), got {r}")
        return PhiSpec.from_source(name, f"t ^ {r!r}")
    try:
        return PhiSpec.from_source(name, PHI_BUILTINS[name])
    except KeyError:
        raise KeyError(
            f"unknown builtin phi {name!r}; known: "
            f"{', '.join(sorted(PHI_BUILTINS))}, pow-<r>"
        ) from None


def theta_spec(text: str) -> ThetaSpec:
    """Resolve ``builtin:NAME`` or expression source into a ThetaSpec."""
    if text.startswith("builtin:"):
        return builtin_theta(text[len("builtin:"):])
    return ThetaSpec.from_source(text, text)


def phi_spec(text: str) -> PhiSpec:
    if text.startswith("builtin:"):
        return builtin_phi(text[len("builtin:"):])
    return PhiSpec.from_source(text, text)


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PropertyCheck(Result):
    name: str
    passed: bool
    witnesses: tuple
    defect: float  # largest observed violation magnitude; 0.0 when passed


@dataclass(frozen=True)
class ValidationReport(Result):
    name: str
    grid_description: str
    checks: tuple[PropertyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_defect(self) -> float:
        return max((c.defect for c in self.checks), default=0.0)

    def check(self, name: str) -> PropertyCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {"name": self.name, "grid": self.grid_description, "passed": self.passed,
                "max_defect": self.max_defect, "checks": self.checks}


# --------------------------------------------------------------------------
# Grids
# --------------------------------------------------------------------------

_PER_DECADE = 64  # log-grid points per decade
_THETA_LIMIT = 1e-3  # how close to 1 theta's vanishing sequence must end
_PHI_LIMIT = 1e-6  # how close to 1 every phi iterate sequence must end
_FIXPOINT_TOL = 1e-12  # how far phi(1) may lie from 1
_JUMP_FACTOR = 10.0  # a secant slope above this times its local median is a jump


def log_grid(lo: float, hi: float) -> np.ndarray:
    if not (0 < lo < hi):
        raise ValueError("log grid needs 0 < lo < hi")
    decades = math.log10(hi / lo)
    count = max(2, int(round(decades * _PER_DECADE)) + 1)
    return np.geomspace(lo, hi, count)


def default_theta_grid() -> np.ndarray:
    return log_grid(1e-8, 1e3)


def default_phi_grid() -> np.ndarray:
    return log_grid(1.0, 1e3)


# --------------------------------------------------------------------------
# Validators
# --------------------------------------------------------------------------

def _check(name: str, witnesses, defect: float) -> PropertyCheck:
    witnesses = tuple(witnesses)
    return PropertyCheck(name, not witnesses, witnesses, defect)


def _largest(gaps) -> float:
    """The largest of ``gaps``, as a running max from 0.0 finds it: numpy's
    max alone would give -0.0 for a single -0.0 - 0.0 gap."""
    return max(0.0, float(np.max(gaps, initial=0.0)))


def _adjacent(t: np.ndarray, v: np.ndarray, bad: np.ndarray, gap: np.ndarray):
    """The witnesses (t_i, v_i, t_i+1, v_i+1) of the adjacent pairs i where
    ``bad`` holds, as a list, and the largest of their ``gap`` entries."""
    i = np.flatnonzero(bad)
    witnesses = zip(t[i].tolist(), v[i].tolist(), t[i + 1].tolist(), v[i + 1].tolist())
    return list(witnesses), _largest(gap[i])


def _median(w: np.ndarray) -> np.ndarray:
    """``np.median(w, axis=-1)`` bit for bit: the mean of the middle one or two
    entries of each sorted window (an ``np.add`` reduction, as ``np.mean``
    takes it, so -0.0 gives 0.0), and the window's NaN where it holds one.
    ``np.median`` imports ``numpy.ma`` for that NaN check."""
    w = np.sort(w, axis=-1)  # NaNs sort last
    k = w.shape[-1]
    lo, hi = (k - 1) // 2, k // 2 + 1
    mid = np.sum(w[..., lo:hi], axis=-1) / (hi - lo)
    last = w[..., -1]
    return np.where(np.isnan(last), last, mid)


def _secant_jumps(grid: np.ndarray, values: np.ndarray, factor: float):
    """Flag secant slopes larger than ``factor`` times their local median:
    the witnesses (t_i, t_i+1, slope, median) and the largest excess slope.

    A slope's window is itself and up to ``half`` slopes on each side; the
    full windows take one median call, the at most 2 * ``half`` truncated
    ones at the ends one call each.
    """
    if len(grid) < 4:
        return [], 0.0
    sec = np.abs(np.diff(values)) / np.diff(grid)
    half, n = 5, len(sec)
    med = np.empty(n)
    if n > 2 * half:
        med[half:n - half] = _median(sliding_window_view(sec, 2 * half + 1))
    for i in (*range(min(half, n)), *range(max(half, n - half), n)):
        med[i] = _median(sec[max(0, i - half): i + half + 1])
    i = np.flatnonzero(sec > factor * med)
    witnesses = zip(grid[i].tolist(), grid[i + 1].tolist(), sec[i].tolist(), med[i].tolist())
    return list(witnesses), _largest(sec[i] - factor * med[i])


def validate_theta(
    spec: ThetaSpec,
    grid: np.ndarray | list[float] | None = None,
    vanishing_seq_len: int = 40,
) -> ValidationReport:
    """Sample-check membership in the (0, inf) -> (1, inf) family.

    Checks on the sorted grid: values finite and > 1; strict increase;
    values along t_n = grid_min / 2^n descending toward 1 with the final
    value within ``_THETA_LIMIT`` of 1; and the secant continuity proxy.
    Expression evaluation failures propagate.
    """
    grid = np.asarray(default_theta_grid() if grid is None else grid, dtype=np.float64)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("grid must be nonempty, positive, sorted ascending")
    if vanishing_seq_len < 1:
        raise ValueError(f"vanishing_seq_len must be >= 1, got {vanishing_seq_len}")
    vals = np.asarray(spec(grid), dtype=np.float64)
    low = ~(vals > 1.0)

    seq_t = grid[0] / 2.0 ** np.arange(1, vanishing_seq_len + 1)
    seq_v = np.asarray(spec(seq_t), dtype=np.float64)
    lim_w, lim_defect = _adjacent(seq_t, seq_v, seq_v[1:] > seq_v[:-1], seq_v[1:] - seq_v[:-1])
    final_gap = float(seq_v[-1]) - 1.0
    if not final_gap < _THETA_LIMIT:
        lim_w.append((float(seq_t[-1]), float(seq_v[-1])))
        lim_defect = max(lim_defect, final_gap - _THETA_LIMIT)

    checks = (
        _check("range-above-one", zip(grid[low].tolist(), vals[low].tolist()),
               _largest(1.0 - vals[low])),
        _check("strictly-increasing",
               *_adjacent(grid, vals, ~(vals[1:] > vals[:-1]), vals[:-1] - vals[1:])),
        _check("vanishing-limit", lim_w, lim_defect),
        _check("continuity-proxy", *_secant_jumps(grid, vals, _JUMP_FACTOR)),
    )
    desc = (f"{len(grid)} points in [{float(grid[0])!r}, {float(grid[-1])!r}], "
            f"vanishing x{vanishing_seq_len}")
    return ValidationReport(spec.name, desc, checks)


def _phi_iterates(spec: PhiSpec, t, n: int) -> list:
    """t, phi(t), ..., phi^n(t) for a float start, or for a 1-D array of starts
    with one array call per step; the first start to fail or leave [1, inf)
    raises.  A failing start (the error's ``bad``, or v < 1) drops out with the
    starts after it; once the rest end, one scalar step of the first raises.

    A step that returns its own input has every start at a fixed point, so the
    remaining entries are that same value (the same object) and phi is not
    called again: evaluation is elementwise and deterministic, and a kept
    value is >= 1, so ``==`` is bit equality (NaN never compares equal)."""
    seq, failed = [t], None
    for _ in range(n):
        try:
            v, bad = spec(seq[-1]), False
        except ex.EvalError as e:
            if not np.ndim(t):
                raise
            v, bad = e.values, e.bad
        if np.any(bad := bad | (v < 1.0)):
            if not np.ndim(t):
                raise IterateEscapeError(f"iterate of {spec.name!r} left [1, inf): "
                                         f"phi({seq[-1]!r}) = {v!r}")
            k = int(np.argmax(bad))
            failed, seq, v = float(seq[-1][k]), [s[:k] for s in seq], v[:k]
        if np.all(v == seq[-1]):
            seq += [v] * (n + 1 - len(seq))
            break
        seq.append(v)
    if failed is not None:
        _phi_iterates(spec, failed, 1)  # raises the first failing start's own error
    return seq


def iterate_phi(spec: PhiSpec, t: float, n: int) -> float:
    """n-fold composition of the candidate at t >= 1; n = 0 returns t."""
    if t < 1.0:
        raise ValueError(f"iterate_phi needs t >= 1, got {t!r}")
    if n < 0:
        raise ValueError("n must be >= 0")
    return _phi_iterates(spec, float(t), n)[-1]


def validate_phi(
    spec: PhiSpec,
    grid: np.ndarray | list[float] | None = None,
    iterate_depth: int = 256,
) -> ValidationReport:
    """Sample-check membership in the [1, inf) -> [1, inf) family.

    Checks: nondecreasing on the grid; phi(1) = 1 within ``_FIXPOINT_TOL``;
    phi(t) < t for grid points t > 1; for each grid point the iterate
    sequence is nonincreasing, stays in [1, inf), and lands within
    ``_PHI_LIMIT`` of 1 after ``iterate_depth`` steps; secant proxy.
    """
    grid = np.asarray(default_phi_grid() if grid is None else grid, dtype=np.float64)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] < 1.0:
        raise ValueError("grid must be nonempty, within [1, inf), sorted ascending")
    if iterate_depth < 0:
        raise ValueError(f"iterate_depth must be >= 0, got {iterate_depth}")
    vals = np.asarray(spec(grid), dtype=np.float64)
    at_one = float(spec(1.0))
    fix_w = [] if abs(at_one - 1.0) <= _FIXPOINT_TOL else [(1.0, at_one)]
    above = (grid > 1.0) & ~(vals < grid)

    rows = np.stack(_phi_iterates(spec, grid, iterate_depth), axis=1)
    rise = rows[:, 1:] > rows[:, :-1]  # (starts, depth)
    far = ~(rows[:, -1] - 1.0 < _PHI_LIMIT)
    iter_w, iter_defect = [], 0.0
    for k in np.flatnonzero(rise.any(axis=1) | far):  # per start: its first rise, then its limit
        t, seq = float(grid[k]), rows[k].tolist()
        if rise[k].any():
            i = int(np.argmax(rise[k]))
            iter_w.append((t, i, seq[i], seq[i + 1]))
            iter_defect = max(iter_defect, seq[i + 1] - seq[i])
        if far[k]:
            iter_w.append((t, iterate_depth, seq[-1]))
            iter_defect = max(iter_defect, seq[-1] - 1.0 - _PHI_LIMIT)

    checks = (
        _check("nondecreasing",
               *_adjacent(grid, vals, vals[1:] < vals[:-1], vals[:-1] - vals[1:])),
        _check("fixes-one", fix_w, abs(at_one - 1.0) if fix_w else 0.0),
        _check("below-identity", zip(grid[above].tolist(), vals[above].tolist()),
               _largest(vals[above] - grid[above])),
        _check("iterates-to-one", iter_w, iter_defect),
        _check("continuity-proxy", *_secant_jumps(grid, vals, _JUMP_FACTOR)),
    )
    desc = (f"{len(grid)} points in [{float(grid[0])!r}, {float(grid[-1])!r}], "
            f"iterate depth {iterate_depth}")
    return ValidationReport(spec.name, desc, checks)
