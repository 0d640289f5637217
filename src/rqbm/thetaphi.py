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

from . import expr as ex

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
    """A candidate for the (0, inf) -> (1, inf) comparison family, in variable t."""

    name: str
    source: str
    expr: ex.Expr

    @classmethod
    def from_source(cls, name: str, source: str) -> "ThetaSpec":
        return cls(name, source, ex.parse(source, {"t"}))

    def __call__(self, t):
        return ex.evaluate(self.expr, {"t": t})


@dataclass(frozen=True)
class PhiSpec:
    """A candidate for the [1, inf) -> [1, inf) comparison family, in variable t."""

    name: str
    source: str
    expr: ex.Expr

    @classmethod
    def from_source(cls, name: str, source: str) -> "PhiSpec":
        return cls(name, source, ex.parse(source, {"t"}))

    def __call__(self, t):
        return ex.evaluate(self.expr, {"t": t})


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
class PropertyCheck:
    name: str
    passed: bool
    witnesses: tuple
    defect: float  # largest observed violation magnitude; 0.0 when passed

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "witnesses": [list(w) for w in self.witnesses],
            "defect": self.defect,
        }


@dataclass(frozen=True)
class ValidationReport:
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
        return {
            "name": self.name,
            "grid": self.grid_description,
            "passed": self.passed,
            "max_defect": self.max_defect,
            "checks": [c.to_dict() for c in self.checks],
        }


# --------------------------------------------------------------------------
# Grids
# --------------------------------------------------------------------------

def log_grid(lo: float, hi: float, per_decade: int = 64) -> np.ndarray:
    if not (0 < lo < hi):
        raise ValueError("log grid needs 0 < lo < hi")
    decades = math.log10(hi / lo)
    count = max(2, int(round(decades * per_decade)) + 1)
    return np.geomspace(lo, hi, count)


def default_theta_grid() -> np.ndarray:
    return log_grid(1e-8, 1e3)


def default_phi_grid() -> np.ndarray:
    return log_grid(1.0, 1e3)


# --------------------------------------------------------------------------
# Validators
# --------------------------------------------------------------------------

def _secant_jumps(grid: np.ndarray, values: np.ndarray, factor: float):
    """Flag secant slopes larger than ``factor`` times their local median."""
    if len(grid) < 4:
        return [], 0.0
    sec = np.abs(np.diff(values)) / np.diff(grid)
    half = 5
    witnesses = []
    worst = 0.0
    for i in range(len(sec)):
        window = sec[max(0, i - half): i + half + 1]
        med = float(np.median(window))
        if sec[i] > factor * med:
            witnesses.append((float(grid[i]), float(grid[i + 1]), float(sec[i]), med))
            worst = max(worst, float(sec[i] - factor * med))
    return witnesses, worst


def validate_theta(
    spec: ThetaSpec,
    grid: np.ndarray | list[float] | None = None,
    vanishing_seq_len: int = 40,
    *,
    limit_threshold: float = 1e-3,
    jump_factor: float = 10.0,
) -> ValidationReport:
    """Sample-check membership in the (0, inf) -> (1, inf) family.

    Checks on the sorted grid: values finite and > 1; strict increase;
    values along t_n = grid_min / 2^n descending toward 1 with the final
    value within ``limit_threshold`` of 1; and the secant continuity proxy.
    Expression evaluation failures propagate.
    """
    grid = np.asarray(default_theta_grid() if grid is None else grid, dtype=np.float64)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] <= 0:
        raise ValueError("grid must be nonempty, positive, sorted ascending")
    vals = np.asarray(spec(grid), dtype=np.float64)

    range_w = [(float(t), float(v)) for t, v in zip(grid, vals) if not v > 1.0]
    range_defect = max((1.0 - v for _, v in range_w), default=0.0)

    inc_w = []
    inc_defect = 0.0
    for i in range(len(grid) - 1):
        if not vals[i + 1] > vals[i]:
            inc_w.append((float(grid[i]), float(vals[i]), float(grid[i + 1]), float(vals[i + 1])))
            inc_defect = max(inc_defect, float(vals[i] - vals[i + 1]))

    t0 = float(grid[0])
    seq_t = [t0 / 2.0 ** n for n in range(1, vanishing_seq_len + 1)]
    seq_v = np.asarray(spec(np.array(seq_t)), dtype=np.float64).tolist()
    lim_w = []
    lim_defect = 0.0
    for i in range(len(seq_v) - 1):
        if seq_v[i + 1] > seq_v[i]:
            lim_w.append((seq_t[i], seq_v[i], seq_t[i + 1], seq_v[i + 1]))
            lim_defect = max(lim_defect, seq_v[i + 1] - seq_v[i])
    final_gap = seq_v[-1] - 1.0
    if not final_gap < limit_threshold:
        lim_w.append((seq_t[-1], seq_v[-1]))
        lim_defect = max(lim_defect, final_gap - limit_threshold)

    jump_w, jump_defect = _secant_jumps(grid, vals, jump_factor)

    checks = (
        PropertyCheck("range-above-one", not range_w, tuple(range_w), range_defect),
        PropertyCheck("strictly-increasing", not inc_w, tuple(inc_w), inc_defect),
        PropertyCheck("vanishing-limit", not lim_w, tuple(lim_w), lim_defect),
        PropertyCheck("continuity-proxy", not jump_w, tuple(jump_w), jump_defect),
    )
    desc = f"{len(grid)} points in [{grid[0]!r}, {grid[-1]!r}], vanishing x{vanishing_seq_len}"
    return ValidationReport(spec.name, desc, checks)


def _phi_iterates(spec: PhiSpec, t, n: int) -> list:
    """t, phi(t), ..., phi^n(t) for a float start, or for a 1-D array of starts
    with one array call per step; the first start to leave [1, inf) raises."""
    seq = [t]
    try:
        for _ in range(n):
            v = spec(seq[-1])
            if np.any(v < 1.0):
                raise IterateEscapeError(
                    f"iterate of {spec.name!r} left [1, inf): phi({seq[-1]!r}) = {v!r}"
                )
            seq.append(v)
    except (IterateEscapeError, ex.EvalError):
        if np.ndim(t):
            for start in t:  # start by start, so the first in order raises its own error
                _phi_iterates(spec, float(start), n)
        raise
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
    *,
    fixpoint_tol: float = 1e-12,
    limit_threshold: float = 1e-6,
    jump_factor: float = 10.0,
) -> ValidationReport:
    """Sample-check membership in the [1, inf) -> [1, inf) family.

    Checks: nondecreasing on the grid; phi(1) = 1 within ``fixpoint_tol``;
    phi(t) < t for grid points t > 1; for each grid point the iterate
    sequence is nonincreasing, stays in [1, inf), and lands within
    ``limit_threshold`` of 1 after ``iterate_depth`` steps; secant proxy.
    """
    grid = np.asarray(default_phi_grid() if grid is None else grid, dtype=np.float64)
    if grid.size == 0 or np.any(np.diff(grid) <= 0) or grid[0] < 1.0:
        raise ValueError("grid must be nonempty, within [1, inf), sorted ascending")
    vals = np.asarray(spec(grid), dtype=np.float64)

    mono_w = []
    mono_defect = 0.0
    for i in range(len(grid) - 1):
        if vals[i + 1] < vals[i]:
            mono_w.append((float(grid[i]), float(vals[i]), float(grid[i + 1]), float(vals[i + 1])))
            mono_defect = max(mono_defect, float(vals[i] - vals[i + 1]))

    at_one = float(spec(1.0))
    fix_w = [] if abs(at_one - 1.0) <= fixpoint_tol else [(1.0, at_one)]

    below_w = []
    below_defect = 0.0
    for t, v in zip(grid, vals):
        if t > 1.0 and not v < t:
            below_w.append((float(t), float(v)))
            below_defect = max(below_defect, float(v - t))

    rows = np.stack(_phi_iterates(spec, grid, iterate_depth), axis=1)
    iter_w = []
    iter_defect = 0.0
    for t, seq in zip(grid.tolist(), rows.tolist()):
        for i in range(len(seq) - 1):
            if seq[i + 1] > seq[i]:
                iter_w.append((t, i, seq[i], seq[i + 1]))
                iter_defect = max(iter_defect, seq[i + 1] - seq[i])
                break
        gap = seq[-1] - 1.0
        if not gap < limit_threshold:
            iter_w.append((t, iterate_depth, seq[-1]))
            iter_defect = max(iter_defect, gap - limit_threshold)

    jump_w, jump_defect = _secant_jumps(grid, vals, jump_factor)

    checks = (
        PropertyCheck("nondecreasing", not mono_w, tuple(mono_w), mono_defect),
        PropertyCheck("fixes-one", not fix_w, tuple(fix_w), abs(at_one - 1.0) if fix_w else 0.0),
        PropertyCheck("below-identity", not below_w, tuple(below_w), below_defect),
        PropertyCheck("iterates-to-one", not iter_w, tuple(iter_w), iter_defect),
        PropertyCheck("continuity-proxy", not jump_w, tuple(jump_w), jump_defect),
    )
    desc = f"{len(grid)} points in [{grid[0]!r}, {grid[-1]!r}], iterate depth {iterate_depth}"
    return ValidationReport(spec.name, desc, checks)
