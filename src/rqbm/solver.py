"""Picard iteration with quasi-metric convergence diagnostics.

The iteration x_{n+1} = T(x_n) records four distance series: forward and
backward consecutive steps d(x_n, x_{n+1}) / d(x_{n+1}, x_n) and the skip
distances d(x_n, x_{n+2}) / d(x_{n+2}, x_n).  Termination:

* ``exact_fixed_point`` when a forward step is exactly 0;
* ``tolerance`` when both directed step distances and the coordinate gap
  fall below ``tol`` (both directions matter in an asymmetric space; the
  coordinate gap keeps the reported limit meaningful on spaces whose
  distance flattens near the diagonal, e.g. squared differences);
* ``cycle_detected`` on exact revisit of a point (finite carriers only);
* ``max_iter`` otherwise.

Each run is strictly sequential; multi-start scans are independent runs
merged in start order.
"""
from __future__ import annotations

from dataclasses import dataclass

from .contraction import SelfMap
from .spaces import AnalyticSpace, FiniteSpace, Space, UnknownLabelError

__all__ = [
    "PicardTrace",
    "FixedPointVerdict",
    "CauchyDiagnostics",
    "SeriesDiagnostic",
    "UniquenessReport",
    "SandwichReport",
    "picard_iterate",
    "cauchy_diagnostics",
    "verify_fixed_point",
    "uniqueness_scan",
    "limit_sandwich_check",
    "DEFAULT_MAX_ITER",
    "DEFAULT_SOLVE_TOL",
]

DEFAULT_MAX_ITER = 10_000
DEFAULT_SOLVE_TOL = 1e-10


def _dist(space: Space, a: float, b: float) -> float:
    if isinstance(space, FiniteSpace):
        return space.distance_value(a, b)
    return float(space.distance(a, b))


def _label_for(space: Space, value: float) -> str | None:
    if isinstance(space, FiniteSpace):
        return space.label_for_value(value)
    return None


@dataclass(frozen=True)
class PicardTrace:
    space: Space
    selfmap: SelfMap
    values: tuple[float, ...]
    labels: tuple[str | None, ...]
    fwd_step: tuple[float, ...]
    bwd_step: tuple[float, ...]
    fwd_skip: tuple[float, ...]
    bwd_skip: tuple[float, ...]
    terminated_by: str
    limit: float | None
    limit_label: str | None
    tol: float

    @property
    def steps(self) -> int:
        return len(self.fwd_step)

    @property
    def converged(self) -> bool:
        return self.terminated_by in ("exact_fixed_point", "tolerance")

    def to_dict(self) -> dict:
        return {
            "iterates": [
                {"value": v, "label": l} for v, l in zip(self.values, self.labels)
            ],
            "fwd_step": list(self.fwd_step),
            "bwd_step": list(self.bwd_step),
            "fwd_skip": list(self.fwd_skip),
            "bwd_skip": list(self.bwd_skip),
            "terminated_by": self.terminated_by,
            "steps": self.steps,
            "limit": self.limit,
            "limit_label": self.limit_label,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class FixedPointVerdict:
    point: float
    label: str | None
    fwd_residual: float  # d(Tz, z)
    bwd_residual: float  # d(z, Tz)
    verified: bool
    tol: float

    def to_dict(self) -> dict:
        return {
            "point": self.point,
            "label": self.label,
            "fwd_residual": self.fwd_residual,
            "bwd_residual": self.bwd_residual,
            "verified": self.verified,
            "tol": self.tol,
        }


@dataclass(frozen=True)
class SeriesDiagnostic:
    name: str
    length: int
    monotone: bool  # strictly decreasing while positive, zero tail allowed
    first_violation: int | None
    tail_value: float | None
    tail_ok: bool

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "length": self.length,
            "monotone": self.monotone,
            "first_violation": self.first_violation,
            "tail_value": self.tail_value,
            "tail_ok": self.tail_ok,
        }


@dataclass(frozen=True)
class CauchyDiagnostics:
    series: tuple[SeriesDiagnostic, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(s.monotone and s.tail_ok for s in self.series)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "series": [s.to_dict() for s in self.series],
        }


@dataclass(frozen=True)
class UniquenessReport:
    passed: bool
    representative: float | None
    merge_tol: float
    limits: tuple  # (start_repr, terminated_by, limit)
    non_converged: tuple  # (start_repr, terminated_by)
    max_mutual_distance: float | None

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "representative": self.representative,
            "merge_tol": self.merge_tol,
            "limits": [list(l) for l in self.limits],
            "non_converged": [list(l) for l in self.non_converged],
            "max_mutual_distance": self.max_mutual_distance,
        }


@dataclass(frozen=True)
class SandwichReport:
    y: float
    s: float
    tail_len: int
    fwd_reference: float  # d(limit, y)
    bwd_reference: float  # d(y, limit)
    fwd_tail_min: float
    fwd_tail_max: float
    bwd_tail_min: float
    bwd_tail_max: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "y": self.y,
            "s": self.s,
            "tail_len": self.tail_len,
            "fwd_reference": self.fwd_reference,
            "bwd_reference": self.bwd_reference,
            "fwd_tail_min": self.fwd_tail_min,
            "fwd_tail_max": self.fwd_tail_max,
            "bwd_tail_min": self.bwd_tail_min,
            "bwd_tail_max": self.bwd_tail_max,
            "passed": self.passed,
        }


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def _resolve_start(space: Space, x0) -> float:
    if isinstance(x0, str):
        if isinstance(space, FiniteSpace):
            return space.value_of(x0)
        raise UnknownLabelError("analytic spaces take numeric starts")
    x0 = float(x0)
    if isinstance(space, AnalyticSpace):
        if not space.contains(x0):
            raise ValueError(f"start {x0!r} outside [{space.lo}, {space.hi}]")
        return x0
    if space.label_for_value(x0) is None and space.default_formula is None:
        raise UnknownLabelError(f"start value {x0!r} matches no labeled point")
    return x0


def picard_iterate(
    space: Space,
    selfmap: SelfMap,
    x0,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_SOLVE_TOL,
) -> PicardTrace:
    """Iterate x_{n+1} = T(x_n) from x0 (a label or a value) and trace it."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    selfmap.check_total(space)
    x = _resolve_start(space, x0)
    values = [x]
    labels = [_label_for(space, x)]
    fwd: list[float] = []
    bwd: list[float] = []
    fwd_skip: list[float] = []
    bwd_skip: list[float] = []
    seen: dict = {}
    if isinstance(space, FiniteSpace):
        seen[labels[0] if labels[0] is not None else x] = 0
    terminated = "max_iter"
    limit = None
    for _ in range(max_iter):
        xn = selfmap.apply_value(space, x)
        values.append(xn)
        labels.append(_label_for(space, xn))
        step_f = _dist(space, x, xn)
        step_b = _dist(space, xn, x)
        fwd.append(step_f)
        bwd.append(step_b)
        if len(values) >= 3:
            fwd_skip.append(_dist(space, values[-3], values[-1]))
            bwd_skip.append(_dist(space, values[-1], values[-3]))
        if step_f == 0.0:
            terminated = "exact_fixed_point"
            limit = xn
            break
        if isinstance(space, FiniteSpace):
            key = labels[-1] if labels[-1] is not None else xn
            if key in seen:
                # revisit with a positive step distance: a cycle of length >= 2
                terminated = "cycle_detected"
                break
            seen[key] = len(values) - 1
        gap = abs(xn - x)
        if max(step_f, step_b) < tol and gap < tol:
            terminated = "tolerance"
            limit = xn
            break
        x = xn
    return PicardTrace(
        space=space,
        selfmap=selfmap,
        values=tuple(values),
        labels=tuple(labels),
        fwd_step=tuple(fwd),
        bwd_step=tuple(bwd),
        fwd_skip=tuple(fwd_skip),
        bwd_skip=tuple(bwd_skip),
        terminated_by=terminated,
        limit=limit,
        limit_label=_label_for(space, limit) if limit is not None else None,
        tol=tol,
    )


def _diag_series(name: str, seq: tuple[float, ...], tol: float) -> SeriesDiagnostic:
    first_violation = None
    for i in range(len(seq) - 1):
        prev, nxt = seq[i], seq[i + 1]
        ok = (nxt < prev) if prev > 0.0 else (nxt == 0.0)
        if not ok:
            first_violation = i + 1
            break
    tail = seq[-1] if seq else None
    tail_ok = tail is not None and tail < tol
    return SeriesDiagnostic(
        name=name,
        length=len(seq),
        monotone=first_violation is None,
        first_violation=first_violation,
        tail_value=tail,
        tail_ok=tail_ok,
    )


def cauchy_diagnostics(trace: PicardTrace, tol: float = 1e-9) -> CauchyDiagnostics:
    """Check that all four distance series decrease strictly (while positive)
    and end below ``tol``; requires at least three iterates."""
    if len(trace.values) < 3:
        raise ValueError("diagnostics need a trace with at least 3 iterates")
    series = (
        _diag_series("fwd_step", trace.fwd_step, tol),
        _diag_series("bwd_step", trace.bwd_step, tol),
        _diag_series("fwd_skip", trace.fwd_skip, tol),
        _diag_series("bwd_skip", trace.bwd_skip, tol),
    )
    return CauchyDiagnostics(series=series, tol=tol)


def verify_fixed_point(
    space: Space, selfmap: SelfMap, z, tol: float = 1e-12
) -> FixedPointVerdict:
    """Residuals d(Tz, z) and d(z, Tz); verified iff both are within tol."""
    zv = _resolve_start(space, z)
    tz = selfmap.apply_value(space, zv)
    fwd = _dist(space, tz, zv)
    bwd = _dist(space, zv, tz)
    return FixedPointVerdict(
        point=zv,
        label=_label_for(space, zv),
        fwd_residual=fwd,
        bwd_residual=bwd,
        verified=fwd <= tol and bwd <= tol,
        tol=tol,
    )


def uniqueness_scan(
    space: Space,
    selfmap: SelfMap,
    starts,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_SOLVE_TOL,
    merge_tol: float | None = None,
) -> UniquenessReport:
    """Run the iteration from every start and test that all converged limits
    agree within ``merge_tol`` in both directed distances."""
    starts = list(starts)
    if not starts:
        raise ValueError("starts must be nonempty")
    if merge_tol is None:
        merge_tol = 100.0 * tol
    traces = [picard_iterate(space, selfmap, s0, max_iter, tol) for s0 in starts]
    limits = []
    stray = []
    for s0, tr in zip(starts, traces):
        if tr.converged and tr.limit is not None:
            limits.append((s0, tr.terminated_by, tr.limit))
        else:
            stray.append((s0, tr.terminated_by))
    if not limits:
        return UniquenessReport(False, None, merge_tol, (), tuple(stray), None)
    rep = limits[0][2]
    worst = 0.0
    ok = True
    for _, _, lim in limits:
        d1 = _dist(space, rep, lim)
        d2 = _dist(space, lim, rep)
        worst = max(worst, d1, d2)
        if d1 > merge_tol or d2 > merge_tol:
            ok = False
    return UniquenessReport(
        passed=ok,
        representative=rep,
        merge_tol=merge_tol,
        limits=tuple(limits),
        non_converged=tuple(stray),
        max_mutual_distance=worst,
    )


def limit_sandwich_check(
    trace: PicardTrace,
    y,
    s: float,
    tail_len: int,
    tol: float = 1e-9,
) -> SandwichReport:
    """Tail distances to a fixed observer point y stay within the coefficient
    band around the limit's distances: (1/s) d(x,y) <= d(x_n, y) <= s d(x,y)
    over the last ``tail_len`` iterates, and symmetrically for d(y, x_n)."""
    if not trace.converged or trace.limit is None:
        raise ValueError("sandwich check needs a converged trace")
    if s < 1.0:
        raise ValueError("coefficient s must be >= 1")
    if tail_len < 1 or tail_len > len(trace.values):
        raise ValueError("tail_len must be within the trace length")
    space = trace.space
    yv = _resolve_start(space, y)
    x = trace.limit
    if yv == x:
        raise ValueError("observer point must differ from the limit")
    tail = trace.values[-tail_len:]
    fwd_ref = _dist(space, x, yv)
    bwd_ref = _dist(space, yv, x)
    fwd_vals = [_dist(space, v, yv) for v in tail]
    bwd_vals = [_dist(space, yv, v) for v in tail]
    f_min, f_max = min(fwd_vals), max(fwd_vals)
    b_min, b_max = min(bwd_vals), max(bwd_vals)
    passed = (
        fwd_ref / s <= f_min + tol
        and f_max <= s * fwd_ref + tol
        and bwd_ref / s <= b_min + tol
        and b_max <= s * bwd_ref + tol
    )
    return SandwichReport(
        y=yv,
        s=s,
        tail_len=tail_len,
        fwd_reference=fwd_ref,
        bwd_reference=bwd_ref,
        fwd_tail_min=f_min,
        fwd_tail_max=f_max,
        bwd_tail_min=b_min,
        bwd_tail_max=b_max,
        passed=passed,
    )
