"""Picard iteration with quasi-metric convergence diagnostics.

The iteration x_{n+1} = T(x_n) records four distance series: forward and
backward consecutive steps d(x_n, x_{n+1}) / d(x_{n+1}, x_n) and the skip
distances d(x_n, x_{n+2}) / d(x_{n+2}, x_n).  Termination:

* ``exact_fixed_point`` when a forward step is exactly 0;
* ``tolerance`` when both directed step distances and the coordinate gap
  fall below ``tol`` (both directions matter in an asymmetric space; the
  coordinate gap keeps the reported limit meaningful on spaces whose
  distance flattens near the diagonal, e.g. squared differences);
* ``cycle_detected`` on exact revisit of a point (finite carriers only):
  a label the run has visited, or an unlabeled value it has taken;
* ``max_iter`` otherwise.

All starts advance in lock-step, a single run being the one-start case: a
round makes one map call and one distance call per series over the live
starts, and keeps only their arrays; the traces are built from those once,
at the end.  If a round raises, the starts rerun one at a time in start
order, so the first start that fails raises its own error.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._report import Result, plain
from .contraction import MapError, SelfMap
from .expr import ExprError
from .spaces import AnalyticSpace, FiniteSpace, Space, SpaceError, UnknownLabelError

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


@dataclass(frozen=True)
class PicardTrace(Result):
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
        return plain({
            "iterates": [{"value": v, "label": l} for v, l in zip(self.values, self.labels)],
            "fwd_step": self.fwd_step,
            "bwd_step": self.bwd_step,
            "fwd_skip": self.fwd_skip,
            "bwd_skip": self.bwd_skip,
            "terminated_by": self.terminated_by,
            "steps": self.steps,
            "limit": self.limit,
            "limit_label": self.limit_label,
            "tol": self.tol,
        })


@dataclass(frozen=True)
class FixedPointVerdict(Result):
    point: float
    label: str | None
    fwd_residual: float  # d(Tz, z)
    bwd_residual: float  # d(z, Tz)
    verified: bool
    tol: float


@dataclass(frozen=True)
class SeriesDiagnostic(Result):
    name: str
    length: int
    monotone: bool  # strictly decreasing while positive, zero tail allowed
    first_violation: int | None
    tail_value: float | None
    tail_ok: bool


@dataclass(frozen=True)
class CauchyDiagnostics(Result):
    series: tuple[SeriesDiagnostic, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(s.monotone and s.tail_ok for s in self.series)

    def to_dict(self) -> dict:
        return plain({"passed": self.passed, "tol": self.tol, "series": self.series})


@dataclass(frozen=True)
class UniquenessReport(Result):
    passed: bool
    representative: float | None
    merge_tol: float
    limits: tuple  # (start_repr, terminated_by, limit)
    non_converged: tuple  # (start_repr, terminated_by)
    max_mutual_distance: float | None


@dataclass(frozen=True)
class SandwichReport(Result):
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


def _lockstep(space: Space, selfmap: SelfMap, starts: list, max_iter: int, tol: float):
    finite, m = isinstance(space, FiniteSpace), len(starts)
    x = np.array([_resolve_start(space, x0) for x0 in starts])
    live = np.arange(m)  # the starts still running, in start order
    at = space._indices(x) if finite else np.full(m, -1)  # label indices, -1 for none
    # each column holds per round the round's starts and one array over them:
    # iterates, label indices, then the four distance series
    iterates, indices, series = [(live, x)], [(live, at)], ([], [], [], [])
    ends = np.full(m, "max_iter", dtype=object)
    prev = None
    if finite:
        # a start revisits a label its row of ``visited`` holds; its unlabeled
        # iterates (only a default formula makes them) go to its own set
        visited = np.zeros((m, len(space.labels)), dtype=bool)
        visited[live[at >= 0], at[at >= 0]] = True
        loose = [{v} if a < 0 else set() for a, v in zip(at.tolist(), x.tolist())]
    for _ in range(max_iter):
        if not live.size:
            break
        xn = selfmap.apply_array(space, x)
        d = [space.distance_value(x, xn), space.distance_value(xn, x)]
        if prev is not None:
            d += [space.distance_value(prev, xn), space.distance_value(xn, prev)]
        at = space._indices(xn) if finite else np.full(len(xn), -1)
        iterates.append((live, xn))
        indices.append((live, at))
        for column, dk in zip(series, d):
            column.append((live, dk))
        exact = d[0] == 0.0
        cycle = np.zeros(live.size, dtype=bool)
        if finite:  # a revisit with a positive step distance: a cycle of length >= 2
            cycle = visited[live, at] & (at >= 0) & ~exact
            visited[live, at] |= at >= 0
            unlabeled = np.flatnonzero((at < 0) & ~exact)
            for k, i, v in zip(unlabeled.tolist(), live[unlabeled].tolist(),
                               xn[unlabeled].tolist()):
                cycle[k] = v in loose[i]
                loose[i].add(v)
        # max(d0, d1) as Python's max takes it: d0 unless d1 is larger
        near = (np.where(d[1] > d[0], d[1], d[0]) < tol) & (np.abs(xn - x) < tol)
        near &= ~(exact | cycle)
        ends[live[exact]], ends[live[cycle]] = "exact_fixed_point", "cycle_detected"
        ends[live[near]] = "tolerance"
        keep = ~(exact | cycle | near)
        live, prev, x = live[keep], x[keep], xn[keep]
    names = np.array([*(space.labels if finite else ()), None], dtype=object)  # -1: None
    values = _by_start(iterates, m)
    labels = _by_start([(w, names[a]) for w, a in indices], m)
    steps = [_by_start(column, m) for column in series]
    converged = ("exact_fixed_point", "tolerance")
    return [PicardTrace(space, selfmap, v, l, *s, end, v[-1] if end in converged else None,
                        l[-1] if end in converged else None, tol)
            for v, l, *s, end in zip(values, labels, *steps, ends.tolist())]


def _by_start(column: list, m: int) -> list[tuple]:
    """A column of per-round (starts, array) pairs as one tuple of Python
    scalars per start, in round order."""
    if not column:
        return [()] * m
    who = np.concatenate([w for w, _ in column])
    flat = np.concatenate([a for _, a in column])[np.argsort(who, kind="stable")].tolist()
    bounds = np.cumsum(np.bincount(who, minlength=m)).tolist()
    return [tuple(flat[a:b]) for a, b in zip([0] + bounds, bounds)]


def _iterate(space: Space, selfmap: SelfMap, starts: list, max_iter: int, tol: float):
    """Picard traces from every start (labels or values), in start order."""
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if tol == np.inf:
        raise ValueError("tol must be finite")
    selfmap.check_total(space)
    try:
        return _lockstep(space, selfmap, starts, max_iter, tol)
    except (ExprError, MapError, SpaceError, ValueError) as e:
        error = e
    for x0 in starts:  # one at a time: the first start to fail raises its own error
        _lockstep(space, selfmap, [x0], max_iter, tol)
    raise error


def picard_iterate(
    space: Space,
    selfmap: SelfMap,
    x0,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_SOLVE_TOL,
) -> PicardTrace:
    """Iterate x_{n+1} = T(x_n) from x0 (a label or a value) and trace it."""
    return _iterate(space, selfmap, [x0], max_iter, tol)[0]


def _diag_series(name: str, seq: tuple[float, ...], tol: float) -> SeriesDiagnostic:
    a = np.asarray(seq, dtype=np.float64)
    prev, nxt = a[:-1], a[1:]
    bad = np.where(prev > 0.0, ~(nxt < prev), nxt != 0.0)  # a rise, or a move off 0
    first_violation = int(np.argmax(bad)) + 1 if bad.any() else None
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
    fwd, bwd = space.distance_value(np.array([tz, zv]), np.array([zv, tz])).tolist()
    verified = fwd <= tol and bwd <= tol
    return FixedPointVerdict(zv, space.label_for_value(zv), fwd, bwd, verified, tol)


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
    traces = _iterate(space, selfmap, starts, max_iter, tol)
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
    # row k holds d(rep, limit k) and d(limit k, rep)
    d = space.distance_value(np.array([[rep, lim] for *_, lim in limits]),
                             np.array([[lim, rep] for *_, lim in limits]))
    return UniquenessReport(
        passed=not (d > merge_tol).any(),
        representative=rep,
        merge_tol=merge_tol,
        limits=tuple(limits),
        non_converged=tuple(stray),
        max_mutual_distance=max(0.0, float(d.max())),
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
    if not s >= 1.0:
        raise ValueError("coefficient s must be >= 1")
    if s == np.inf:
        raise ValueError("coefficient s must be finite")
    if tail_len < 1 or tail_len > len(trace.values):
        raise ValueError("tail_len must be within the trace length")
    space = trace.space
    yv = _resolve_start(space, y)
    x = trace.limit
    if yv == x:
        raise ValueError("observer point must differ from the limit")
    tail = np.array(trace.values[-tail_len:])
    ys = np.full(tail_len, yv)
    # d(x, y), d(y, x), then d(x_n, y) and d(y, x_n) over the tail
    d = space.distance_value(np.r_[x, yv, tail, ys], np.r_[yv, x, ys, tail])
    fwd_ref, bwd_ref = float(d[0]), float(d[1])
    fwd_vals, bwd_vals = d[2:2 + tail_len], d[2 + tail_len:]
    f_min, f_max = float(fwd_vals.min()), float(fwd_vals.max())
    b_min, b_max = float(bwd_vals.min()), float(bwd_vals.max())
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
