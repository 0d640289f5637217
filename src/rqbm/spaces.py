"""Finite and analytic asymmetric distance spaces and their axiom checkers.

A space carries a distance ``d(a, b)`` that need not be symmetric.  The
checkers decide which axioms hold:

* identity axiom: ``d(a, b) = 0`` exactly when ``a = b``;
* quadrilateral inequality with coefficient ``s``:
  ``d(x, y) <= s * (d(x, u) + d(u, v) + d(v, y))`` for every admissible
  quadruple (``u``, ``v`` distinct and each different from ``x`` and ``y``);
* the classical symmetry / triangle variants used by the classifier.

Every check reads a carrier sample, which the caller builds once with
``carrier_sample`` and passes to each check it runs: every label of a finite
space, or a uniform grid of an analytic one.  Each scan is exhaustive over
the sample's quadruples, plus seeded random ones on an analytic space.  One
pass over those quadruples serves all three quadrilateral operations
(``check_b_rectangular``, ``minimal_rectangular_coefficient`` and
``classify``): it counts every violation and tracks the supremum ratio.  Every
verdict, supremum and witness row reads the three-hop table M(x, y), the
least d(x, u) + d(u, v) + d(v, y) over admissible (u, v), from the same
min-plus kernel that checks a whole stack of tables at once
(``_three_hop_table``, ``_rectangular_verdicts``).  One row search
(``_row_search``) builds every grid witness, the supremum's first maximiser
and the violations a report keeps, over the columns that M admits.  The
random quadruples are NumPy's seeded PCG64 draws, taken through ``_pcg``.
Only ``classify`` searches for a triangle violation.  All scans are pure and
deterministic for fixed inputs.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import expr as ex
from ._report import Result, to_json

__all__ = [
    "FiniteSpace",
    "AnalyticSpace",
    "Space",
    "SpaceError",
    "UnknownLabelError",
    "SpaceFormatError",
    "QuadrupleViolation",
    "IdentityReport",
    "RectangularReport",
    "CoefficientBound",
    "Classification",
    "Sample",
    "carrier_sample",
    "check_identity_axiom",
    "check_b_rectangular",
    "minimal_rectangular_coefficient",
    "classify",
    "space_to_dict",
    "space_from_dict",
    "load_space",
    "dump_space",
    "format_value",
    "DEFAULT_TOL",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_RANDOM_SAMPLES",
]

DEFAULT_TOL = 1e-9
DEFAULT_GRID_POINTS = 40
DEFAULT_RANDOM_SAMPLES = 10_000


class SpaceError(Exception):
    pass


class UnknownLabelError(SpaceError):
    pass


class SpaceFormatError(SpaceError):
    """Raised when a space definition file violates the schema."""


def format_value(v: float) -> str:
    """Canonical label text for a numeric grid point."""
    return f"{v:.12g}"


def _refuse_claimed(claimed_s: float | None) -> None:
    """Refuse a space's claimed coefficient unless it is None or finite and >= 1."""
    if claimed_s is not None and not claimed_s >= 1.0:
        raise SpaceError("claimed coefficient must be >= 1")
    if claimed_s == math.inf:
        raise SpaceError("claimed coefficient must be finite")


# --------------------------------------------------------------------------
# Spaces
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Labeled points with explicit distance overrides over a formula default.

    The carrier is ``labels`` and ``values``, in label order.  The values
    are distinct, so a value names at most one label.  Every distance is
    resolved once, at construction, into a read-only table; a pair with no
    override and no default formula stays undefined there and raises
    ``SpaceError`` when it is read.  The default formula fills the table in row
    blocks of at most max(``_BLOCK``, n) pairs, one broadcast call each (at
    n = 1,004 the build peaks at 1.1 times the 8 MB table).
    """

    labels: tuple[str, ...]
    values: np.ndarray  # float64 and read-only: the space keeps its own copy
    default_formula: ex.Expr | None
    default_source: str | None
    overrides: dict[tuple[str, str], float]
    claimed_s: float | None = None

    @classmethod
    def build(
        cls,
        points: Iterable[tuple[str, float]],
        default: str | None = None,
        overrides: dict[tuple[str, str], float] | None = None,
        claimed_s: float | None = None,
    ) -> "FiniteSpace":
        rows = [(label, float(value)) for label, value in points]
        formula = ex.parse(default, {"x", "y"}) if default is not None else None
        return cls(tuple(label for label, _ in rows), [value for _, value in rows],
                   formula, default, dict(overrides or {}), claimed_s)

    def __post_init__(self):
        labels, values = tuple(self.labels), np.array(self.values, dtype=np.float64)
        if values.shape != (len(labels),):
            raise SpaceError("a finite space needs one value per label")
        nonfinite = ~np.isfinite(values)
        if nonfinite.any():
            raise SpaceError(f"point {labels[int(np.argmax(nonfinite))]!r} has non-finite value")
        index = {label: i for i, label in enumerate(labels)}
        if len(index) != len(labels):
            raise SpaceError("point labels must be unique")
        if len(labels) == 0:
            raise SpaceError("a finite space needs at least one point")
        order = np.argsort(values, kind="stable")  # equal values stay in label order
        ascending = values[order]
        shared = np.flatnonzero(ascending[1:] == ascending[:-1]) + 1
        if shared.size:  # the first point whose value an earlier point holds
            later = int(order[shared].min())
            first = int(order[np.searchsorted(ascending, values[later])])
            raise SpaceError(f"points {labels[first]!r} and {labels[later]!r} "
                             f"share the value {float(values[later])!r}")
        _refuse_claimed(self.claimed_s)
        # a pair resolves to its override, else 0 on the diagonal, else the
        # default formula; NaN marks a pair with none of these
        table = np.full((len(labels), len(labels)), math.nan)
        np.fill_diagonal(table, 0.0)
        for (a, b), d in self.overrides.items():
            if a not in index or b not in index:
                raise UnknownLabelError(f"override ({a!r}, {b!r}) names unknown label")
            if not (math.isfinite(d) and d >= 0.0):
                raise SpaceError(f"override ({a!r}, {b!r}) = {d!r} must be finite and >= 0")
            if a == b and d != 0.0:
                raise SpaceError(f"override ({a!r}, {a!r}) must be 0, got {d!r}")
            table[index[a], index[b]] = d
        if self.default_formula is not None:
            step, names = max(1, _BLOCK // len(labels)), np.array(labels, dtype=object)
            for lo in range(0, len(labels), step):  # row blocks in C order, one call each
                rows, need = table[lo:lo + step], np.isnan(table[lo:lo + step])
                d = _formula_distance(self.default_formula, values[lo:lo + step, None], values,
                                      names[lo:lo + step, None], names, need)
                np.copyto(rows, d, where=need)  # kept on the block's undefined pairs
        values.flags.writeable = table.flags.writeable = False
        for name, field in (("labels", labels), ("values", values), ("_index_of", index),
                            ("_ascending", ascending), ("_order", order), ("_table", table)):
            object.__setattr__(self, name, field)

    def _index(self, label: str) -> int:
        try:
            return self._index_of[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def value_of(self, label: str) -> float:
        return float(self.values[self._index(label)])

    def label_for_value(self, value: float) -> str | None:
        k = int(self._indices(value))
        return self.labels[k] if k >= 0 else None

    def distance(self, a: str, b: str) -> float:
        """Override if present, else the default formula at the point values."""
        d = float(self._table[self._index(a), self._index(b)])
        if math.isnan(d):
            raise SpaceError(
                f"no override for ({a!r}, {b!r}) and the space has no default formula"
            )
        return d

    def _indices(self, values) -> np.ndarray:
        """The label index of every value (any shape), -1 where the value names
        no point: -0.0 names the point at 0.0, and NaN and infinities name none."""
        values = np.asarray(values, dtype=np.float64)
        k = np.minimum(np.searchsorted(self._ascending, values), len(self._order) - 1)
        return np.where(self._ascending[k] == values, self._order[k], -1)

    def distance_value(self, a, b):
        """Distance between raw values over the broadcast of ``a`` and ``b`` (a
        float for two floats): overrides where both are labeled, else the
        default formula.  The first failing pair in C order raises its error, whose
        ``bad`` marks every pair that fails the check that raised."""
        a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
        ia, ib = self._indices(a), self._indices(b)  # on the inputs, not their broadcast
        labeled = (ia >= 0) & (ib >= 0)
        d = np.where(labeled, self._table[ia, ib], 0.0)
        free = ~labeled & (a != b)
        undefined = np.isnan(d) | (free & (self.default_formula is None))
        if undefined.any():
            _raise_first(undefined, lambda k: SpaceError(
                "value lies outside the labeled carrier and no default formula exists"
            ) if free[k] else self.distance(
                *(self.labels[np.broadcast_to(i, d.shape)[k]] for i in (ia, ib))))
        if free.any():
            d = np.where(free, _formula_distance(self.default_formula, a, b, a, b, free), d)
        return float(d) if d.ndim == 0 else d

    @property
    def distance_matrix(self) -> np.ndarray:
        """The read-only table of every pair, rows and columns in label order."""
        if np.isnan(self._table).any():
            i, j = np.argwhere(np.isnan(self._table))[0]
            self.distance(self.labels[i], self.labels[j])
        return self._table


@dataclass(frozen=True, eq=False)
class AnalyticSpace:
    """A closed interval with a closed-form (possibly asymmetric) distance."""

    lo: float
    hi: float
    formula: ex.Expr
    source: str
    claimed_s: float | None = None

    @classmethod
    def build(
        cls, lo: float, hi: float, forward: str, claimed_s: float | None = None
    ) -> "AnalyticSpace":
        return cls(float(lo), float(hi), ex.parse(forward, {"x", "y"}), forward, claimed_s)

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise SpaceError("domain must be a finite interval [lo, hi] with lo < hi")
        _refuse_claimed(self.claimed_s)
        # cheap construction probe; full verification is sampling-based
        for v in (self.lo, self.hi, 0.5 * (self.lo + self.hi)):
            if self.distance(v, v) != 0.0:
                raise SpaceError(f"formula must vanish on the diagonal, d({v}, {v}) != 0")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def label_for_value(self, value: float) -> None:
        """An interval carries no labels."""
        return None

    def distance_value(self, x, y):
        """The distance at floats or over the broadcast of arrays, as
        ``_formula_distance`` gives it."""
        return _formula_distance(self.formula, x, y, x, y)

    distance = distance_value

    def grid(self, m: int) -> np.ndarray:
        if m < 2:
            raise SpaceError("grid needs at least 2 points")
        return np.linspace(self.lo, self.hi, m)


def _formula_distance(formula: ex.Expr, x, y, a, b, need=True):
    """``formula`` at values x, y (floats or arrays), its pairs named by ``a`` and
    ``b``.  The first pair in C order of those ``need`` marks that fails, or is
    negative, raises its own error, and its ``bad`` marks every such pair."""
    try:
        d = ex.evaluate(formula, {"x": x, "y": y})
        fail = np.asarray(d) < 0.0
    except ex.EvalError as e:  # the failing pairs too, to look past those not needed
        if not hasattr(e, "bad"):  # a float pair raises its own error
            raise
        d, fail = e.values, e.bad | (e.values < 0.0)
    if fail.any() and (fail := fail & need).any():
        def error_at(k):  # a failing pair raises its own error
            x_, y_, a_, b_ = (np.broadcast_to(w, fail.shape).item(k) for w in (x, y, a, b))
            d = ex.evaluate(formula, {"x": x_, "y": y_})
            return SpaceError(f"distance ({a_!r}, {b_!r}) = {d!r} must be finite and >= 0")
        _raise_first(fail, error_at)
    return d


def _raise_first(bad, error_at):
    """Raise the error of the first True of ``bad`` in C order, carrying ``bad``:
    ``error_at`` takes that value's index and raises its own error, or returns it."""
    try:
        raise error_at(np.unravel_index(int(np.argmax(bad)), np.shape(bad)))
    except Exception as e:
        e.bad = bad
        raise


Space = FiniteSpace | AnalyticSpace


@dataclass(frozen=True, eq=False)
class Sample:
    """The carrier the checks read: point names (labels, or the grid's floats),
    their values and the table, in name order.  Built by ``carrier_sample``;
    its arrays are read-only, so one sample serves any number of checks."""

    space: Space
    names: tuple
    values: np.ndarray
    table: np.ndarray
    source: str  # "exhaustive" or "grid:G"


def carrier_sample(space: Space, grid_points: int = DEFAULT_GRID_POINTS) -> Sample:
    """Every label of a finite space, with the space's own arrays, or the grid
    of ``grid_points`` of an analytic space, its table evaluated here once."""
    if isinstance(space, FiniteSpace):
        return Sample(space, space.labels, space.values, space.distance_matrix, "exhaustive")
    g = space.grid(grid_points)
    D = np.asarray(space.distance_value(g[:, None], g[None, :]), dtype=np.float64)
    g.flags.writeable = D.flags.writeable = False
    return Sample(space, tuple(g.tolist()), g, D, f"grid:{grid_points}")


# --------------------------------------------------------------------------
# Reports (``to_dict`` is the shared ``Result`` report form)
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadrupleViolation(Result):
    x: str | float
    u: str | float
    v: str | float
    y: str | float
    lhs: float
    rhs_sum: float
    ratio: float  # lhs / rhs_sum, or +inf when rhs_sum == 0 and lhs > 0


@dataclass(frozen=True)
class IdentityReport(Result):
    passed: bool
    pairs_checked: int
    zero_off_diagonal: tuple  # pairs (a, b) with d(a,b)=0 and a != b
    nonzero_diagonal: tuple   # (p, d(p,p)) entries with d != 0


@dataclass(frozen=True)
class RectangularReport(Result):
    s: float
    tol: float
    passed: bool
    vacuous: bool
    quadruples_checked: int
    violation_count: int
    violations: tuple[QuadrupleViolation, ...]
    source: str  # description of the quadruple source


@dataclass(frozen=True)
class CoefficientBound(Result):
    value: float | None  # None means undefined (no admissible quadruple)
    witness: QuadrupleViolation | None
    quadruples_checked: int
    source: str


@dataclass(frozen=True)
class Classification(Result):
    s: float
    is_quasi_identity: bool
    is_symmetric: bool
    is_metric: bool
    is_rectangular: bool
    is_b_metric_at_s: bool
    is_rqb_at_s: bool
    minimal_s: float | None
    asymmetry_witnesses: tuple  # (a, b, d_ab, d_ba)
    identity: IdentityReport
    triangle_witness: tuple | None       # (x, z, y, lhs, rhs_sum) at s
    quadrilateral_witness: QuadrupleViolation | None  # at s


# --------------------------------------------------------------------------
# Core scans
# --------------------------------------------------------------------------

# Elements per array in a quadrilateral-pass block: bounded memory, and in cache.
_BLOCK = 1 << 14


def _triangle_sums(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """A[r, u, v] = d(x, u) + d(u, v) in row r's table D[r], x = X[r];
    inf unless x, u and v are distinct.  D has shape (len(X), n, n)."""
    r, idx = np.arange(len(X)), np.arange(D.shape[-1])
    A = D[r, X, :, None] + D
    A[r, X, :] = A[:, idx, idx] = A[r, :, X] = math.inf  # u = x, u = v, v = x
    return A


def _three_hop_min(D: np.ndarray, X: np.ndarray) -> np.ndarray:
    """M[r, y] = min over u, v of d(x, u) + d(u, v) + d(v, y) in row r's table
    D[r], x = X[r], with x, u and v distinct and u and v apart from y, and inf
    at y = x.  The two cheapest u of the sums A = ``_triangle_sums(D, X)`` per
    (x, v) give it: the second stands in where the cheapest is y."""
    r, idx = np.arange(len(X)), np.arange(D.shape[-1])
    A = _triangle_sums(D, X)
    bu = A.argmin(axis=1)[:, None, :]
    best = np.take_along_axis(A, bu, axis=1)
    np.put_along_axis(A, bu, math.inf, axis=1)
    second = np.take_along_axis(A, A.argmin(axis=1)[:, None, :], axis=1)
    # B[r, y, v] = min over u not in {x, v, y} of A[r, u, v], plus d(v, y)
    B = np.where(bu == idx[:, None], second, best)
    B += D.swapaxes(1, 2)
    B[:, idx, idx] = B[r, X, :] = math.inf  # v = y, y = x
    return B.min(axis=2)


def _ratio(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """lhs / rhs, +inf where rhs = 0 < lhs, and -inf where rhs = lhs = 0 (skipped)."""
    ratio = lhs / rhs
    np.copyto(ratio, math.inf, where=(rhs == 0.0) & (lhs > 0.0))
    np.copyto(ratio, -math.inf, where=np.isnan(ratio))
    return ratio


def _three_hop_table(tables: np.ndarray) -> np.ndarray:
    """M[t, x, y] = ``_three_hop_min`` of row x of table t of a (T, n, n) stack:
    the least rhs = d(x, u) + d(u, v) + d(v, y) over admissible (u, v), inf at
    y = x and everywhere below 4 points.  Rounded addition, lhs / rhs and
    ``s * rhs + tol`` (s >= 0) are monotone, so M gives every row its exact
    verdicts and supremum.  The (table, x) rows go in blocks of at most
    max(``_BLOCK``, n^2) elements."""
    T, n = tables.shape[0], tables.shape[-1]
    M = np.full(tables.shape, math.inf)
    rows_of = M.reshape(T * n, n)
    step = max(1, _BLOCK // (n * n))
    for lo in range(0, T * n if n >= 4 else 0, step):  # no quadruple below 4 points
        t, X = np.divmod(np.arange(lo, min(lo + step, T * n)), n)
        # a block inside one table reads it through a view, not a copy
        D = np.broadcast_to(tables[t[0]], (len(X), n, n)) if t[0] == t[-1] else tables[t]
        rows_of[lo:lo + len(X)] = _three_hop_min(D, X)
    return M


def _rectangular_verdicts(tables: np.ndarray, s: float, tol: float = DEFAULT_TOL) -> np.ndarray:
    """For each table of a (T, n, n) stack, the verdict of ``check_b_rectangular``:
    does some admissible quadruple have lhs > s * rhs + tol?"""
    with np.errstate(all="ignore"):  # s = 0 meets M = inf at y = x
        return (tables > s * _three_hop_table(tables) + tol).any(axis=(1, 2))


def _violation_counts(D: np.ndarray, X: np.ndarray,
                      checks: list[tuple[float, float]]) -> np.ndarray:
    """counts[i, c]: how many admissible quadruples (x, u, v, y) of table D,
    x = X[i], have lhs > s * rhs + tol, per ``(s, tol)`` in ``checks``.

    For row x, the sums A[u, v] = d(x, u) + d(u, v), masked as in
    ``_triangle_sums``, are held transposed, each column v sorted over u.  The test
    d(x, y) > s * (a + d(v, y)) + tol is monotone in a (rounded addition and
    a product with s >= 0 are), and fails at a = inf, also at s = 0, where
    0 * inf is NaN.  So for each (v, y) it holds on a prefix of the sorted
    column, and a binary search on the exact test counts its u.  The u = y
    term is taken off, and y = x and y = v count nothing.  O(n^3 log n) for
    all rows, in blocks of at most max(``_BLOCK``, n^2) elements per array.
    """
    n = D.shape[-1]
    counts = np.zeros((len(X), len(checks)), dtype=np.int64)
    idx = np.arange(n)
    step = max(1, _BLOCK // (n * n))
    with np.errstate(all="ignore"):  # s = 0 meets the inf of a masked sum
        for lo in range(0, len(X), step):
            x = X[lo:lo + step]
            r = np.arange(len(x))
            At = D[x, None, :] + D.T  # At[r, v, u] = A[u, v] of row x[r]
            At[r, :, x] = At[:, idx, idx] = At[r, x, :] = math.inf  # u = x, u = v, v = x
            lhs = D[x, None, :]  # d(x, y) over (v, y)
            # the u = y term: At[r, v, y] is A[y, v]
            own = [lhs > s * (At + D) + tol for s, tol in checks]
            At.sort(axis=2)  # every column holds inf at u = x, so its last entry fails
            for c, (s, tol) in enumerate(checks):
                k = np.zeros(At.shape, dtype=np.intp)  # u known to pass, per (v, y)
                for bit in reversed(range((n - 1).bit_length())):
                    probe = np.minimum(k + ((1 << bit) - 1), n - 1)
                    k += (lhs > s * (np.take_along_axis(At, probe, axis=2) + D) + tol) << bit
                k -= own[c]
                k[:, idx, idx] = k[r, :, x] = 0  # y = v, y = x
                counts[lo:lo + len(x), c] = k.sum(axis=(1, 2))
    return counts


def _row_search(D: np.ndarray, x: int, Y: np.ndarray, test, limit: int) -> list[tuple]:
    """The first ``limit`` admissible (u, v, y) of row x of table D in (u, v, y)
    order, y in the sorted columns Y (x not among them), where
    ``test(lhs, rhs)`` holds, with lhs = d(x, y) and
    rhs = d(x, u) + d(u, v) + d(v, y): as (u, v, y, lhs, rhs).

    The caller picks Y by the row's three-hop minimum M (``_three_hop_table``):
    every rhs at y is at least M[y], and both lhs > s * rhs + tol and
    lhs / rhs can only fall as rhs grows (s >= 0), so a y whose M[y] fails
    the test holds no hit.  Y is not empty: the callers search only rows
    with a hit.  O(|Y| n^2), in blocks of u of at most max(``_BLOCK``, n |Y|)
    elements, up to the block that fills ``limit``.
    """
    n, idx = len(D), np.arange(len(D))
    Y, V = Y[None, None, :], idx[None, :, None]
    found: list[tuple] = []
    step = max(1, _BLOCK // (n * Y.size))
    for lo in range(0, n, step):
        if len(found) >= limit:
            break
        u = idx[lo:lo + step, None, None]
        rhs = D[x, u] + D[u, V] + D[V, Y]
        hit = test(np.broadcast_to(D[x, Y], rhs.shape), rhs)
        hit &= (u != x) & (u != V) & (V != x) & (u != Y) & (V != Y)
        for a, v, b in np.argwhere(hit)[:limit - len(found)].tolist():
            y = int(Y[0, 0, b])
            found.append((lo + a, v, y, float(D[x, y]), float(rhs[a, v, b])))
    return found


def _first_triangle(pts: Sequence, D: np.ndarray, s: float, tol: float) -> tuple | None:
    """The first (x, z, y, lhs, rhs) in (x, z, y) order, x, z, y distinct, with
    d(x, y) > s * (d(x, z) + d(z, y)) + tol, or None.  Blocks of x rows of at
    most max(``_BLOCK``, n^2) elements, up to the first block that holds one."""
    n = len(pts)
    step = max(1, _BLOCK // (n * n))
    with np.errstate(all="ignore"):  # s = 0 meets the inf of a masked sum
        for lo in range(0, n, step):
            X = np.arange(lo, min(lo + step, n))
            A = _triangle_sums(np.broadcast_to(D, (len(X), n, n)), X)
            hit = D[X, None, :] > s * A + tol
            if hit.any():
                b, z, y = np.unravel_index(int(np.argmax(hit)), hit.shape)
                return pts[X[b]], pts[z], pts[y], float(D[X[b], y]), float(A[b, z, y])
    return None


def _scan_checks(checks: list[tuple[float, float]]) -> list:
    """``checks`` for ``_quadrilateral_pass``, each s finite and >= 0, each tol finite."""
    if not all(s >= 0 for s, _ in checks):
        raise ValueError("coefficient s must be >= 0")
    if math.inf in (s for s, _ in checks):
        raise ValueError("coefficient s must be finite")
    if not all(math.isfinite(tol) for _, tol in checks):
        raise ValueError("tol must be finite")
    return checks


def _streams(seeds, salt: int | None = None):
    """NumPy's ``default_rng(seed)``, or ``default_rng([salt, seed])``, for
    every seed at once (``_pcg.Streams``), for every module that draws.  ``_pcg``
    is imported at the first draw, so a command that draws nothing never loads it."""
    from ._pcg import Streams

    return Streams(seeds, salt)


def _quadrilateral_pass(
    sample: Sample,
    checks: list[tuple[float, float]],
    keep: int | None,
    random_samples: int,
    seed: int,
    exact: bool = True,
    supremum: bool = True,
):
    """The one pass over admissible quadruples behind every quadrilateral operation.

    Quadruples come in lexicographic (x, u, v, y) point-index order over the
    carrier ``sample``, then, for an analytic space, ``random_samples``
    seeded uniform ones.  Per ``(s, tol)`` in ``checks`` it counts the
    quadruples with ``lhs > s * rhs + tol`` (when ``exact``, else a count is
    only zero or positive).  With checks, it keeps the first
    ``keep`` violations of the last one (all when None); without, ``keep``
    must be 0.  The supremum of lhs / rhs comes with its first maximiser:
    rhs = lhs = 0 is skipped, rhs = 0 < lhs is +inf.

    The three-hop table M (``_three_hop_table``) gives every grid row its
    verdicts and supremum, and ``_violation_counts`` counts the violating
    rows.  ``_row_search`` builds every grid witness from a row's lhs L and
    its row of M: the maximiser in the first row attaining the supremum, over
    the y where L / M is that supremum, and the kept violations, row by row
    over the violating rows, over the y where L > s * M + tol, until ``keep``
    are found.

    Returns ``(bound, counts, kept)``; ``bound.value`` is None without
    admissible quadruples, 0 when every one has rhs = lhs = 0.  Without
    ``supremum`` no ratio is taken and ``bound`` carries no value and no
    witness.
    """
    pts, D, source, space = sample.names, sample.table, sample.source, sample.space
    n = len(pts)
    checked = n * (n - 1) * (n - 2) * (n - 3)
    room = sys.maxsize if keep is None else keep
    kept: list[QuadrupleViolation] = []
    sup, sup_at = -math.inf, None

    def keep_violation(at, lhs, rhs):
        kept.append(QuadrupleViolation(*at, lhs, rhs, math.inf if rhs == 0.0 else lhs / rhs))

    M = _three_hop_table(D[None])[0]
    with np.errstate(all="ignore"):  # s = 0 meets M = inf at y = x
        # bad[c, x]: does row x hold a quadruple with lhs > s * rhs + tol, per check
        bad = np.array([(D > s * M + tol).any(axis=1) for s, tol in checks]).reshape(-1, n)
        if exact:
            counts = _violation_counts(D, np.flatnonzero(bad.any(axis=0)), checks).sum(axis=0)
        else:  # a positive count is all the verdict needs
            counts = np.count_nonzero(bad, axis=1)
        counts = counts.tolist()
        if supremum and checked:
            ratio = _ratio(D, M)
            np.fill_diagonal(ratio, -math.inf)  # y = x
            top = int(np.argmax(ratio)) // n  # the first row attaining the supremum
            # -inf only if every off-diagonal distance is 0 (lhs = M = 0 is
            # skipped), else above 0, so a y with lhs = 0 cannot attain it
            sup = float(ratio[top].max())
            if sup > -math.inf:
                Y = np.flatnonzero(ratio[top] == sup)
                [(u, v, y, lhs, rhs)] = _row_search(D, top, Y, lambda a, b: _ratio(a, b) == sup, 1)
                sup_at = (pts[top], pts[u], pts[v], pts[y], lhs, rhs)
        if room:
            s, tol = checks[-1]
            violates = lambda a, b: a > s * b + tol  # noqa: E731
            for x in np.flatnonzero(bad[-1]).tolist():
                if len(kept) == room:
                    break
                Y = np.flatnonzero(violates(D[x], M[x]))
                for u, v, y, lhs, rhs in _row_search(D, x, Y, violates, room - len(kept)):
                    keep_violation((pts[x], pts[u], pts[v], pts[y]), lhs, rhs)
        if checked and sup == -math.inf:
            sup = 0.0  # a random quadruple must beat the all-zero grid to replace it
        if isinstance(space, AnalyticSpace) and random_samples > 0:
            rng = _streams([seed])
            xs, us, vs, ys = rng.uniform(space.lo, space.hi, 4 * random_samples)[0].reshape(4, -1)
            d = space.distance_value
            adm = (us != vs) & (us != xs) & (us != ys) & (vs != xs) & (vs != ys) & (xs != ys)
            checked += int(np.count_nonzero(adm))
            lhs = np.asarray(d(xs, ys))
            rhs = np.asarray(d(xs, us)) + np.asarray(d(us, vs)) + np.asarray(d(vs, ys))
            at = lambda k: tuple(float(w[k]) for w in (xs, us, vs, ys))  # noqa: E731
            if supremum:
                ratio = _ratio(lhs, rhs)
                ratio[~adm] = -math.inf
                k = int(np.argmax(ratio))
                if ratio[k] > sup:
                    sup, sup_at = float(ratio[k]), (*at(k), float(lhs[k]), float(rhs[k]))
            viol = [adm & (lhs > s * rhs + tol) for s, tol in checks]
            counts = [count + int(np.count_nonzero(v)) for count, v in zip(counts, viol)]
            if room:
                for k in np.flatnonzero(viol[-1])[:room - len(kept)].tolist():
                    keep_violation(at(k), float(lhs[k]), float(rhs[k]))
            source += f"+random:{random_samples}(seed={seed})"
    if not (checked and supremum):
        sup = None
    elif sup == -math.inf:
        sup = 0.0
    witness = None if sup_at is None else QuadrupleViolation(*sup_at, sup)
    return CoefficientBound(sup, witness, checked, source), counts, kept


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def check_identity_axiom(sample: Sample) -> IdentityReport:
    """Check d(a, b) = 0 exactly when a = b, over every pair of the sample."""
    pts, D = sample.names, sample.table
    bad = _identity_breaks(D)
    zero_off = [(pts[i], pts[j]) for i, j in np.argwhere(bad) if i != j]
    nonzero_diag = [(pts[i], float(D[i, i])) for i in np.flatnonzero(bad.diagonal())]
    return IdentityReport(
        passed=not zero_off and not nonzero_diag,
        pairs_checked=int(D.size),
        zero_off_diagonal=tuple(zero_off),
        nonzero_diagonal=tuple(nonzero_diag),
    )


def _identity_breaks(D: np.ndarray) -> np.ndarray:
    """Where a table, or each table of a stack, breaks the identity axiom:
    a zero off the diagonal or a nonzero on it."""
    return (D == 0.0) == ~np.eye(D.shape[-1], dtype=bool)


def _identity_verdicts(tables: np.ndarray) -> np.ndarray:
    """For each table of a (T, n, n) stack: does it break the identity axiom?"""
    return _identity_breaks(tables).any(axis=(1, 2))


def check_b_rectangular(
    sample: Sample,
    s: float,
    *,
    random_samples: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_violations: int | None = None,
) -> RectangularReport:
    """Check the quadrilateral inequality at coefficient ``s``.

    Every admissible quadruple of the sample is scanned, then on an analytic
    space ``random_samples`` seeded uniform ones; fewer than four points is
    reported as a vacuous pass.  ``violation_count`` counts every violation;
    ``violations`` keeps the first ``max_violations`` (>= 0, all when None)
    in scan order.
    """
    checks = _scan_checks([(s, tol)])
    if max_violations is not None and max_violations < 0:
        raise ValueError("max_violations must be >= 0")
    bound, [count], violations = _quadrilateral_pass(
        sample, checks, max_violations, random_samples, seed, supremum=False)
    return RectangularReport(
        s=s,
        tol=tol,
        passed=count == 0,
        vacuous=bound.quadruples_checked == 0,
        quadruples_checked=bound.quadruples_checked,
        violation_count=count,
        violations=tuple(violations),
        source=bound.source,
    )


def minimal_rectangular_coefficient(
    sample: Sample,
    *,
    random_samples: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
) -> CoefficientBound:
    """Supremum of lhs / rhs over admissible quadruples (the tightest coefficient).

    Quadruples with rhs = 0 and lhs = 0 are skipped; rhs = 0 with lhs > 0
    makes the result infinite.  Returns value ``None`` when no admissible
    quadruple exists.  The witness is the first maximiser in scan order.
    """
    bound, _, _ = _quadrilateral_pass(sample, [], 0, random_samples, seed)
    return bound


def classify(
    sample: Sample,
    s: float | None = None,
    *,
    random_samples: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Classification:
    """Decide every class membership: symmetry, metric, b-metric, rectangular, RQB."""
    if s is None:
        s = 1.0 if sample.space.claimed_s is None else sample.space.claimed_s
    pts, D = sample.names, sample.table
    identity = check_identity_axiom(sample)
    asym = tuple(
        (pts[i], pts[j], float(D[i, j]), float(D[j, i]))
        for i, j in np.argwhere(np.triu(np.abs(D - D.T), k=1) > tol)
    )
    is_symmetric = not asym
    # the s = 1 check only needs its verdict; the last check, at s, keeps one witness
    checks = _scan_checks([(1.0, tol)] if s == 1.0 else [(1.0, tol), (s, tol)])
    bound, counts, first_s = _quadrilateral_pass(sample, checks, 1, random_samples, seed,
                                                 exact=False)
    count_1, count_s = counts[0], counts[-1]
    tri_1 = _first_triangle(pts, D, 1.0, tol)
    # For s >= 1 the rounded s * rhs is at least rhs, so a violation at s is
    # one at 1 too: with none at 1 there is nothing to search for at s.
    tri_s = tri_1 if s == 1.0 or (s > 1.0 and tri_1 is None) else _first_triangle(pts, D, s, tol)
    ok_id = identity.passed
    return Classification(
        s=s,
        is_quasi_identity=ok_id,
        is_symmetric=is_symmetric,
        is_metric=ok_id and is_symmetric and tri_1 is None,
        is_rectangular=ok_id and is_symmetric and count_1 == 0,
        is_b_metric_at_s=ok_id and is_symmetric and tri_s is None,
        is_rqb_at_s=ok_id and count_s == 0,
        minimal_s=bound.value,
        asymmetry_witnesses=asym,
        identity=identity,
        triangle_witness=tri_s,
        quadrilateral_witness=first_s[0] if first_s else None,
    )


# --------------------------------------------------------------------------
# Serialization (the space definition file format)
# --------------------------------------------------------------------------

def space_to_dict(space: Space) -> dict:
    if isinstance(space, FiniteSpace):
        return {
            "kind": "finite",
            "points": [{"label": label, "value": value}
                       for label, value in zip(space.labels, space.values.tolist())],
            "default": space.default_source,
            "overrides": [
                {"from": a, "to": b, "d": d}
                for (a, b), d in sorted(space.overrides.items())
            ],
            "claimed_s": space.claimed_s,
        }
    return {
        "kind": "analytic",
        "domain": {"lo": space.lo, "hi": space.hi},
        "forward": space.source,
        "claimed_s": space.claimed_s,
    }


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise SpaceFormatError(f"missing {key!r} in {where}")
    return obj[key]


def space_from_dict(obj: dict) -> Space:
    if not isinstance(obj, dict):
        raise SpaceFormatError("space definition must be a JSON object")
    kind = _require(obj, "kind", "space definition")
    if kind == "finite":
        points = _require(obj, "points", "finite space")
        if not isinstance(points, list) or not points:
            raise SpaceFormatError("'points' must be a non-empty list")
        pts = []
        for k, p in enumerate(points):
            try:
                pts.append((str(p["label"]), float(p["value"])))
            except (KeyError, TypeError, ValueError) as e:
                raise SpaceFormatError(f"bad point entry at index {k}: {e}") from None
        overrides = {}
        for k, row in enumerate(obj.get("overrides") or []):
            try:
                overrides[(str(row["from"]), str(row["to"]))] = float(row["d"])
            except (KeyError, TypeError, ValueError) as e:
                raise SpaceFormatError(f"bad override entry at index {k}: {e}") from None
        claimed = obj.get("claimed_s")
        return FiniteSpace.build(
            pts, obj.get("default"), overrides,
            float(claimed) if claimed is not None else None,
        )
    if kind == "analytic":
        dom = _require(obj, "domain", "analytic space")
        try:
            lo, hi = float(dom["lo"]), float(dom["hi"])
        except (KeyError, TypeError, ValueError) as e:
            raise SpaceFormatError(f"bad 'domain': {e}") from None
        forward = _require(obj, "forward", "analytic space")
        claimed = obj.get("claimed_s")
        return AnalyticSpace.build(
            lo, hi, str(forward), float(claimed) if claimed is not None else None
        )
    raise SpaceFormatError(f"unknown space kind {kind!r}")


def load_space(path: str) -> Space:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as e:
            raise SpaceFormatError(
                f"malformed JSON in {path}: line {e.lineno} column {e.colno}: {e.msg}"
            ) from None
    return space_from_dict(obj)


def dump_space(space: Space, path: str) -> None:
    text = to_json(space_to_dict(space)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
