"""Finite and analytic asymmetric distance spaces and their axiom checkers.

A space carries a distance ``d(a, b)`` that need not be symmetric.  The
checkers decide which axioms hold:

* identity axiom: ``d(a, b) = 0`` exactly when ``a = b``;
* quadrilateral inequality with coefficient ``s``:
  ``d(x, y) <= s * (d(x, u) + d(u, v) + d(v, y))`` for every admissible
  quadruple (``u``, ``v`` distinct and each different from ``x`` and ``y``);
* the classical symmetry / triangle variants used by the classifier.

Finite spaces are scanned exhaustively; analytic spaces are sampled on a
uniform grid (exhaustive over grid quadruples) plus seeded random quadruples.
One pass over those quadruples serves all three quadrilateral operations
(``check_b_rectangular``, ``minimal_rectangular_coefficient`` and
``classify``): it counts every violation, builds only the witnesses a report
keeps, and tracks the supremum ratio with its first maximiser.
All scans are pure and deterministic for fixed inputs.
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from . import expr as ex

__all__ = [
    "Point",
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


@dataclass(frozen=True)
class Point:
    label: str
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise SpaceError(f"point {self.label!r} has non-finite value")


# --------------------------------------------------------------------------
# Spaces
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FiniteSpace:
    """Labeled points with explicit distance overrides over a formula default.

    Point values are distinct, so a value names at most one label.  Every
    distance is resolved once, at construction, into a read-only table; a
    pair with no override and no default formula stays undefined there and
    raises ``SpaceError`` when it is read.
    """

    points: tuple[Point, ...]
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
        pts = tuple(Point(label, float(value)) for label, value in points)
        formula = ex.parse(default, {"x", "y"}) if default is not None else None
        return cls(pts, formula, default, dict(overrides or {}), claimed_s)

    def __post_init__(self):
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise SpaceError("point labels must be unique")
        if len(labels) == 0:
            raise SpaceError("a finite space needs at least one point")
        label_of_value: dict[float, str] = {}
        for p in self.points:
            first = label_of_value.setdefault(p.value, p.label)
            if first != p.label:
                raise SpaceError(
                    f"points {first!r} and {p.label!r} share the value {p.value!r}"
                )
        object.__setattr__(self, "_label_of_value", label_of_value)
        if self.claimed_s is not None and self.claimed_s < 1.0:
            raise SpaceError("claimed coefficient must be >= 1")
        known = set(labels)
        for (a, b), d in self.overrides.items():
            if a not in known or b not in known:
                raise UnknownLabelError(f"override ({a!r}, {b!r}) names unknown label")
            if not (math.isfinite(d) and d >= 0.0):
                raise SpaceError(f"override ({a!r}, {b!r}) = {d!r} must be finite and >= 0")
            if a == b and d != 0.0:
                raise SpaceError(f"override ({a!r}, {a!r}) must be 0, got {d!r}")
        # every defined pair must resolve to a finite non-negative value;
        # NaN marks a pair with no override and no default formula
        table = np.full((len(labels), len(labels)), math.nan)
        for i, p in enumerate(self.points):
            for j, q in enumerate(self.points):
                d = self.overrides.get((p.label, q.label))
                if d is not None:
                    table[i, j] = d
                elif i == j:
                    table[i, j] = 0.0
                elif self.default_formula is not None:
                    table[i, j] = self._formula_distance(p.label, q.label, p.value, q.value)
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.points)

    @cached_property
    def _index_of(self) -> dict[str, int]:
        return {p.label: i for i, p in enumerate(self.points)}

    def _index(self, label: str) -> int:
        try:
            return self._index_of[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def value_of(self, label: str) -> float:
        return self.points[self._index(label)].value

    def label_for_value(self, value: float) -> str | None:
        return self._label_of_value.get(value)

    def _formula_distance(self, a, b, x: float, y: float) -> float:
        """The default formula at (x, y); ``a`` and ``b`` name the pair in errors."""
        d = float(ex.evaluate(self.default_formula, {"x": x, "y": y}))
        if not (math.isfinite(d) and d >= 0.0):
            raise SpaceError(f"distance ({a!r}, {b!r}) = {d!r} must be finite and >= 0")
        return d

    def distance(self, a: str, b: str) -> float:
        """Override if present, else the default formula at the point values."""
        d = float(self._table[self._index(a), self._index(b)])
        if math.isnan(d):
            raise SpaceError(
                f"no override for ({a!r}, {b!r}) and the space has no default formula"
            )
        return d

    def distance_value(self, a: float, b: float) -> float:
        """Distance between raw values; overrides apply when both are labeled."""
        if a == b:
            return 0.0
        la = self._label_of_value.get(a)
        lb = self._label_of_value.get(b)
        if la is not None and lb is not None:
            return self.distance(la, lb)
        if self.default_formula is None:
            raise SpaceError("value lies outside the labeled carrier and no default formula exists")
        return self._formula_distance(a, b, a, b)

    @property
    def distance_matrix(self) -> np.ndarray:
        """The read-only table of every pair, rows and columns in label order."""
        undefined = np.argwhere(np.isnan(self._table))
        if len(undefined):
            i, j = undefined[0]
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
        if self.claimed_s is not None and self.claimed_s < 1.0:
            raise SpaceError("claimed coefficient must be >= 1")
        # cheap construction probe; full verification is sampling-based
        for v in (self.lo, self.hi, 0.5 * (self.lo + self.hi)):
            if self.distance(v, v) != 0.0:
                raise SpaceError(f"formula must vanish on the diagonal, d({v}, {v}) != 0")
        if self.distance(self.lo, self.hi) < 0.0 or self.distance(self.hi, self.lo) < 0.0:
            raise SpaceError("formula must be non-negative on the domain")

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def distance(self, x, y):
        """Evaluate the distance; accepts floats or numpy arrays."""
        return ex.evaluate(self.formula, {"x": x, "y": y})

    def grid(self, m: int) -> np.ndarray:
        if m < 2:
            raise SpaceError("grid needs at least 2 points")
        return np.linspace(self.lo, self.hi, m)


Space = FiniteSpace | AnalyticSpace


# --------------------------------------------------------------------------
# Reports
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadrupleViolation:
    x: str | float
    u: str | float
    v: str | float
    y: str | float
    lhs: float
    rhs_sum: float
    ratio: float  # lhs / rhs_sum, or +inf when rhs_sum == 0 and lhs > 0

    def to_dict(self) -> dict:
        return {
            "x": self.x, "u": self.u, "v": self.v, "y": self.y,
            "lhs": self.lhs, "rhs_sum": self.rhs_sum, "ratio": self.ratio,
        }


@dataclass(frozen=True)
class IdentityReport:
    passed: bool
    pairs_checked: int
    zero_off_diagonal: tuple  # pairs (a, b) with d(a,b)=0 and a != b
    nonzero_diagonal: tuple   # (p, d(p,p)) entries with d != 0

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "pairs_checked": self.pairs_checked,
            "zero_off_diagonal": [list(p) for p in self.zero_off_diagonal],
            "nonzero_diagonal": [list(p) for p in self.nonzero_diagonal],
        }


@dataclass(frozen=True)
class RectangularReport:
    s: float
    tol: float
    passed: bool
    vacuous: bool
    quadruples_checked: int
    violation_count: int
    violations: tuple[QuadrupleViolation, ...]
    source: str  # description of the quadruple source

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "tol": self.tol,
            "passed": self.passed,
            "vacuous": self.vacuous,
            "quadruples_checked": self.quadruples_checked,
            "violation_count": self.violation_count,
            "violations": [v.to_dict() for v in self.violations],
            "source": self.source,
        }


@dataclass(frozen=True)
class CoefficientBound:
    value: float | None  # None means undefined (no admissible quadruple)
    witness: QuadrupleViolation | None
    quadruples_checked: int
    source: str

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "witness": self.witness.to_dict() if self.witness else None,
            "quadruples_checked": self.quadruples_checked,
            "source": self.source,
        }


@dataclass(frozen=True)
class Classification:
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

    def to_dict(self) -> dict:
        return {
            "s": self.s,
            "is_quasi_identity": self.is_quasi_identity,
            "is_symmetric": self.is_symmetric,
            "is_metric": self.is_metric,
            "is_rectangular": self.is_rectangular,
            "is_b_metric_at_s": self.is_b_metric_at_s,
            "is_rqb_at_s": self.is_rqb_at_s,
            "minimal_s": self.minimal_s,
            "asymmetry_witnesses": [list(w) for w in self.asymmetry_witnesses],
            "identity": self.identity.to_dict(),
            "triangle_witness": list(self.triangle_witness) if self.triangle_witness else None,
            "quadrilateral_witness": (
                self.quadrilateral_witness.to_dict() if self.quadrilateral_witness else None
            ),
        }


# --------------------------------------------------------------------------
# Core scans
# --------------------------------------------------------------------------

def _quadrilateral_pass(
    space: Space,
    checks: list[tuple[float, float]],
    grid_points: int,
    random_samples: int,
    seed: int,
    max_violations: int | None,
):
    """The one pass over admissible quadruples behind every quadrilateral operation.

    Visits the exhaustive (finite) or grid (analytic) quadruples in
    lexicographic (x, u, v, y) point-index order, then, for analytic spaces,
    ``random_samples`` seeded uniform quadruples.  For each ``(s, tol)`` in
    ``checks`` it counts the quadruples with ``lhs > s * rhs + tol`` and keeps
    the first ``max_violations`` of them (all when None) as witnesses.  It
    also tracks the supremum of lhs / rhs and its first maximiser:
    quadruples with rhs = 0 and lhs = 0 are skipped, rhs = 0 with lhs > 0
    has ratio +inf.

    Returns ``(bound, [(count, witnesses) per check])``.  ``bound.value`` is
    None when no admissible quadruple exists and 0 when every one has
    rhs = lhs = 0.
    """
    if any(s < 0 for s, _ in checks):
        raise ValueError("coefficient s must be >= 0")
    pts, D, source = _points_of(space, grid_points)
    keep = sys.maxsize if max_violations is None else max_violations
    checked = 0
    counts = [0] * len(checks)
    kept: list[list[QuadrupleViolation]] = [[] for _ in checks]
    sup, sup_at = -math.inf, None

    def visit(lhs, rhs, adm, at):
        # lhs, rhs, adm are arrays of one shape; at(k) names the points at index k
        nonlocal checked, sup, sup_at
        checked += int(np.count_nonzero(adm))
        with np.errstate(all="ignore"):
            ratio = lhs / rhs
            zero = rhs == 0.0
            np.copyto(ratio, math.inf, where=zero & (lhs > 0.0))
            np.copyto(ratio, -math.inf, where=~adm | (zero & (lhs == 0.0)))
            k = np.unravel_index(int(np.argmax(ratio)), ratio.shape)
            if ratio[k] > sup:
                sup, sup_at = float(ratio[k]), (*at(k), float(lhs[k]), float(rhs[k]))
            for c, (s, tol) in enumerate(checks):
                viol = adm & (lhs > s * rhs + tol)
                found = int(np.count_nonzero(viol))
                counts[c] += found
                room = keep - len(kept[c])
                if found and room > 0:
                    for row in np.argwhere(viol)[:room]:
                        q = tuple(row)
                        a, b = float(lhs[q]), float(rhs[q])
                        r = math.inf if b == 0.0 else a / b
                        kept[c].append(QuadrupleViolation(*at(q), a, b, r))

    n = len(pts)
    idx = np.arange(n)
    U, V, J = idx[:, None, None], idx[None, :, None], idx[None, None, :]
    distinct = (U != V) & (U != J) & (V != J)
    for i in range(n):
        # the arrays are built per call, so none outlives its x
        visit(
            np.broadcast_to(D[i, :][None, None, :], (n, n, n)),
            D[i, :][:, None, None] + D[:, :, None] + D[None, :, :],
            distinct & (U != i) & (V != i) & (J != i),
            lambda k, i=i: (pts[i], pts[k[0]], pts[k[1]], pts[k[2]]),
        )
    if checked and sup == -math.inf:
        sup = 0.0  # a random quadruple must beat the all-zero grid to replace it
    if isinstance(space, AnalyticSpace) and random_samples > 0:
        rng = np.random.default_rng(seed)
        xs, us, vs, ys = (rng.uniform(space.lo, space.hi, random_samples) for _ in range(4))
        d = space.distance
        visit(
            np.asarray(d(xs, ys)),
            np.asarray(d(xs, us)) + np.asarray(d(us, vs)) + np.asarray(d(vs, ys)),
            (us != vs) & (us != xs) & (us != ys) & (vs != xs) & (vs != ys) & (xs != ys),
            lambda k: (float(xs[k]), float(us[k]), float(vs[k]), float(ys[k])),
        )
        source += f"+random:{random_samples}(seed={seed})"
    if not checked:
        sup = None
    elif sup == -math.inf:
        sup = 0.0
    witness = None if sup_at is None else QuadrupleViolation(*sup_at, sup)
    return CoefficientBound(sup, witness, checked, source), list(zip(counts, kept))


def _scan_triangle(D: np.ndarray, s: float, tol: float):
    """All-triples scan of d(x,y) <= s*(d(x,z)+d(z,y)); z distinct from x, y."""
    n = D.shape[0]
    idx = np.arange(n)
    for i in range(n):
        rhs = D[i, :][:, None] + D[:, :]  # (z, j)
        lhs = np.broadcast_to(D[i, :][None, :], rhs.shape)
        Z = idx[:, None]
        J = idx[None, :]
        adm = (Z != i) & (Z != J) & (J != i)
        viol = adm & (lhs > s * rhs + tol)
        if viol.any():
            z, j = np.argwhere(viol)[0]
            return (i, int(z), int(j), float(D[i, j]), float(rhs[z, j]))
    return None


def _symmetry_witnesses(D: np.ndarray, tol: float):
    diff = np.abs(D - D.T)
    out = []
    for i, j in np.argwhere(np.triu(diff, k=1) > tol):
        out.append((int(i), int(j), float(D[i, j]), float(D[j, i])))
    return out


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------

def check_identity_axiom(
    space: Space, grid_points: int = 50
) -> IdentityReport:
    """Check d(a, b) = 0 exactly when a = b, over all pairs or a sampling grid."""
    if isinstance(space, FiniteSpace):
        D = space.distance_matrix
        labels = space.labels
        zero_off = [
            (labels[i], labels[j])
            for i, j in np.argwhere(D == 0.0)
            if i != j
        ]
        nonzero_diag = [
            (labels[i], float(D[i, i])) for i in range(len(labels)) if D[i, i] != 0.0
        ]
        checked = D.size
    else:
        g = space.grid(grid_points)
        D = np.asarray(space.distance(g[:, None], g[None, :]))
        zero_off = [
            (float(g[i]), float(g[j]))
            for i, j in np.argwhere(D == 0.0)
            if i != j
        ]
        nonzero_diag = [
            (float(g[i]), float(D[i, i])) for i in range(len(g)) if D[i, i] != 0.0
        ]
        checked = D.size
    return IdentityReport(
        passed=not zero_off and not nonzero_diag,
        pairs_checked=int(checked),
        zero_off_diagonal=tuple(zero_off),
        nonzero_diagonal=tuple(nonzero_diag),
    )


def _points_of(space: Space, grid_points: int):
    if isinstance(space, FiniteSpace):
        return list(space.labels), space.distance_matrix, "exhaustive"
    g = space.grid(grid_points)
    D = np.asarray(space.distance(g[:, None], g[None, :]), dtype=np.float64)
    return [float(v) for v in g], D, f"grid:{grid_points}"


def check_b_rectangular(
    space: Space,
    s: float,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    random_samples: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_violations: int | None = None,
) -> RectangularReport:
    """Check the quadrilateral inequality at coefficient ``s``.

    Finite spaces are scanned over every admissible quadruple; fewer than four
    points is reported as a vacuous pass.  Analytic spaces are scanned
    exhaustively over the grid quadruples plus ``random_samples`` seeded
    uniform quadruples.  ``violation_count`` counts every violation;
    ``violations`` keeps the first ``max_violations`` in scan order.
    """
    bound, [(count, violations)] = _quadrilateral_pass(
        space, [(s, tol)], grid_points, random_samples, seed, max_violations
    )
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
    space: Space,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    random_samples: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
) -> CoefficientBound:
    """Supremum of lhs / rhs over admissible quadruples (the tightest coefficient).

    Quadruples with rhs = 0 and lhs = 0 are skipped; rhs = 0 with lhs > 0
    makes the result infinite.  Returns value ``None`` when no admissible
    quadruple exists.  The witness is the first maximiser in scan order.
    """
    bound, _ = _quadrilateral_pass(space, [], grid_points, random_samples, seed, 0)
    return bound


def classify(
    space: Space,
    s: float | None = None,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    random_samples: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> Classification:
    """Decide every class membership: symmetry, metric, b-metric, rectangular, RQB."""
    if s is None:
        s = space.claimed_s if space.claimed_s is not None else 1.0
    pts, D, _ = _points_of(space, grid_points)
    identity = check_identity_axiom(
        space, grid_points if isinstance(space, AnalyticSpace) else 50
    )
    asym = [
        (pts[i], pts[j], dij, dji) for i, j, dij, dji in _symmetry_witnesses(D, tol)
    ]
    is_symmetric = not asym
    tri_1 = _scan_triangle(D, 1.0, tol)
    tri_s = tri_1 if s == 1.0 else _scan_triangle(D, s, tol)
    checks = [(1.0, tol)] if s == 1.0 else [(1.0, tol), (s, tol)]
    bound, found = _quadrilateral_pass(
        space, checks, grid_points, random_samples, seed, 1
    )
    (count_1, _), (count_s, first_s) = found[0], found[-1]
    ok_id = identity.passed
    tri_witness = tri_s
    if tri_witness is not None:
        i, z, j, lhs, rhs = tri_witness
        tri_witness = (pts[i], pts[z], pts[j], lhs, rhs)
    return Classification(
        s=s,
        is_quasi_identity=ok_id,
        is_symmetric=is_symmetric,
        is_metric=ok_id and is_symmetric and tri_1 is None,
        is_rectangular=ok_id and is_symmetric and count_1 == 0,
        is_b_metric_at_s=ok_id and is_symmetric and tri_s is None,
        is_rqb_at_s=ok_id and count_s == 0,
        minimal_s=bound.value,
        asymmetry_witnesses=tuple(asym),
        identity=identity,
        triangle_witness=tri_witness,
        quadrilateral_witness=first_s[0] if first_s else None,
    )


# --------------------------------------------------------------------------
# Serialization (the space definition file format)
# --------------------------------------------------------------------------

def space_to_dict(space: Space) -> dict:
    if isinstance(space, FiniteSpace):
        return {
            "kind": "finite",
            "points": [{"label": p.label, "value": p.value} for p in space.points],
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(space_to_dict(space), fh, indent=2)
        fh.write("\n")
