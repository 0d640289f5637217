"""Self-maps and contraction-condition certificates.

Three conditions are decided over a pair set (every ordered pair of the
carrier sample the axiom checks read, plus seeded random pairs on analytic
spaces), each as an implication
whose antecedent is a positive image distance d(Tx, Ty) > 0:

* exponent form:   theta(s^2 * d(Tx, Ty)) <= theta(d(x, y)) ** r,  0 < r < 1;
* composed form:   theta(s^2 * d(Tx, Ty)) <= phi(theta(d(x, y)));
* linear form:     s^2 * d(Tx, Ty) <= k * d(x, y),                 0 < k < 1.

Pairs failing the antecedent are counted as skipped, never as passes, so a
vacuous certificate is visually distinct.  A pair with d(x, y) = 0 but
d(Tx, Ty) > 0 puts theta outside its domain and is reported as a
domain-violation failure for the two theta forms.

``pair_set`` is the one pass over the pairs: it validates s, enumerates
and masks the pair set, and evaluates the map and (when given) theta.  The
three checks and ``best_exponent`` read a set the caller built, and each
supplies only its own right-hand side, so one command builds one set and
passes it to every operation it runs.  Nothing is kept on the space or the
map after a call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import expr as ex
from ._report import Result
from .spaces import (
    DEFAULT_GRID_POINTS,
    DEFAULT_RANDOM_SAMPLES,
    DEFAULT_TOL,
    AnalyticSpace,
    FiniteSpace,
    Space,
    _points_of,
    _streams,
)
from .thetaphi import PhiSpec, ThetaSpec

__all__ = [
    "SelfMap",
    "MapError",
    "MapRangeError",
    "PairWitness",
    "ContractionCertificate",
    "ExponentBound",
    "PairSet",
    "pair_set",
    "check_theta_contraction",
    "check_theta_phi_contraction",
    "check_linear_contraction",
    "best_exponent",
]


class MapError(Exception):
    pass


class MapRangeError(MapError):
    """The image of a sample left the space."""


@dataclass(frozen=True, eq=False)
class SelfMap:
    """A self-map given by a label table, an expression in x, or both.

    Finite spaces use the table; a table target is another label or a raw
    value.  An expression may back the labels the table does not cover, in
    which case images are raw values resolved against the space's default
    formula.  Analytic spaces use the expression, whose value must stay
    inside the domain at every evaluated sample.
    """

    table: dict[str, str | float] | None
    expr: ex.Expr | None
    source: str | None

    @classmethod
    def from_table(cls, table: Mapping[str, str | float]) -> "SelfMap":
        return cls(dict(table), None, None)

    @classmethod
    def from_expression(cls, source: str) -> "SelfMap":
        return cls(None, ex.parse(source, {"x"}), source)

    @classmethod
    def hybrid(cls, table: Mapping[str, str | float], source: str) -> "SelfMap":
        return cls(dict(table), ex.parse(source, {"x"}), source)

    def describe(self) -> str:
        parts = []
        if self.table:
            parts.append(f"table({len(self.table)})")
        if self.source:
            parts.append(self.source)
        return " | ".join(parts) or "<empty>"

    def check_total(self, space: Space) -> None:
        if isinstance(space, FiniteSpace):
            if self.table:
                for a, b in self.table.items():
                    space.value_of(a)
                    if isinstance(b, str):
                        space.value_of(b)
                    elif space.label_for_value(b) is None and space.default_formula is None:
                        raise MapError(
                            f"table image {b!r} is unlabeled and the space has no default formula"
                        )
            if self.expr is None:
                missing = [l for l in space.labels if not (self.table and l in self.table)]
                if missing:
                    raise MapError(f"map has no rule for labels {missing[:4]!r}")
        else:
            if self.expr is None:
                raise MapError("an analytic space needs an expression map")

    def apply_label(self, space: FiniteSpace, label: str) -> float:
        return self.apply_value(space, space.value_of(label))

    def apply_value(self, space: Space, value: float) -> float:
        return float(self.apply_array(space, np.array([value]))[0])

    def _label_images(self, space: FiniteSpace) -> tuple[np.ndarray, np.ndarray]:
        """The table image of every label of ``space``, and per label 1 for an
        image, 0 for no rule and -1 for a target label the space lacks."""
        image, rule = np.zeros(len(space.labels)), np.zeros(len(space.labels), np.int8)
        for label, target in self.table.items():
            k = space._index_of.get(label)
            if k is None or target is None:
                continue
            if isinstance(target, str):
                j = space._index_of.get(target)
                if j is None:
                    rule[k] = -1
                    continue
                target = space.values[j]
            image[k], rule[k] = target, 1
        return image, rule

    def apply_array(self, space: Space, xs: np.ndarray) -> np.ndarray:
        """The image of every value in the 1-D array ``xs``, with one expression
        call for the values off the table.  If it fails, the first failing
        value raises the error a call on that value alone gives."""
        xs = np.asarray(xs, dtype=np.float64)
        out = np.empty(xs.shape)
        rest = np.ones(xs.shape, dtype=bool)  # the values the expression maps
        if isinstance(space, FiniteSpace):
            at = space._indices(xs)
            raw, xs = xs, np.where(at >= 0, space.values[at], xs)
            if self.table:
                image, rule = self._label_images(space)
                ruled = np.where(at >= 0, rule[at], 0)
                if (ruled < 0).any():  # the first value whose target names no label
                    space.value_of(self.table[space.labels[at[int(np.argmax(ruled < 0))]]])
                rest = ruled == 0
                out[~rest] = image[at[~rest]]
            if self.expr is None and rest.any():
                k = int(np.argmax(rest))
                if at[k] >= 0:
                    raise MapError(f"map has no rule for label {space.labels[at[k]]!r}")
                raise MapError(f"map has no rule for value {float(raw[k])!r}")
        elif self.expr is None and rest.any():
            raise MapError("an analytic space needs an expression map")
        if rest.any():
            try:
                out[rest] = ex.evaluate(self.expr, {"x": xs[rest]})
            except ex.EvalError:
                for x in xs[rest].tolist():
                    ex.evaluate(self.expr, {"x": x})
                raise
        if isinstance(space, AnalyticSpace):
            outside = (out < space.lo) | (out > space.hi)
            if outside.any():
                k = int(np.argmax(outside))
                raise MapRangeError(
                    f"map image {float(out[k])!r} of {float(xs[k])!r} leaves "
                    f"[{space.lo}, {space.hi}]"
                )
        return out


# --------------------------------------------------------------------------
# Certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PairWitness(Result):
    x: str | float
    y: str | float
    lhs: float
    rhs: float
    slack: float  # rhs - lhs; a pass keeps this >= -tol everywhere


@dataclass(frozen=True)
class ContractionCertificate(Result):
    kind: str  # "theta_r" | "theta_phi" | "linear_k"
    params: dict
    s: float
    tol: float
    pair_source: str
    verdict: str  # "pass" | "fail"
    vacuous: bool
    pairs_total: int
    pairs_checked: int
    pairs_skipped: int
    violation_count: int
    worst_pair: PairWitness | None
    domain_violation: tuple | None  # (x, y): the first pair with d(x,y) = 0 < d(Tx,Ty)
    max_ratio: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


@dataclass(frozen=True)
class ExponentBound(Result):
    """Supremum of log theta(s^2 d(Tx,Ty)) / log theta(d(x,y)) over the pair set."""

    value: float  # 0.0 over an empty admissible set; may be inf
    feasible: bool  # value < 1 and no domain violation
    witness: tuple | None  # (x, y) attaining the supremum
    pairs_checked: int
    pairs_skipped: int
    domain_violation: tuple | None


# --------------------------------------------------------------------------
# The pair set
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PairSet:
    """The pairs a contraction operation reads, masked and (with theta) mapped,
    at coefficient ``s``.  Built by ``pair_set``; every array is read-only, so
    one set serves any number of checks."""

    s: float
    theta: ThetaSpec | None
    names: tuple  # the carrier points; pair k < len(names)^2 is a carrier pair
    xs: np.ndarray  # the random pairs, after the carrier pairs
    ys: np.ndarray
    source: str
    d_img: np.ndarray
    d_pre: np.ndarray
    skipped: np.ndarray  # antecedent d(Tx,Ty) > 0 is false
    checked: np.ndarray  # not skipped and, with theta, not a domain violation
    th_img: np.ndarray | None  # theta(s^2 d(Tx,Ty)), valid on checked pairs
    th_pre: np.ndarray | None  # theta(d(x,y)), valid on checked pairs
    ratio: np.ndarray | None  # log th_img / log th_pre on checked pairs, else 0

    def pair(self, k: int) -> tuple:
        """The (x, y) of pair k."""
        n = len(self.names)
        if k < n * n:
            return self.names[k // n], self.names[k % n]
        return float(self.xs[k - n * n]), float(self.ys[k - n * n])

    def first(self, at: np.ndarray) -> tuple | None:
        """The (x, y) of the first pair where ``at`` holds, or None."""
        return self.pair(int(np.argmax(at))) if at.any() else None


def pair_set(
    space: Space,
    selfmap: SelfMap,
    s: float,
    theta: ThetaSpec | None = None,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    random_pairs: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
) -> PairSet:
    """The pair set of ``selfmap`` on ``space`` at coefficient s >= 1.

    Its pairs are every ordered pair of the carrier sample (all labels, or a
    grid of ``grid_points``) in row-major order, then on an analytic space
    ``random_pairs`` seeded uniform pairs ``zip(xs, ys)``; a pair with image
    distance 0 is skipped.  With ``theta`` the set also holds theta at
    s^2 d(Tx,Ty) and at d(x,y) and the exponent ratios, and a pair with
    d(x,y) = 0 and a positive image distance leaves theta's domain and is not
    checked.  The map and theta are evaluated here only: the theta forms and
    ``best_exponent`` need a set built with theta, the linear form reads any.
    """
    if not s >= 1.0:
        raise ValueError(f"coefficient s must be >= 1, got {s}")
    if s == math.inf:
        raise ValueError(f"coefficient s must be finite, got {s}")
    selfmap.check_total(space)
    names, values, D, carrier = _points_of(space, grid_points)
    n = len(names)
    image = selfmap.apply_array(space, values)
    # the table's rows and columns follow the names, so ravel() is in pair order
    d_img = space.distance_value(image[:, None], image[None, :]).ravel()
    d_pre = D.ravel()
    source = f"{carrier.partition(':')[0]}:{n}x{n}"  # exhaustive:NxN or grid:GxG
    xs = ys = np.empty(0)
    if isinstance(space, AnalyticSpace) and random_pairs > 0:
        rng = _streams([seed])
        xs, ys = (rng.uniform(space.lo, space.hi, random_pairs)[0] for _ in range(2))
        # no local keeps the images: they are freed before theta runs
        d_img = np.concatenate([d_img, space.distance_value(
            selfmap.apply_array(space, xs), selfmap.apply_array(space, ys))])
        d_pre = np.concatenate([d_pre, space.distance_value(xs, ys)])
        source += f"+random:{random_pairs}(seed={seed})"
    skipped, checked = d_img == 0.0, d_img != 0.0
    th_img = th_pre = ratio = None
    if theta is not None:
        checked &= d_pre != 0.0
        # excluded entries are masked to a safe argument; their values are unused
        th_img = np.asarray(theta(np.where(checked, s * s * d_img, 1.0)), dtype=np.float64)
        th_pre = np.asarray(theta(np.where(checked, d_pre, 1.0)), dtype=np.float64)
        with np.errstate(all="ignore"):
            num, den = np.log(th_img), np.log(th_pre)
            ratio = np.where(checked & (num > 0) & (den > 0), num / den, 0.0)
            ratio = np.where(checked & (num > 0) & (den <= 0), math.inf, ratio)
    for array in (xs, ys, d_img, d_pre, skipped, checked, th_img, th_pre, ratio):
        if array is not None:
            array.flags.writeable = False
    return PairSet(s, theta, tuple(names), xs, ys, source, d_img, d_pre, skipped, checked,
                   th_img, th_pre, ratio)


def _in_unit_interval(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value}")


def _theta_of(p: PairSet, operation: str) -> ThetaSpec:
    if p.theta is None:
        raise ValueError(f"{operation} needs a pair set built with a theta")
    return p.theta


def _certificate(p: PairSet, checked, kind, params, tol, lhs, rhs, ratio):
    """The certificate for ``lhs <= rhs`` on the ``checked`` pairs; an unchecked
    pair that is not skipped is a domain violation."""
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    n_checked = int(checked.sum())
    domain = p.first(~p.skipped & ~checked)
    with np.errstate(all="ignore"):
        slack = np.where(checked, rhs - lhs, math.inf)
        violated = checked & (lhs > rhs + tol)
    n_viol = int(violated.sum())
    worst = None
    if n_checked:
        k = int(np.argmin(slack))
        x, y = p.pair(k)
        worst = PairWitness(x, y, float(lhs[k]), float(rhs[k]), float(slack[k]))
    return ContractionCertificate(
        kind=kind,
        params=params,
        s=p.s,
        tol=tol,
        pair_source=p.source,
        verdict="fail" if (n_viol or domain is not None) else "pass",
        vacuous=n_checked == 0 and domain is None,
        pairs_total=p.d_img.size,
        pairs_checked=n_checked,
        pairs_skipped=int(p.skipped.sum()),
        violation_count=n_viol,
        worst_pair=worst,
        domain_violation=domain,
        max_ratio=float(ratio.max()) if p.d_img.size else 0.0,
    )


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def check_theta_contraction(pairs: PairSet, r: float, *, tol: float = DEFAULT_TOL):
    """Certify theta(s^2 d(Tx,Ty)) <= theta(d(x,y))^r, 0 < r < 1, over a pair
    set built with theta."""
    _in_unit_interval("exponent r", r)
    theta = _theta_of(pairs, "the exponent form")
    # np.power, not **: ndarray.__pow__ takes a sqrt fast path at r = 0.5,
    # which would drift one ulp from the power-family phi evaluation
    rhs = np.power(pairs.th_pre, r)
    return _certificate(pairs, pairs.checked, "theta_r", {"theta": theta.name, "r": r}, tol,
                        pairs.th_img, rhs, pairs.ratio)


def check_theta_phi_contraction(pairs: PairSet, phi: PhiSpec, *, tol: float = DEFAULT_TOL):
    """Certify theta(s^2 d(Tx,Ty)) <= phi(theta(d(x,y))) over a pair set built
    with theta."""
    theta = _theta_of(pairs, "the composed form")
    rhs = np.asarray(phi(pairs.th_pre), dtype=np.float64)
    return _certificate(pairs, pairs.checked, "theta_phi", {"theta": theta.name, "phi": phi.name},
                        tol, pairs.th_img, rhs, pairs.ratio)


def check_linear_contraction(pairs: PairSet, k: float, *, tol: float = DEFAULT_TOL):
    """Certify s^2 d(Tx,Ty) <= k d(x,y), 0 < k < 1, over the pair set."""
    _in_unit_interval("factor k", k)
    s, d_img, d_pre = pairs.s, pairs.d_img, pairs.d_pre
    checked = ~pairs.skipped  # d(x, y) = 0 leaves no domain here, whatever theta the set holds
    lhs = np.where(checked, s * s * d_img, 0.0)
    rhs = np.where(checked, k * d_pre, 0.0)
    with np.errstate(all="ignore"):
        ratio = np.where(checked & (rhs > 0), (s * s * d_img) / d_pre, 0.0)
        ratio = np.where(checked & (d_pre == 0.0), math.inf, ratio)
    return _certificate(pairs, checked, "linear_k", {"k": k}, tol, lhs, rhs, ratio)


def best_exponent(pairs: PairSet) -> ExponentBound:
    """Tightest exponent certifying the theta contraction on a pair set built
    with theta.

    A value below 1 means the exponent check passes at any r in [value, 1);
    a value >= 1 (or a pair with d(x,y) = 0 and positive image distance) is
    infeasible.  The supremum over an empty admissible set is 0.
    """
    _theta_of(pairs, "best_exponent")
    n_checked, n_skipped = int(pairs.checked.sum()), int(pairs.skipped.sum())
    domain = pairs.first(~pairs.skipped & ~pairs.checked)
    if not n_checked:
        return ExponentBound(0.0, domain is None, None, 0, n_skipped, domain)
    k = int(np.argmax(pairs.ratio))
    value = float(pairs.ratio[k])
    witness = pairs.pair(k) if pairs.checked[k] else None
    feasible = domain is None and value < 1.0
    return ExponentBound(value, feasible, witness, n_checked, n_skipped, domain)
