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

The four public operations (the three checks and ``best_exponent``) are
the only way into the pair pass: it validates s, enumerates and masks the
pair set, and ``_with_theta`` adds the theta arrays and exponent ratios for
the theta forms.  The map keeps its last pass, read-only, so a check and
``best_exponent`` on the same space and sampling share one pass; each
operation supplies only its own right-hand side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

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
)
from .thetaphi import PhiSpec, ThetaSpec

__all__ = [
    "SelfMap",
    "MapError",
    "MapRangeError",
    "PairWitness",
    "ContractionCertificate",
    "PairLedger",
    "ExponentBound",
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
        image, 0 for no rule and -1 for a target label the space lacks.  Built
        once for the last space the map was applied to."""
        cached = self.__dict__.get("_images")
        if cached is None or cached[0] is not space:
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
            cached = (space, image, rule)
            object.__setattr__(self, "_images", cached)
        return cached[1:]

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
class PairLedger:
    """Per-pair audit trail of a contraction check (for oracle comparison)."""

    ids: tuple
    d_img: np.ndarray
    d_pre: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    skipped: np.ndarray  # bool: antecedent d(Tx,Ty) > 0 is false
    domain: np.ndarray   # bool: d(x,y) = 0 with positive image distance
    violated: np.ndarray  # bool: checked pair breaking the inequality

    def verdict(self, k: int) -> str:
        if self.skipped[k]:
            return "skipped"
        if self.domain[k]:
            return "domain"
        return "violation" if self.violated[k] else "satisfied"


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
# The pair pass
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Pairs:
    """The pair set of one contraction operation, masked and (with theta) mapped.
    Every array is read-only: a pass is kept on its map and shared."""

    names: Sequence  # the carrier points; pair k < len(names)^2 is a carrier pair
    xs: np.ndarray  # the random pairs, after the carrier pairs
    ys: np.ndarray
    source: str
    d_img: np.ndarray
    d_pre: np.ndarray
    skipped: np.ndarray  # antecedent d(Tx,Ty) > 0 is false
    checked: np.ndarray  # neither skipped nor a domain violation
    th_img: np.ndarray | None = None  # theta(s^2 d(Tx,Ty)), valid on checked pairs
    th_pre: np.ndarray | None = None  # theta(d(x,y)), valid on checked pairs
    ratio: np.ndarray | None = None  # log th_img / log th_pre on checked pairs, else 0

    def pair(self, k: int) -> tuple:
        """The (x, y) of pair k."""
        n = len(self.names)
        if k < n * n:
            return self.names[k // n], self.names[k % n]
        return float(self.xs[k - n * n]), float(self.ys[k - n * n])

    @cached_property
    def domain(self) -> tuple | None:
        """The first pair with d(x,y) = 0 < d(Tx,Ty) (theta forms), or None."""
        at = ~self.skipped & ~self.checked
        return self.pair(int(np.argmax(at))) if at.any() else None


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def _pair_pass(space, selfmap, s, param, grid_points, random_pairs, seed, theta=None) -> _Pairs:
    """Validate s, then ``param``, the named r or k that must lie in (0, 1);
    then the masked pair set: every ordered pair of ``_points_of(space,
    grid_points)`` in row-major order, then on an analytic space the seeded
    random pairs ``zip(xs, ys)``.  With ``theta``, the set carries its arrays
    (see ``_with_theta``).

    The map keeps its last pass, keyed by the space and the sampling, and the
    theta view of it for the last theta object, so a check and
    ``best_exponent`` on one sampling evaluate the map and theta once.  A call
    that raises keeps nothing.
    """
    if not s >= 1.0:
        raise ValueError(f"coefficient s must be >= 1, got {s}")
    if param is not None and not 0.0 < param[1] < 1.0:
        raise ValueError(f"{param[0]} must lie in (0, 1), got {param[1]}")
    key = (space, s, grid_points, random_pairs, seed)  # a space equals only itself
    kept = selfmap.__dict__.get("_pairs")
    if kept is None or kept[0] != key:
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
            rng = np.random.default_rng(seed)
            xs = rng.uniform(space.lo, space.hi, random_pairs)
            ys = rng.uniform(space.lo, space.hi, random_pairs)
            # no local keeps the images: they are freed before theta runs
            d_img = np.concatenate([d_img, space.distance_value(
                selfmap.apply_array(space, xs), selfmap.apply_array(space, ys))])
            d_pre = np.concatenate([d_pre, space.distance_value(xs, ys)])
            source += f"+random:{random_pairs}(seed={seed})"
        p = _Pairs(names, xs, ys, source, d_img, d_pre, d_img == 0.0, d_img != 0.0)
        _read_only(xs, ys, d_img, d_pre, p.skipped, p.checked)
        kept = (key, p, None, None)
    if theta is not None and kept[2] is not theta:
        kept = (*kept[:2], theta, _with_theta(kept[1], theta, s))
    object.__setattr__(selfmap, "_pairs", kept)
    return kept[1] if theta is None else kept[3]


def _with_theta(p: _Pairs, theta: ThetaSpec, s: float) -> _Pairs:
    """``p`` with the theta arrays and exponent ratios.  A pair with d(x, y) = 0
    and a positive image distance leaves theta's domain and is not checked."""
    checked = p.checked & (p.d_pre != 0.0)
    # excluded entries are masked to a safe argument; their values are unused
    th_img = np.asarray(theta(np.where(checked, s * s * p.d_img, 1.0)), dtype=np.float64)
    th_pre = np.asarray(theta(np.where(checked, p.d_pre, 1.0)), dtype=np.float64)
    with np.errstate(all="ignore"):
        num = np.log(th_img)
        den = np.log(th_pre)
        ratio = np.where(checked & (num > 0) & (den > 0), num / den, 0.0)
        ratio = np.where(checked & (num > 0) & (den <= 0), math.inf, ratio)
    _read_only(checked, th_img, th_pre, ratio)
    return replace(p, checked=checked, th_img=th_img, th_pre=th_pre, ratio=ratio)


def _certificate(p: _Pairs, kind, params, s, tol, lhs, rhs, ratio, details):
    """The certificate for ``lhs <= rhs`` on the checked pairs, and the ledger."""
    checked = p.checked
    n_checked = int(checked.sum())
    with np.errstate(all="ignore"):
        slack = np.where(checked, rhs - lhs, math.inf)
        violated = checked & (lhs > rhs + tol)
    n_viol = int(violated.sum())
    worst = None
    if n_checked:
        k = int(np.argmin(slack))
        x, y = p.pair(k)
        worst = PairWitness(x, y, float(lhs[k]), float(rhs[k]), float(slack[k]))
    cert = ContractionCertificate(
        kind=kind,
        params=params,
        s=s,
        tol=tol,
        pair_source=p.source,
        verdict="fail" if (n_viol or p.domain is not None) else "pass",
        vacuous=n_checked == 0 and p.domain is None,
        pairs_total=p.d_img.size,
        pairs_checked=n_checked,
        pairs_skipped=int(p.skipped.sum()),
        violation_count=n_viol,
        worst_pair=worst,
        domain_violation=p.domain,
        max_ratio=float(ratio.max()) if p.d_img.size else 0.0,
    )
    if not details:
        return cert
    ledger = PairLedger(
        ids=tuple(map(p.pair, range(p.d_img.size))),
        d_img=p.d_img,
        d_pre=p.d_pre,
        lhs=np.where(checked, lhs, np.nan),
        rhs=np.where(checked, rhs, np.nan),
        skipped=p.skipped,
        domain=(~p.skipped) & (~checked),
        violated=violated,
    )
    return cert, ledger


# --------------------------------------------------------------------------
# Checks
# --------------------------------------------------------------------------

def check_theta_contraction(
    space: Space,
    selfmap: SelfMap,
    theta: ThetaSpec,
    r: float,
    s: float,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    random_pairs: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    details: bool = False,
):
    """Certify theta(s^2 d(Tx,Ty)) <= theta(d(x,y))^r over the pair set.

    With ``details=True`` also return the per-pair audit ledger.
    """
    p = _pair_pass(space, selfmap, s, ("exponent r", r), grid_points, random_pairs, seed, theta)
    # np.power, not **: ndarray.__pow__ takes a sqrt fast path at r = 0.5,
    # which would drift one ulp from the power-family phi evaluation
    rhs = np.power(p.th_pre, r)
    return _certificate(
        p, "theta_r", {"theta": theta.name, "r": r}, s, tol, p.th_img, rhs, p.ratio, details
    )


def check_theta_phi_contraction(
    space: Space,
    selfmap: SelfMap,
    theta: ThetaSpec,
    phi: PhiSpec,
    s: float,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    random_pairs: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    details: bool = False,
):
    """Certify theta(s^2 d(Tx,Ty)) <= phi(theta(d(x,y))) over the pair set."""
    p = _pair_pass(space, selfmap, s, None, grid_points, random_pairs, seed, theta)
    rhs = np.asarray(phi(p.th_pre), dtype=np.float64)
    return _certificate(
        p, "theta_phi", {"theta": theta.name, "phi": phi.name}, s, tol,
        p.th_img, rhs, p.ratio, details,
    )


def check_linear_contraction(
    space: Space,
    selfmap: SelfMap,
    k: float,
    s: float,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    random_pairs: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    details: bool = False,
):
    """Certify s^2 d(Tx,Ty) <= k d(x,y) over the pair set."""
    p = _pair_pass(space, selfmap, s, ("factor k", k), grid_points, random_pairs, seed)
    checked, d_img, d_pre = p.checked, p.d_img, p.d_pre
    lhs = np.where(checked, s * s * d_img, 0.0)
    rhs = np.where(checked, k * d_pre, 0.0)
    with np.errstate(all="ignore"):
        ratio = np.where(checked & (rhs > 0), (s * s * d_img) / d_pre, 0.0)
        ratio = np.where(checked & (d_pre == 0.0), math.inf, ratio)
    return _certificate(p, "linear_k", {"k": k}, s, tol, lhs, rhs, ratio, details)


def best_exponent(
    space: Space,
    selfmap: SelfMap,
    theta: ThetaSpec,
    s: float,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    random_pairs: int = DEFAULT_RANDOM_SAMPLES,
    seed: int = 0,
) -> ExponentBound:
    """Tightest exponent certifying the theta contraction on this pair set.

    A value below 1 means the exponent check passes at any r in [value, 1);
    a value >= 1 (or a pair with d(x,y) = 0 and positive image distance) is
    infeasible.  The supremum over an empty admissible set is 0.
    """
    p = _pair_pass(space, selfmap, s, None, grid_points, random_pairs, seed, theta)
    n_checked, n_skipped = int(p.checked.sum()), int(p.skipped.sum())
    if not n_checked:
        return ExponentBound(0.0, p.domain is None, None, 0, n_skipped, p.domain)
    k = int(np.argmax(p.ratio))
    value = float(p.ratio[k])
    witness = p.pair(k) if p.checked[k] else None
    feasible = p.domain is None and value < 1.0
    return ExponentBound(value, feasible, witness, n_checked, n_skipped, p.domain)
