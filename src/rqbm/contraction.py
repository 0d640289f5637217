"""Self-maps and contraction-condition certificates.

Three conditions are decided over a pair set (exhaustive for finite spaces,
grid plus seeded random pairs for analytic ones), each as an implication
whose antecedent is a positive image distance d(Tx, Ty) > 0:

* exponent form:   theta(s^2 * d(Tx, Ty)) <= theta(d(x, y)) ** r,  0 < r < 1;
* composed form:   theta(s^2 * d(Tx, Ty)) <= phi(theta(d(x, y)));
* linear form:     s^2 * d(Tx, Ty) <= k * d(x, y),                 0 < k < 1.

Pairs failing the antecedent are counted as skipped, never as passes, so a
vacuous certificate is visually distinct.  A pair with d(x, y) = 0 but
d(Tx, Ty) > 0 puts theta outside its domain and is reported as a
domain-violation failure for the two theta forms.

One pair pass serves all four operations (the three checks and
``best_exponent``): it validates s, enumerates and masks the pair set and,
for the theta forms, builds the theta arrays and exponent ratios.  Each
operation supplies only its own right-hand side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import expr as ex
from .spaces import AnalyticSpace, FiniteSpace, Space
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
    "DEFAULT_PAIR_GRID",
    "DEFAULT_RANDOM_PAIRS",
]

DEFAULT_PAIR_GRID = 40
DEFAULT_RANDOM_PAIRS = 10_000
DEFAULT_TOL = 1e-9


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
        if self.table and label in self.table:
            target = self.table[label]
            return space.value_of(target) if isinstance(target, str) else float(target)
        if self.expr is None:
            raise MapError(f"map has no rule for label {label!r}")
        return float(ex.evaluate(self.expr, {"x": space.value_of(label)}))

    def apply_value(self, space: Space, value: float) -> float:
        if isinstance(space, FiniteSpace):
            label = space.label_for_value(value)
            if label is not None:
                return self.apply_label(space, label)
            if self.expr is None:
                raise MapError(f"map has no rule for value {value!r}")
            return float(ex.evaluate(self.expr, {"x": value}))
        out = float(ex.evaluate(self.expr, {"x": value}))
        if not space.contains(out):
            raise MapRangeError(
                f"map image {out!r} of {value!r} leaves [{space.lo}, {space.hi}]"
            )
        return out

    def apply_array(self, space: AnalyticSpace, xs: np.ndarray) -> np.ndarray:
        out = np.asarray(ex.evaluate(self.expr, {"x": xs}), dtype=np.float64)
        if not (np.all(out >= space.lo) and np.all(out <= space.hi)):
            k = int(np.argmax((out < space.lo) | (out > space.hi)))
            raise MapRangeError(
                f"map image {out[k]!r} of {float(xs[k])!r} leaves "
                f"[{space.lo}, {space.hi}]"
            )
        return out


# --------------------------------------------------------------------------
# Certificates
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PairWitness:
    x: str | float
    y: str | float
    lhs: float
    rhs: float
    slack: float  # rhs - lhs; a pass keeps this >= -tol everywhere

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "lhs": self.lhs, "rhs": self.rhs,
                "slack": self.slack}


@dataclass(frozen=True)
class ContractionCertificate:
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
    domain_violation: tuple | None  # (x, y, d_img, d_pre)
    max_ratio: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "params": dict(self.params),
            "s": self.s,
            "tol": self.tol,
            "pair_source": self.pair_source,
            "verdict": self.verdict,
            "vacuous": self.vacuous,
            "pairs_total": self.pairs_total,
            "pairs_checked": self.pairs_checked,
            "pairs_skipped": self.pairs_skipped,
            "violation_count": self.violation_count,
            "worst_pair": self.worst_pair.to_dict() if self.worst_pair else None,
            "domain_violation": list(self.domain_violation) if self.domain_violation else None,
            "max_ratio": self.max_ratio,
        }


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
class ExponentBound:
    """Supremum of log theta(s^2 d(Tx,Ty)) / log theta(d(x,y)) over the pair set."""

    value: float  # 0.0 over an empty admissible set; may be inf
    feasible: bool  # value < 1 and no domain violation
    witness: tuple | None  # (x, y) attaining the supremum
    pairs_checked: int
    pairs_skipped: int
    domain_violation: tuple | None

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "feasible": self.feasible,
            "witness": list(self.witness) if self.witness else None,
            "pairs_checked": self.pairs_checked,
            "pairs_skipped": self.pairs_skipped,
            "domain_violation": list(self.domain_violation) if self.domain_violation else None,
        }


# --------------------------------------------------------------------------
# The pair pass
# --------------------------------------------------------------------------

def _pair_data(
    space: Space,
    selfmap: SelfMap,
    grid_points: int,
    random_pairs: int,
    seed: int,
):
    """All ordered pairs with image and preimage distances, deterministically.

    Finite: every ordered label pair including the diagonal.  Analytic: the
    row-major grid mesh followed by seeded random pairs.
    """
    selfmap.check_total(space)
    if isinstance(space, FiniteSpace):
        labels = space.labels
        ids: list[tuple] = [(a, b) for a in labels for b in labels]
        # both tables' rows and columns follow the labels, so ravel() is in ids order
        d_img = space._value_table([selfmap.apply_label(space, lab) for lab in labels]).ravel()
        d_pre = space.distance_matrix.ravel()
        return ids, d_img, d_pre, f"exhaustive:{len(labels)}x{len(labels)}"
    g = space.grid(grid_points)
    Tg = selfmap.apply_array(space, g)
    ids = [(float(x), float(y)) for x in g for y in g]
    d_img = space.distance(Tg[:, None], Tg[None, :]).ravel()
    d_pre = space.distance(g[:, None], g[None, :]).ravel()
    source = f"grid:{grid_points}x{grid_points}"
    if random_pairs > 0:
        rng = np.random.default_rng(seed)
        xs = rng.uniform(space.lo, space.hi, random_pairs)
        ys = rng.uniform(space.lo, space.hi, random_pairs)
        Txs = selfmap.apply_array(space, xs)
        Tys = selfmap.apply_array(space, ys)
        d_img = np.concatenate([d_img, space.distance(Txs, Tys)])
        d_pre = np.concatenate([d_pre, space.distance(xs, ys)])
        ids.extend((float(x), float(y)) for x, y in zip(xs, ys))
        source += f"+random:{random_pairs}(seed={seed})"
    return ids, d_img, d_pre, source


@dataclass(frozen=True)
class _Pairs:
    """The pair set of one contraction operation, masked and (with theta) mapped."""

    s: float
    ids: list
    source: str
    d_img: np.ndarray
    d_pre: np.ndarray
    skipped: np.ndarray  # antecedent d(Tx,Ty) > 0 is false
    checked: np.ndarray  # neither skipped nor a domain violation
    domain: tuple | None  # first pair with d(x,y) = 0 < d(Tx,Ty) (theta forms)
    th_img: np.ndarray | None  # theta(s^2 d(Tx,Ty)), valid on checked pairs
    th_pre: np.ndarray | None  # theta(d(x,y)), valid on checked pairs
    ratio: np.ndarray | None  # log th_img / log th_pre on checked pairs, else 0


def _pair_pass(space, selfmap, s, theta, param, grid_points, random_pairs, seed) -> _Pairs:
    """Validate the inputs, then enumerate and mask the pair set once.

    ``param`` is the named r or k that must lie in (0, 1); it is checked
    after s.  With a theta, a pair with d(x, y) = 0 and a positive image
    distance leaves theta's domain, and the theta arrays and exponent ratios
    are built.
    """
    if s < 1.0:
        raise ValueError(f"coefficient s must be >= 1, got {s}")
    if param is not None and not 0.0 < param[1] < 1.0:
        raise ValueError(f"{param[0]} must lie in (0, 1), got {param[1]}")
    ids, d_img, d_pre, source = _pair_data(space, selfmap, grid_points, random_pairs, seed)
    skipped = d_img == 0.0
    if theta is not None:
        domain_mask = (~skipped) & (d_pre == 0.0)
    else:
        domain_mask = np.zeros_like(skipped)
    checked = (~skipped) & (~domain_mask)
    domain = ids[int(np.argmax(domain_mask))] if domain_mask.any() else None
    th_img = th_pre = ratio = None
    if theta is not None:
        # excluded entries are masked to a safe argument; their values are unused
        th_img = np.asarray(theta(np.where(checked, s * s * d_img, 1.0)), dtype=np.float64)
        th_pre = np.asarray(theta(np.where(checked, d_pre, 1.0)), dtype=np.float64)
        with np.errstate(all="ignore"):
            num = np.log(th_img)
            den = np.log(th_pre)
            ratio = np.where(checked & (num > 0) & (den > 0), num / den, 0.0)
            ratio = np.where(checked & (num > 0) & (den <= 0), math.inf, ratio)
    return _Pairs(s, ids, source, d_img, d_pre, skipped, checked, domain,
                  th_img, th_pre, ratio)


def _certificate(p: _Pairs, kind, params, tol, lhs, rhs, ratio, details):
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
        x, y = p.ids[k]
        worst = PairWitness(x, y, float(lhs[k]), float(rhs[k]), float(slack[k]))
    cert = ContractionCertificate(
        kind=kind,
        params=params,
        s=p.s,
        tol=tol,
        pair_source=p.source,
        verdict="fail" if (n_viol or p.domain is not None) else "pass",
        vacuous=n_checked == 0 and p.domain is None,
        pairs_total=len(p.ids),
        pairs_checked=n_checked,
        pairs_skipped=int(p.skipped.sum()),
        violation_count=n_viol,
        worst_pair=worst,
        domain_violation=p.domain,
        max_ratio=float(ratio.max()) if len(p.ids) else 0.0,
    )
    if not details:
        return cert
    ledger = PairLedger(
        ids=tuple(p.ids),
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
    grid_points: int = DEFAULT_PAIR_GRID,
    random_pairs: int = DEFAULT_RANDOM_PAIRS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    details: bool = False,
):
    """Certify theta(s^2 d(Tx,Ty)) <= theta(d(x,y))^r over the pair set.

    With ``details=True`` also return the per-pair audit ledger.
    """
    p = _pair_pass(space, selfmap, s, theta, ("exponent r", r), grid_points, random_pairs, seed)
    # np.power, not **: ndarray.__pow__ takes a sqrt fast path at r = 0.5,
    # which would drift one ulp from the power-family phi evaluation
    rhs = np.power(p.th_pre, r)
    return _certificate(
        p, "theta_r", {"theta": theta.name, "r": r}, tol, p.th_img, rhs, p.ratio, details
    )


def check_theta_phi_contraction(
    space: Space,
    selfmap: SelfMap,
    theta: ThetaSpec,
    phi: PhiSpec,
    s: float,
    *,
    grid_points: int = DEFAULT_PAIR_GRID,
    random_pairs: int = DEFAULT_RANDOM_PAIRS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    details: bool = False,
):
    """Certify theta(s^2 d(Tx,Ty)) <= phi(theta(d(x,y))) over the pair set."""
    p = _pair_pass(space, selfmap, s, theta, None, grid_points, random_pairs, seed)
    rhs = np.asarray(phi(p.th_pre), dtype=np.float64)
    return _certificate(
        p, "theta_phi", {"theta": theta.name, "phi": phi.name}, tol,
        p.th_img, rhs, p.ratio, details,
    )


def check_linear_contraction(
    space: Space,
    selfmap: SelfMap,
    k: float,
    s: float,
    *,
    grid_points: int = DEFAULT_PAIR_GRID,
    random_pairs: int = DEFAULT_RANDOM_PAIRS,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    details: bool = False,
):
    """Certify s^2 d(Tx,Ty) <= k d(x,y) over the pair set."""
    p = _pair_pass(space, selfmap, s, None, ("factor k", k), grid_points, random_pairs, seed)
    checked, d_img, d_pre = p.checked, p.d_img, p.d_pre
    lhs = np.where(checked, s * s * d_img, 0.0)
    rhs = np.where(checked, k * d_pre, 0.0)
    with np.errstate(all="ignore"):
        ratio = np.where(checked & (rhs > 0), (s * s * d_img) / d_pre, 0.0)
        ratio = np.where(checked & (d_pre == 0.0), math.inf, ratio)
    return _certificate(p, "linear_k", {"k": k}, tol, lhs, rhs, ratio, details)


def best_exponent(
    space: Space,
    selfmap: SelfMap,
    theta: ThetaSpec,
    s: float,
    *,
    grid_points: int = DEFAULT_PAIR_GRID,
    random_pairs: int = DEFAULT_RANDOM_PAIRS,
    seed: int = 0,
) -> ExponentBound:
    """Tightest exponent certifying the theta contraction on this pair set.

    A value below 1 means the exponent check passes at any r in [value, 1);
    a value >= 1 (or a pair with d(x,y) = 0 and positive image distance) is
    infeasible.  The supremum over an empty admissible set is 0.
    """
    p = _pair_pass(space, selfmap, s, theta, None, grid_points, random_pairs, seed)
    n_checked, n_skipped = int(p.checked.sum()), int(p.skipped.sum())
    if not n_checked:
        return ExponentBound(0.0, p.domain is None, None, 0, n_skipped, p.domain)
    k = int(np.argmax(p.ratio))
    value = float(p.ratio[k])
    witness = p.ids[k] if p.checked[k] else None
    feasible = p.domain is None and value < 1.0
    return ExponentBound(value, feasible, witness, n_checked, n_skipped, p.domain)
