"""Built-in example spaces, plus seeded generators for property testing.

The three shipped bundles are constructed through the public space-file
format (dict -> space), so every bundle round-trips through serialization.
Mixed finite/interval carriers are realized as finite spaces over the
labeled part plus a configurable uniform grid on the interval; the interval
part of a self-map is an expression, so iterates may move off-grid and are
then measured by the space's default formula.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .contraction import SelfMap
from .spaces import (
    FiniteSpace,
    Space,
    SpaceError,
    format_value,
    space_from_dict,
)
from .thetaphi import PhiSpec, ThetaSpec, builtin_phi, builtin_theta

__all__ = [
    "InstanceBundle",
    "INSTANCE_NAMES",
    "get_instance",
    "build_example_2_3",
    "build_example_sqrt",
    "build_example_final",
    "random_space",
    "perturb",
    "affine_toward",
]


@dataclass(frozen=True)
class InstanceBundle:
    name: str
    description: str
    space: Space
    selfmap: SelfMap | None = None
    theta: ThetaSpec | None = None
    phi: PhiSpec | None = None
    r: float | None = None
    s: float | None = None
    expected_fixed_point: float | None = None
    note: str = ""


def _grid_point_rows(lo: float, hi: float, count: int) -> list[dict]:
    return [
        {"label": format_value(float(v)), "value": float(v)}
        for v in np.linspace(lo, hi, count)
    ]


def _symmetric_fill(labels: list[str], rows: dict[tuple[str, str], float]):
    """Unlisted ordered pairs take the listed mirror value, if any."""
    out = dict(rows)
    for a, b in itertools.permutations(labels, 2):
        if (a, b) not in out and (b, a) in out:
            out[(a, b)] = out[(b, a)]
    return out


def build_example_2_3(grid_points: int = 11) -> InstanceBundle:
    """Six reciprocal-labeled points with an asymmetric table, coefficient 3,
    joined with a grid on [1, 2] measured by the squared-difference default."""
    labels = [f"1/{n}" for n in range(2, 8)]
    values = {f"1/{n}": float(Fraction(1, n)) for n in range(2, 8)}
    rows: dict[tuple[str, str], float] = {}

    def put(pairs, d):
        for a, b in pairs:
            rows[(f"1/{a}", f"1/{b}")] = d

    put([(2, 3), (4, 5), (6, 7)], 0.05)
    put([(3, 2), (5, 4), (7, 6)], 0.04)
    put([(2, 4), (3, 7), (5, 6)], 0.08)
    put([(4, 2), (7, 3), (6, 5)], 0.05)
    put([(2, 6), (3, 4), (5, 7)], 0.4)
    put([(2, 5), (3, 6), (4, 7)], 0.24)
    put([(2, 7), (3, 5), (4, 6)], 0.15)
    rows = _symmetric_fill(labels, rows)
    obj = {
        "kind": "finite",
        "points": [{"label": l, "value": values[l]} for l in labels]
        + _grid_point_rows(1.0, 2.0, grid_points),
        "default": "(x - y)^2",
        "overrides": [{"from": a, "to": b, "d": d} for (a, b), d in sorted(rows.items())],
        "claimed_s": 3.0,
    }
    return InstanceBundle(
        name="example-2-3",
        description="asymmetric 6-point table over a squared-difference default; coefficient 3",
        space=space_from_dict(obj),
        s=3.0,
    )


def build_example_sqrt(variant: str = "sqrt") -> InstanceBundle:
    """Piecewise-squared interval [1, 2] with a root self-map.

    Two variants of the same worked example ship: the literal square root,
    and the fourth root its accompanying estimates actually use.  The unique
    solution of x = sqrt(x) (and of x = x^(1/4)) in [1, 2] is 1; the claimed
    fixed point 1/3 lies outside the domain and is not reproducible.
    """
    if variant not in ("sqrt", "fourth_root"):
        raise ValueError(f"unknown variant {variant!r}")
    obj = {
        "kind": "analytic",
        "domain": {"lo": 1.0, "hi": 2.0},
        "forward": "if(x >= y, (x - y)^2, 0.5 * (y - x)^2)",
        "claimed_s": 2.0,
    }
    return InstanceBundle(
        name="example-sqrt" if variant == "sqrt" else "example-fourth-root",
        description=f"piecewise-squared interval [1, 2] with map {variant}",
        space=space_from_dict(obj),
        selfmap=SelfMap.from_expression("sqrt(x)" if variant == "sqrt" else "x ^ 0.25"),
        theta=builtin_theta("exp-sqrt"),
        r=0.5,
        s=2.0,
        expected_fixed_point=1.0,
        note=(
            "the stated fixed point 1/3 is outside [1, 2]; x = T(x) forces 1.0, "
            "which is the verified target"
        ),
    )


def build_example_final(grid_points: int = 11) -> InstanceBundle:
    """Four reciprocal-labeled points joined with a grid on [1/2, 3/2];
    map sends the labeled part to 1 and the interval through (sqrt(x)+3)/4."""
    labels = [f"1/{n}" for n in range(3, 7)]
    values = {f"1/{n}": float(Fraction(1, n)) for n in range(3, 7)}
    rows: dict[tuple[str, str], float] = {}

    def put(pairs, d):
        for a, b in pairs:
            rows[(f"1/{a}", f"1/{b}")] = d

    put([(3, 4), (4, 5)], 0.1)
    put([(4, 3), (5, 4)], 0.05)
    put([(3, 5), (4, 6)], 0.05)
    put([(5, 3), (6, 4)], 0.1)
    put([(3, 6), (5, 6)], 0.5)
    rows = _symmetric_fill(labels, rows)
    obj = {
        "kind": "finite",
        "points": [{"label": l, "value": values[l]} for l in labels]
        + _grid_point_rows(0.5, 1.5, grid_points),
        "default": "(x - y)^2",
        "overrides": [{"from": a, "to": b, "d": d} for (a, b), d in sorted(rows.items())],
        "claimed_s": 3.0,
    }
    space = space_from_dict(obj)
    selfmap = SelfMap.hybrid({l: 1.0 for l in labels}, "(sqrt(x) + 3) / 4")
    return InstanceBundle(
        name="example-final",
        description=(
            "asymmetric 4-point table over [1/2, 3/2] grid; "
            "map is 1 on the table part, (sqrt(x)+3)/4 on the interval"
        ),
        space=space,
        selfmap=selfmap,
        theta=builtin_theta("sqrt-plus-1"),
        phi=builtin_phi("midpoint"),
        s=3.0,
        expected_fixed_point=1.0,
    )


INSTANCE_NAMES = ("example-2-3", "example-sqrt", "example-fourth-root", "example-final")


def get_instance(name: str, grid_points: int | None = None) -> InstanceBundle:
    if name == "example-2-3":
        return build_example_2_3(grid_points or 11)
    if name == "example-sqrt":
        return build_example_sqrt("sqrt")
    if name == "example-fourth-root":
        return build_example_sqrt("fourth_root")
    if name == "example-final":
        return build_example_final(grid_points or 11)
    raise KeyError(f"unknown instance {name!r}; known: {', '.join(INSTANCE_NAMES)}")


# --------------------------------------------------------------------------
# Generators
# --------------------------------------------------------------------------

_PROFILES = ("metric", "quasi", "adversarial")


def random_space(n: int, seed: int, profile: str = "metric") -> FiniteSpace:
    """Seeded table space over n planar points.

    metric: Euclidean distances (a genuine metric).  quasi: the same table
    with an independent per-direction scale in [0.5, 2] (coefficient 4 is a
    safe quadrilateral bound).  adversarial: quasi with one ordered pair
    inflated by a factor in [5, 50], a likely axiom breaker.
    """
    if n < 2:
        raise ValueError("need at least 2 points")
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; known: {', '.join(_PROFILES)}")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    labels = [f"p{i}" for i in range(n)]
    table: dict[tuple[str, str], float] = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d = float(np.hypot(*(coords[i] - coords[j])))
            table[(labels[i], labels[j])] = d
    claimed = 1.0
    if profile in ("quasi", "adversarial"):
        claimed = 4.0
        for key in sorted(table):
            table[key] = table[key] * float(rng.uniform(0.5, 2.0))
    if profile == "adversarial":
        keys = sorted(table)
        key = keys[int(rng.integers(len(keys)))]
        table[key] = table[key] * float(rng.uniform(5.0, 50.0))
    obj = {
        "kind": "finite",
        "points": [
            {"label": labels[i], "value": float(coords[i, 0])} for i in range(n)
        ],
        "default": None,
        "overrides": [{"from": a, "to": b, "d": d} for (a, b), d in sorted(table.items())],
        "claimed_s": claimed,
    }
    return space_from_dict(obj)


def perturb(space: FiniteSpace, kind: str, seed: int, s: float | None = None) -> FiniteSpace:
    """Return a copy damaged so that the corresponding axiom check must fail.

    ``break_identity`` zeroes one positive off-diagonal distance.
    ``break_quadrilateral`` inflates one distance above s times the cheapest
    three-hop sum over its admissible quadruples (s defaults to the claimed
    coefficient, else 1).
    """
    labels = list(space.labels)
    salt = {"break_identity": 3, "break_quadrilateral": 9}.get(kind, 0)
    rng = np.random.default_rng([salt, seed])
    n = len(labels)
    if kind == "break_identity":
        positive = space.distance_matrix > 0.0
        np.fill_diagonal(positive, False)
        rows, cols = np.nonzero(positive)
        if not len(rows):
            raise SpaceError("every off-diagonal distance is already zero")
        k = int(rng.integers(len(rows)))
        overrides = dict(space.overrides)
        overrides[(labels[rows[k]], labels[cols[k]])] = 0.0
        return FiniteSpace(
            space.points, space.default_formula, space.default_source,
            overrides, space.claimed_s,
        )
    if kind == "break_quadrilateral":
        if n < 4:
            raise SpaceError("breaking the quadrilateral inequality needs >= 4 points")
        if s is None:
            s = space.claimed_s if space.claimed_s is not None else 1.0
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        if j >= i:
            j += 1
        # three-hop sums (d(x,u) + d(u,v)) + d(v,y); u, v distinct and apart from x, y
        D = space.distance_matrix
        hops = (D[i, :, None] + D) + D[None, :, j]
        np.fill_diagonal(hops, np.inf)
        hops[[i, j], :] = hops[:, [i, j]] = np.inf
        cheapest = float(hops.min())
        overrides = dict(space.overrides)
        overrides[(labels[i], labels[j])] = s * cheapest + max(1.0, cheapest)
        return FiniteSpace(
            space.points, space.default_formula, space.default_source,
            overrides, space.claimed_s,
        )
    raise ValueError(f"unknown perturbation {kind!r}")


def affine_toward(space: FiniteSpace, target: str, ratio: float = 0.5) -> SelfMap:
    """Label table moving every point toward the target by the given ratio in
    value space, snapped to the nearest labeled value (ties take the first
    point in carrier order)."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("ratio must lie in [0, 1)")
    t = space.value_of(target)
    table = {}
    for p in space.points:
        desired = t + ratio * (p.value - t)
        best = min(space.points, key=lambda q: (abs(q.value - desired), space.labels.index(q.label)))
        table[p.label] = best.label
    return SelfMap.from_table(table)
