"""Built-in example spaces, plus seeded generators for property testing.

The three shipped bundles are constructed through the public space-file
format (dict -> space), so every bundle round-trips through serialization.
Mixed finite/interval carriers are realized as finite spaces over the
labeled part plus a configurable uniform grid on the interval; the interval
part of a self-map is an expression, so iterates may move off-grid and are
then measured by the space's default formula.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contraction import SelfMap
from .spaces import (
    FiniteSpace,
    Space,
    SpaceError,
    _streams,
    _three_hop_min,
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
    expected_fixed_point: float | None = None
    note: str = ""


def _grid_point_rows(lo: float, hi: float, count: int) -> list[dict]:
    return [
        {"label": format_value(float(v)), "value": float(v)}
        for v in np.linspace(lo, hi, count)
    ]


def _reciprocal_space(ns, table, lo: float, hi: float, grid_points: int) -> Space:
    """The points 1/n for n in ``ns``, joined with a grid on [lo, hi] measured
    by the squared-difference default; coefficient 3.  ``table`` lists
    ``(d, [(a, b), ...])``: d(1/a, 1/b) = d, and an unlisted mirror pair
    (1/b, 1/a) takes the same value."""
    rows = {(f"1/{a}", f"1/{b}"): d for d, pairs in table for a, b in pairs}
    for (a, b), d in list(rows.items()):
        rows.setdefault((b, a), d)
    return space_from_dict({
        "kind": "finite",
        "points": [{"label": f"1/{n}", "value": 1 / n} for n in ns]
        + _grid_point_rows(lo, hi, grid_points),
        "default": "(x - y)^2",
        "overrides": [{"from": a, "to": b, "d": d} for (a, b), d in sorted(rows.items())],
        "claimed_s": 3.0,
    })


def build_example_2_3(grid_points: int = 11) -> InstanceBundle:
    """Six reciprocal-labeled points with an asymmetric table, coefficient 3,
    joined with a grid on [1, 2] measured by the squared-difference default."""
    space = _reciprocal_space(range(2, 8), [
        (0.05, [(2, 3), (4, 5), (6, 7)]),
        (0.04, [(3, 2), (5, 4), (7, 6)]),
        (0.08, [(2, 4), (3, 7), (5, 6)]),
        (0.05, [(4, 2), (7, 3), (6, 5)]),
        (0.4, [(2, 6), (3, 4), (5, 7)]),
        (0.24, [(2, 5), (3, 6), (4, 7)]),
        (0.15, [(2, 7), (3, 5), (4, 6)]),
    ], 1.0, 2.0, grid_points)
    return InstanceBundle(
        name="example-2-3",
        description="asymmetric 6-point table over a squared-difference default; coefficient 3",
        space=space,
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
        expected_fixed_point=1.0,
        note=(
            "the stated fixed point 1/3 is outside [1, 2]; x = T(x) forces 1.0, "
            "which is the verified target"
        ),
    )


def build_example_final(grid_points: int = 11) -> InstanceBundle:
    """Four reciprocal-labeled points joined with a grid on [1/2, 3/2];
    map sends the labeled part to 1 and the interval through (sqrt(x)+3)/4."""
    space = _reciprocal_space(range(3, 7), [
        (0.1, [(3, 4), (4, 5)]),
        (0.05, [(4, 3), (5, 4)]),
        (0.05, [(3, 5), (4, 6)]),
        (0.1, [(5, 3), (6, 4)]),
        (0.5, [(3, 6), (5, 6)]),
    ], 0.5, 1.5, grid_points)
    selfmap = SelfMap.hybrid({f"1/{n}": 1.0 for n in range(3, 7)}, "(sqrt(x) + 3) / 4")
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
_SALTS = {"break_identity": 3, "break_quadrilateral": 9}


def _sorted_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the off-diagonal pairs of labels p0 ... p{n-1},
    in sorted label order (p10 comes before p2)."""
    order = np.array(sorted(range(n), key=lambda i: f"p{i}"), dtype=np.intp)
    return np.repeat(order, n - 1), np.broadcast_to(order, (n, n))[~np.eye(n, dtype=bool)]


def _random_tables(n: int, seeds, profile: str):
    """``random_space(n, seed, profile)`` for every seed, as arrays: the
    (T, n, n) distance tables, the (T, n) point values and the claimed
    coefficient.  Each seed's stream makes the draws ``random_space``
    documents, in the same order."""
    if n < 2:
        raise ValueError("need at least 2 points")
    if profile not in _PROFILES:
        raise ValueError(f"unknown profile {profile!r}; known: {', '.join(_PROFILES)}")
    rng = _streams(seeds)
    # one draw: the points in [0, 10)^2, then unless metric one scale in
    # [0.5, 2) per ordered pair, in sorted label order; the per-column bounds
    # live only as the call's arguments, so they are freed as it returns
    n_scales = 0 if profile == "metric" else n * (n - 1)
    bounds = (np.repeat(bound, [2 * n, n_scales]) for bound in ([0.0, 0.5], [10.0, 2.0]))
    draws = rng.uniform(*bounds, 2 * n + n_scales)
    # copied, so that the point values returned do not keep the scales alive
    x, y = np.moveaxis(draws[:, :2 * n].reshape(-1, n, 2), -1, 0).copy()
    # a non-finite draw shows as a non-finite table, which the caller refuses
    with np.errstate(invalid="ignore"):
        D = x[:, :, None] - x[:, None, :]
        D = np.hypot(D, y[:, :, None] - y[:, None, :], out=D)
        if n_scales:
            I, J = _sorted_pairs(n)
            D[:, I, J] *= draws[:, 2 * n:]
        if profile == "adversarial":
            k = rng.integers(len(I))
            D[np.arange(len(D)), I[k], J[k]] *= rng.uniform(5.0, 50.0, 1)[:, 0]
    return D, x, 1.0 if profile == "metric" else 4.0


def random_space(n: int, seed: int, profile: str = "metric") -> FiniteSpace:
    """Seeded table space over n planar points p0 ... p{n-1}.

    metric: Euclidean distances (a genuine metric).  quasi: the same table
    with an independent per-direction scale in [0.5, 2] (coefficient 4 is a
    safe quadrilateral bound).  adversarial: quasi with one ordered pair
    inflated by a factor in [5, 50], a likely axiom breaker.  The point
    values are the first coordinates.  This is one trial of the array
    generator that ``falsify`` runs over all its seeds at once.
    """
    (D,), (values,), claimed = _random_tables(n, [seed], profile)
    labels = tuple(f"p{i}" for i in range(n))
    I, J = _sorted_pairs(n)
    keys = zip([labels[i] for i in I], [labels[j] for j in J])
    return FiniteSpace(labels, values, None, None, dict(zip(keys, D[I, J].tolist())), claimed)


def _zeroed_entries(D: np.ndarray, rng) -> np.ndarray:
    """``break_identity`` over a (T, n, n) stack: the row-major index of the
    entry each trial zeroes, or -1 where no off-diagonal entry is positive.
    The k-th positive entry is zeroed, k drawn from the trial's stream."""
    positive = ((D > 0.0) & ~np.eye(D.shape[-1], dtype=bool)).reshape(len(D), -1)
    count = positive.sum(axis=1)
    k = rng.integers(np.maximum(count, 1))  # a bound of 1 draws nothing
    at = (np.cumsum(positive, axis=1, dtype=np.int32) > k[:, None]).argmax(axis=1)
    return np.where(count > 0, at, -1)


def _inflated_entries(D: np.ndarray, rng, s: float):
    """``break_quadrilateral`` over a (T, n, n) stack, n >= 4: per trial the
    entry (i, j) drawn from its stream and its new value s * c + max(1, c), c
    being the cheapest three-hop sum (d(i,u) + d(u,v)) + d(v,j) over u, v
    distinct and apart from i, j."""
    n = D.shape[-1]
    i, j = rng.integers(n), rng.integers(n - 1)
    j += j >= i  # the j-th column apart from i
    cheapest = _three_hop_min(D, i)[np.arange(len(D)), j]
    with np.errstate(all="ignore"):  # float arithmetic, as on Python floats
        return i, j, s * cheapest + np.maximum(1.0, cheapest)


def perturb(space: FiniteSpace, kind: str, seed: int, s: float | None = None) -> FiniteSpace:
    """Return a copy damaged so that the corresponding axiom check must fail.

    ``break_identity`` zeroes one positive off-diagonal distance.
    ``break_quadrilateral`` inflates one distance above s times the cheapest
    three-hop sum over its admissible quadruples (s defaults to the claimed
    coefficient, else 1).  This is one trial of the array perturbations that
    ``falsify`` applies to all its tables at once.
    """
    labels = space.labels
    rng = _streams([seed], _SALTS.get(kind, 0))
    n = len(labels)
    if kind == "break_identity":
        (at,) = _zeroed_entries(space.distance_matrix[None], rng)
        if at < 0:
            raise SpaceError("every off-diagonal distance is already zero")
        (i, j), d = divmod(int(at), n), 0.0
    elif kind == "break_quadrilateral":
        if n < 4:
            raise SpaceError("breaking the quadrilateral inequality needs >= 4 points")
        if s is None:
            s = space.claimed_s if space.claimed_s is not None else 1.0
        (i,), (j,), (d,) = _inflated_entries(space.distance_matrix[None], rng, s)
    else:
        raise ValueError(f"unknown perturbation {kind!r}")
    overrides = dict(space.overrides)
    overrides[(labels[i], labels[j])] = float(d)
    return FiniteSpace(labels, space.values, space.default_formula, space.default_source,
                       overrides, space.claimed_s)


def _broken_tables(n: int, seeds, profile: str, kinds):
    """Every falsify trial at once: per kind, the (T, n, n) stack of
    ``perturb(random_space(n, seed, profile), kind, seed)`` tables, and the
    claimed coefficient.  Where some trial would raise (a shared point
    value, a distance that is not finite and >= 0, no positive distance to
    zero, fewer than 4 points to break the quadrilateral inequality), the
    first such trial reruns through ``random_space`` and ``perturb``, kind by
    kind, and raises their error."""
    D, values, claimed = _random_tables(n, seeds, profile)
    off = ~np.eye(n, dtype=bool)
    ok = ~((values[:, :, None] == values[:, None, :]) & off).any(axis=(1, 2))
    ok &= (np.isfinite(D) & (D >= 0.0)).all(axis=(1, 2))
    entries = {}
    for kind in kinds:
        rng = _streams(seeds, _SALTS[kind])
        if kind == "break_identity":
            at = _zeroed_entries(D, rng)
            ok &= at >= 0
            entries[kind] = np.divmod(at, n), 0.0
        elif n < 4:
            ok[:] = False
        else:
            i, j, d = _inflated_entries(D, rng, claimed)
            ok &= np.isfinite(d)
            entries[kind] = (i, j), d
    if not ok.all():
        seed = seeds[int(np.argmin(ok))]
        base = random_space(n, seed, profile)
        for kind in kinds:
            perturb(base, kind, seed)
        raise AssertionError(f"trial {seed} was refused but reran cleanly")
    broken = {}
    for kind in kinds:  # the last kind breaks the base stack itself
        B = D if kind == kinds[-1] else D.copy()
        (i, j), d = entries[kind]
        B[np.arange(len(B)), i, j] = d
        broken[kind] = B
    return broken, claimed


def affine_toward(space: FiniteSpace, target: str, ratio: float = 0.5) -> SelfMap:
    """Label table moving every point toward the target by the given ratio in
    value space, snapped to the nearest labeled value (ties take the first
    point in carrier order)."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("ratio must lie in [0, 1)")
    t = space.value_of(target)
    with np.errstate(all="ignore"):  # float arithmetic, as on Python floats
        desired = t + ratio * (space.values - t)
        nearest = np.argmin(np.abs(space.values - desired[:, None]), axis=1).tolist()
    return SelfMap.from_table({a: space.labels[k] for a, k in zip(space.labels, nearest)})
