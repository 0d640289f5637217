import contextlib
import io
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rqbm.cli
import rqbm.spaces
from rqbm.cli import main

from rqbm.instances import (
    INSTANCE_NAMES,
    affine_toward,
    build_example_2_3,
    build_example_final,
    build_example_sqrt,
    get_instance,
    perturb,
    random_space,
)
from rqbm.instances import _broken_tables, _sorted_pairs
from rqbm.spaces import (
    FiniteSpace,
    SpaceError,
    _identity_verdicts,
    _rectangular_verdicts,
    check_b_rectangular,
    check_identity_axiom,
    classify,
    space_from_dict,
    space_to_dict,
)


class TestExampleTable:
    def test_listed_rows(self):
        space = build_example_2_3().space
        assert space.distance("1/6", "1/7") == 0.05
        assert space.distance("1/7", "1/6") == 0.04
        assert space.distance("1/2", "1/6") == 0.4
        assert space.distance("1/4", "1/4") == 0.0

    def test_symmetric_fill_of_unlisted_pairs(self):
        space = build_example_2_3().space
        # (4,3) is not listed; it takes the listed mirror value of (3,4)
        assert space.distance("1/4", "1/3") == space.distance("1/3", "1/4") == 0.4
        assert space.distance("1/6", "1/2") == 0.4

    def test_override_count(self):
        space = build_example_2_3().space
        assert len(space.overrides) == 30  # 21 listed + 9 mirrored

    def test_grid_part_uses_default_formula(self):
        space = build_example_2_3().space
        assert space.distance("1", "2") == 1.0
        assert space.distance("1.5", "1") == 0.25

    def test_claimed_coefficient_holds(self):
        space = build_example_2_3().space
        assert check_b_rectangular(space, 3.0).passed

    def test_grid_density_configurable(self):
        space = build_example_2_3(grid_points=5).space
        assert len(space.labels) == 6 + 5


class TestExampleInterval:
    def test_forward_distances(self):
        space = build_example_sqrt("sqrt").space
        assert float(space.distance(2.0, 1.0)) == 1.0
        assert float(space.distance(1.0, 2.0)) == 0.5

    def test_expected_fixed_point_is_one(self):
        for variant in ("sqrt", "fourth_root"):
            b = build_example_sqrt(variant)
            assert b.expected_fixed_point == 1.0
            assert b.note  # the out-of-domain 1/3 claim is documented

    def test_map_variants(self):
        assert build_example_sqrt("sqrt").selfmap.source == "sqrt(x)"
        assert build_example_sqrt("fourth_root").selfmap.source == "x ^ 0.25"
        with pytest.raises(ValueError):
            build_example_sqrt("cube_root")


class TestExampleFinal:
    def test_listed_rows(self):
        space = build_example_final().space
        assert space.distance("1/5", "1/6") == 0.5
        assert space.distance("1/3", "1/4") == 0.1
        assert space.distance("1/4", "1/3") == 0.05

    def test_map_values(self):
        b = build_example_final()
        assert b.selfmap.apply_label(b.space, "1/4") == 1.0
        assert b.selfmap.apply_label(b.space, "1") == 1.0
        assert b.selfmap.apply_label(b.space, "0.5") == (math.sqrt(0.5) + 3.0) / 4.0

    def test_parameters(self):
        b = build_example_final()
        assert b.space.claimed_s == 3.0 and b.expected_fixed_point == 1.0
        assert b.theta.source == "sqrt(t) + 1"
        assert b.phi.source == "(t + 1) / 2"


class TestRegistry:
    def test_names(self):
        assert set(INSTANCE_NAMES) == {
            "example-2-3", "example-sqrt", "example-fourth-root", "example-final"
        }
        for name in INSTANCE_NAMES:
            assert get_instance(name).name == name

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_instance("example-42")


class TestRoundTrip:
    @pytest.mark.parametrize("name", INSTANCE_NAMES)
    def test_bundle_space_round_trips(self, name):
        space = get_instance(name).space
        clone = space_from_dict(json.loads(json.dumps(space_to_dict(space))))
        if isinstance(space, FiniteSpace):
            assert clone.labels == space.labels
            assert np.array_equal(clone.distance_matrix, space.distance_matrix)
        else:
            g = np.linspace(space.lo, space.hi, 13)
            assert np.array_equal(
                np.asarray(space.distance(g[:, None], g[None, :])),
                np.asarray(clone.distance(g[:, None], g[None, :])),
            )


class TestRandomSpace:
    def test_metric_profile_is_metric(self):
        assert classify(random_space(4, 1, "metric")).is_metric

    def test_metric_profile_100_consecutive_seeds(self):
        for seed in range(100):
            assert classify(random_space(4, seed, "metric")).is_metric

    def test_quasi_seed_one_pinned(self):
        result = classify(random_space(4, 1, "quasi"))
        assert not result.is_symmetric
        assert result.is_quasi_identity
        assert result.is_rqb_at_s  # coefficient 4 bounds the directional scaling
        assert result.minimal_s == 1.2767236749245456

    def test_adversarial_seed_pinned(self):
        result = classify(random_space(5, 2, "adversarial"))
        assert not result.is_rqb_at_s
        assert result.minimal_s > 4.0

    def test_two_points_vacuous(self):
        report = check_b_rectangular(random_space(2, 0, "metric"), 1.0)
        assert report.vacuous and report.passed

    def test_determinism(self):
        a = random_space(5, 7, "quasi")
        b = random_space(5, 7, "quasi")
        assert np.array_equal(a.distance_matrix, b.distance_matrix)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_space(1, 0, "metric")
        with pytest.raises(ValueError):
            random_space(4, 0, "weird")


class TestSortedPairs:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_matches_the_pair_list(self, n):
        order = sorted(range(n), key=lambda i: f"p{i}")
        pairs = np.array([(i, j) for i in order for j in order if i != j], dtype=np.intp)
        I, J = _sorted_pairs(n)
        assert I.dtype == J.dtype == np.intp
        assert np.array_equal(I, pairs[:, 0]) and np.array_equal(J, pairs[:, 1])

    def test_no_python_pair_objects(self):
        # the index arrays of n = 1000 take 30 MiB; n(n - 1) tuples took 107 MiB
        tracemalloc.start()
        try:
            _sorted_pairs(1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 48 * 2**20


class TestPerturb:
    def test_break_identity_single_witness(self):
        broken = perturb(build_example_2_3().space, "break_identity", 3)
        report = check_identity_axiom(broken)
        assert not report.passed
        assert len(report.zero_off_diagonal) == 1

    def test_break_identity_many_seeds(self):
        for seed in range(10):
            base = random_space(5, seed, "quasi")
            broken = perturb(base, "break_identity", seed)
            assert not check_identity_axiom(broken).passed

    def test_break_quadrilateral_metric(self):
        for seed in range(10):
            base = random_space(5, seed, "metric")
            broken = perturb(base, "break_quadrilateral", seed, s=1.0)
            assert not check_b_rectangular(broken, 1.0).passed

    def test_break_quadrilateral_uses_claimed_s(self):
        base = random_space(6, 11, "quasi")  # claimed coefficient 4
        broken = perturb(base, "break_quadrilateral", 11)
        assert not check_b_rectangular(broken, 4.0).passed

    def test_two_point_break_quadrilateral_rejected(self):
        with pytest.raises(SpaceError):
            perturb(random_space(2, 0, "metric"), "break_quadrilateral", 0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            perturb(random_space(4, 0, "metric"), "wobble", 0)

    @pytest.mark.parametrize("profile", ["metric", "quasi", "adversarial"])
    def test_matches_pairwise_reference(self, profile):
        for seed in range(12):
            base = random_space(6, seed, profile)
            labels, d = base.labels, base.distance
            rng = np.random.default_rng([3, seed])
            pairs = [(a, b) for a in labels for b in labels if a != b and d(a, b) > 0.0]
            a, b = pairs[int(rng.integers(len(pairs)))]
            assert perturb(base, "break_identity", seed).distance(a, b) == 0.0
            rng = np.random.default_rng([9, seed])
            i, j = int(rng.integers(6)), int(rng.integers(5))
            x, y = labels[i], labels[j + (j >= i)]
            cheapest = min(
                (d(x, u) + d(u, v)) + d(v, y)
                for u in labels for v in labels if len({x, y, u, v}) == 4
            )
            broken = perturb(base, "break_quadrilateral", seed)
            assert broken.distance(x, y) == base.claimed_s * cheapest + max(1.0, cheapest)

    def test_original_space_unchanged(self):
        base = random_space(4, 5, "metric")
        before = base.distance_matrix.copy()
        perturb(base, "break_identity", 5)
        assert np.array_equal(base.distance_matrix, before)


@st.composite
def affine_cases(draw):
    """1 to 12 distinct values (small integers make exact ties), a ratio in
    [0, 1) and a target index."""
    value = st.one_of(st.integers(-6, 6).map(float), st.floats(-1e3, 1e3),
                      st.sampled_from([1e308, -1e308, 5e-324]))
    values = draw(st.lists(value, min_size=1, max_size=12, unique=True))
    ratio = draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75]),
                           st.floats(0.0, 1.0, exclude_max=True)))
    return values, ratio, draw(st.integers(0, len(values) - 1))


def old_affine_table(space, target, ratio):
    """The per-point loop ``affine_toward`` ran before its one ``argmin``,
    over (label, value) pairs."""
    points = list(zip(space.labels, space.values.tolist()))
    t = space.value_of(target)
    table = {}
    for label, value in points:
        desired = t + ratio * (value - t)
        best = min(points, key=lambda q: (abs(q[1] - desired), space.labels.index(q[0])))
        table[label] = best[0]
    return table


class TestAffineToward:
    def test_target_is_fixed(self):
        space = random_space(6, 3, "quasi")
        m = affine_toward(space, "p2", 0.5)
        assert m.table["p2"] == "p2"

    def test_total_on_space(self):
        space = random_space(6, 3, "quasi")
        m = affine_toward(space, "p0", 0.5)
        m.check_total(space)
        assert set(m.table) == set(space.labels)

    def test_ratio_validation(self):
        space = random_space(4, 0, "metric")
        with pytest.raises(ValueError):
            affine_toward(space, "p0", 1.0)

    @given(affine_cases())
    @example(([2.0, 0.0, 5.0], 0.5, 1))  # p0's desired value 1.0 is as near p1 as p0
    @example(([1e308, -1e308, 0.0], 0.0, 1))  # value - t overflows, and 0 * inf is NaN
    def test_matches_the_per_point_loop(self, case):
        values, ratio, target = case
        space = FiniteSpace.build([(f"p{i}", v) for i, v in enumerate(values)])
        want = old_affine_table(space, f"p{target}", ratio)
        assert affine_toward(space, f"p{target}", ratio).table == want


# -- falsify's batched trials against the per-trial public path ---------------

_KINDS = {"break_identity": ["break_identity"],
          "break_quadrilateral": ["break_quadrilateral"],
          "both": ["break_identity", "break_quadrilateral"]}


def reference_space(n, seed, profile):
    """``random_space`` pair by pair: a dict keyed by label pairs, scaled in
    sorted key order, built into a space."""
    if n < 2:
        raise ValueError("need at least 2 points")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(0.0, 10.0, size=(n, 2))
    labels = [f"p{i}" for i in range(n)]
    table = {(labels[i], labels[j]): float(np.hypot(*(coords[i] - coords[j])))
             for i in range(n) for j in range(n) if i != j}
    if profile != "metric":
        for key in sorted(table):
            table[key] *= float(rng.uniform(0.5, 2.0))
    if profile == "adversarial":
        key = sorted(table)[int(rng.integers(len(table)))]
        table[key] *= float(rng.uniform(5.0, 50.0))
    points = [(label, float(coords[i, 0])) for i, label in enumerate(labels)]
    return FiniteSpace.build(points, None, table, 1.0 if profile == "metric" else 4.0)


def reference_perturb(space, kind, seed):
    """``perturb`` at the claimed coefficient, pair by pair."""
    labels, d = space.labels, space.distance
    rng = np.random.default_rng([{"break_identity": 3, "break_quadrilateral": 9}[kind], seed])
    overrides = dict(space.overrides)
    if kind == "break_identity":
        pairs = [(a, b) for a in labels for b in labels if a != b and d(a, b) > 0.0]
        if not pairs:
            raise SpaceError("every off-diagonal distance is already zero")
        overrides[pairs[int(rng.integers(len(pairs)))]] = 0.0
    else:
        n = len(labels)
        if n < 4:
            raise SpaceError("breaking the quadrilateral inequality needs >= 4 points")
        i, j = int(rng.integers(n)), int(rng.integers(n - 1))
        x, y = labels[i], labels[j + (j >= i)]
        cheapest = min((d(x, u) + d(u, v)) + d(v, y)
                       for u in labels for v in labels if len({x, y, u, v}) == 4)
        overrides[(x, y)] = space.claimed_s * cheapest + max(1.0, cheapest)
    return FiniteSpace(space.labels, space.values, None, None, overrides, space.claimed_s)


def per_trial_reference(n, seeds, profile, kinds):
    """Each trial pair by pair and through the public checks, in (trial, kind)
    order: the broken tables and verdicts, or the first error."""
    tables = {kind: [] for kind in kinds}
    detected = {kind: [] for kind in kinds}
    try:
        for seed in seeds:
            base = reference_space(n, seed, profile)
            for kind in kinds:
                broken = reference_perturb(base, kind, seed)
                tables[kind].append(broken.distance_matrix)
                if kind == "break_identity":
                    detected[kind].append(not check_identity_axiom(broken).passed)
                else:
                    s = base.claimed_s or 1.0
                    detected[kind].append(not check_b_rectangular(broken, s).passed)
    except (SpaceError, ValueError) as e:
        return None, None, e
    return tables, detected, None


def run_falsify(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["falsify", *argv])
    return code, out.getvalue(), err.getvalue()


def assert_batched_matches_reference(n, start, trials, profile, kind):
    seeds = range(start, start + trials)
    kinds = _KINDS[kind]
    want_tables, want_detected, error = per_trial_reference(n, seeds, profile, kinds)
    argv = ["--profile", profile, "--size", str(n), "--kind", kind,
            "--trials", str(trials), "--seed", str(start)]
    code, out, err = run_falsify(*argv)
    if error is not None:
        with pytest.raises(type(error)) as got:
            _broken_tables(n, seeds, profile, kinds)
        assert str(got.value) == str(error)
        with pytest.raises(type(error)) as got:  # the one-trial views
            for seed in seeds:
                base = random_space(n, seed, profile)
                for k in kinds:
                    perturb(base, k, seed)
        assert str(got.value) == str(error)
        assert (code, out, err) == (2, "", f"error: {error}\n")
        return
    tables, s = _broken_tables(n, seeds, profile, kinds)
    for k in kinds:
        # bit for bit, signed zeros included; the one-trial views too
        want = np.array(want_tables[k]).view(np.int64)
        assert np.array_equal(tables[k].view(np.int64), want)
        views = [perturb(random_space(n, seed, profile), k, seed).distance_matrix for seed in seeds]
        assert np.array_equal(np.array(views).view(np.int64), want)
        D = tables[k]
        got = _identity_verdicts(D) if k == "break_identity" else _rectangular_verdicts(D, s)
        assert got.tolist() == want_detected[k]
    runs = json.loads(out)["runs"]
    assert [(r["seed"], r["kind"]) for r in runs] == [(t, k) for t in seeds for k in kinds]
    assert [r["detected"] for r in runs] == [
        want_detected[k][t] for t in range(trials) for k in kinds
    ]
    assert code == (0 if all(r["detected"] for r in runs) else 1)


class TestBatchedFalsifyOracle:
    @settings(max_examples=120)
    @given(
        n=st.integers(min_value=2, max_value=12),
        start=st.one_of(st.integers(min_value=0, max_value=2**32), st.integers(-3, 3)),
        trials=st.integers(min_value=1, max_value=6),
        profile=st.sampled_from(["metric", "quasi", "adversarial"]),
        kind=st.sampled_from(sorted(_KINDS)),
        block=st.sampled_from([1, 100, rqbm.spaces._BLOCK]),
    )
    def test_tables_verdicts_and_first_error_match(self, n, start, trials, profile, kind, block):
        # small blocks split a trial's rows, and a block's rows across trials
        with mock.patch.object(rqbm.spaces, "_BLOCK", block):
            assert_batched_matches_reference(n, start, trials, profile, kind)

    def test_three_points_with_both_kinds(self):
        assert run_falsify("--size", "3", "--kind", "both") == (
            2, "", "error: breaking the quadrilateral inequality needs >= 4 points\n"
        )
        assert_batched_matches_reference(3, 0, 20, "metric", "both")

    def test_shared_point_value_raises_at_its_trial(self, monkeypatch):
        def twins(seed, coords):  # trials 2 and 3 fail, each with its own message
            if seed in (2, 3):
                coords[seed - 1, 0] = coords[0, 0]

        spoil_coordinates(monkeypatch, twins)
        code, out, err = run_falsify("--profile", "quasi", "--size", "6", "--trials", "5")
        assert (code, out) == (2, "")
        assert err.startswith("error: points 'p0' and 'p1' share the value ")
        assert_batched_matches_reference(6, 0, 5, "quasi", "both")

    @pytest.mark.parametrize("at, value, message", [
        ((1, 0), math.nan, "point 'p1' has non-finite value"),
        ((2, 1), math.inf, "override ('p0', 'p2') = inf must be finite and >= 0"),
    ])
    def test_non_finite_draw_raises_at_its_trial(self, monkeypatch, at, value, message):
        def spoil(seed, coords):
            if seed == 3:
                coords[at] = value

        spoil_coordinates(monkeypatch, spoil)
        assert run_falsify("--size", "5", "--trials", "6") == (2, "", f"error: {message}\n")
        assert_batched_matches_reference(5, 0, 6, "metric", "both")


class TestFalsifyChunks:
    # trials run in chunks of at most _TRIAL_CHUNK table elements; patched
    # here to chunks of one and of three 6-point trials
    ARGV = ("--profile", "quasi", "--size", "6", "--trials", "7", "--seed", "3")

    @pytest.mark.parametrize("per_chunk", [1, 3])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_reports_do_not_depend_on_the_chunk(self, monkeypatch, per_chunk, fmt):
        whole = run_falsify(*self.ARGV, "--format", fmt)
        assert whole[0] == 0 and whole[1]
        monkeypatch.setattr(rqbm.cli, "_TRIAL_CHUNK", per_chunk * 36)
        assert run_falsify(*self.ARGV, "--format", fmt) == whole

    @pytest.mark.parametrize("per_chunk", [1, 3])
    def test_failure_in_a_later_chunk_names_its_trial(self, monkeypatch, per_chunk):
        def twins(seed, coords):  # seeds 8 and 9 fail, in chunks after the first
            if seed in (8, 9):
                coords[seed - 7, 0] = coords[0, 0]

        spoil_coordinates(monkeypatch, twins)
        whole = run_falsify(*self.ARGV)
        assert whole[:2] == (2, "")
        assert whole[2].startswith("error: points 'p0' and 'p1' share the value ")
        monkeypatch.setattr(rqbm.cli, "_TRIAL_CHUNK", per_chunk * 36)
        assert run_falsify(*self.ARGV) == whole


def spoil_coordinates(monkeypatch, spoil):
    """Let ``spoil(seed, coords)`` edit the point coordinates drawn for each
    integer seed; every other draw is the real one."""
    real = np.random.default_rng

    class Spoiled:
        def __init__(self, seed):
            self.rng, self.seed = real(seed), seed

        def uniform(self, lo, hi, size=None):
            out = self.rng.uniform(lo, hi, size)
            if isinstance(size, tuple):  # the (n, 2) coordinates
                spoil(self.seed, out)
            return out

        def __getattr__(self, name):
            return getattr(self.rng, name)

    monkeypatch.setattr(
        np.random, "default_rng",
        lambda seed=None: Spoiled(seed) if isinstance(seed, int) else real(seed),
    )
