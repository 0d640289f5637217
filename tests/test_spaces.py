import contextlib
import io
import itertools
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rqbm._pcg
import rqbm.cli
import rqbm.expr
import rqbm.spaces
from rqbm.contraction import SelfMap, pair_set
from rqbm.expr import EvalError, evaluate, parse, to_source
from rqbm.instances import (
    build_example_2_3,
    build_example_final,
    build_example_sqrt,
    random_space,
)
from rqbm.spaces import (
    DEFAULT_GRID_POINTS,
    DEFAULT_TOL,
    AnalyticSpace,
    FiniteSpace,
    SpaceError,
    SpaceFormatError,
    UnknownLabelError,
    carrier_sample,
    check_b_rectangular,
    check_identity_axiom,
    classify,
    minimal_rectangular_coefficient,
    space_from_dict,
    space_to_dict,
)
from test_expr import _exprs


# --------------------------------------------------------------------------
# independent oracle: quadruple scan from a raw pair->distance callable
# --------------------------------------------------------------------------

def oracle_quad_scan(points, dist, s, tol=1e-9):
    """Plain-python sweep over admissible quadruples in lexicographic (x, u, v, y)
    order; returns (sup, violations in that order, first maximiser)."""
    sup = None
    first_max = None
    violations = []
    for x, u, v, y in itertools.permutations(points, 4):
        lhs = dist(x, y)
        rhs = dist(x, u) + dist(u, v) + dist(v, y)
        if rhs == 0.0:
            ratio = math.inf if lhs > 0 else None
        else:
            ratio = lhs / rhs
        if ratio is not None and (sup is None or ratio > sup):
            sup = ratio
            first_max = (x, u, v, y)
        if lhs > s * rhs + tol:
            violations.append((x, u, v, y))
    return sup, violations, first_max


def oracle_triangle(points, dist, s, tol=1e-9):
    """First (x, z, y, lhs, rhs) in lexicographic (x, z, y) order with
    d(x, y) > s * (d(x, z) + d(z, y)) + tol, or None."""
    for x, z, y in itertools.permutations(points, 3):
        lhs, rhs = dist(x, y), dist(x, z) + dist(z, y)
        if lhs > s * rhs + tol:
            return (x, z, y, lhs, rhs)
    return None


def oracle_identity(points, D):
    """Pair by pair, in row-major order: the off-diagonal pairs at distance 0
    and the diagonal entries that are not 0, as ``IdentityReport`` lists them."""
    n = len(points)
    zero_off = tuple((points[i], points[j]) for i in range(n) for j in range(n)
                     if i != j and D[i, j] == 0.0)
    nonzero_diag = tuple((points[i], float(D[i, i])) for i in range(n) if D[i, i] != 0.0)
    return zero_off, nonzero_diag


def dict_distance(obj):
    """Distance function read directly off a space definition dict."""
    values = {p["label"]: p["value"] for p in obj["points"]}
    table = {(row["from"], row["to"]): row["d"] for row in obj.get("overrides") or []}

    def dist(a, b):
        if a == b:
            return 0.0
        if (a, b) in table:
            return table[(a, b)]
        return (values[a] - values[b]) ** 2

    return dist


@pytest.fixture(scope="module")
def table_space():
    return build_example_2_3().space


@pytest.fixture(scope="module")
def table_space_no_grid():
    obj = space_to_dict(build_example_2_3().space)
    obj["points"] = [p for p in obj["points"] if p["label"].startswith("1/")]
    return space_from_dict(obj)


@pytest.fixture(scope="module")
def piecewise_space():
    return AnalyticSpace.build(
        1.0, 2.0, "if(x >= y, (x - y)^2, 0.5 * (y - x)^2)", 2.0
    )


class TestResolveDistance:
    def test_override_rows(self, table_space):
        assert table_space.distance("1/2", "1/3") == 0.05
        assert table_space.distance("1/3", "1/2") == 0.04

    def test_diagonal_is_zero(self, table_space):
        assert table_space.distance("1/2", "1/2") == 0.0

    def test_default_formula(self, table_space):
        assert table_space.distance("1", "2") == 1.0

    def test_unknown_label(self, table_space):
        with pytest.raises(UnknownLabelError):
            table_space.distance("1/2", "1/99")

    def test_no_default_and_no_override(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], None, {("a", "b"): 1.0})
        with pytest.raises(SpaceError):
            space.distance("b", "a")

    def test_deterministic(self, table_space):
        a = table_space.distance("1/5", "1/6")
        b = table_space.distance("1/5", "1/6")
        assert a == b == 0.08


@st.composite
def carrier_lookups(draw):
    """1 to 40 distinct point values (0.0 among them) and an array of queries
    of shape (), (k,) or (r, c) mixing them with -0.0, NaN, infinities and
    values off the carrier."""
    finite = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)
    others = draw(st.lists(finite.filter(bool), max_size=39, unique=True))
    values = draw(st.permutations([0.0, *others]))
    query = st.one_of(st.sampled_from(values),
                      st.sampled_from([-0.0, math.nan, math.inf, -math.inf]), finite)
    shape = draw(st.sampled_from([(), (draw(st.integers(0, 12)),),
                                  (draw(st.integers(1, 4)), draw(st.integers(1, 4)))]))
    queries = draw(st.lists(query, min_size=math.prod(shape), max_size=math.prod(shape)))
    return values, np.array(queries, dtype=np.float64).reshape(shape)


class TestValueLookup:
    @given(carrier_lookups())
    def test_indices_match_a_dict_lookup(self, case):
        values, queries = case
        space = FiniteSpace.build([(f"p{i}", v) for i, v in enumerate(values)], "(x - y)^2")
        index_of = {v: i for i, v in enumerate(values)}  # -0.0 finds 0.0 here too
        want = [-1 if math.isnan(q) else index_of.get(q, -1) for q in queries.ravel().tolist()]
        got = space._indices(queries)
        assert got.shape == queries.shape and got.dtype == np.intp
        assert got.ravel().tolist() == want
        assert [space.label_for_value(q) for q in queries.ravel().tolist()] == [
            None if k < 0 else f"p{k}" for k in want]

    def test_signed_zero_names_the_point_at_zero(self):
        space = FiniteSpace.build([("a", 1.0), ("z", 0.0)], "(x - y)^2")
        assert space._indices(np.float64(-0.0)).tolist() == 1
        assert space.label_for_value(-0.0) == "z"

    def test_signed_zeros_share_a_value(self):
        with pytest.raises(SpaceError, match="'z' and 'n' share the value -0.0"):
            FiniteSpace.build([("z", 0.0), ("a", 1.0), ("n", -0.0), ("b", 1.0)], "(x - y)^2")


class TestDistanceTable:
    def test_matrix_raises_for_first_undefined_pair(self):
        space = FiniteSpace.build(
            [("a", 0.0), ("b", 1.0), ("c", 2.0)], None,
            {("a", "b"): 1.0, ("a", "c"): 1.0, ("c", "a"): 1.0},
        )
        message = "no override for ('b', 'a') and the space has no default formula"
        with pytest.raises(SpaceError) as err:
            space.distance_matrix
        assert str(err.value) == message

    def test_matrix_is_read_only(self, table_space):
        D = table_space.distance_matrix
        with pytest.raises(ValueError):
            D[0, 1] = 7.0
        assert table_space.distance(table_space.labels[0], table_space.labels[1]) != 7.0

    def test_each_formula_pair_evaluated_once(self, monkeypatch):
        import rqbm.expr

        calls = []
        evaluate = rqbm.expr.evaluate

        def counting(node, bindings):
            # one entry per evaluated pair, whether bound as scalars or as arrays
            xs, ys = np.broadcast_arrays(bindings["x"], bindings["y"])
            calls.extend(zip(xs.ravel().tolist(), ys.ravel().tolist()))
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", counting)
        points = [("a", 0.0), ("b", 1.0), ("c", 2.5), ("d", 4.0)]
        space = FiniteSpace.build(points, "(x - y)^2", {("a", "b"): 3.0, ("c", "a"): 0.5})
        # construction evaluates every carrier pair once, in row-major order, in
        # row blocks that also cover the diagonal and the overridden pairs
        assert calls == [(x, y) for _, x in points for _, y in points]
        calls.clear()
        D = space.distance_matrix
        for i, a in enumerate(space.labels):
            for j, b in enumerate(space.labels):
                assert space.distance(a, b) == D[i, j]
        assert calls == []


    @pytest.mark.parametrize("values, default, message", [
        ([0.0, 1.0, 2.0], "sqrt(x - y)", "sqrt of a negative value in 'sqrt(x - y)'"),
        ([0.0, 1.0, 2.0], "x - y + 0.5", "distance ('a', 'b') = -0.5 must be finite and >= 0"),
        ([0.0, 1.0, 2.0, 900.0], "min(exp(x * y), 1) * (x - y)^2",
         "non-finite result in 'exp(x * y)'"),
        # ('b', 'a') is negative before ('c', 'a') fails to evaluate
        ([0.0, 1.0, 10.0], "if(x > 5, sqrt(0 - x), y - x)",
         "distance ('b', 'a') = -1.0 must be finite and >= 0"),
    ])
    def test_first_failing_formula_pair_raises_its_own_error(self, values, default, message):
        with pytest.raises((SpaceError, EvalError)) as err:
            FiniteSpace.build(zip("abcd", values), default)
        assert str(err.value) == message

    def test_construction_peak_below_twice_the_table(self):
        # the formula's temporaries and the undefined-pair mask are block-sized,
        # so the build peaks near the table's own bytes
        points = [(f"p{i}", i / 999) for i in range(1000)]
        tracemalloc.start()
        try:
            space = FiniteSpace.build(points, "(x - y)^2")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * space.distance_matrix.nbytes

    def test_image_distances_match_distance_value(self):
        bundle = build_example_final(5)
        space = bundle.space
        pairs = pair_set(carrier_sample(space), bundle.selfmap, 3.0)
        image = {l: bundle.selfmap.apply_label(space, l) for l in space.labels}
        want = [space.distance_value(image[a], image[b])
                for a, b in map(pairs.pair, range(pairs.d_img.size))]
        assert pairs.d_img.tolist() == want

    def test_first_undefined_pair_in_c_order_raises(self):
        # no default formula, and neither ('b', 'a') nor ('c', 'b') has an override
        overrides = {("a", "b"): 1.0, ("a", "c"): 1.0, ("b", "c"): 1.0, ("c", "a"): 1.0}
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0), ("c", 2.0)], None, overrides)
        v = np.array([0.0, 1.0, 2.0])
        with pytest.raises(SpaceError) as err:
            space.distance_value(v[:, None], v[None, :])
        assert str(err.value) == (
            "no override for ('b', 'a') and the space has no default formula"
        )
        assert space.distance_value(v, v[::-1]).tolist() == [1.0, 0.0, 1.0]

    def test_unlabeled_image_without_formula_raises(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], None, {("a", "b"): 1.0, ("b", "a"): 1.0})
        selfmap = SelfMap.hybrid({"a": "b"}, "x / 2")
        with pytest.raises(SpaceError, match="outside the labeled carrier"):
            pair_set(carrier_sample(space), selfmap, 1.0)


def reference_table(labels, values, source, overrides):
    """The table pair by pair in row-major order: an override, else 0 on the
    diagonal, else one scalar walk of the formula; the first pair that fails
    or is negative raises."""
    formula = parse(source, {"x", "y"})
    table = np.empty((len(labels), len(labels)))
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            if (a, b) in overrides or i == j:
                table[i, j] = overrides.get((a, b), 0.0)
                continue
            d = evaluate(formula, {"x": values[i], "y": values[j]})
            if d < 0.0:
                raise SpaceError(f"distance ({a!r}, {b!r}) = {d!r} must be finite and >= 0")
            table[i, j] = d
    return table


@st.composite
def table_cases(draw):
    values = draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5, 2.0]),
                                     st.floats(min_value=-50.0, max_value=50.0)),
                           min_size=1, max_size=7, unique=True))
    n = len(values)
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))))
    overrides = {(f"p{i}", f"p{j}"): 0.0 if i == j else draw(st.sampled_from([0.0, 0.5, 3.0]))
                 for i, j in sorted(pairs)}
    block = draw(st.sampled_from([1, n, 2 * n, rqbm.spaces._BLOCK]))
    return values, to_source(draw(_exprs(("x", "y")))), overrides, block


class TestTableConstructionOracle:
    @example(case=([0.0, 1.0, 2.0], "sqrt(x - y)",  # every failing pair is overridden
                   {("p0", "p1"): 1.0, ("p0", "p2"): 1.0, ("p1", "p2"): 1.0}, 1))
    @example(case=([0.0, 1.0, 2.0], "sqrt(x - y)",
                   {("p0", "p1"): 1.0, ("p0", "p2"): 1.0, ("p1", "p2"): 1.0}, 2 ** 14))
    # ('p1', 'p0') is negative before ('p2', 'p0') fails, in one block or in three
    @example(case=([0.0, 1.0, 10.0], "if(x > 5, sqrt(0 - x), y - x)", {}, 1))
    @example(case=([0.0, 1.0, 10.0], "if(x > 5, sqrt(0 - x), y - x)", {}, 2 ** 14))
    # the diagonal fails in the first block, the needed ('p1', 'p0') is negative in the second
    @example(case=([0.0, 1.0, 2.0], "y - x + 0 * ln(abs(x - y))", {}, 1))
    @given(table_cases())
    def test_table_matches_pair_by_pair_reference(self, case):
        values, source, overrides, block = case
        labels = [f"p{i}" for i in range(len(values))]
        try:
            want = reference_table(labels, values, source, overrides).tobytes()
        except (SpaceError, EvalError) as err:
            want = (type(err), str(err))
        try:
            with mock.patch.object(rqbm.spaces, "_BLOCK", block):
                space = FiniteSpace.build(zip(labels, values), source, overrides)
            got = space.distance_matrix.tobytes()
        except (SpaceError, EvalError) as err:
            got = (type(err), str(err))
        assert got == want


class TestNegativeAnalyticDistance:
    SOURCE = "(x-y)^2*(1 - 2*if(x>1.4, if(x<1.6,1,0),0))"

    def test_scalar_sample_refused(self):
        space = AnalyticSpace.build(1.0, 2.0, self.SOURCE)
        with pytest.raises(SpaceError) as err:
            space.distance(1.5, 1.0)
        assert str(err.value) == "distance (1.5, 1.0) = -0.25 must be finite and >= 0"

    def test_first_negative_sample_in_c_order(self):
        space = AnalyticSpace.build(1.0, 2.0, self.SOURCE)
        g = np.array([1.0, 1.5, 1.55])
        with pytest.raises(SpaceError) as err:
            space.distance(g[:, None], g[None, :])
        assert str(err.value) == "distance (1.5, 1.0) = -0.25 must be finite and >= 0"

    @pytest.mark.parametrize("operation", [
        lambda space: check_identity_axiom(carrier_sample(space)),
        lambda space: check_b_rectangular(carrier_sample(space), 2.0),
        lambda space: minimal_rectangular_coefficient(carrier_sample(space)),
        lambda space: classify(carrier_sample(space)),
    ])
    def test_every_scan_refuses(self, operation):
        with pytest.raises(SpaceError, match="must be finite and >= 0"):
            operation(AnalyticSpace.build(1.0, 2.0, self.SOURCE))


class TestAnalyticDistance:
    SOURCE = "(x - y)^2 + 0 * ln(x - y + 0.5)"  # fails where x - y <= -0.5

    def test_one_distance_body(self):
        assert AnalyticSpace.distance is AnalyticSpace.distance_value

    def test_first_failing_pair_raises_its_own_error(self):
        space = AnalyticSpace.build(1.0, 2.0, self.SOURCE)
        g = space.grid(5)
        with pytest.raises(EvalError) as alone:
            space.distance(1.0, 1.5)
        with pytest.raises(EvalError) as mesh:
            space.distance(g[:, None], g[None, :])
        assert str(mesh.value) == str(alone.value) == (
            "ln of a non-positive value in 'ln(x - y + 0.5)'"
        )


# a distance that only fails late in C order, at (2, 0) of a grid on [0, 2]
LATE_FAILING = "sqrt(y - x + 1.999) * abs(x - y)"


def reference_distances(formula, xs, ys):
    """The grid xs by ys pair by pair in C order, one scalar walk each; the
    first pair that raises, or is negative, raises."""
    out = np.empty((len(xs), len(ys)))
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            d = evaluate(formula, {"x": x, "y": y})
            if d < 0.0:
                raise SpaceError(f"distance ({x!r}, {y!r}) = {d!r} must be finite and >= 0")
            out[i, j] = d
    return out


@st.composite
def grid_cases(draw):
    # 0 on the diagonal, so the space builds; off it, a random formula whose
    # conditionals may hold branches that leave their domain
    values = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
                       st.floats(min_value=-50.0, max_value=50.0))
    xs, ys = (draw(st.lists(values, min_size=1, max_size=5)) for _ in range(2))
    return f"if(x == y, 0, {to_source(draw(_exprs(('x', 'y'))))})", xs, ys


class TestAnalyticDistanceOracle:
    @example(case=("if(x == y, 0, (x - y)^2 / abs(x - y))", [0.0, 0.5, 1.0], [0.0, 0.5, 1.0]))
    @example(case=("if(x >= y, sqrt(x - y), 2 * sqrt(y - x))", [0.0, 1.0], [0.5, 1.0, 2.0]))
    @example(case=(LATE_FAILING, np.linspace(0.0, 2.0, 40).tolist(),
                   np.linspace(0.0, 2.0, 40).tolist()))
    # the negative (1, 0) comes before the failing (10, 0)
    @example(case=("if(x == y, 0, if(x > 5, sqrt(0 - x), y - x))", [0.0, 1.0, 10.0],
                   [0.0, 1.0, 10.0]))
    @given(grid_cases())
    def test_grid_matches_pair_by_pair_reference(self, case):
        source, xs, ys = case
        space = AnalyticSpace.build(-50.0, 50.0, source)
        try:
            want = reference_distances(space.formula, xs, ys).tobytes()
        except (SpaceError, EvalError) as err:
            want = (type(err), str(err))
        try:
            got = space.distance_value(np.array(xs)[:, None], np.array(ys)[None, :]).tobytes()
        except (SpaceError, EvalError) as err:
            got = (type(err), str(err))
        assert got == want


class TestOneElementFailures:
    """A call on one pair raises that pair's own error, as a call on many does."""

    def test_analytic_one_by_one_grid(self):
        space = AnalyticSpace.build(0.0, 2.0, "sqrt(x - y)")
        for x, y in ((np.array([0.0]), np.array([1.0])), (np.array([[0.0]]), np.array([[1.0]]))):
            with pytest.raises(EvalError, match=r"^sqrt of a negative value in 'sqrt\(x - y\)'$"):
                space.distance_value(x, y)

    def test_analytic_one_negative_pair(self):
        space = AnalyticSpace.build(0.0, 2.0, "x - y")
        with pytest.raises(SpaceError, match=r"^distance \(0.0, 1.0\) = -1.0 must be"):
            space.distance_value(np.array([0.0]), np.array([1.0]))

    @pytest.mark.parametrize("a, b", [(-2.0, 0.5), (np.array([-2.0, 0.0]), np.array([0.5, 1.0]))])
    def test_hybrid_one_free_pair(self, a, b):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], "abs(x - y) + 0 * ln(x + 1)")
        with pytest.raises(EvalError, match=r"^ln of a non-positive value in 'ln\(x \+ 1.0\)'$"):
            space.distance_value(a, b)


class TestFreePairs:
    def test_formula_reads_only_the_free_pairs(self):
        # the formula fails where x = y and is negative where x < y: the labeled
        # pair reads its override, an equal unlabeled pair is 0, and the free pairs
        # the formula
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], "x - y + 0 * ln(abs(x - y))",
                                  {("a", "b"): 0.5})
        d = space.distance_value(np.array([0.0, 0.25, 0.75, 1.0]), np.array([1.0, 0.25, 0.5, 0.5]))
        assert d.tolist() == [0.5, 0.0, 0.25, 0.5]


@contextlib.contextmanager
def scalar_walks(limit):
    """The nodes of the top-level entries of ``expr._scalar`` (its recursive
    calls are not counted); an entry past ``limit`` fails the call at once."""
    scalar, depth, entries = rqbm.expr._scalar, [0], []

    def counting(node, ctx):
        if depth[0] == 0:
            entries.append(node)
            assert len(entries) <= limit, "a scalar walk per element"
        depth[0] += 1
        try:
            return scalar(node, ctx)
        finally:
            depth[0] -= 1

    with mock.patch.object(rqbm.expr, "_scalar", counting):
        yield entries


class TestScalarWalksPerCall:
    """An array call that the whole-array walk cannot vouch for makes a handful
    of scalar walks (one names a failure), not one per element."""

    HANDFUL = 3

    def test_guarded_conditional_on_a_grid(self):
        g = np.linspace(0.0, 1.0, 300)
        e = parse("if(x >= y, sqrt(x - y), 2 * sqrt(y - x))", {"x", "y"})
        with scalar_walks(self.HANDFUL) as walks:
            d = evaluate(e, {"x": g[:, None], "y": g[None, :]})
        assert d.shape == (300, 300) and walks == []
        assert d[299, 0] == 1.0 and d[0, 299] == 2.0

    def test_finite_build_guarded_on_the_diagonal(self):
        points = [(f"p{i}", v) for i, v in enumerate(np.linspace(0.0, 1.0, 400).tolist())]
        with scalar_walks(self.HANDFUL) as walks:
            space = FiniteSpace.build(points, "if(x == y, 0, (x - y)^2 / abs(x - y))")
        assert walks == [] and space.distance("p399", "p0") == 1.0

    def test_late_failing_carrier(self):
        space = AnalyticSpace.build(0.0, 2.0, LATE_FAILING)
        with scalar_walks(self.HANDFUL) as walks, pytest.raises(EvalError) as err:
            carrier_sample(space, 300)
        assert str(err.value) == "sqrt of a negative value in 'sqrt(y - x + 1.999)'"
        assert 1 <= len(walks) <= self.HANDFUL


class TestCarrierSample:
    def test_finite_labels_values_and_table(self, table_space):
        sample = carrier_sample(table_space, 7)
        names, values, D, source = sample.names, sample.values, sample.table, sample.source
        assert names is table_space.labels  # the space's own tuple, not a copy
        assert values is table_space.values
        assert values.tolist() == [table_space.value_of(a) for a in names]
        assert D is table_space.distance_matrix and source == "exhaustive"
        assert sample.space is table_space

    def test_analytic_grid(self):
        space = build_example_sqrt().space
        sample = carrier_sample(space, 7)
        names, values, D, source = sample.names, sample.values, sample.table, sample.source
        g = space.grid(7)
        assert names == tuple(float(v) for v in g) and tuple(values.tolist()) == names
        assert D.tolist() == [[space.distance(x, y) for y in names] for x in names]
        assert source == "grid:7" and sample.space is space

    @pytest.mark.parametrize("space", [
        build_example_final().space,
        build_example_sqrt().space,
    ], ids=["finite", "analytic"])
    def test_uniform_and_read_only(self, space):
        sample = carrier_sample(space)
        assert type(sample.names) is tuple
        for array in (sample.values, sample.table):
            assert array.dtype == np.float64 and not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0
        with pytest.raises(AttributeError):
            sample.names = ()


class TestIdentityAxiom:
    def test_full_table_passes(self, table_space):
        report = check_identity_axiom(carrier_sample(table_space))
        assert report.passed
        assert report.pairs_checked == len(table_space.labels) ** 2

    def test_degenerate_zero_table(self):
        labels = [("a", 0.0), ("b", 1.0), ("c", 2.0)]
        overrides = {(p, q): 0.0 for p, _ in labels for q, _ in labels if p != q}
        space = FiniteSpace.build(labels, None, overrides)
        report = check_identity_axiom(carrier_sample(space))
        assert not report.passed
        assert len(report.zero_off_diagonal) == 6  # every ordered distinct pair

    def test_analytic_squared_difference(self):
        space = AnalyticSpace.build(1.0, 2.0, "(x - y)^2")
        report = check_identity_axiom(carrier_sample(space, 50))
        assert report.passed
        assert report.pairs_checked == 2500


class TestBRectangular:
    def test_example_table_at_coefficient_3(self, table_space):
        report = check_b_rectangular(carrier_sample(table_space), 3.0)
        assert report.passed and not report.vacuous
        assert report.quadruples_checked == 57120

    def test_three_points_vacuous(self):
        pts = [("a", 0.0), ("b", 1.0), ("c", 3.0)]
        ov = {(p, q): abs(x - y) for (p, x), (q, y) in itertools.permutations(pts, 2)}
        space = FiniteSpace.build(pts, None, ov)
        report = check_b_rectangular(carrier_sample(space), 1.0)
        assert report.passed and report.vacuous
        assert report.quadruples_checked == 0

    def test_final_table_fails_at_1_with_large_witness(self):
        space = build_example_final().space
        report = check_b_rectangular(carrier_sample(space), 1.0)
        assert not report.passed
        assert any(
            v.x == "1/5" and v.y == "1/6" and v.lhs == 0.5 for v in report.violations
        )

    def test_matches_oracle_on_table_part(self, table_space_no_grid):
        obj = space_to_dict(table_space_no_grid)
        dist = dict_distance(obj)
        labels = [p["label"] for p in obj["points"]]
        for s in (1.0, 2.0, 3.0):
            _, want, _ = oracle_quad_scan(labels, dist, s)
            got = check_b_rectangular(carrier_sample(table_space_no_grid), s)
            assert {(v.x, v.u, v.v, v.y) for v in got.violations} == set(want)

    def test_order_independence(self, table_space_no_grid):
        obj = space_to_dict(table_space_no_grid)
        baseline = check_b_rectangular(carrier_sample(table_space_no_grid), 1.0)
        want = {(v.x, v.u, v.v, v.y, v.lhs, v.rhs_sum) for v in baseline.violations}
        rng = np.random.default_rng(5)
        for _ in range(3):
            shuffled = dict(obj)
            shuffled["points"] = list(obj["points"])
            rng.shuffle(shuffled["points"])
            space = space_from_dict(shuffled)
            got = check_b_rectangular(carrier_sample(space), 1.0)
            assert {(v.x, v.u, v.v, v.y, v.lhs, v.rhs_sum) for v in got.violations} == want


class TestMinimalCoefficient:
    def test_example_table_full(self, table_space):
        bound = minimal_rectangular_coefficient(carrier_sample(table_space))
        # supremum attained by equally spaced grid quadruples
        assert bound.value == 3.0000000000000004
        assert bound.value <= 3.0 + 1e-9
        assert check_b_rectangular(carrier_sample(table_space), bound.value).passed

    def test_example_table_a_only_matches_oracle(self, table_space_no_grid):
        obj = space_to_dict(table_space_no_grid)
        dist = dict_distance(obj)
        labels = [p["label"] for p in obj["points"]]
        sup, _, _ = oracle_quad_scan(labels, dist, math.inf)
        bound = minimal_rectangular_coefficient(carrier_sample(table_space_no_grid))
        assert bound.value == sup == 0.4 / 0.14
        assert bound.witness.ratio == bound.value

    def test_readme_coefficients(self, table_space, table_space_no_grid):
        # the README: the table alone needs 20/7, the table plus its 11-point grid 3
        bound = minimal_rectangular_coefficient(carrier_sample(table_space_no_grid))
        assert bound.value == 20 / 7
        w = bound.witness
        assert (w.x, w.u, w.v, w.y) == ("1/6", "1/5", "1/4", "1/2")
        assert minimal_rectangular_coefficient(
            carrier_sample(table_space)).value == 3.0000000000000004

    def test_collinear_euclidean_at_most_1(self):
        pts = [(f"p{i}", float(i)) for i in range(5)]
        ov = {
            (f"p{i}", f"p{j}"): abs(i - j) * 1.0
            for i in range(5)
            for j in range(5)
            if i != j
        }
        space = FiniteSpace.build(pts, None, ov)
        bound = minimal_rectangular_coefficient(carrier_sample(space))
        assert bound.value <= 1.0 + 1e-9

    def test_zero_analytic_distance(self):
        # three grid points hold no quadruple; every random one has lhs = rhs = 0
        space = AnalyticSpace.build(1, 2, "0 * (x - y)")
        bound = minimal_rectangular_coefficient(carrier_sample(space, 3))
        assert (bound.value, bound.witness) == (0.0, None)
        assert bound.quadruples_checked > 0

    def test_two_points_undefined(self):
        space = FiniteSpace.build([("a", 0.0), ("b", 1.0)], "(x - y)^2")
        bound = minimal_rectangular_coefficient(carrier_sample(space))
        assert bound.value is None

    def test_piecewise_grid_value(self, piecewise_space):
        # independent numpy oracle over the same grid + seeded quadruples
        g = np.linspace(1.0, 2.0, 40)
        D = np.where(
            g[:, None] >= g[None, :],
            (g[:, None] - g[None, :]) ** 2,
            0.5 * (g[None, :] - g[:, None]) ** 2,
        )
        idx = np.arange(40)
        sup = -math.inf
        for i in range(40):
            rhs = D[i, :][:, None, None] + D[:, :, None] + D[None, :, :]
            lhs = D[i, :][None, None, :]
            adm = (
                (idx[:, None, None] != idx[None, :, None])
                & (idx[:, None, None] != i) & (idx[None, :, None] != i)
                & (idx[:, None, None] != idx[None, None, :])
                & (idx[None, :, None] != idx[None, None, :])
                & (idx[None, None, :] != i)
            )
            with np.errstate(all="ignore"):
                ratio = np.where(adm & (rhs > 0), lhs / rhs, -math.inf)
            sup = max(sup, float(ratio.max()))
        rng = np.random.default_rng(0)
        xs, us, vs, ys = (rng.uniform(1.0, 2.0, 10_000) for _ in range(4))

        def eta(a, b):
            return np.where(a >= b, (a - b) ** 2, 0.5 * (b - a) ** 2)

        rr = eta(xs, us) + eta(us, vs) + eta(vs, ys)
        sup = max(sup, float((eta(xs, ys) / rr).max()))

        bound = minimal_rectangular_coefficient(carrier_sample(piecewise_space))
        assert bound.value == sup == 3.0000000000000004
        # the claimed coefficient 2 is genuinely exceeded on this space
        assert bound.value > 2.0

    def test_consistency_with_checker(self, table_space_no_grid):
        sample = carrier_sample(table_space_no_grid)
        bound = minimal_rectangular_coefficient(sample)
        assert check_b_rectangular(sample, bound.value).passed
        assert not check_b_rectangular(sample, bound.value - 1e-3).passed


class TestClassify:
    def test_example_table_asymmetric(self, table_space):
        result = classify(carrier_sample(table_space))
        assert not result.is_symmetric
        assert ("1/2", "1/3", 0.05, 0.04) in result.asymmetry_witnesses
        assert result.is_quasi_identity
        assert result.is_rqb_at_s  # claimed coefficient 3 holds

    def test_final_table_asymmetric(self):
        result = classify(carrier_sample(build_example_final().space))
        assert not result.is_symmetric
        assert ("1/3", "1/4", 0.1, 0.05) in result.asymmetry_witnesses
        # the claimed coefficient 3 does not actually hold on this table
        assert not result.is_rqb_at_s
        assert result.minimal_s > 3.0

    def test_planar_euclidean_is_metric(self):
        space = random_space(6, 1, "metric")
        result = classify(carrier_sample(space))
        assert result.is_metric
        assert result.is_quasi_identity and result.is_symmetric
        assert result.is_rectangular
        assert result.is_b_metric_at_s and result.is_rqb_at_s

    def test_squared_line_is_a_b_metric_at_2_but_no_metric(self):
        # symmetric; d(0, 2) = 4 > d(0, 1) + d(1, 2) = 2, and 4 <= 2 * 2
        space = FiniteSpace.build([(f"p{i}", float(i)) for i in range(4)], "(x - y)^2")
        sample = carrier_sample(space)
        result = classify(sample, 2.0)
        assert result.is_symmetric and result.is_quasi_identity
        assert not result.is_metric and result.is_b_metric_at_s
        assert result.triangle_witness is None
        assert classify(sample, 1.0).triangle_witness == ("p0", "p1", "p2", 4.0, 2.0)

    def test_metric_implies_weaker_classes(self):
        for seed in range(5):
            result = classify(carrier_sample(random_space(5, seed, "metric")))
            if result.is_metric:
                assert result.is_b_metric_at_s
                assert result.is_rectangular
                assert result.is_rqb_at_s

    def test_rqb_monotone_in_s(self, table_space_no_grid):
        sample = carrier_sample(table_space_no_grid)
        bound = minimal_rectangular_coefficient(sample)
        for bump in (0.0, 0.5, 1.0, 10.0):
            assert check_b_rectangular(sample, bound.value + bump).passed

    def test_analytic_piecewise(self, piecewise_space):
        sample = carrier_sample(piecewise_space)
        result = classify(sample)
        assert result.is_quasi_identity
        assert not result.is_symmetric  # the halved increasing branch
        assert not result.is_rqb_at_s   # the claimed coefficient 2 fails
        assert result.minimal_s == 3.0000000000000004
        assert check_b_rectangular(sample, result.minimal_s).passed

    def test_negative_coefficient_rejected(self, table_space_no_grid):
        for op in (check_b_rectangular, classify):
            with pytest.raises(ValueError, match="s must be >= 0"):
                op(carrier_sample(table_space_no_grid), -1.0)


class TestHierarchyProperty:
    @given(st.integers(min_value=0, max_value=40))
    def test_symmetric_triangle_implies_coefficient_1(self, seed):
        space = random_space(5, seed, "metric")
        D = space.distance_matrix
        assert np.allclose(D, D.T)
        report = check_b_rectangular(carrier_sample(space), 1.0)
        assert report.passed

    @given(st.integers(min_value=0, max_value=40))
    def test_passing_coefficient_bounds_the_minimum(self, seed):
        space = random_space(5, seed, "quasi")
        sample = carrier_sample(space)
        bound = minimal_rectangular_coefficient(sample)
        for s in (bound.value, bound.value + 1.0, 4.0):
            if check_b_rectangular(sample, s).passed:
                assert bound.value <= s + 1e-9


def table_space_of(labels, overrides):
    return FiniteSpace.build([(a, float(i)) for i, a in enumerate(labels)], None, overrides)


class TestQuadrilateralPassOracle:
    # an all-zero table, and one with a single positive entry: every lhs = M = 0
    # entry is skipped, and in the second the positive one sets the supremum
    @example(table=[0] * 16, s=1.0, tol=0.0, unit=1.0, k=5, block=1, floor=0)
    @example(table=[0, 1] + [0] * 14, s=1.0, tol=0.0, unit=1.0, k=5, block=1, floor=0)
    @given(
        st.integers(min_value=3, max_value=7).flatmap(
            lambda n: st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)
        ),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
        st.sampled_from([0.0, 1e-9]),
        st.sampled_from([1.0, 0.1, 1 / 3]),
        st.integers(min_value=0, max_value=5),
        st.sampled_from([1, 100, rqbm.spaces._BLOCK]),
        st.integers(min_value=0, max_value=1),
    )
    def test_order_truncation_and_ties_match_oracle(self, table, s, tol, unit, k, block, floor):
        # small multiples of one unit make ratios tie, rhs vanish and sums round;
        # floor 1 keeps the identity axiom, so classify's verdicts show; small
        # blocks split rows and slices across blocks
        n = math.isqrt(len(table))
        labels = [f"p{i}" for i in range(n)]
        overrides = {
            (a, b): (table[i * n + j] + floor) * unit
            for i, a in enumerate(labels)
            for j, b in enumerate(labels)
            if i != j
        }
        space = table_space_of(labels, overrides)
        dist = lambda a, b: 0.0 if a == b else overrides[(a, b)]  # noqa: E731
        sup, want, first_max = oracle_quad_scan(labels, dist, s, tol)

        sample = carrier_sample(space)
        with mock.patch.object(rqbm.spaces, "_BLOCK", block):
            report = check_b_rectangular(sample, s, tol=tol, max_violations=k)
            every = check_b_rectangular(sample, s, tol=tol, max_violations=None)
            bound = minimal_rectangular_coefficient(sample)
            result = classify(sample, s, tol=tol)
            at_s = check_b_rectangular(sample, s, tol=tol, max_violations=1)
            at_1 = check_b_rectangular(sample, 1.0, tol=tol)
        assert [(v.x, v.u, v.v, v.y) for v in report.violations] == want[:k]
        assert report.violation_count == len(want)
        # the whole list, which spans several rows and, under a small block, several blocks
        assert [(v.x, v.u, v.v, v.y) for v in every.violations] == want
        assert every.violation_count == len(want)

        if sup is None:  # no quadruple, or every one has rhs = lhs = 0: 0, no witness
            assert bound.value == (0.0 if n >= 4 else None) and bound.witness is None
        else:
            assert bound.value == sup
            witness = bound.witness
            assert (witness.x, witness.u, witness.v, witness.y) == first_max

        ok_id = result.identity.passed
        assert result.is_rqb_at_s == (ok_id and at_s.passed)
        assert result.quadrilateral_witness == (at_s.violations[0] if at_s.violations else None)
        assert result.minimal_s == bound.value
        assert result.is_rectangular == (ok_id and result.is_symmetric and at_1.passed)
        tri_s = oracle_triangle(labels, dist, s, tol)
        tri_1 = oracle_triangle(labels, dist, 1.0, tol)
        assert result.triangle_witness == tri_s
        assert result.is_b_metric_at_s == (ok_id and result.is_symmetric and tri_s is None)
        assert result.is_metric == (ok_id and result.is_symmetric and tri_1 is None)

    @given(
        st.integers(min_value=4, max_value=7).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n),
                min_size=1, max_size=4,
            )
        ),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
        st.sampled_from([0.0, 1e-9]),
        st.sampled_from([1.0, 0.1, 1 / 3]),
        st.sampled_from([1, 100, rqbm.spaces._BLOCK]),
    )
    def test_batched_verdicts_match_oracle(self, tables, s, tol, unit, block):
        # a stack of tie-heavy tables; small blocks split tables across blocks
        n = math.isqrt(len(tables[0]))
        labels = [f"p{i}" for i in range(n)]
        raw = np.array(tables, dtype=np.float64).reshape(-1, n, n) * unit
        stack = raw.copy()
        stack[:, range(n), range(n)] = 0.0
        want_quad, want_identity = [], []
        for D, R in zip(stack, raw):
            dist = lambda a, b: D[labels.index(a), labels.index(b)]  # noqa: E731
            want_quad.append(bool(oracle_quad_scan(labels, dist, s, tol)[1]))
            space = table_space_of(labels, {
                (a, b): float(D[i, j]) for i, a in enumerate(labels)
                for j, b in enumerate(labels) if i != j
            })
            report = check_identity_axiom(carrier_sample(space))
            assert (report.zero_off_diagonal, report.nonzero_diagonal) == oracle_identity(labels, D)
            want_identity.append(not report.passed)
            # a raw table keeps its nonzero diagonal, which the lists must name too
            raw_sample = rqbm.spaces.Sample(space, tuple(labels), space.values, R, "exhaustive")
            report = check_identity_axiom(raw_sample)
            assert (report.zero_off_diagonal, report.nonzero_diagonal) == oracle_identity(labels, R)
        with mock.patch.object(rqbm.spaces, "_BLOCK", block):
            assert rqbm.spaces._rectangular_verdicts(stack, s, tol).tolist() == want_quad
        assert rqbm.spaces._identity_verdicts(stack).tolist() == want_identity
        assert rqbm.spaces._identity_verdicts(raw).tolist() == [
            oracle_identity(labels, R) != ((), ()) for R in raw
        ]

    def test_identity_verdict_sees_a_nonzero_diagonal(self):
        stack = np.ones((3, 4, 4))
        stack[:, range(4), range(4)] = 0.0
        stack[1, 2, 2], stack[2, 0, 3] = 0.5, 0.0
        assert rqbm.spaces._identity_verdicts(stack).tolist() == [False, True, True]

    @pytest.mark.parametrize("block", [1, 32, rqbm.spaces._BLOCK])
    def test_triangle_in_the_last_row(self, block):
        # the one triangle violation is d(p3, p0) = 3 > d(p3, p1) + d(p1, p0) = 2
        labels = ["p0", "p1", "p2", "p3"]
        overrides = {(a, b): 1.0 for a in labels for b in labels if a != b}
        overrides[("p3", "p0")] = 3.0
        with mock.patch.object(rqbm.spaces, "_BLOCK", block):
            result = classify(carrier_sample(table_space_of(labels, overrides)), 1.0)
        assert result.triangle_witness == ("p3", "p1", "p0", 3.0, 2.0)

    def test_cheapest_sum_through_y_is_excluded(self):
        # A(p0, u, p2) is cheapest at u = p3; for y = p3 only u = p1 is admissible,
        # so row p0's supremum is 2/3 and the first maximiser lies in row p1
        labels = ["p0", "p1", "p2", "p3"]
        rows = [[0, 2, 3, 1], [2, 0, 1, 3], [2, 2, 0, 0], [1, 3, 0, 0]]
        overrides = {
            (a, b): float(rows[i][j])
            for i, a in enumerate(labels) for j, b in enumerate(labels) if i != j
        }
        space = table_space_of(labels, overrides)
        dist = lambda a, b: 0.0 if a == b else overrides[(a, b)]  # noqa: E731
        sup, _, first_max = oracle_quad_scan(labels, dist, 1.0)
        bound = minimal_rectangular_coefficient(carrier_sample(space))
        assert bound.value == sup == 1.0
        assert (bound.witness.x, bound.witness.u, bound.witness.v, bound.witness.y) == first_max

    def test_zero_lhs_with_zero_and_positive_sums(self):
        # d(p0, p1) = 0, its sum through (p2, p3) is 0 and through (p3, p2) is 1
        labels = ["p0", "p1", "p2", "p3"]
        overrides = {(a, b): 0.0 for a in labels for b in labels if a != b}
        overrides[("p3", "p2")] = 1.0
        space = table_space_of(labels, overrides)
        dist = lambda a, b: 0.0 if a == b else overrides[(a, b)]  # noqa: E731
        sample = carrier_sample(space)
        bound = minimal_rectangular_coefficient(sample)
        for s in (0.0, 1.0, 3.0):
            sup, want, first_max = oracle_quad_scan(labels, dist, s)
            report = check_b_rectangular(sample, s)
            assert report.violation_count == len(want) > 0
            assert [(v.x, v.u, v.v, v.y) for v in report.violations] == want
            assert bound.value == sup == math.inf
            assert (bound.witness.x, bound.witness.u, bound.witness.v, bound.witness.y) == first_max
            assert classify(sample, s).triangle_witness == oracle_triangle(labels, dist, s)

    @example(table=[0] * 16, checks=[(0.0, 0.0)], unit=1.0, block=1, order=[3, 0, 2, 1])
    # row p0 is all 0, so its supremum is 0; its first maximiser (p1, p2, p3)
    # ends at p3, whose cheapest sum, through (p2, p1), is 0 as well
    @example(table=[0, 0, 0, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 0], checks=[(1.0, 0.0)],
             unit=1.0, block=1, order=list(range(8)))
    # only d(p3, p2) is positive: row p0's supremum is 0, through (p3, p2), yet
    # every three-hop minimum of the row is 0
    @example(table=[0] * 14 + [1, 0], checks=[(0.0, 0.0)], unit=1.0, block=1,
             order=list(range(8)))
    @given(
        st.integers(min_value=4, max_value=8).flatmap(
            lambda n: st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n)
        ),
        st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0]),
                           st.sampled_from([0.0, 1e-9])), min_size=1, max_size=2),
        st.sampled_from([1.0, 0.1, 1 / 3]),
        st.sampled_from([1, 100, rqbm.spaces._BLOCK]),
        st.permutations(range(8)),
    )
    def test_row_counts_and_witnesses_match_brute_force(self, table, checks, unit, block, order):
        # per-row violation counts, one call per check, each row's first
        # maximiser and its violations in order, on tie-heavy tables with zeros;
        # rows go in a shuffled order, split across blocks.  The row search reads
        # only the columns the row's three-hop minimum M admits, as
        # ``_violations`` and ``_supremum`` pick them.
        n = math.isqrt(len(table))
        D = np.array(table, dtype=np.float64).reshape(n, n) * unit
        np.fill_diagonal(D, 0.0)
        X = np.array([x for x in order if x < n])
        want = np.zeros((n, len(checks)), dtype=np.int64)
        best, violations = {}, {}
        for x, u, v, y in itertools.permutations(range(n), 4):
            lhs, rhs = D[x, y], D[x, u] + D[u, v] + D[v, y]
            for c, (s, tol) in enumerate(checks):
                want[x, c] += lhs > s * rhs + tol
                if lhs > s * rhs + tol:
                    violations.setdefault((x, c), []).append((u, v, y, lhs, rhs))
            ratio = (math.inf if lhs > 0 else None) if rhs == 0 else lhs / rhs
            if ratio is not None and (x not in best or ratio > best[x][-1]):
                best[x] = (u, v, y, lhs, rhs, ratio)
        search = rqbm.spaces._row_search
        with mock.patch.object(rqbm.spaces, "_BLOCK", block), np.errstate(all="ignore"):
            got = np.stack([rqbm.spaces._violation_counts(D, X, s, tol) for s, tol in checks],
                           axis=1)
            assert got.tolist() == want[X].tolist()
            for x in X.tolist():
                L, M = D[x], rqbm.spaces._three_hop_min(D[None], np.array([x]))[0]
                ratio = rqbm.spaces._ratio(L, M)
                ratio[x] = -math.inf
                sup = ratio.max()
                if x in best:
                    # a positive supremum, the only kind a top row has, is attained
                    # only at the y where L / M attains it.  A row of zeros has
                    # supremum 0 where some sum is positive, which M hides where
                    # it is 0 too (the pass skips lhs = M = 0), and any y may hold it
                    row_sup = best[x][-1]
                    assert sup == row_sup or (row_sup == 0.0 and sup == -math.inf)
                    Y = np.flatnonzero(ratio == sup) if row_sup > 0 else np.delete(np.arange(n), x)
                    hit = lambda a, b: rqbm.spaces._ratio(a, b) == row_sup  # noqa: E731
                    assert search(D, x, Y, hit, 1) == [best[x][:5]]
                else:
                    assert sup == -math.inf
                for c, (s, tol) in enumerate(checks):
                    violates = lambda a, b: a > s * b + tol  # noqa: E731
                    Y = np.flatnonzero(violates(L, M))
                    every = violations.get((x, c), [])
                    if Y.size == 0:  # no y admitted: the pass never searches such a row
                        assert every == []
                        continue
                    assert search(D, x, Y, violates, n**4) == every
                    assert search(D, x, Y, violates, 2) == every[:2]

    @pytest.mark.parametrize("block", [1, rqbm.spaces._BLOCK])
    def test_supremum_ties_take_the_first_quadruple(self, block):
        # the first row attaining the supremum 3/4, p1, attains it at y in
        # {p0, p2}, through (u, v) = (p3, p0), (p3, p4) and (p4, p0); the first
        # in (u, v, y) order wins, which is not the least y
        labels = ["p0", "p1", "p2", "p3", "p4"]
        rows = [[0, 2, 1, 2, 2], [3, 0, 3, 1, 1], [1, 2, 0, 2, 2], [2, 3, 3, 0, 1],
                [2, 3, 3, 2, 0]]
        overrides = {
            (a, b): float(rows[i][j])
            for i, a in enumerate(labels) for j, b in enumerate(labels) if i != j
        }
        dist = lambda a, b: 0.0 if a == b else overrides[(a, b)]  # noqa: E731
        maximisers = [q for q in itertools.permutations(labels, 4)
                      if dist(q[0], q[3]) == 0.75 * sum(dist(*p) for p in zip(q, q[1:]))]
        assert maximisers == [("p1", "p3", "p0", "p2"), ("p1", "p3", "p4", "p0"),
                              ("p1", "p4", "p0", "p2"), ("p3", "p4", "p0", "p2")]
        sup, _, first_max = oracle_quad_scan(labels, dist, 1.0)
        with mock.patch.object(rqbm.spaces, "_BLOCK", block):
            bound = minimal_rectangular_coefficient(
                carrier_sample(table_space_of(labels, overrides)))
        assert bound.value == sup == 0.75
        assert (bound.witness.x, bound.witness.u, bound.witness.v, bound.witness.y) == first_max
        assert first_max == maximisers[0]

    def test_truncated_list_is_prefix_on_grid_then_random(self):
        space = build_example_sqrt().space
        sample, scan = carrier_sample(space, 6), dict(random_samples=300, seed=0)
        full = check_b_rectangular(sample, 1.0, **scan)
        on_grid = sum(1 for v in full.violations if v.x in space.grid(6))
        assert 0 < on_grid < full.violation_count == len(full.violations)
        for k in (1, on_grid, on_grid + 1, full.violation_count + 1):
            cut = check_b_rectangular(sample, 1.0, max_violations=k, **scan)
            assert cut.violations == full.violations[:k]
            assert cut.violation_count == full.violation_count


def coarse(draw, lo, hi):
    """A uniform draw on [lo, hi) floored to the five points lo + (hi - lo) k / 4,
    hi among them: the grid of five points."""
    return lo + (hi - lo) * np.floor(5 * (draw - lo) / (hi - lo)) / 4


class TestRandomPhaseTies:
    """The random phase on draws floored to five values, so that most random
    quadruples repeat a point and the rest tie with grid quadruples, against
    plain loops over the grid's quadruples and then the same draws: only those
    of four distinct points count, and a tie keeps the first maximiser."""

    RANDOM_SAMPLES = 200

    @pytest.fixture(autouse=True)
    def coarse_draws(self, monkeypatch):
        uniform = rqbm._pcg.Streams.uniform
        monkeypatch.setattr(rqbm._pcg.Streams, "uniform",
                            lambda self, lo, hi, count: coarse(uniform(self, lo, hi, count), lo, hi))

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("s", [0.0, 1.0, 2.0])
    @pytest.mark.parametrize("grid", [2, 3, 5])
    @pytest.mark.parametrize("formula", [
        "(x - y)^2",
        # ascending hops are free: rhs = lhs = 0 on every ascending quadruple
        "if(x >= y, x - y, 0)",
        # short ascending hops are free and long ones are not: rhs = 0 < lhs
        "if(y > x, if(y - x > 0.3, 1, 0), x - y)",
    ])
    def test_matches_plain_loops(self, formula, grid, s, seed):
        space = AnalyticSpace.build(1.0, 2.0, formula)
        d = space.distance
        draws = np.random.default_rng(seed).uniform(1.0, 2.0, 4 * self.RANDOM_SAMPLES)
        drawn = [q for q in zip(*coarse(draws, 1.0, 2.0).reshape(4, -1).tolist())
                 if len(set(q)) == 4]
        assert 0 < len(drawn) < self.RANDOM_SAMPLES
        g = space.grid(grid).tolist()
        sup = witness = None
        violations = []
        for x, u, v, y in [*itertools.permutations(g, 4), *drawn]:
            lhs, rhs = d(x, y), d(x, u) + d(u, v) + d(v, y)
            ratio = (math.inf if lhs > 0 else None) if rhs == 0 else lhs / rhs
            if ratio is not None and (sup is None or ratio > sup):
                sup, witness = ratio, (x, u, v, y, lhs, rhs)
            if lhs > s * rhs + DEFAULT_TOL:
                violations.append((x, u, v, y, lhs, rhs))
        scan = dict(random_samples=self.RANDOM_SAMPLES, seed=seed)
        sample = carrier_sample(space, grid)
        report = check_b_rectangular(sample, s, **scan)
        assert report.quadruples_checked == grid * (grid - 1) * (grid - 2) * (grid - 3) + len(drawn)
        assert report.violation_count == len(violations)
        assert [(w.x, w.u, w.v, w.y, w.lhs, w.rhs_sum) for w in report.violations] == violations
        bound = minimal_rectangular_coefficient(sample, **scan)
        assert bound.value == (0.0 if sup is None else sup)
        assert bound.witness is None if witness is None else (
            (bound.witness.x, bound.witness.u, bound.witness.v, bound.witness.y,
             bound.witness.lhs, bound.witness.rhs_sum) == witness)
        result = classify(sample, s, **scan)
        quasi_identity = all(d(a, b) > 0 for a, b in itertools.permutations(g, 2))
        assert result.is_rqb_at_s == (quasi_identity and not violations)
        assert result.minimal_s == bound.value
        first = result.quadrilateral_witness
        assert (first and (first.x, first.u, first.v, first.y, first.lhs, first.rhs_sum)) == (
            violations[0] if violations else None)


def brute_three_hop(tables):
    """M[t, x, y]: the least d(x, u) + d(u, v) + d(v, y) of table t over
    distinct x, u, v, y, summed left to right; inf where no (u, v) is admissible."""
    T, n, _ = tables.shape
    M = np.full(tables.shape, math.inf)
    for t, D in enumerate(tables.tolist()):
        for x, u, v, y in itertools.permutations(range(n), 4):
            M[t, x, y] = min(M[t, x, y], D[x][u] + D[u][v] + D[v][y])
    return M


@st.composite
def three_hop_stacks(draw):
    """T <= 4 tables of n <= 8 points: all zero, tie-heavy small integers in
    one unit, or zero but for one positive entry."""
    n, T = draw(st.sampled_from(range(2, 9))), draw(st.sampled_from(range(1, 5)))
    kind = draw(st.sampled_from(["zero", "ties", "one"]))
    tables = np.zeros((T, n, n))
    if kind == "ties":
        cells = draw(st.lists(st.integers(0, 3), min_size=T * n * n, max_size=T * n * n))
        tables = np.array(cells, dtype=np.float64).reshape(T, n, n)
        tables *= draw(st.sampled_from([1.0, 0.1, 1 / 3]))
    elif kind == "one":
        tables.flat[draw(st.integers(0, T * n * n - 1))] = draw(st.sampled_from([0.5, 1.0, 7.0]))
    return tables


class TestThreeHopTable:
    # three distinct tie-heavy tables of five points: at block 100 each block
    # holds four rows, so two blocks span two tables
    @example(np.arange(75.0).reshape(3, 5, 5) % 4, 100)
    @example(np.arange(75.0).reshape(3, 5, 5) % 4, rqbm.spaces._BLOCK)
    @given(three_hop_stacks(), st.sampled_from([1, 100, rqbm.spaces._BLOCK]))
    def test_matches_brute_force(self, tables, block):
        # blocks of one row, of rows spanning two tables, and of the whole stack
        with mock.patch.object(rqbm.spaces, "_BLOCK", block):
            got = rqbm.spaces._three_hop_table(tables)
        assert got.shape == tables.shape
        assert got.tobytes() == brute_three_hop(tables).tobytes()

    @pytest.mark.parametrize("argv, n", [
        (["verify", "--instance", "example-sqrt"], DEFAULT_GRID_POINTS),
        (["min-s", "--instance", "example-sqrt", "--grid", "80"], 80),
        # checks at 1 and at the claimed s = 2, and the supremum
        (["classify", "--instance", "example-sqrt"], DEFAULT_GRID_POINTS),
    ])
    def test_each_row_is_reduced_once(self, argv, n):
        # the verdicts, the supremum's row and the kept violations' rows all
        # read one table, so the row kernel sees each of the n rows once
        rows, real = [], rqbm.spaces._three_hop_min

        def counted(D, X):
            rows.append(len(X))
            return real(D, X)

        with mock.patch.object(rqbm.spaces, "_three_hop_min", counted), \
                contextlib.redirect_stdout(io.StringIO()):
            rqbm.cli.main(argv)
        assert sum(rows) == n

    @pytest.mark.parametrize("argv, calls", [
        # example-final violates at s = 3 in one row of its 15
        (["verify", "--instance", "example-final", "--s", "3"], 1),
        (["min-s", "--instance", "example-sqrt"], 0),
        (["classify", "--instance", "example-sqrt"], 0),
    ])
    def test_only_verify_counts_violations(self, argv, calls):
        # a verdict needs only the violating rows, so classify and min-s count
        # nothing, and verify counts once, over exactly the rows that violate
        rows, real = [], rqbm.spaces._violation_counts

        def counted(D, X, s, tol):
            rows.append(X.tolist())
            return real(D, X, s, tol)

        with mock.patch.object(rqbm.spaces, "_violation_counts", counted), \
                contextlib.redirect_stdout(io.StringIO()):
            rqbm.cli.main(argv)
        assert len(rows) == calls
        if calls:
            D = carrier_sample(build_example_final().space).table
            n, idx = len(D), np.arange(len(D))
            u, v, y = np.ix_(idx, idx, idx)
            distinct = (u != v) & (u != y) & (v != y)
            want = [x for x in range(n) if (
                (D[x, y] > 3.0 * (D[x, u] + D[u, v] + D[v, y]) + DEFAULT_TOL)
                & distinct & (u != x) & (v != x) & (y != x)).any()]
            assert 0 < len(want) < n
            assert rows == [want]


def space_of_table(D):
    """A finite space whose distance table is D, its points named p0, p1, ..."""
    labels = [f"p{i}" for i in range(len(D))]
    return table_space_of(labels, {(a, b): float(D[i, j]) for i, a in enumerate(labels)
                                   for j, b in enumerate(labels) if i != j})


class TestMetamorphicRelations:
    # relations between scans, at sizes brute force cannot reach
    S = (0.0, 0.5, 1.0, 2.0, 3.0)

    def profile(self, space, grid=DEFAULT_GRID_POINTS, **scan):
        """min-s and the violation count at each s, in increasing s, on one sample."""
        sample = carrier_sample(space, grid)
        counts = [check_b_rectangular(sample, s, max_violations=0, **scan).violation_count
                  for s in self.S]
        return minimal_rectangular_coefficient(sample, **scan).value, counts

    def test_relabeling_transposing_and_growing_s(self):
        sqrt = build_example_sqrt().space
        g = sqrt.grid(120)
        grid_table = sqrt.distance_value(g[:, None], g[None, :])
        rng = np.random.default_rng(7)
        integer = rng.integers(0, 6, (60, 60)).astype(np.float64)
        np.fill_diagonal(integer, 0.0)
        on_grid = self.profile(sqrt, 120, random_samples=0)
        assert self.profile(space_of_table(grid_table)) == on_grid
        for D in (grid_table, integer):
            want = self.profile(space_of_table(D))
            perm = rng.permutation(len(D))
            assert self.profile(space_of_table(D[perm][:, perm])) == want
            assert want[1] == sorted(want[1], reverse=True)  # counts fall as s grows
            assert want[1][0] > want[1][-1]
        # (x, u, v, y) in D is (y, v, u, x) in D.T, its rhs summed in reverse,
        # which is exact on integers
        assert self.profile(space_of_table(integer.T)) == self.profile(space_of_table(integer))


class TestScanMemory:
    # the pass works in blocks; one (n, n, n) float array per x would be 64 MB here
    BOUND_MIB = 8

    @pytest.mark.parametrize("operation", [
        lambda space: minimal_rectangular_coefficient(carrier_sample(space, 200), random_samples=0),
        lambda space: check_b_rectangular(carrier_sample(space, 200), 4.0, random_samples=0),
        # every row violates at s = 2: counts for all 200 rows, witnesses from one
        lambda space: check_b_rectangular(carrier_sample(space, 200), 2.0, random_samples=0,
                                          max_violations=100),
    ], ids=["min-s", "no-violating-row", "violating-rows"])
    def test_grid_200_peak_below_bound(self, operation):
        space = build_example_sqrt().space
        tracemalloc.start()
        try:
            operation(space)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND_MIB * 2**20


class TestSerialization:
    def test_round_trip_table(self, table_space):
        obj = space_to_dict(table_space)
        clone = space_from_dict(json.loads(json.dumps(obj)))
        assert clone.labels == table_space.labels
        assert np.array_equal(clone.distance_matrix, table_space.distance_matrix)

    def test_round_trip_analytic(self, piecewise_space):
        obj = space_to_dict(piecewise_space)
        clone = space_from_dict(json.loads(json.dumps(obj)))
        g = np.linspace(1.0, 2.0, 17)
        a = np.asarray(piecewise_space.distance(g[:, None], g[None, :]))
        b = np.asarray(clone.distance(g[:, None], g[None, :]))
        assert np.array_equal(a, b)

    def test_missing_kind(self):
        with pytest.raises(SpaceFormatError):
            space_from_dict({"points": []})

    def test_bad_point_entry(self):
        with pytest.raises(SpaceFormatError):
            space_from_dict({"kind": "finite", "points": [{"label": "a"}]})

    def test_unknown_kind(self):
        with pytest.raises(SpaceFormatError):
            space_from_dict({"kind": "fuzzy"})


class TestConstructionInvariants:
    def test_negative_override_rejected(self):
        with pytest.raises(SpaceError):
            FiniteSpace.build([("a", 0.0), ("b", 1.0)], None, {("a", "b"): -1.0, ("b", "a"): 1.0})

    def test_nonzero_diagonal_override_rejected(self):
        with pytest.raises(SpaceError):
            FiniteSpace.build([("a", 0.0)], None, {("a", "a"): 2.0})

    def test_duplicate_labels_rejected(self):
        with pytest.raises(SpaceError):
            FiniteSpace.build([("a", 0.0), ("a", 1.0)], "(x - y)^2")

    def test_duplicate_values_rejected(self):
        # a shared value would make label_for_value and map images alias
        with pytest.raises(SpaceError, match="'a' and 'c' share the value 0.5"):
            FiniteSpace.build([("a", 0.5), ("b", 1.0), ("c", 0.5)], "(x - y)^2")

    @pytest.mark.parametrize("points, message", [
        # a non-finite value is refused before a shared label or value
        ([("a", 0.0), ("b", 1.0), ("c", 1.0), ("a", np.inf), ("d", np.nan)],
         "point 'a' has non-finite value"),
        ([("a", 0.0), ("b", 1.0), ("a", 1.0)], "point labels must be unique"),
        ([("a", 0.5), ("b", 1.0), ("c", 0.5), ("d", 1.0)], "points 'a' and 'c' share the value 0.5"),
        ([], "a finite space needs at least one point"),
    ], ids=["non-finite", "duplicate label", "shared value", "empty"])
    def test_carrier_refusals_and_their_order(self, points, message):
        with pytest.raises(SpaceError) as raised:
            FiniteSpace.build(points, "(x - y)^2")
        assert type(raised.value) is SpaceError and str(raised.value) == message

    def test_values_are_the_space_own_read_only_copy(self):
        values = np.array([0.5, 1.0])
        space = FiniteSpace(("a", "b"), values, None, None, {("a", "b"): 1.0}, None)
        values[0] = 2.0
        assert space.values.tolist() == [0.5, 1.0] and space.value_of("a") == 0.5
        assert space.values.dtype == np.float64 and not space.values.flags.writeable
        with pytest.raises(SpaceError, match="a finite space needs one value per label"):
            FiniteSpace(("a", "b"), [0.5], None, None, {}, None)

    def test_override_unknown_label_rejected(self):
        with pytest.raises(UnknownLabelError):
            FiniteSpace.build([("a", 0.0)], None, {("a", "zz"): 1.0})

    def test_analytic_needs_vanishing_diagonal(self):
        with pytest.raises(SpaceError):
            AnalyticSpace.build(0.0, 1.0, "(x - y)^2 + 1")

    def test_claimed_s_below_one_rejected(self):
        with pytest.raises(SpaceError):
            AnalyticSpace.build(0.0, 1.0, "(x - y)^2", claimed_s=0.5)


class TestNanCoefficientRefused:
    # a NaN passes every `x < bound` test, so each bound is written `not x >= bound`
    def test_claimed_coefficient(self):
        with pytest.raises(SpaceError, match="claimed coefficient must be >= 1"):
            FiniteSpace.build([("a", 0.0)], None, claimed_s=math.nan)
        with pytest.raises(SpaceError, match="claimed coefficient must be >= 1"):
            AnalyticSpace.build(0.0, 1.0, "(x - y)^2", claimed_s=math.nan)
        obj = {"kind": "analytic", "domain": {"lo": 0.0, "hi": 1.0},
               "forward": "(x - y)^2", "claimed_s": math.nan}
        with pytest.raises(SpaceError, match="claimed coefficient must be >= 1"):
            space_from_dict(json.loads(json.dumps(obj)))

    @pytest.mark.parametrize("op", [
        lambda space: check_b_rectangular(carrier_sample(space), math.nan),
        lambda space: classify(carrier_sample(space), math.nan),
    ], ids=["check_b_rectangular", "classify"])
    def test_scan_coefficient(self, op):
        with pytest.raises(ValueError, match="coefficient s must be >= 0"):
            op(build_example_2_3().space)
