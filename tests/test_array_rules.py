"""Oracle tests for the array rules of the theta/phi validators and the series
diagnostics, against the per-element loops they replaced, and for the grid
table an analytic carrier sample evaluates once, for every check that reads it."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rqbm._pcg
import rqbm.cli
import rqbm.expr
from rqbm.contraction import pair_set
from rqbm.instances import build_example_sqrt
from rqbm.solver import SeriesDiagnostic, _diag_series
from rqbm.spaces import (
    DEFAULT_RANDOM_SAMPLES,
    carrier_sample,
    check_b_rectangular,
    classify,
    minimal_rectangular_coefficient,
)
from rqbm.thetaphi import (
    _FIXPOINT_TOL,
    _JUMP_FACTOR,
    _PHI_LIMIT,
    _THETA_LIMIT,
    IterateEscapeError,
    PhiSpec,
    PropertyCheck,
    ValidationReport,
    _phi_iterates,
    _secant_jumps,
    validate_phi,
    validate_theta,
)


class Scripted:
    """A candidate that answers its calls in order from ``script`` and records
    their arguments.  Each implementation gets its own copy."""

    def __init__(self, name, script):
        self.name, self.script, self.calls = name, script, []

    def __call__(self, t):
        out = self.script[len(self.calls)]
        assert np.shape(out) == np.shape(t)
        self.calls.append(np.array(t, dtype=np.float64))
        return out


def reference_validate_theta(spec, grid, vanishing_seq_len):
    """``validate_theta`` as one loop per check."""
    grid = np.asarray(grid, dtype=np.float64)
    vals = np.asarray(spec(grid), dtype=np.float64)

    range_w = [(float(t), float(v)) for t, v in zip(grid, vals) if not v > 1.0]
    range_defect = max((1.0 - v for _, v in range_w), default=0.0)

    inc_w = []
    inc_defect = 0.0
    for i in range(len(grid) - 1):
        if not vals[i + 1] > vals[i]:
            inc_w.append((float(grid[i]), float(vals[i]), float(grid[i + 1]), float(vals[i + 1])))
            inc_defect = max(inc_defect, float(vals[i] - vals[i + 1]))

    t0 = float(grid[0])
    seq_t = [t0 / 2.0 ** n for n in range(1, vanishing_seq_len + 1)]
    seq_v = np.asarray(spec(np.array(seq_t)), dtype=np.float64).tolist()
    lim_w = []
    lim_defect = 0.0
    for i in range(len(seq_v) - 1):
        if seq_v[i + 1] > seq_v[i]:
            lim_w.append((seq_t[i], seq_v[i], seq_t[i + 1], seq_v[i + 1]))
            lim_defect = max(lim_defect, seq_v[i + 1] - seq_v[i])
    final_gap = seq_v[-1] - 1.0
    if not final_gap < _THETA_LIMIT:
        lim_w.append((seq_t[-1], seq_v[-1]))
        lim_defect = max(lim_defect, final_gap - _THETA_LIMIT)

    jump_w, jump_defect = _secant_jumps(grid, vals, _JUMP_FACTOR)

    checks = (
        PropertyCheck("range-above-one", not range_w, tuple(range_w), range_defect),
        PropertyCheck("strictly-increasing", not inc_w, tuple(inc_w), inc_defect),
        PropertyCheck("vanishing-limit", not lim_w, tuple(lim_w), lim_defect),
        PropertyCheck("continuity-proxy", not jump_w, tuple(jump_w), jump_defect),
    )
    desc = f"{len(grid)} points in [{float(grid[0])!r}, {float(grid[-1])!r}], vanishing x{vanishing_seq_len}"
    return ValidationReport(spec.name, desc, checks)


def reference_validate_phi(spec, grid, iterate_depth):
    """``validate_phi`` as one loop per check, and per start for the iterates."""
    grid = np.asarray(grid, dtype=np.float64)
    vals = np.asarray(spec(grid), dtype=np.float64)

    mono_w = []
    mono_defect = 0.0
    for i in range(len(grid) - 1):
        if vals[i + 1] < vals[i]:
            mono_w.append((float(grid[i]), float(vals[i]), float(grid[i + 1]), float(vals[i + 1])))
            mono_defect = max(mono_defect, float(vals[i] - vals[i + 1]))

    at_one = float(spec(1.0))
    fix_w = [] if abs(at_one - 1.0) <= _FIXPOINT_TOL else [(1.0, at_one)]

    below_w = []
    below_defect = 0.0
    for t, v in zip(grid, vals):
        if t > 1.0 and not v < t:
            below_w.append((float(t), float(v)))
            below_defect = max(below_defect, float(v - t))

    rows = np.stack(_phi_iterates(spec, grid, iterate_depth), axis=1)
    iter_w = []
    iter_defect = 0.0
    for t, seq in zip(grid.tolist(), rows.tolist()):
        for i in range(len(seq) - 1):
            if seq[i + 1] > seq[i]:
                iter_w.append((t, i, seq[i], seq[i + 1]))
                iter_defect = max(iter_defect, seq[i + 1] - seq[i])
                break
        gap = seq[-1] - 1.0
        if not gap < _PHI_LIMIT:
            iter_w.append((t, iterate_depth, seq[-1]))
            iter_defect = max(iter_defect, gap - _PHI_LIMIT)

    jump_w, jump_defect = _secant_jumps(grid, vals, _JUMP_FACTOR)

    checks = (
        PropertyCheck("nondecreasing", not mono_w, tuple(mono_w), mono_defect),
        PropertyCheck("fixes-one", not fix_w, tuple(fix_w), abs(at_one - 1.0) if fix_w else 0.0),
        PropertyCheck("below-identity", not below_w, tuple(below_w), below_defect),
        PropertyCheck("iterates-to-one", not iter_w, tuple(iter_w), iter_defect),
        PropertyCheck("continuity-proxy", not jump_w, tuple(jump_w), jump_defect),
    )
    desc = f"{len(grid)} points in [{float(grid[0])!r}, {float(grid[-1])!r}], iterate depth {iterate_depth}"
    return ValidationReport(spec.name, desc, checks)


def reference_diag_series(name, seq, tol):
    first_violation = None
    for i in range(len(seq) - 1):
        prev, nxt = seq[i], seq[i + 1]
        ok = (nxt < prev) if prev > 0.0 else (nxt == 0.0)
        if not ok:
            first_violation = i + 1
            break
    tail = seq[-1] if seq else None
    return SeriesDiagnostic(name, len(seq), first_violation is None, first_violation, tail,
                            tail is not None and tail < tol)


def grids(draw, n, starts):
    steps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]), min_size=n - 1,
                          max_size=n - 1))
    return draw(st.sampled_from(starts)) + np.concatenate([[0.0], np.cumsum(steps)])


# values drawn from small sets, so that neighbours tie and plateaus form;
# -0.0 then 0.0 is a tie whose difference is -0.0
THETA_VALUES = [-0.0, 0.0, 0.5, 1.0, 1.0005, 1.002, 1.5, 2.0, 3.0]
PHI_VALUES = [0.5, 1.0, 1.25, 1.5, 2.0, 3.0, 5.0]
ITERATES = [1.0, 1.0 + 1e-7, 1.0 + 1e-5, 1.5, 2.0]


@st.composite
def theta_cases(draw):
    n = draw(st.integers(1, 12))
    values = draw(st.lists(st.sampled_from(THETA_VALUES), min_size=n, max_size=n))
    depth = draw(st.integers(1, 6))
    seq = draw(st.lists(st.sampled_from(THETA_VALUES[3:]), min_size=depth, max_size=depth))
    return grids(draw, n, [1e-3, 0.1, 1.0]), values, depth, seq


@st.composite
def phi_cases(draw):
    n = draw(st.integers(1, 12))
    values = draw(st.lists(st.sampled_from(PHI_VALUES), min_size=n, max_size=n))
    at_one = draw(st.sampled_from([1.0, 1.0 + 1e-13, 1.0 + 1e-9, 1.5]))
    depth = draw(st.sampled_from([0, 1, 5]))
    steps = draw(st.lists(st.lists(st.sampled_from(ITERATES), min_size=n, max_size=n),
                          min_size=depth, max_size=depth))
    return grids(draw, n, [1.0, 1.5]), values, at_one, steps


def both(validate, reference, grid, script, depth):
    new, old = Scripted("candidate", script), Scripted("candidate", script)
    got, want = validate(new, grid, depth), reference(old, grid, depth)
    assert len(new.calls) == len(old.calls)
    for a, b in zip(new.calls, old.calls):
        assert a.tobytes() == b.tobytes()
    # repr tells a float from a numpy scalar and -0.0 from 0.0: bit for bit
    assert repr(got) == repr(want)
    return got


class TestValidateThetaRules:
    @given(theta_cases())
    @example((np.array([1.0, 2.0]), [-0.0, 0.0], 2, [1.0, 1.0]))
    @example((np.array([1.0, 2.0, 3.0]), [2.0, 1.5, 3.0], 3, [1.5, 2.0, 1.5]))
    @example((np.array([1.0]), [0.5], 1, [1.002]))
    def test_matches_the_loops(self, case):
        grid, values, depth, seq = case
        script = [np.array(values), np.array(seq)]
        both(validate_theta, reference_validate_theta, grid, script, depth)

    def test_signed_zero_tie_has_defect_zero(self):
        report = validate_theta(Scripted("z", [np.array([-0.0, 0.0]), np.array([1.0])]),
                                [1.0, 2.0], 1)
        check = report.check("strictly-increasing")
        assert not check.passed and repr(check.defect) == "0.0"

    @pytest.mark.parametrize("depth", [0, -3])
    def test_bad_depth_refused_before_any_call(self, depth):
        with pytest.raises(ValueError, match=f"^vanishing_seq_len must be >= 1, got {depth}$"):
            validate_theta(Scripted("c", []), [1.0, 2.0], depth)


class TestValidatePhiRules:
    @given(phi_cases())
    # rows rising at the first step and at the last one
    @example((np.array([1.0, 2.0]), [1.0, 1.5], 1.0,
              [[1.5, 1.0]] + [[1.5, 1.0]] * 3 + [[2.0, 1.0 + 1e-5]]))
    @example((np.array([1.5, 2.0, 3.0]), [1.0, 1.0, 1.25], 1.0, []))
    @example((np.array([1.0]), [1.0], 1.5, [[1.0 + 1e-7]]))
    def test_matches_the_loops(self, case):
        grid, values, at_one, steps = case
        script = [np.array(values), at_one, *map(np.array, steps)]
        both(validate_phi, reference_validate_phi, grid, script, len(steps))

    def test_depth_zero(self):
        report = validate_phi(Scripted("c", [np.array([1.0, 1.5]), 1.0]), [1.0, 2.0], 0)
        assert report.check("iterates-to-one").witnesses == ((2.0, 0, 2.0),)

    @pytest.mark.parametrize("depth", [-1, -3])
    def test_negative_depth_refused_before_any_call(self, depth):
        with pytest.raises(ValueError, match=f"^iterate_depth must be >= 0, got {depth}$"):
            validate_phi(Scripted("c", []), [1.0, 2.0], depth)

    def test_first_rise_then_limit_per_start(self):
        steps = [[1.0, 2.0], [1.5, 1.5], [1.0, 2.0]]
        report = both(validate_phi, reference_validate_phi, np.array([1.0, 3.0]),
                      [np.array([1.0, 1.5]), 1.0, *map(np.array, steps)], 3)
        assert report.check("iterates-to-one").witnesses == (
            (1.0, 1, 1.0, 1.5), (3.0, 2, 1.5, 2.0), (3.0, 3, 2.0))


def reference_phi_iterates(spec, t, n):
    """t and n iterates, one call per step whatever the values; the escape
    error names the first start, in order, that escapes on its own."""
    seq = [t]
    for _ in range(n):
        v = spec(seq[-1])
        if np.any(v < 1.0):
            for start in np.ravel(t) if np.ndim(t) else ():
                reference_phi_iterates(spec, float(start), n)
            raise IterateEscapeError(
                f"iterate of {spec.name!r} left [1, inf): phi({seq[-1]!r}) = {v!r}")
        seq.append(v)
    return seq


PHI_ITERATE_FORMULAS = [
    "if(t > 1.25, t - 0.1, t)",  # starts settle at different steps
    "t ^ 0.999",  # no start but 1 settles within the depth
    "2 * t - 1",  # the iterates rise
    "if(t > 1.25, t - 0.3, t)",  # a start in (1.25, 1.3) escapes
]
PHI_STARTS = [1.0, 1.05, 1.25, 1.27, 1.3, 1.57, 2.0, 3.0, 7.5]


class TestPhiIterates:
    @staticmethod
    def outcome(iterates, spec, t, n):
        """Each entry's type and bytes, or the escape error's text."""
        try:
            seq = iterates(spec, t, n)
        except IterateEscapeError as e:
            return str(e)
        return [(type(v), np.asarray(v).tobytes()) for v in seq]

    @given(st.sampled_from(PHI_ITERATE_FORMULAS),
           st.lists(st.sampled_from(PHI_STARTS), min_size=1, max_size=6, unique=True),
           st.integers(0, 80), st.booleans())
    @example(PHI_ITERATE_FORMULAS[0], [1.0, 1.3, 2.0, 3.0], 40, True)  # all settle by step 18
    @example(PHI_ITERATE_FORMULAS[0], [2.0], 40, False)
    @example(PHI_ITERATE_FORMULAS[3], [1.0, 1.57, 2.0], 40, True)
    def test_matches_the_n_step_loop(self, formula, starts, n, as_array):
        spec = PhiSpec.from_source(formula, formula)
        t = np.array(sorted(starts)) if as_array else starts[0]
        assert (self.outcome(_phi_iterates, spec, t, n)
                == self.outcome(reference_phi_iterates, spec, t, n))


def phi_by_start(spec, t, n):
    """The iterates of one ``_phi_iterates`` per float start, as one array per
    step: the first start, in order, that fails on its own raises its error."""
    runs = [_phi_iterates(spec, float(start), n) for start in t]
    return [np.array(step, dtype=np.float64) for step in zip(*runs)]


# Each formula fails at a step that depends on the start: an escape below 1 or
# a domain fault, and the largest starts fail at once on the first one.
PHI_FAILING_FORMULAS = [
    "if(t > 4, sqrt(4.5 - t) + 1, if(t > 1.25, t - 0.3, t))",
    "if(t > 1.5, t - 0.2, if(t > 1.2, sqrt(t - 1.45) + 1, t))",
    "if(t > 6, ln(6 - t), if(t > 1.1, (t + 1) / 2 - 0.05, t))",
    "(t + 1) / 2",
]
PHI_FAILING_STARTS = [1.0, 1.05, 1.27, 1.3, 1.47, 1.6, 2.0, 2.17, 3.0, 4.6, 5.0, 7.0]


class TestPhiFailingStarts:
    @staticmethod
    def outcome(iterates, spec, t, n):
        """Every step's bytes, or the type and text of the error."""
        try:
            return [np.asarray(v, dtype=np.float64).tobytes() for v in iterates(spec, t, n)]
        except (IterateEscapeError, rqbm.expr.EvalError) as e:
            return type(e).__name__, str(e)

    @given(st.sampled_from(PHI_FAILING_FORMULAS),
           st.lists(st.sampled_from(PHI_FAILING_STARTS), min_size=1, max_size=8),
           st.integers(0, 40))
    @example(PHI_FAILING_FORMULAS[0], [2.17, 4.6], 10)  # 4.6 fails at step 1, 2.17 at step 4
    @example(PHI_FAILING_FORMULAS[1], [1.6, 1.3, 1.47], 10)
    def test_matches_the_runs_by_start(self, formula, starts, n):
        spec = PhiSpec.from_source(formula, formula)
        t = np.array(starts)
        assert self.outcome(_phi_iterates, spec, t, n) == self.outcome(phi_by_start, spec, t, n)

    def test_later_start_failing_first(self):
        spec = PhiSpec.from_source("f", PHI_FAILING_FORMULAS[0])
        with pytest.raises(IterateEscapeError) as err:
            _phi_iterates(spec, np.array([2.17, 4.6]), 10)
        assert str(err.value) == (
            "iterate of 'f' left [1, inf): phi(1.2699999999999998) = 0.9699999999999998")


class TestDiagSeriesRule:
    @given(st.lists(st.sampled_from([0.0, 1e-12, 1e-9, 0.25, 0.5, 1.0, 2.0]), max_size=12),
           st.sampled_from([1e-9, 1e-3]))
    @example([], 1e-9)
    @example([1.0, 2.0], 1e-9)
    @example([1.0, 0.5, 0.0, 0.0, 0.25], 1e-9)
    def test_matches_the_loop(self, seq, tol):
        seq = tuple(seq)
        assert repr(_diag_series("s", seq, tol)) == repr(reference_diag_series("s", seq, tol))


class TestAnalyticGridTable:
    @pytest.fixture
    def shapes(self, monkeypatch):
        shapes = []
        evaluate = rqbm.expr.evaluate

        def recording(node, bindings):
            shapes.append(np.broadcast(*bindings.values()).shape)
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", recording)
        return shapes

    def test_each_call_evaluates_its_grid(self, shapes):
        space = build_example_sqrt().space
        first = carrier_sample(space, 5)
        again = carrier_sample(space, 5)  # nothing is kept on the space
        assert shapes.count((5, 5)) == 2 and again.table is not first.table
        assert again.table.tolist() == first.table.tolist() and again.names == first.names
        assert "_sample" not in vars(space)

    def test_classify_evaluates_one_grid(self, shapes):
        classify(carrier_sample(build_example_sqrt().space))
        assert [shape for shape in shapes if len(shape) == 2] == [(40, 40)]

    def test_verify_evaluates_one_grid(self, shapes, capsys):
        # the identity and quadrilateral checks read one carrier sample
        assert rqbm.cli.main(["verify", "--instance", "example-sqrt"]) == 1
        assert [shape for shape in shapes if len(shape) == 2] == [(40, 40)]


class TestOneDrawPerRandomPhase:
    """Each analytic random phase takes its uniforms in one ``Streams.uniform``
    call: the four coordinates of the random quadruples, or the two of the
    random pairs, are one draw's consecutive segments."""

    @pytest.fixture
    def draws(self, monkeypatch):
        draws = []
        uniform = rqbm._pcg.Streams.uniform

        def counting(self, lo, hi, count):
            draws.append((lo, hi, count))
            return uniform(self, lo, hi, count)

        monkeypatch.setattr(rqbm._pcg.Streams, "uniform", counting)
        return draws

    @pytest.mark.parametrize("check", [
        lambda sample: check_b_rectangular(sample, 2.0),
        lambda sample: minimal_rectangular_coefficient(sample),
        lambda sample: classify(sample),
    ], ids=["check_b_rectangular", "minimal_rectangular_coefficient", "classify"])
    def test_the_quadrilateral_pass_draws_once(self, draws, check):
        check(carrier_sample(build_example_sqrt().space))
        assert draws == [(1.0, 2.0, 4 * DEFAULT_RANDOM_SAMPLES)]

    def test_pair_set_draws_once(self, draws):
        bundle = build_example_sqrt()
        pair_set(carrier_sample(bundle.space), bundle.selfmap, 2.0, bundle.theta)
        assert draws == [(1.0, 2.0, 2 * DEFAULT_RANDOM_SAMPLES)]

    @pytest.mark.parametrize("argv, calls", [
        (["classify"], 1), (["verify"], 1), (["min-s"], 1),
        (["contraction", "--best-exponent"], 1), (["solve"], 0),
    ])
    def test_each_command_draws_once_per_random_phase(self, draws, argv, calls, capsys):
        rqbm.cli.main([*argv, "--instance", "example-sqrt"])
        assert len(draws) == calls
