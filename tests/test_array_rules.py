"""Oracle tests for the array rules of the theta/phi validators and the series
diagnostics, against the per-element loops they replaced, and for the grid
table an analytic space keeps."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rqbm.expr
from rqbm.instances import build_example_sqrt
from rqbm.solver import SeriesDiagnostic, _diag_series
from rqbm.spaces import _points_of, check_b_rectangular, check_identity_axiom
from rqbm.thetaphi import (
    _FIXPOINT_TOL,
    _JUMP_FACTOR,
    _PHI_LIMIT,
    _THETA_LIMIT,
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
    def test_one_evaluation_per_size(self, monkeypatch):
        shapes = []
        evaluate = rqbm.expr.evaluate

        def recording(node, bindings):
            shapes.append(np.broadcast(*bindings.values()).shape)
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", recording)
        space = build_example_sqrt().space
        first = _points_of(space, 5)
        assert _points_of(space, 5)[2] is first[2] and shapes.count((5, 5)) == 1
        assert _points_of(space, 7)[2].shape == (7, 7) and shapes.count((7, 7)) == 1
        again = _points_of(space, 5)  # one size is kept: 5 is evaluated again
        assert shapes.count((5, 5)) == 2 and again[2].tolist() == first[2].tolist()
        for array in again[1:3]:
            with pytest.raises(ValueError):
                array[0] = 0.0

    def test_identity_and_rectangular_checks_share_one_grid(self, monkeypatch):
        space = build_example_sqrt().space
        shapes = []
        evaluate = rqbm.expr.evaluate

        def recording(node, bindings):
            shapes.append(np.broadcast(*bindings.values()).shape)
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", recording)
        check_identity_axiom(space)
        check_b_rectangular(space, 2.0)
        assert [shape for shape in shapes if len(shape) == 2] == [(40, 40)]
