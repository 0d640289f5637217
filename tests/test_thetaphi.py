import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rqbm.expr
from rqbm.expr import EvalError
from rqbm.thetaphi import (
    _median,
    _secant_jumps,
    IterateEscapeError,
    PhiSpec,
    ThetaSpec,
    builtin_phi,
    builtin_theta,
    default_phi_grid,
    default_theta_grid,
    iterate_phi,
    log_grid,
    phi_spec,
    theta_spec,
    validate_phi,
    validate_theta,
)

GRID = list(np.geomspace(1e-6, 10.0, 120))


class TestValidateTheta:
    def test_exp_sqrt_passes(self):
        report = validate_theta(builtin_theta("exp-sqrt"), GRID, 40)
        assert report.passed, report.to_dict()

    def test_sqrt_plus_one_passes(self):
        report = validate_theta(builtin_theta("sqrt-plus-1"), GRID, 40)
        assert report.passed

    def test_exp_passes_on_moderate_grid(self):
        # full default density, capped below the finite range of exp
        report = validate_theta(builtin_theta("exp"), log_grid(1e-6, 10.0), 40)
        assert report.passed

    def test_exp_overflows_on_default_grid(self):
        # the default grid reaches 1e3, past the finite range of exp
        with pytest.raises(EvalError):
            validate_theta(builtin_theta("exp"))

    def test_constant_fails_range_and_monotone(self):
        report = validate_theta(ThetaSpec.from_source("one", "t * 0 + 1"), GRID, 10)
        assert not report.passed
        assert not report.check("range-above-one").passed
        assert not report.check("strictly-increasing").passed
        assert report.check("range-above-one").witnesses

    def test_shifted_identity_fails_limit_only(self):
        # increasing and > 1 everywhere, but the value at 0+ tends to 2
        report = validate_theta(ThetaSpec.from_source("shift", "t + 2"), GRID, 30)
        assert report.check("range-above-one").passed
        assert report.check("strictly-increasing").passed
        assert not report.check("vanishing-limit").passed

    def test_rising_vanishing_sequence_flagged(self):
        # 1 + t, bumped by 0.5 on (0.1, 0.2): along t_n = 1 / 2^n it rises once,
        # from t = 0.25 to t = 0.125, and still ends within the limit of 1
        theta = ThetaSpec.from_source("bump", "1 + t + if(t > 0.1, if(t < 0.2, 0.5, 0), 0)")
        report = validate_theta(theta, [1.0, 2.0], 12)
        check = report.check("vanishing-limit")
        assert check.witnesses == ((0.25, 1.25, 0.125, 1.625),)
        assert check.defect == 0.375

    def test_jump_flagged(self):
        report = validate_theta(
            ThetaSpec.from_source("step", "if(t < 1, 1 + t, 100 + t)"),
            list(np.linspace(0.5, 2.0, 60)),
            10,
        )
        assert not report.check("continuity-proxy").passed

    def test_default_grid_accepted(self):
        report = validate_theta(builtin_theta("exp-sqrt"))
        assert report.passed

    def test_unsorted_grid_rejected(self):
        with pytest.raises(ValueError):
            validate_theta(builtin_theta("exp-sqrt"), [1.0, 0.5])


def reference_secant_jumps(grid, values, factor):
    """Each slope against the median of its own window, one slope at a time."""
    if len(grid) < 4:
        return [], 0.0
    sec = np.abs(np.diff(values)) / np.diff(grid)
    witnesses, worst = [], 0.0
    for i in range(len(sec)):
        med = float(np.median(sec[max(0, i - 5): i + 6]))
        if sec[i] > factor * med:
            witnesses.append((float(grid[i]), float(grid[i + 1]), float(sec[i]), med))
            worst = max(worst, float(sec[i] - factor * med))
    return witnesses, worst


@st.composite
def secant_cases(draw):
    """4 to 40 grid points (every window truncated below 11 slopes), steps and
    increments from small sets so that slopes tie, and one planted jump."""
    n = draw(st.integers(4, 40))
    steps = draw(st.lists(st.sampled_from([0.25, 0.5, 1.0, 3.0]), min_size=n - 1, max_size=n - 1))
    rises = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]), min_size=n - 1,
                          max_size=n - 1))
    rises[draw(st.integers(0, n - 2))] += draw(st.sampled_from([0.0, 7.0, 1e3]))
    grid = np.concatenate([[0.1], 0.1 + np.cumsum(steps)])
    values = np.concatenate([[1.0], 1.0 + np.cumsum(rises)])
    return grid, values, draw(st.sampled_from([1.0, 2.0, 10.0]))


class TestSecantJumps:
    @given(secant_cases())
    def test_matches_the_per_slope_loop(self, case):
        grid, values, factor = case
        # repr tells a float from a numpy scalar and -0.0 from 0.0: bit for bit
        assert repr(_secant_jumps(grid, values, factor)) == repr(
            reference_secant_jumps(grid, values, factor))

    def test_planted_jump_in_a_full_window(self):
        grid = np.arange(1.0, 31.0)
        values = grid.copy()
        values[15:] += 100.0  # slope 101 between points 15 and 16, slope 1 elsewhere
        witnesses, defect = _secant_jumps(grid, values, 10.0)
        assert witnesses == [(15.0, 16.0, 101.0, 1.0)]
        assert defect == 91.0


# ties, signed zeros, sums of two middle entries that overflow, inf and NaN
MEDIAN_VALUES = [-np.inf, -1e308, -1.0, -0.0, 0.0, 0.5, 1.0, 1e308, np.inf, np.nan]


@st.composite
def median_windows(draw):
    """One window (1-D) or up to 4 of them (2-D), 1 to 12 wide."""
    width, rows = draw(st.integers(1, 12)), draw(st.integers(0, 4))
    shape = (width,) if rows == 0 else (rows, width)
    values = draw(st.lists(st.sampled_from(MEDIAN_VALUES), min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    return np.array(values).reshape(shape)


class TestMedian:
    @given(median_windows())
    @example(np.array([1e308, 1e308]))
    @example(np.array([[-np.inf, np.inf], [np.nan, 1.0], [-0.0, -0.0]]))
    @example(np.array([[2.0, 1.0, 2.0, np.nan, 1.0], [0.5, 0.5, 0.5, 0.5, 0.5]]))
    def test_matches_np_median_bit_for_bit(self, w):
        with np.errstate(all="ignore"):  # -inf + inf and 1e308 + 1e308 signal
            got, want = _median(w), np.median(w, axis=-1)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestValidatePhi:
    @pytest.mark.parametrize("name, calls", [("midpoint", 66), ("pow-0.5", 58)])
    def test_iterates_stop_at_the_fixed_point(self, monkeypatch, name, calls):
        # the grid, phi(1), then one call per step up to the first step that
        # returns its input (64 for the midpoint, 56 for the square root), not 256
        count = []
        evaluate = rqbm.expr.evaluate

        def counting(node, bindings):
            count.append(node)
            return evaluate(node, bindings)

        monkeypatch.setattr(rqbm.expr, "evaluate", counting)
        assert validate_phi(builtin_phi(name)).passed
        assert len(count) == calls

    def test_midpoint_passes(self):
        report = validate_phi(builtin_phi("midpoint"))
        assert report.passed, report.to_dict()

    def test_square_root_passes(self):
        report = validate_phi(builtin_phi("pow-0.5"), list(np.linspace(1.0, 10.0, 40)), 60)
        assert report.passed

    @pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
    def test_power_family_passes(self, r):
        report = validate_phi(builtin_phi(f"pow-{r}"))
        assert report.passed

    def test_identity_fails_below_identity(self):
        report = validate_phi(PhiSpec.from_source("id", "t"), list(np.linspace(1.0, 10.0, 10)))
        assert not report.passed
        below = report.check("below-identity")
        assert not below.passed
        assert (2.0, 2.0) in below.witnesses

    def test_decreasing_phi_fails_nondecreasing(self):
        report = validate_phi(PhiSpec.from_source("inv", "1 + 1/t"), [1.0, 2.0, 4.0], 8)
        check = report.check("nondecreasing")
        assert check.witnesses == ((1.0, 2.0, 2.0, 1.5), (2.0, 1.5, 4.0, 1.25))
        assert check.defect == 0.5

    def test_grid_text_holds_plain_floats(self):
        report = validate_phi(builtin_phi("midpoint"))
        assert report.grid_description == "193 points in [1.0, 1000.0], iterate depth 256"

    def test_wrong_value_at_one(self):
        report = validate_phi(PhiSpec.from_source("off", "t / 2 + 1"))
        assert not report.check("fixes-one").passed

    def test_escaping_iterate_raises(self):
        with pytest.raises(IterateEscapeError):
            validate_phi(PhiSpec.from_source("drop", "t - 5"), [6.0, 7.0], 4)


class TestIteratePhi:
    def test_single_step(self):
        assert iterate_phi(builtin_phi("midpoint"), 2.0, 1) == 1.5

    def test_closed_form_powers_of_two(self):
        phi = builtin_phi("midpoint")
        for n in (1, 10, 30):
            assert iterate_phi(phi, 2.0, n) == 1.0 + 2.0 ** -n

    def test_zero_steps(self):
        assert iterate_phi(builtin_phi("midpoint"), 7.5, 0) == 7.5

    def test_one_is_fixed(self):
        for spec in (builtin_phi("midpoint"), builtin_phi("pow-0.5")):
            for n in (0, 1, 5, 50):
                assert iterate_phi(spec, 1.0, n) == 1.0

    def test_below_one_rejected(self):
        with pytest.raises(ValueError):
            iterate_phi(builtin_phi("midpoint"), 0.5, 3)

    def test_escape_raises(self):
        with pytest.raises(IterateEscapeError):
            iterate_phi(PhiSpec.from_source("drop", "t - 5"), 2.0, 1)


class TestIterateProperties:
    @pytest.mark.parametrize("name", ["midpoint", "pow-0.1", "pow-0.5", "pow-0.9"])
    def test_iterates_nonincreasing_and_above_one(self, name):
        spec = builtin_phi(name)
        for t in np.geomspace(1.0, 100.0, 12):
            prev = float(t)
            for n in range(1, 40):
                cur = iterate_phi(spec, float(t), n)
                assert 1.0 <= cur <= prev
                prev = cur

    def test_theta_strictly_increasing_pairwise(self):
        spec = builtin_theta("exp-sqrt")
        grid = np.geomspace(1e-6, 10.0, 50)
        vals = [float(spec(t)) for t in grid]
        for a, b in zip(vals, vals[1:]):
            assert a < b


class TestRegistry:
    def test_builtin_lookup_referentially_transparent(self):
        a = builtin_theta("exp-sqrt")
        b = builtin_theta("exp-sqrt")
        assert a == b and a.source == b.source

    def test_power_phi_lookup(self):
        spec = builtin_phi("pow-0.3")
        assert spec(4.0) == 4.0 ** 0.3

    def test_power_phi_out_of_range(self):
        with pytest.raises(KeyError):
            builtin_phi("pow-1.5")

    def test_unknown_names(self):
        with pytest.raises(KeyError):
            builtin_theta("nope")
        with pytest.raises(KeyError):
            builtin_phi("nope")

    def test_cli_style_resolution(self):
        assert theta_spec("builtin:exp-sqrt").source == "exp(sqrt(t))"
        assert theta_spec("exp(sqrt(t))").name == "exp(sqrt(t))"
        assert phi_spec("builtin:midpoint").source == "(t + 1) / 2"
        assert phi_spec("(t + 1) / 2")(3.0) == 2.0

    def test_default_grids_shape(self):
        tg = default_theta_grid()
        assert tg[0] == 1e-8 and abs(tg[-1] - 1e3) < 1e-9
        pg = default_phi_grid()
        assert pg[0] == 1.0
