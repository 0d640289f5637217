import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rqbm.expr import (
    ArityError,
    BinOp,
    Call,
    Cond,
    EvalError,
    ExprSyntaxError,
    Neg,
    Num,
    UnknownFunctionError,
    UnknownVariableError,
    Var,
    evaluate,
    free_variables,
    parse,
    to_source,
)

XY = {"x", "y"}
T = {"t"}


class TestPrecedence:
    # frozen grammar vectors, hand-evaluated
    def test_sum_binds_looser_than_product(self):
        assert evaluate(parse("1+2*3", set()), {}) == 7.0

    def test_parens_override(self):
        assert evaluate(parse("(1+2)*3", set()), {}) == 9.0

    def test_unary_minus_binds_looser_than_power(self):
        assert evaluate(parse("-2^2", set()), {}) == -4.0

    def test_power_right_associative(self):
        assert evaluate(parse("2^3^2", set()), {}) == 512.0

    def test_negative_exponent(self):
        assert evaluate(parse("2^-3", set()), {}) == 0.125

    def test_division_left_associative(self):
        assert evaluate(parse("8/4/2", set()), {}) == 1.0

    def test_subtraction_left_associative(self):
        assert evaluate(parse("10-3-2", set()), {}) == 5.0

    def test_scientific_notation(self):
        assert evaluate(parse("1e-3 + 2.5E2", set()), {}) == 250.001
        assert evaluate(parse(".5 * 4", set()), {}) == 2.0


class TestPiecewise:
    def test_piecewise_distance_branches(self):
        e = parse("if(x >= y, (x-y)^2, 0.5*(y-x)^2)", XY)
        assert evaluate(e, {"x": 2.0, "y": 1.0}) == 1.0
        assert evaluate(e, {"x": 1.0, "y": 2.0}) == 0.5

    def test_piecewise_boundary_is_zero(self):
        e = parse("if(x >= y, (x-y)^2, 0.5*(y-x)^2)", XY)
        for v in (1.0, 1.37, 2.0):
            assert evaluate(e, {"x": v, "y": v}) == 0.0

    def test_exactly_one_branch_evaluated(self):
        # the untaken branch would divide by zero
        e = parse("if(x > 0, x, 1/x)", {"x"})
        assert evaluate(e, {"x": 2.0}) == 2.0
        with pytest.raises(EvalError):
            evaluate(e, {"x": 0.0})


class TestEvaluation:
    def test_squared_difference(self):
        e = parse("(x - y)^2", XY)
        got = evaluate(e, {"x": 0.5, "y": 1 / 3})
        assert got == (0.5 - 1 / 3) ** 2
        assert abs(got - 0.0277777777) < 1e-8

    def test_sqrt_identity(self):
        assert evaluate(parse("sqrt(x)", {"x"}), {"x": 1.0}) == 1.0

    def test_exp_sqrt_at_zero(self):
        assert evaluate(parse("exp(sqrt(t))", T), {"t": 0.0}) == 1.0

    def test_min_max(self):
        e = parse("min(x, y) + max(x, y)", XY)
        assert evaluate(e, {"x": 3.0, "y": 5.0}) == 8.0

    def test_abs_ln(self):
        assert evaluate(parse("abs(0 - x)", {"x"}), {"x": 4.0}) == 4.0
        assert evaluate(parse("ln(t)", T), {"t": math.e}) == 1.0

    def test_determinism(self):
        e = parse("exp(sqrt(t)) / (t + 1)", T)
        assert evaluate(e, {"t": 0.37}) == evaluate(e, {"t": 0.37})


class TestParseErrors:
    def test_incomplete_expression_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("x + ", {"x"})
        assert err.value.byte_offset == 4

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariableError):
            parse("x + q", {"x"})

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            parse("sin(x)", {"x"})

    def test_arity_mismatch(self):
        with pytest.raises(ArityError):
            parse("sqrt(1, 2)", set())
        with pytest.raises(ArityError):
            parse("min(1)", set())

    def test_if_needs_relational_condition(self):
        with pytest.raises(ExprSyntaxError):
            parse("if(x, 1, 2)", {"x"})

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse("1 2", set())

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse("(1 + 2", set())

    def test_bad_character(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("1 # 2", set())
        assert err.value.byte_offset == 2


class TestEvalErrors:
    def test_division_by_zero(self):
        with pytest.raises(EvalError):
            evaluate(parse("x / y", XY), {"x": 1.0, "y": 0.0})

    def test_sqrt_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("sqrt(0 - x)", {"x"}), {"x": 1.0})

    def test_ln_nonpositive(self):
        with pytest.raises(EvalError):
            evaluate(parse("ln(t)", T), {"t": 0.0})

    def test_overflow_is_nonfinite(self):
        with pytest.raises(EvalError):
            evaluate(parse("exp(t)", T), {"t": 1e6})

    def test_fractional_power_of_negative(self):
        with pytest.raises(EvalError):
            evaluate(parse("x ^ 0.5", {"x"}), {"x": -2.0})

    def test_unbound_variable(self):
        with pytest.raises(EvalError):
            evaluate(parse("x + y", XY), {"x": 1.0})

    def test_error_names_subexpression(self):
        with pytest.raises(EvalError) as err:
            evaluate(parse("1 + x / y", XY), {"x": 1.0, "y": 0.0})
        assert "x / y" in str(err.value)


class TestArrayEvaluation:
    def test_matches_scalar_loop(self):
        e = parse("if(x >= y, (x-y)^2, 0.5*(y-x)^2)", XY)
        xs = np.linspace(1.0, 2.0, 23)
        ys = np.linspace(2.0, 1.0, 23)
        got = evaluate(e, {"x": xs, "y": ys})
        want = np.array([evaluate(e, {"x": float(a), "y": float(b)}) for a, b in zip(xs, ys)])
        assert np.array_equal(got, want)

    def test_broadcasting(self):
        e = parse("(x - y)^2", XY)
        xs = np.linspace(0.0, 1.0, 5)
        out = evaluate(e, {"x": xs[:, None], "y": xs[None, :]})
        assert out.shape == (5, 5)
        assert np.all(np.diag(out) == 0.0)

    def test_nonfinite_array_raises(self):
        e = parse("1 / x", {"x"})
        with pytest.raises(EvalError):
            evaluate(e, {"x": np.array([1.0, 0.0, 2.0])})


# -- round trip ------------------------------------------------------------

VARS = ("x", "y", "t")


def _exprs():
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(abs).map(Num),
        st.sampled_from(VARS).map(Var),
    )

    def extend(children):
        unary = st.builds(Neg, children)
        binop = st.builds(
            BinOp, st.sampled_from("+-*/^"), children, children
        )
        call1 = st.builds(
            lambda f, a: Call(f, (a,)), st.sampled_from(["sqrt", "abs", "exp", "ln"]), children
        )
        call2 = st.builds(
            lambda f, a, b: Call(f, (a, b)), st.sampled_from(["min", "max"]), children, children
        )
        cond = st.builds(
            Cond, st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
            children, children, children, children,
        )
        return st.one_of(unary, binop, call1, call2, cond)

    return st.recursive(leaves, extend, max_leaves=12)


@given(_exprs())
def test_print_parse_round_trip(e):
    assert parse(to_source(e), set(VARS)) == e


def test_round_trip_fixed_corpus():
    corpus = [
        "if(x >= y, (x-y)^2, 0.5*(y-x)^2)",
        "exp(sqrt(t))",
        "sqrt(t) + 1",
        "(t + 1) / 2",
        "t ^ 0.5",
        "-2^2",
        "2^3^2",
        "-(x + y) * 3",
        "min(x, max(y, 1e-3))",
        "(sqrt(x) + 3) / 4",
    ]
    for src in corpus:
        ast = parse(src, set(VARS))
        assert parse(to_source(ast), set(VARS)) == ast


def test_free_variables():
    e = parse("if(x >= y, t, x)", set(VARS))
    assert free_variables(e) == {"x", "y", "t"}


# -- one evaluation contract -------------------------------------------------

def _per_element(e, bindings, n):
    """The scalar evaluation of each element, or the array call's error message."""
    out = []
    for k in range(n):
        sample = {v: float(b[k]) if isinstance(b, np.ndarray) else b for v, b in bindings.items()}
        try:
            out.append(evaluate(e, sample))
        except EvalError as err:
            return None, f"{err} at sample index ({k},)"
    return np.array(out), None


def assert_array_call_matches_scalar_calls(e, bindings, n):
    want, error = _per_element(e, bindings, n)
    if error is not None:
        with pytest.raises(EvalError) as err:
            evaluate(e, bindings)
        assert str(err.value) == error
        return
    got = evaluate(e, bindings)
    assert got.shape == (n,)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


_SAMPLES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0]),
    st.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)


@settings(max_examples=400)
@given(_exprs(), st.data())
def test_array_call_is_the_scalar_call_per_element(e, data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    column = st.lists(_SAMPLES, min_size=n, max_size=n).map(np.array)
    bindings = {"x": data.draw(column), "y": data.draw(column), "t": data.draw(_SAMPLES)}
    assert_array_call_matches_scalar_calls(e, bindings, n)


class TestArrayContractPins:
    @pytest.mark.parametrize("source, xs", [
        ("if(x > 0, ln(x), 0)", [0.0, 2.0]),       # the untaken branch fails
        ("min(exp(1000 * x), 1)", [0.0, 1.0]),     # a masked overflow
        ("min(0 - x, 0)", [0.0, 1.0]),
        ("min(-x, 0)", [0.0, -1.0]),              # ties keep the first argument
        ("max(-x, 0)", [0.0, 1.0]),
        ("min(1e999, x)", [1.0, 2.0]),             # a non-finite literal
        ("min(1e999 + x, 1)", [1.0, 2.0]),         # ... that fails, then is masked
        ("min(x + 1, 0)", [1.0, math.inf]),        # a non-finite binding
        ("if(x > 0, x, y)", [1.0, 2.0]),           # y unbound, never read
        ("if(x > 0, x, y)", [1.0, -2.0]),          # y unbound and read
        ("if(y > 0, 1, 2)", [1.0, 2.0]),           # y unbound in a condition
    ])
    def test_pinned(self, source, xs):
        assert_array_call_matches_scalar_calls(parse(source, XY), {"x": np.array(xs)}, 2)

    def test_untaken_failing_branch_does_not_raise(self):
        got = evaluate(parse("if(x > 0, ln(x), 0)", {"x"}), {"x": np.array([0.0])})
        assert got.tolist() == [0.0]

    def test_masked_overflow_raises_at_its_element(self):
        with pytest.raises(EvalError) as err:
            evaluate(parse("min(exp(1000 * x), 1)", {"x"}), {"x": np.array([0.0, 1.0])})
        assert str(err.value) == "non-finite result in 'exp(1000.0 * x)' at sample index (1,)"

    def test_sign_of_zero_follows_python_min_and_max(self):
        # on a tie Python's min and max return the first argument
        for source, first in (("min(0 - x, 0)", 0.0), ("min(-x, 0)", -0.0), ("max(-x, 0)", -0.0)):
            e = parse(source, {"x"})
            scalar = evaluate(e, {"x": 0.0})
            got = evaluate(e, {"x": np.array([0.0])})
            assert np.signbit(scalar) == np.signbit(got[0]) == np.signbit(first)

    def test_non_finite_literal(self):
        e = parse("1e999 + x", {"x"})
        with pytest.raises(EvalError) as err:
            evaluate(e, {"x": np.array([1.0, 2.0])})
        assert str(err.value) == "non-finite result in 'inf + x' at sample index (0,)"
        assert evaluate(parse("min(1e999, x)", {"x"}), {"x": np.array([3.0])}).tolist() == [3.0]

    def test_result_has_the_broadcast_shape(self):
        g = np.linspace(0.0, 1.0, 3)
        out = evaluate(parse("x + 1", XY), {"x": g[:, None], "y": g[None, :]})
        assert out.shape == (3, 3)
        assert np.array_equal(out, np.repeat(g[:, None] + 1, 3, axis=1))
