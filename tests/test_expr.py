import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    _tokens,
    evaluate,
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


def _exprs(names=VARS):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(abs).map(Num),
        st.sampled_from(names).map(Var),
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


# -- one evaluation contract -------------------------------------------------

def _per_element(e, bindings, shape):
    """The scalar evaluation of each element of the broadcast ``shape``, in C
    order, or the array call's error message."""
    out = []
    for k in np.ndindex(shape):
        sample = {v: float(np.broadcast_to(b, shape)[k]) if isinstance(b, np.ndarray) else b
                  for v, b in bindings.items()}
        try:
            out.append(evaluate(e, sample))
        except EvalError as err:
            return None, f"{err} at sample index {k}"
    return np.array(out).reshape(shape), None


def assert_array_call_matches_scalar_calls(e, bindings, shape):
    want, error = _per_element(e, bindings, shape)
    if error is not None:
        with pytest.raises(EvalError) as err:
            evaluate(e, bindings)
        assert str(err.value) == error
        return
    got = evaluate(e, bindings)
    assert got.shape == shape
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
    assert_array_call_matches_scalar_calls(e, bindings, (n,))


@settings(max_examples=400)
@given(_exprs(), st.data())
def test_broadcast_call_is_the_scalar_call_per_element(e, data):
    # x down the rows and y along the columns, as a distance table's row block
    # binds them: every element, and the first failing one's (i, j), in C order
    n, m = (data.draw(st.integers(min_value=1, max_value=4)) for _ in range(2))
    x = data.draw(st.lists(_SAMPLES, min_size=n, max_size=n).map(np.array))
    y = data.draw(st.lists(_SAMPLES, min_size=m, max_size=m).map(np.array))
    bindings = {"x": x[:, None], "y": y[None, :], "t": data.draw(_SAMPLES)}
    assert_array_call_matches_scalar_calls(e, bindings, (n, m))


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
        assert_array_call_matches_scalar_calls(parse(source, XY), {"x": np.array(xs)}, (2,))

    def test_broadcast_error_names_its_row_and_column(self):
        x, y = np.array([3.0, 1.0]), np.array([0.0, 2.0, 1.0])
        bindings = {"x": x[:, None], "y": y[None, :]}
        assert_array_call_matches_scalar_calls(parse("sqrt(x - y)", XY), bindings, (2, 3))
        with pytest.raises(EvalError) as err:
            evaluate(parse("sqrt(x - y)", XY), bindings)
        assert str(err.value) == "sqrt of a negative value in 'sqrt(x - y)' at sample index (1, 1)"

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

    @pytest.mark.parametrize("shape", [(1,), (1, 1)])
    @pytest.mark.parametrize("source, x", [
        ("if(x > 0, ln(x), 0)", 0.0),      # the untaken branch fails
        ("min(exp(1000 * x), 1)", 1.0),    # an overflow raises
        ("min(-x, 0)", 0.0),               # ties keep the first argument's sign
        ("max(-x, 0)", 0.0),
        ("1e999 + x", 1.0),                # a non-finite literal
        ("min(1e999, x)", 3.0),
        ("x + 1", math.inf),               # a non-finite binding
        ("if(x > 0, x, y)", -2.0),         # y unbound and read
        ("sqrt(x - 2) + y", 1.0),
        ("x ^ 0.5 / 3", 2.0),
    ])
    def test_one_element_is_the_scalar_call(self, source, x, shape):
        e = parse(source, XY)
        index = (0,) * len(shape)
        try:
            want = evaluate(e, {"x": x})
        except EvalError as err:
            with pytest.raises(EvalError) as got:
                evaluate(e, {"x": np.full(shape, x)})
            assert str(got.value) == f"{err} at sample index {index}"
            return
        for bindings in ({"x": np.full(shape, x)}, {"x": np.full(shape, x), "y": np.ones(1)}):
            got = evaluate(e, bindings)
            assert got.shape == shape and got.dtype == np.float64
            assert got.view(np.int64)[index] == np.float64(want).view(np.int64)

    def test_one_element_takes_the_scalar_walk(self, monkeypatch):
        import rqbm.expr

        def no_array_walk(node, ctx):
            raise AssertionError("array walk on one element")

        monkeypatch.setattr(rqbm.expr, "_array", no_array_walk)
        got = evaluate(parse("3 - x", XY), {"x": np.array([1.25]), "y": 2.0})
        assert got.tolist() == [1.75]

    def test_result_has_the_broadcast_shape(self):
        g = np.linspace(0.0, 1.0, 3)
        out = evaluate(parse("x + 1", XY), {"x": g[:, None], "y": g[None, :]})
        assert out.shape == (3, 3)
        assert np.array_equal(out, np.repeat(g[:, None] + 1, 3, axis=1))


class TestDecimalDigitsOnly:
    # str.isdigit() holds for superscript and circled digits, which float() refuses
    @pytest.mark.parametrize("source", ["²", "x + ²", "1²", "1e²", "①"])
    def test_other_digits_are_syntax_errors(self, source):
        with pytest.raises(ExprSyntaxError, match="unexpected character|malformed exponent"):
            parse(source, XY)

    def test_superscript_message(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("²", XY)
        assert str(err.value) == "unexpected character '²' (at byte 0)"

    def test_decimal_digits_of_other_scripts_still_parse(self):
        assert evaluate(parse("١ + x", XY), {"x": 1.0}) == 2.0


# -- the token pattern against the character loop it replaced -----------------

def reference_tokens(src):
    """The lexer as a loop over characters; its eof token carries the text
    ``end of input``, as the pattern's does."""
    tokens = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^(),":
            tokens.append(("op", c, i))
            i += 1
            continue
        two = src[i : i + 2]
        if two in ("<=", ">=", "==", "!="):
            tokens.append(("relop", two, i))
            i += 2
            continue
        if c in "<>":
            tokens.append(("relop", c, i))
            i += 1
            continue
        if c.isdecimal() or (c == "." and i + 1 < n and src[i + 1].isdecimal()):
            j = i
            while j < n and src[j].isdecimal():
                j += 1
            if j < n and src[j] == ".":
                j += 1
                while j < n and src[j].isdecimal():
                    j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdecimal():
                    j = k
                    while j < n and src[j].isdecimal():
                        j += 1
                else:
                    raise ExprSyntaxError("malformed exponent", len(src[:j].encode()))
            tokens.append(("number", src[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(("name", src[i:j], i))
            i = j
            continue
        raise ExprSyntaxError(f"unexpected character {c!r}", len(src[:i].encode()))
    tokens.append(("eof", "end of input", n))
    return tokens


def _lexed(lexer, src):
    """The token list, or the error's type, message and byte offset."""
    try:
        return lexer(src)
    except ExprSyntaxError as e:
        return type(e), str(e), e.byte_offset


# superscript, vulgar fraction, Roman numeral, Arabic-Indic digit, fraction
# slash and no-break space, beside the characters of the grammar
LEXER_ALPHABET = list("²½Ⅻ١⁄\u00a0eE.+-!=<>_xyéq0159 \t(),*/^")


@settings(max_examples=1000)
@given(st.text(st.sampled_from(LEXER_ALPHABET), max_size=14))
@example("1e+")
@example(".5e")
@example("x ! 2")
@example("x²")
@example("1e²")
@example("2.e-3 <= _a1 ")
def test_token_pattern_matches_the_character_loop(src):
    assert _lexed(_tokens, src) == _lexed(reference_tokens, src)


@pytest.mark.parametrize("cls, predicate", [
    (r"\s", str.isspace),
    (r"\d", str.isdecimal),
    (r"\w", lambda c: c.isalnum() or c == "_"),
])
def test_pattern_class_is_the_str_predicate(cls, predicate):
    # the token pattern's classes stand for these predicates on every code point
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert set(re.findall(cls, every)) ^ set(filter(predicate, every)) == set()
