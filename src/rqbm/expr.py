"""Small arithmetic expression language for distance formulas and self-maps.

Grammar (one grammar everywhere: space files, CLI flags, instance builders)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' factor)?          # right-associative
    primary := NUMBER | VARIABLE | FUNC '(' args ')' | '(' expr ')'

Functions: sqrt, abs, exp, ln (one argument), min, max (two arguments), and
``if(a RELOP b, then, else)`` with RELOP one of < <= > >= == !=.

Unary minus binds looser than '^', so ``-2^2`` is ``-(2^2) = -4``.
Numbers accept decimal and scientific notation.

Evaluation has one contract.  Scalar bindings give a float, evaluate one
branch of a conditional and raise ``EvalError`` at the offending
subexpression.  Array bindings give, element by element, bit for bit the
float that the scalar bindings of that element give, and raise whenever some
element's scalar evaluation raises, naming the first such element.
"""
from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "BinOp",
    "Call",
    "Cond",
    "ExprError",
    "ExprSyntaxError",
    "UnknownVariableError",
    "UnknownFunctionError",
    "ArityError",
    "EvalError",
    "parse",
    "evaluate",
    "to_source",
]


class ExprError(Exception):
    """Base class for all expression errors."""

    def __init__(self, message: str, byte_offset: int | None = None):
        self.byte_offset = byte_offset
        if byte_offset is not None:
            message = f"{message} (at byte {byte_offset})"
        super().__init__(message)


class ExprSyntaxError(ExprError):
    pass


class UnknownVariableError(ExprError):
    pass


class UnknownFunctionError(ExprError):
    pass


class ArityError(ExprError):
    pass


class EvalError(ExprError):
    """Evaluation failure: division by zero, domain error, non-finite result."""


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Cond:
    relop: str  # one of < <= > >= == !=
    lhs: "Expr"
    rhs: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call, Cond]

FUNCTION_ARITY = {"sqrt": 1, "abs": 1, "exp": 1, "ln": 1, "min": 2, "max": 2}


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

# One alternative per token kind, each after optional whitespace.  In str
# patterns \s is str.isspace, \d is str.isdecimal and \w is str.isalnum or
# '_'.  A number that ends in e or E lacks its exponent digits, and a name
# must start with a letter or '_' (\w also takes '²', '½' and 'Ⅻ').
_TOKEN = re.compile(
    r"\s*(?:(?P<op>[-+*/^(),])|(?P<relop>[<>=!]=|[<>])"
    r"|(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE](?:[+-]?\d+)?)?)|(?P<name>\w+))"
)


def _byte_offset(source: str, pos: int) -> int:
    return len(source[:pos].encode("utf-8"))


def _tokens(src: str) -> list[tuple[str, str, int]]:
    """The (kind, text, char pos) tokens of ``src``, then an eof token."""
    tokens = []
    pos, end = 0, len(src.rstrip())
    while pos < end:
        m = _TOKEN.match(src, pos)
        kind = m and m.lastgroup
        start = m.start(kind) if m else len(src) - len(src[pos:].lstrip())
        text = m[kind] if m else src[start]
        if kind == "number" and text[-1] in "eE":
            raise ExprSyntaxError("malformed exponent", _byte_offset(src, m.end() - 1))
        if not kind or kind == "name" and not (text[0].isalpha() or text[0] == "_"):
            raise ExprSyntaxError(f"unexpected character {text[0]!r}", _byte_offset(src, start))
        tokens.append((kind, text, start))
        pos = m.end()
    tokens.append(("eof", "end of input", len(src)))
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

class _Parser:
    def __init__(self, source: str, allowed_vars: frozenset[str]):
        self.source = source
        self.allowed = allowed_vars
        self.tokens = _tokens(source)
        self.index = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        if tok[0] != "eof":
            self.index += 1
        return tok

    def _offset(self, pos: int) -> int:
        return _byte_offset(self.source, pos)

    def _error(self, message: str, pos: int) -> ExprSyntaxError:
        return ExprSyntaxError(message, self._offset(pos))

    def _expect(self, text: str) -> None:
        kind, tok, pos = self.next()
        if tok != text:
            raise self._error(f"expected {text!r}, found {tok}", pos)

    def parse(self) -> Expr:
        node = self.expr()
        kind, tok, pos = self.peek()
        if kind != "eof":
            raise self._error(f"unexpected trailing input {tok!r}", pos)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while True:
            kind, tok, _ = self.peek()
            if kind == "op" and tok in "+-":
                self.next()
                node = BinOp(tok, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.factor()
        while True:
            kind, tok, _ = self.peek()
            if kind == "op" and tok in "*/":
                self.next()
                node = BinOp(tok, node, self.factor())
            else:
                return node

    def factor(self) -> Expr:
        kind, tok, _ = self.peek()
        if kind == "op" and tok == "-":
            self.next()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        node = self.primary()
        kind, tok, _ = self.peek()
        if kind == "op" and tok == "^":
            self.next()
            return BinOp("^", node, self.factor())
        return node

    def primary(self) -> Expr:
        kind, tok, pos = self.next()
        if kind == "number":
            return Num(float(tok))
        if kind == "op" and tok == "(":
            node = self.expr()
            self._expect(")")
            return node
        if kind == "name":
            nxt_kind, nxt_tok, _ = self.peek()
            if nxt_kind == "op" and nxt_tok == "(":
                return self._call(tok, pos)
            if tok not in self.allowed:
                raise UnknownVariableError(
                    f"unknown variable {tok!r} (allowed: "
                    f"{', '.join(sorted(self.allowed)) or 'none'})",
                    self._offset(pos),
                )
            return Var(tok)
        raise self._error(f"unexpected {tok}", pos)

    def _call(self, func: str, pos: int) -> Expr:
        self._expect("(")
        if func == "if":
            cond_lhs = self.expr()
            kind, tok, rpos = self.next()
            if kind != "relop":
                raise self._error(f"expected a relational operator in if(...), found {tok}",
                                  rpos)
            cond_rhs = self.expr()
            self._expect(",")
            then = self.expr()
            self._expect(",")
            orelse = self.expr()
            self._expect(")")
            return Cond(tok, cond_lhs, cond_rhs, then, orelse)
        if func not in FUNCTION_ARITY:
            raise UnknownFunctionError(f"unknown function {func!r}", self._offset(pos))
        args = [self.expr()]
        while self.peek()[:2] == ("op", ","):
            self.next()
            args.append(self.expr())
        self._expect(")")
        expected = FUNCTION_ARITY[func]
        if len(args) != expected:
            raise ArityError(
                f"{func} takes {expected} argument(s), got {len(args)}",
                self._offset(pos),
            )
        return Call(func, tuple(args))


def parse(source: str, allowed_vars: set[str] | frozenset[str]) -> Expr:
    """Parse ``source`` into an AST; only names in ``allowed_vars`` may appear."""
    return _Parser(source, frozenset(allowed_vars)).parse()


# --------------------------------------------------------------------------
# Printer
# --------------------------------------------------------------------------

_LEVEL_SUM, _LEVEL_PROD, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Expr) -> int:
    if isinstance(node, (Num, Var, Call, Cond)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return {"+": _LEVEL_SUM, "-": _LEVEL_SUM, "*": _LEVEL_PROD,
            "/": _LEVEL_PROD, "^": _LEVEL_POWER}[node.op]


def _render(node: Expr, parent_level: int) -> str:
    own = _level(node)
    if isinstance(node, Num):
        text = repr(node.value)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Neg):
        text = "-" + _render(node.operand, _LEVEL_UNARY)
    elif isinstance(node, Call):
        text = f"{node.func}({', '.join(_render(a, 0) for a in node.args)})"
    elif isinstance(node, Cond):
        text = (
            f"if({_render(node.lhs, 0)} {node.relop} {_render(node.rhs, 0)}, "
            f"{_render(node.then, 0)}, {_render(node.orelse, 0)})"
        )
    else:
        if node.op == "^":
            # left operand of '^' must be a primary; exponent may be a factor
            text = f"{_render(node.left, _LEVEL_ATOM)} ^ {_render(node.right, _LEVEL_UNARY)}"
        else:
            # left-associative: the right operand needs one level more binding
            text = (
                f"{_render(node.left, own)} {node.op} "
                f"{_render(node.right, own + 1)}"
            )
    if own < parent_level:
        return f"({text})"
    return text


def to_source(node: Expr) -> str:
    """Render the AST back to source; ``parse(to_source(e))`` is structurally ``e``."""
    return _render(node, 0)


# --------------------------------------------------------------------------
# Evaluator
# --------------------------------------------------------------------------

Value = Union[float, np.ndarray]

_RELOP_FN = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
             ">=": operator.ge, "==": operator.eq, "!=": operator.ne}

# The value operations of both walks; each takes floats or arrays.  min and
# max keep Python's rule on ties (the first argument wins), so the two walks
# agree on the sign of zero too.
_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": np.power,
    "sqrt": np.sqrt,
    "abs": abs,
    "exp": np.exp,
    "ln": np.log,
    "min": lambda a, b: np.where(b < a, b, a),
    "max": lambda a, b: np.where(b > a, b, a),
}

# The scalar walk's domain checks, made before the operation: a reason or None.
_DOMAIN = {
    "/": lambda a, b: "division by zero" if b == 0.0 else None,
    "^": lambda a, b: (
        "fractional power of a negative base" if a < 0.0 and b != np.floor(b)
        else "zero raised to a negative power" if a == 0.0 and b < 0.0
        else None
    ),
    "sqrt": lambda a: "sqrt of a negative value" if a < 0.0 else None,
    "ln": lambda a: "ln of a non-positive value" if a <= 0.0 else None,
}

# operations whose result is finite whenever their arguments are
_TOTAL = frozenset({"abs", "min", "max"})


def _operation(node: BinOp | Call) -> tuple[str, tuple]:
    if isinstance(node, BinOp):
        return node.op, (node.left, node.right)
    return node.func, node.args


def _finite(v, node: Expr) -> float:
    v = float(v)
    if not math.isfinite(v):
        raise EvalError(f"non-finite result in {to_source(node)!r}")
    return v


def _scalar(node: Expr, ctx: Mapping[str, Value]) -> Value:
    """The checked walk: lazy conditionals, every step checked where it happens."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return ctx[node.name]
        except KeyError:
            raise EvalError(f"unbound variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -_scalar(node.operand, ctx)
    if isinstance(node, Cond):
        c = _RELOP_FN[node.relop](_scalar(node.lhs, ctx), _scalar(node.rhs, ctx))
        return _scalar(node.then if c else node.orelse, ctx)
    op, operands = _operation(node)
    args = [_scalar(a, ctx) for a in operands]
    reason = op in _DOMAIN and _DOMAIN[op](*args)
    if reason:
        raise EvalError(f"{reason} in {to_source(node)!r}")
    value = _OPS[op](*args)
    return value if op in _TOTAL else _finite(value, node)


class _Replay(Exception):
    """The array walk cannot vouch for a leaf; the scalar walk decides."""


def _array(node: Expr, ctx: Mapping[str, np.ndarray]) -> Value:
    """The unchecked walk: both branches of a conditional, on whole arrays."""
    if isinstance(node, Num):
        if not math.isfinite(node.value):
            raise _Replay
        return np.float64(node.value)
    if isinstance(node, Var):
        if node.name not in ctx:
            raise _Replay  # harmless if only untaken branches read it
        return ctx[node.name]
    if isinstance(node, Neg):
        return -_array(node.operand, ctx)
    if isinstance(node, Cond):
        c = _RELOP_FN[node.relop](_array(node.lhs, ctx), _array(node.rhs, ctx))
        return np.where(c, _array(node.then, ctx), _array(node.orelse, ctx))
    op, operands = _operation(node)
    return _OPS[op](*[_array(a, ctx) for a in operands])


def evaluate(node: Expr, bindings: Mapping[str, Value]) -> Value:
    """Evaluate the AST under the given variable bindings.

    Scalar bindings give a float, evaluate exactly one branch of a conditional
    and raise :class:`EvalError` at the offending subexpression (unbound
    variable, division by zero, domain error or non-finite result).  With any
    numpy array binding, the result has the arrays' broadcast shape and each
    element is bit for bit what the scalar bindings of that element give; the
    call raises exactly when some element's scalar evaluation raises, with the
    first such element's message (C order) plus `` at sample index (...)``.
    """
    arrays = [v for v in bindings.values() if isinstance(v, np.ndarray) and v.ndim > 0]
    if not arrays:
        with np.errstate(all="ignore"):
            return _finite(_scalar(node, bindings), node)
    shape = np.broadcast(*arrays).shape
    if all(v.size == 1 for v in arrays):  # one element: the scalar walk is the cheaper one
        sample = {k: float(v.ravel()[0]) if isinstance(v, np.ndarray) else float(v)
                  for k, v in bindings.items()}
        try:
            with np.errstate(all="ignore"):
                return np.full(shape, _finite(_scalar(node, sample), node))
        except EvalError as e:
            raise EvalError(f"{e} at sample index {(0,) * len(shape)}") from None
    ctx = {k: np.asarray(v, dtype=np.float64) for k, v in bindings.items()}
    # one unchecked walk; a floating-point event, a non-finite value or an
    # unbound variable sends the elements one by one through the scalar walk
    try:
        if not all(np.isfinite(v).all() for v in ctx.values()):
            raise _Replay
        with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
            out = np.broadcast_to(_array(node, ctx), shape).astype(np.float64)
        if np.isfinite(out).all():
            return out
    except (_Replay, FloatingPointError):
        pass
    full = {k: np.broadcast_to(v, shape) for k, v in ctx.items()}
    out = np.empty(shape)
    with np.errstate(all="ignore"):
        for k in np.ndindex(shape):
            try:
                sample = {name: float(v[k]) for name, v in full.items()}
                out[k] = _finite(_scalar(node, sample), node)
            except EvalError as e:
                raise EvalError(f"{e} at sample index {k}") from None
    return out
