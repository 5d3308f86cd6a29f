"""Symbolic scalar expressions over named coordinate charts.

Every partial derivative taken anywhere in the package bottoms out in the
exact AST derivatives implemented here.  Expressions are immutable trees
over real literals, chart coordinates, the four arithmetic operations,
unary negation, integer powers, and a small set of analytic functions
(sqrt, sin, cos, exp, log).

Simplification is deliberately conservative: constant folding, 0/1
identities, and flattening of nested sums and products.  There is no
canonical polynomial form; callers that need equality of values check it
at sample points.

Every evaluation goes through ``batch_evaluator``: each expression is
compiled once into a numpy kernel over an (m, N) array of points (a single
point is a one-row batch).  Rows the kernel cannot settle in IEEE
arithmetic (a floating-point exception in the batch, or a non-finite
value) are redone one at a time on the exact interpretive
``Expression.evaluate``, whose domain errors name the failing
subexpression.

Every sampled claim ends in one ``Check``: the worst residual over the
points, its witness, and whether it is within tolerance.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "ChartSpace",
    "base_chart",
    "tangent_chart",
    "cotangent_chart",
    "Expression",
    "Num",
    "Coord",
    "Add",
    "Mul",
    "Div",
    "Neg",
    "Pow",
    "Func",
    "FUNCTIONS",
    "make_add",
    "make_mul",
    "make_div",
    "make_neg",
    "make_pow",
    "make_func",
    "simplify",
    "parse_expression",
    "to_source",
    "differentiate",
    "batch_evaluator",
    "validate_on_chart",
    "sample_points",
    "worst_sample",
    "Check",
    "residual_check",
    "ExprError",
    "ExprSyntaxError",
    "UnknownIdentifierError",
    "NonIntegerExponentError",
    "EvaluationDomainError",
    "SamplingError",
]


# ---------------------------------------------------------------------------
# errors
# ---------------------------------------------------------------------------


class ExprError(Exception):
    """Base class for expression-engine errors."""


class ExprSyntaxError(ExprError):
    """Malformed source text; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ExprError):
    """An identifier that is neither a coordinate, parameter, nor function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier '{name}' (at offset {offset})")
        self.name = name
        self.offset = offset


class NonIntegerExponentError(ExprError):
    """Exponent of ``^`` did not reduce to an integer literal."""

    def __init__(self, offset: int):
        super().__init__(f"exponent must be an integer (at offset {offset})")
        self.offset = offset


class EvaluationDomainError(ExprError):
    """IEEE-domain failure during evaluation, carrying the subexpression."""

    def __init__(self, reason: str, subexpression: str):
        super().__init__(f"{reason} in '{subexpression}'")
        self.reason = reason
        self.subexpression = subexpression


class SamplingError(ExprError):
    """Could not draw enough domain-valid sample points."""


# ---------------------------------------------------------------------------
# chart spaces
# ---------------------------------------------------------------------------

CHART_KINDS = ("base", "k-tangent", "k-cotangent")


@dataclass(frozen=True)
class ChartSpace:
    """A named global coordinate chart.

    Coordinates are ordered base first (x_1 .. x_n), then fiber blocks
    grouped by copy index A ascending, base index i ascending within each
    block.  Names follow the grammar x_{i}, v_{A}_{i}, p_{A}_{i} with
    1-based unpadded decimal indices.
    """

    n: int
    k: int
    kind: str
    coordinate_names: tuple[str, ...]

    def __post_init__(self):
        if self.kind not in CHART_KINDS:
            raise ValueError(f"unknown chart kind {self.kind!r}")
        if self.n < 1 or self.k < 1:
            raise ValueError("chart requires n >= 1 and k >= 1")

    @property
    def dimension(self) -> int:
        return len(self.coordinate_names)

    def index_of(self, name: str) -> int:
        try:
            return _name_index_map(self)[name]
        except KeyError:
            raise KeyError(f"no coordinate named '{name}' on this chart") from None

    def has_coordinate(self, name: str) -> bool:
        return name in _name_index_map(self)

    def base_index(self, i: int) -> int:
        """Flat index of x_i (1-based i)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"base index {i} out of range 1..{self.n}")
        return i - 1

    def fiber_index(self, A: int, i: int) -> int:
        """Flat index of the fiber coordinate with copy A and base index i."""
        if self.kind == "base":
            raise ValueError("base charts have no fiber coordinates")
        if not 1 <= A <= self.k:
            raise IndexError(f"copy index {A} out of range 1..{self.k}")
        if not 1 <= i <= self.n:
            raise IndexError(f"base index {i} out of range 1..{self.n}")
        return self.n + (A - 1) * self.n + (i - 1)

    @property
    def fiber_indices(self) -> tuple[int, ...]:
        return tuple(range(self.n, self.dimension))

    def coordinate(self, name: str) -> "Coord":
        return Coord(self.index_of(name), name)


@lru_cache(maxsize=None)
def _name_index_map(chart: ChartSpace) -> dict:
    return {name: i for i, name in enumerate(chart.coordinate_names)}


@lru_cache(maxsize=None)
def base_chart(n: int, k: int = 1) -> ChartSpace:
    names = tuple(f"x_{i}" for i in range(1, n + 1))
    return ChartSpace(n=n, k=k, kind="base", coordinate_names=names)


def _fibered_names(prefix: str, n: int, k: int) -> tuple[str, ...]:
    base = [f"x_{i}" for i in range(1, n + 1)]
    fiber = [f"{prefix}_{A}_{i}" for A in range(1, k + 1) for i in range(1, n + 1)]
    return tuple(base + fiber)


@lru_cache(maxsize=None)
def tangent_chart(n: int, k: int) -> ChartSpace:
    return ChartSpace(n=n, k=k, kind="k-tangent", coordinate_names=_fibered_names("v", n, k))


@lru_cache(maxsize=None)
def cotangent_chart(n: int, k: int) -> ChartSpace:
    return ChartSpace(n=n, k=k, kind="k-cotangent", coordinate_names=_fibered_names("p", n, k))


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Expression:
    """Immutable AST node.  Subclasses are structural value types."""

    __slots__ = ()

    def diff(self, index: int) -> "Expression":
        raise NotImplementedError

    def evaluate(self, point) -> float:
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        return ()

    # arithmetic sugar so geometric code reads like the formulas it implements
    def __add__(self, other):
        return make_add(self, _coerce(other))

    def __radd__(self, other):
        return make_add(_coerce(other), self)

    def __sub__(self, other):
        return make_add(self, make_neg(_coerce(other)))

    def __rsub__(self, other):
        return make_add(_coerce(other), make_neg(self))

    def __mul__(self, other):
        return make_mul(self, _coerce(other))

    def __rmul__(self, other):
        return make_mul(_coerce(other), self)

    def __truediv__(self, other):
        return make_div(self, _coerce(other))

    def __rtruediv__(self, other):
        return make_div(_coerce(other), self)

    def __neg__(self):
        return make_neg(self)

    def __pow__(self, exponent: int):
        return make_pow(self, exponent)

    def __str__(self) -> str:
        return to_source(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_source(self)})"


def _coerce(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float)):
        return Num(float(value))
    raise TypeError(f"cannot use {value!r} in an expression")


class Num(Expression):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def diff(self, index: int) -> Expression:
        return Num(0.0)

    def evaluate(self, point) -> float:
        return self.value

    def __eq__(self, other):
        return type(other) is Num and (
            self.value == other.value or (self.value != self.value and other.value != other.value)
        )

    def __hash__(self):
        return hash((Num, self.value))


class Coord(Expression):
    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str):
        self.index = int(index)
        self.name = name

    def diff(self, index: int) -> Expression:
        return Num(1.0) if index == self.index else Num(0.0)

    def evaluate(self, point) -> float:
        return float(point[self.index])

    def __eq__(self, other):
        return type(other) is Coord and self.index == other.index and self.name == other.name

    def __hash__(self):
        return hash((Coord, self.index, self.name))


class Add(Expression):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expression, ...]):
        self.terms = terms

    def children(self):
        return self.terms

    def diff(self, index: int) -> Expression:
        return make_add(*[t.diff(index) for t in self.terms])

    def evaluate(self, point) -> float:
        total = 0.0
        for t in self.terms:
            total += t.evaluate(point)
        return total

    def __eq__(self, other):
        return type(other) is Add and self.terms == other.terms

    def __hash__(self):
        return hash((Add, self.terms))


class Mul(Expression):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expression, ...]):
        self.factors = factors

    def children(self):
        return self.factors

    def diff(self, index: int) -> Expression:
        terms = []
        for pos, factor in enumerate(self.factors):
            dfactor = factor.diff(index)
            rest = list(self.factors)
            rest[pos] = dfactor
            terms.append(make_mul(*rest))
        return make_add(*terms)

    def evaluate(self, point) -> float:
        total = 1.0
        for f in self.factors:
            total *= f.evaluate(point)
        return total

    def __eq__(self, other):
        return type(other) is Mul and self.factors == other.factors

    def __hash__(self):
        return hash((Mul, self.factors))


class Div(Expression):
    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Expression, denominator: Expression):
        self.numerator = numerator
        self.denominator = denominator

    def children(self):
        return (self.numerator, self.denominator)

    def diff(self, index: int) -> Expression:
        u, v = self.numerator, self.denominator
        du, dv = u.diff(index), v.diff(index)
        num = make_add(make_mul(du, v), make_neg(make_mul(u, dv)))
        return make_div(num, make_pow(v, 2))

    def evaluate(self, point) -> float:
        den = self.denominator.evaluate(point)
        if den == 0.0:
            raise EvaluationDomainError("division by zero", to_source(self))
        return self.numerator.evaluate(point) / den

    def __eq__(self, other):
        return (
            type(other) is Div
            and self.numerator == other.numerator
            and self.denominator == other.denominator
        )

    def __hash__(self):
        return hash((Div, self.numerator, self.denominator))


class Neg(Expression):
    __slots__ = ("arg",)

    def __init__(self, arg: Expression):
        self.arg = arg

    def children(self):
        return (self.arg,)

    def diff(self, index: int) -> Expression:
        return make_neg(self.arg.diff(index))

    def evaluate(self, point) -> float:
        return -self.arg.evaluate(point)

    def __eq__(self, other):
        return type(other) is Neg and self.arg == other.arg

    def __hash__(self):
        return hash((Neg, self.arg))


class Pow(Expression):
    """Integer power.  The exponent is data, not a child expression."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expression, exponent: int):
        self.base = base
        self.exponent = int(exponent)

    def children(self):
        return (self.base,)

    def diff(self, index: int) -> Expression:
        dbase = self.base.diff(index)
        return make_mul(Num(float(self.exponent)), make_pow(self.base, self.exponent - 1), dbase)

    def evaluate(self, point) -> float:
        base = self.base.evaluate(point)
        try:
            return base**self.exponent
        except ZeroDivisionError:
            raise EvaluationDomainError("division by zero", to_source(self)) from None
        except OverflowError:
            sign = 1.0 if (base > 0 or self.exponent % 2 == 0) else -1.0
            return sign * math.inf

    def __eq__(self, other):
        return type(other) is Pow and self.exponent == other.exponent and self.base == other.base

    def __hash__(self):
        return hash((Pow, self.base, self.exponent))


FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")

_FUNC_IMPL: dict[str, Callable[[float], float]] = {
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
}


class Func(Expression):
    __slots__ = ("name", "arg")

    def __init__(self, name: str, arg: Expression):
        if name not in _FUNC_IMPL:
            raise ValueError(f"unknown function '{name}'")
        self.name = name
        self.arg = arg

    def children(self):
        return (self.arg,)

    def diff(self, index: int) -> Expression:
        u = self.arg
        du = u.diff(index)
        if self.name == "sqrt":
            return make_div(du, make_mul(Num(2.0), make_func("sqrt", u)))
        if self.name == "sin":
            return make_mul(make_func("cos", u), du)
        if self.name == "cos":
            return make_neg(make_mul(make_func("sin", u), du))
        if self.name == "exp":
            return make_mul(make_func("exp", u), du)
        return make_div(du, u)  # log

    def evaluate(self, point) -> float:
        value = self.arg.evaluate(point)
        if self.name == "sqrt" and value < 0.0:
            raise EvaluationDomainError("square root of a negative number", to_source(self))
        if self.name == "log" and value <= 0.0:
            raise EvaluationDomainError("logarithm of a non-positive number", to_source(self))
        try:
            return _FUNC_IMPL[self.name](value)
        except OverflowError:
            return math.inf
        except ValueError:  # sin and cos of an infinite argument
            raise EvaluationDomainError(
                f"{self.name} of an infinite number", to_source(self)
            ) from None

    def __eq__(self, other):
        return type(other) is Func and self.name == other.name and self.arg == other.arg

    def __hash__(self):
        return hash((Func, self.name, self.arg))


# ---------------------------------------------------------------------------
# smart constructors (the conservative simplifier)
# ---------------------------------------------------------------------------


def make_add(*terms: Expression) -> Expression:
    flat: list[Expression] = []
    constant = 0.0
    for term in terms:
        if isinstance(term, Add):
            for sub in term.terms:
                if isinstance(sub, Num):
                    constant += sub.value
                else:
                    flat.append(sub)
        elif isinstance(term, Num):
            constant += term.value
        else:
            flat.append(term)
    if constant != 0.0:
        flat.insert(0, Num(constant))
    if not flat:
        return Num(0.0)
    if len(flat) == 1:
        return flat[0]
    return Add(tuple(flat))


def make_mul(*factors: Expression) -> Expression:
    flat: list[Expression] = []
    constant = 1.0
    for factor in factors:
        if isinstance(factor, Mul):
            for sub in factor.factors:
                if isinstance(sub, Num):
                    constant *= sub.value
                else:
                    flat.append(sub)
        elif isinstance(factor, Num):
            constant *= factor.value
        else:
            flat.append(factor)
    if constant == 0.0:
        return Num(0.0)
    if constant != 1.0:
        flat.insert(0, Num(constant))
    if not flat:
        return Num(1.0)
    if len(flat) == 1:
        return flat[0]
    return Mul(tuple(flat))


def make_neg(arg: Expression) -> Expression:
    if isinstance(arg, Num):
        return Num(-arg.value)
    if isinstance(arg, Neg):
        return arg.arg
    return Neg(arg)


def make_div(numerator: Expression, denominator: Expression) -> Expression:
    if isinstance(denominator, Num):
        if denominator.value == 1.0:
            return numerator
        if isinstance(numerator, Num) and denominator.value != 0.0:
            return Num(numerator.value / denominator.value)
    if isinstance(numerator, Num) and numerator.value == 0.0:
        return Num(0.0)
    return Div(numerator, denominator)


def make_pow(base: Expression, exponent: int) -> Expression:
    exponent = int(exponent)
    if exponent == 0:
        return Num(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Num):
        if not (base.value == 0.0 and exponent < 0):
            try:
                return Num(base.value**exponent)
            except OverflowError:
                pass
    return Pow(base, exponent)


def make_func(name: str, arg: Expression) -> Expression:
    if isinstance(arg, Num):
        try:
            return Num(_FUNC_IMPL[name](arg.value))
        except (ValueError, OverflowError):
            pass  # fold only when in domain; defer errors to evaluation
    return Func(name, arg)


def simplify(e: Expression) -> Expression:
    """Rebuild through the smart constructors.  Idempotent node-for-node."""
    if isinstance(e, (Num, Coord)):
        return e
    if isinstance(e, Add):
        return make_add(*[simplify(t) for t in e.terms])
    if isinstance(e, Mul):
        return make_mul(*[simplify(f) for f in e.factors])
    if isinstance(e, Div):
        return make_div(simplify(e.numerator), simplify(e.denominator))
    if isinstance(e, Neg):
        return make_neg(simplify(e.arg))
    if isinstance(e, Pow):
        return make_pow(simplify(e.base), e.exponent)
    if isinstance(e, Func):
        return make_func(e.name, simplify(e.arg))
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_NEG = 4
_PREC_ATOM = 5


def _prec(e: Expression) -> int:
    if isinstance(e, Num):
        return _PREC_ATOM if e.value >= 0.0 else _PREC_NEG
    if isinstance(e, (Coord, Func)):
        return _PREC_ATOM
    if isinstance(e, Add):
        return _PREC_ADD
    if isinstance(e, (Mul, Div)):
        return _PREC_MUL
    if isinstance(e, Pow):
        return _PREC_POW
    if isinstance(e, Neg):
        return _PREC_NEG
    raise TypeError(f"not an expression: {e!r}")


def _fmt_num(v: float) -> str:
    if math.isfinite(v) and v == math.floor(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def to_source(e: Expression) -> str:
    """Render to text in the input grammar.  Reparsing the result yields a
    structurally identical AST (checked by the round-trip tests)."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Add):
        parts = [_wrap(e.terms[0], _PREC_ADD)]
        for term in e.terms[1:]:
            if isinstance(term, Neg):
                parts.append(" - " + _wrap(term.arg, _PREC_MUL))
            else:
                parts.append(" + " + _wrap(term, _PREC_ADD))
        return "".join(parts)
    if isinstance(e, Mul):
        parts = [_wrap(e.factors[0], _PREC_MUL)]
        for factor in e.factors[1:]:
            if isinstance(factor, Div) or _prec(factor) < _PREC_MUL:
                parts.append(" * (" + to_source(factor) + ")")
            else:
                parts.append(" * " + to_source(factor))
        return "".join(parts)
    if isinstance(e, Div):
        left = _wrap(e.numerator, _PREC_MUL)
        if _prec(e.denominator) <= _PREC_MUL:
            right = "(" + to_source(e.denominator) + ")"
        else:
            right = to_source(e.denominator)
        return left + " / " + right
    if isinstance(e, Neg):
        return "-" + _wrap(e.arg, _PREC_ATOM)
    if isinstance(e, Pow):
        return _wrap(e.base, _PREC_ATOM) + "^" + str(e.exponent)
    if isinstance(e, Func):
        return f"{e.name}({to_source(e.arg)})"
    raise TypeError(f"not an expression: {e!r}")


def _wrap(e: Expression, min_prec: int) -> str:
    text = to_source(e)
    if _prec(e) < min_prec:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'ident' | 'op' | 'end'
    text: str
    offset: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


# binding powers; unary minus binds tighter than the power operator
_BP_ADD = 10
_BP_MUL = 20
_BP_POW = 30
_BP_UNARY = 40

_BINARY_BP = {"+": _BP_ADD, "-": _BP_ADD, "*": _BP_MUL, "/": _BP_MUL, "^": _BP_POW}


class _Parser:
    def __init__(self, tokens: list[_Token], chart: ChartSpace, parameters: dict):
        self.tokens = tokens
        self.pos = 0
        self.chart = chart
        self.parameters = parameters

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        tok = self.advance()
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(f"expected '{text}'", tok.offset)

    def parse(self) -> Expression:
        e = self.parse_expr(0)
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"unexpected token '{tok.text}'", tok.offset)
        return e

    def parse_expr(self, min_bp: int) -> Expression:
        left = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _BINARY_BP:
                break
            bp = _BINARY_BP[tok.text]
            if bp <= min_bp:
                break
            self.advance()
            if tok.text == "^":
                # right-associative; exponent must reduce to an integer literal
                rhs = self.parse_expr(bp - 1)
                if not isinstance(rhs, Num) or rhs.value != math.floor(rhs.value):
                    raise NonIntegerExponentError(tok.offset)
                left = make_pow(left, int(rhs.value))
            elif tok.text == "+":
                left = make_add(left, self.parse_expr(bp))
            elif tok.text == "-":
                left = make_add(left, make_neg(self.parse_expr(bp)))
            elif tok.text == "*":
                left = make_mul(left, self.parse_expr(bp))
            else:
                left = make_div(left, self.parse_expr(bp))
        return left

    def parse_prefix(self) -> Expression:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text))
        if tok.kind == "op" and tok.text == "-":
            return make_neg(self.parse_expr(_BP_UNARY))
        if tok.kind == "op" and tok.text == "(":
            inner = self.parse_expr(0)
            self.expect(")")
            return inner
        if tok.kind == "ident":
            nxt = self.peek()
            if nxt.kind == "op" and nxt.text == "(":
                if tok.text not in _FUNC_IMPL:
                    raise UnknownIdentifierError(tok.text, tok.offset)
                self.advance()
                arg = self.parse_expr(0)
                self.expect(")")
                return make_func(tok.text, arg)
            if self.chart.has_coordinate(tok.text):
                return self.chart.coordinate(tok.text)
            if tok.text in self.parameters:
                return Num(float(self.parameters[tok.text]))
            raise UnknownIdentifierError(tok.text, tok.offset)
        raise ExprSyntaxError(f"unexpected token '{tok.text or '<end>'}'", tok.offset)


def parse_expression(source: str, chart: ChartSpace, parameters: dict | None = None) -> Expression:
    """Parse source text into an AST bound to ``chart``.

    Parameters are substituted as literal values at parse time.  Precedence,
    tightest first: unary minus, ``^`` (right-associative, integer exponents
    only), ``*`` and ``/``, then ``+`` and ``-``; binary operators of equal
    precedence associate left.
    """
    if not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(source), chart, parameters or {})
    return parser.parse()


# ---------------------------------------------------------------------------
# free-function API and chart validation
# ---------------------------------------------------------------------------


def differentiate(e: Expression, coordinate: str | int, chart: ChartSpace | None = None) -> Expression:
    """Exact partial derivative with respect to a chart coordinate."""
    if isinstance(coordinate, str):
        if chart is None:
            raise ValueError("differentiating by name requires the chart")
        coordinate = chart.index_of(coordinate)
    return e.diff(coordinate)


def validate_on_chart(e: Expression, chart: ChartSpace) -> None:
    """Check that each coordinate reference matches the chart by index and name."""
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Coord):
            names = chart.coordinate_names
            if not (0 <= node.index < len(names)) or names[node.index] != node.name:
                raise ValueError(
                    f"coordinate {node.name!r} (slot {node.index}) does not belong to the chart"
                )
        stack.extend(node.children())


# ---------------------------------------------------------------------------
# compiled evaluation: numpy kernels over point arrays
# ---------------------------------------------------------------------------

_NUMPY_IMPL = {name: getattr(np, name) for name in FUNCTIONS}

# distinct expressions kept compiled; one command on a bundled model compiles
# fewer than ten
COMPILE_CACHE_SIZE = 1024


def _compile(e: Expression) -> Callable:
    """``lambda P: <e>`` over numpy's functions.  Literals are bound by name
    in its namespace, so inf and nan need no spelling."""
    namespace = {**_NUMPY_IMPL, "__builtins__": {}}

    def source(e: Expression) -> str:
        if isinstance(e, Num):
            name = f"c{len(namespace)}"
            namespace[name] = e.value
            return name
        if isinstance(e, Coord):
            return f"P[{e.index}]"
        if isinstance(e, Add):
            return "(" + " + ".join(source(t) for t in e.terms) + ")"
        if isinstance(e, Mul):
            return "(" + " * ".join(source(f) for f in e.factors) + ")"
        if isinstance(e, Div):
            return f"({source(e.numerator)} / {source(e.denominator)})"
        if isinstance(e, Neg):
            return f"(-{source(e.arg)})"
        if isinstance(e, Pow):
            return f"({source(e.base)})**({e.exponent})"
        if isinstance(e, Func):
            return f"{e.name}({source(e.arg)})"
        raise TypeError(f"not an expression: {e!r}")

    return eval("lambda P: " + source(e), namespace)


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def batch_evaluator(e: Expression) -> Callable:
    """Compile to a numpy kernel mapping an (m, N) point array to m values.

    The batch raises on division by zero, invalid operations and overflow
    (an infinite intermediate divides by zero without a flag).  Then every
    row is redone by ``Expression.evaluate``; otherwise only the non-finite
    rows are.  So a finite value agrees with it to round-off, any other is
    its value, and the first bad row raises its ``EvaluationDomainError``,
    or gives NaN with ``strict=False``.
    """
    fast = _compile(e)

    def kernel(points, strict: bool = True, _fast=fast, _e=e) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        m = len(points)
        if not m:
            return np.zeros(0)
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                values = np.full(m, _fast(points.T))
            redo = np.flatnonzero(~np.isfinite(values))
        except ArithmeticError:  # numpy's FloatingPointError, or Python's on literals
            values, redo = np.empty(m), range(m)
        for i in redo:
            try:
                values[i] = _e.evaluate(points[i])
            except EvaluationDomainError:
                if strict:
                    raise
                values[i] = math.nan
        return values

    return kernel


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------


def sample_points(
    chart: ChartSpace,
    count: int = 64,
    seed: int = 42,
    halfwidth: float = 1.0,
    require: Iterable = (),
) -> np.ndarray:
    """Draw ``count`` points uniformly from [-halfwidth, halfwidth]^N.

    ``require`` holds expressions (or scalar fields, standing for their
    expressions).  Points where any of them is non-finite or hits an
    evaluation domain error are discarded and redrawn, up to a 10x
    oversampling budget; the first valid points are kept in draw order.
    """
    rng = np.random.default_rng(seed)
    kernels = [batch_evaluator(getattr(item, "expr", item)) for item in require]

    accepted = np.empty((0, chart.dimension))
    drawn = 0
    budget = 10 * count
    while len(accepted) < count:
        if drawn >= budget:
            raise SamplingError(
                f"could not draw {count} valid points within {budget} attempts"
            )
        batch = min(count, budget - drawn)
        pts = rng.uniform(-halfwidth, halfwidth, size=(batch, chart.dimension))
        drawn += batch
        valid = np.ones(batch, dtype=bool)
        for kernel in kernels:
            valid &= np.isfinite(kernel(pts, strict=False))
        accepted = np.concatenate([accepted, pts[valid][: count - len(accepted)]])
    return accepted


def worst_sample(residuals) -> tuple[float, int]:
    """The largest residual and the index of its first occurrence; (0.0, 0)
    for none.  NaN counts as largest (``np.argmax`` stops at the first), so a
    NaN sample never passes a check written as ``worst <= tolerance``."""
    if not len(residuals):
        return 0.0, 0
    at = int(np.argmax(residuals))
    return float(residuals[at]), at


@dataclass(frozen=True, eq=False)
class Check:
    """The verdict on one claim: its worst residual against a tolerance, the
    point where it occurs, and the extra report entries, as printed."""

    kind: str
    holds: bool
    max_residual: float
    tolerance: float
    witness: np.ndarray
    extra: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "witness", np.asarray(self.witness, dtype=float))


def residual_check(kind: str, residuals, points, tolerance: float, **extra) -> Check:
    """Holds iff the worst of the per-point ``residuals`` is within
    ``tolerance`` (never on NaN); the witness is that point."""
    top, at = worst_sample(residuals)
    witness = points[at] if len(residuals) else ()
    return Check(kind, top <= tolerance, top, tolerance, witness, extra)
