"""Symbolic scalar expressions over named coordinate charts.

Every partial derivative taken anywhere in the package bottoms out in the
exact AST derivatives implemented here.  Expressions are immutable trees,
possibly sharing subtrees, over real literals, chart coordinates, the four
arithmetic operations, unary negation, integer powers, and a small set of
analytic functions (sqrt, sin, cos, exp, log).

Every walk -- printing, differentiating, compiling -- is one iterative
``fold`` that visits each node once, after its children; hashing and
equality do not recurse either.  Only the parser recurses, with its
nesting depth capped.  ``gradient`` is memoized per expression, bounded like
the kernel cache, so each distinct expression is differentiated once.

The smart constructors (``make_*``) are the simplifier, and deliberately
conservative: constant folding, 0/1 identities, and flattening of nested
sums and products.  There is no canonical polynomial form; callers that
need equality of values check it at sample points.

Every evaluation goes through ``field_evaluator``: a tuple of expressions
is built once into one tape of numpy calls, one per structurally unique node
of all of them, walked over an (m, N) array of points (a single point is a
one-row batch) in blocks of at most 8,192 rows.  Rows the tape cannot
settle in IEEE arithmetic are rerun along it with domain tests among its
steps, which name the first subexpression, in scalar evaluation order,
that left its domain.

Sample points are the stream of numpy's ``default_rng(seed).uniform``,
reproduced bit for bit in uint64 arithmetic, so sampling never imports
numpy's random module.  Every sampled claim ends in one ``Check``: the
worst residual over the points, its witness, and whether it is within
tolerance.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from functools import lru_cache, partial
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
    "fold",
    "make_add",
    "make_mul",
    "make_div",
    "make_neg",
    "make_pow",
    "make_func",
    "parse_expression",
    "to_source",
    "gradient",
    "field_evaluator",
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
# records
# ---------------------------------------------------------------------------


class Record:
    """Base of the package's record classes.  Each subclass writes its own
    ``__init__``, whose parameters are the record's fields, in order, and
    which stores them with ``_set``: unlike a dataclass, nothing is generated
    and compiled at import.  ``repr``, ``==`` and ``hash`` read the fields,
    and records of different classes are never equal.  An attribute that
    ``_set`` stores but that is no ``__init__`` parameter is derived from
    the fields, and stays out of ``repr``, ``==`` and ``hash``.  As with a
    dataclass, a subclass may pass ``eq=False`` (identity equality) or
    ``frozen=False`` (assignable, and unhashable unless ``eq=False``); a
    frozen record refuses assignment with AttributeError."""

    def __init_subclass__(cls, eq: bool = True, frozen: bool = True):
        init = cls.__init__.__code__
        cls._fields = init.co_varnames[1:init.co_argcount]
        # the field values as a tuple, since every record has two fields or more
        cls._values = property(operator.attrgetter(*cls._fields))
        if not frozen:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif not frozen:
            cls.__hash__ = None

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


# ---------------------------------------------------------------------------
# chart spaces
# ---------------------------------------------------------------------------

CHART_KINDS = ("base", "k-tangent", "k-cotangent")


class ChartSpace(Record):
    """A global coordinate chart of one kind over n base coordinates, with k
    fiber copies.

    Coordinates are ordered base first (x_1 .. x_n), then fiber blocks
    grouped by copy index A ascending, base index i ascending within each
    block.  The chart derives their names from the grammar x_{i}, v_{A}_{i}
    (k-tangent), p_{A}_{i} (k-cotangent) with 1-based unpadded decimal
    indices; a base chart has no fiber block.
    """

    def __init__(self, n: int, k: int, kind: str):
        if kind not in CHART_KINDS:
            raise ValueError(f"unknown chart kind {kind!r}")
        if n < 1 or k < 1:
            raise ValueError("chart requires n >= 1 and k >= 1")
        names = [f"x_{i}" for i in range(1, n + 1)]
        if kind != "base":
            prefix = "v" if kind == "k-tangent" else "p"
            names += [f"{prefix}_{A}_{i}" for A in range(1, k + 1) for i in range(1, n + 1)]
        self._set(n=n, k=k, kind=kind, coordinate_names=tuple(names))

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

    def coordinate(self, name: str) -> "Coord":
        return Coord(self.index_of(name), name)


@lru_cache(maxsize=None)
def _name_index_map(chart: ChartSpace) -> dict:
    return {name: i for i, name in enumerate(chart.coordinate_names)}


@lru_cache(maxsize=None)
def base_chart(n: int, k: int = 1) -> ChartSpace:
    return ChartSpace(n, k, "base")


@lru_cache(maxsize=None)
def tangent_chart(n: int, k: int) -> ChartSpace:
    return ChartSpace(n, k, "k-tangent")


@lru_cache(maxsize=None)
def cotangent_chart(n: int, k: int) -> ChartSpace:
    return ChartSpace(n, k, "k-cotangent")


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------


class Expression:
    """Immutable AST node.  Subclasses are structural value types; each node
    caches its hash and ``_coords``, the (slot, name) pairs of its ``Coord``
    leaves, at construction, so hashing and chart checks never walk the tree."""

    __slots__ = ("_hash", "_coords")
    _key = ()  # the data beside the children (value, name, exponent)

    def children(self) -> tuple["Expression", ...]:
        return ()

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        # structural, pair by pair without recursion; a pair met twice in a
        # shared DAG is compared once
        pending, seen = [(self, other)], set()
        while pending:
            a, b = pending.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if type(a) is not type(b) or a._hash != b._hash or a._key != b._key:
                return False
            ca, cb = a.children(), b.children()
            if len(ca) != len(cb):
                return False
            seen.add((id(a), id(b)))
            pending.extend(zip(ca, cb))
        return True

    def __str__(self) -> str:
        return to_source(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_source(self)})"


def _union(children: tuple[Expression, ...]) -> frozenset:
    """The union of the children's coordinate sets: a child's own set when that is the union."""
    widest = frozenset()
    for child in children:
        if not child._coords <= widest:
            widest = child._coords if widest <= child._coords else widest | child._coords
    return widest


class Num(Expression):
    __slots__ = ("value", "_key")
    _coords = frozenset()

    def __init__(self, value: float):
        self.value = float(value) + 0.0  # -0.0 is 0.0, as == and printing have it
        self._key = (self.value,) if self.value == self.value else ("nan",)  # NaNs are equal
        self._hash = hash(self._key)


class Coord(Expression):
    __slots__ = ("index", "name", "_key")

    def __init__(self, index: int, name: str):
        self.index = int(index)
        self.name = name
        self._key = (self.index, name)
        self._hash = hash(self._key)
        self._coords = frozenset((self._key,))


class Add(Expression):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple[Expression, ...]):
        self.terms = terms
        self._hash = hash((Add, terms))
        self._coords = _union(terms)

    def children(self):
        return self.terms


class Mul(Expression):
    __slots__ = ("factors",)

    def __init__(self, factors: tuple[Expression, ...]):
        self.factors = factors
        self._hash = hash((Mul, factors))
        self._coords = _union(factors)

    def children(self):
        return self.factors


class Div(Expression):
    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: Expression, denominator: Expression):
        self.numerator = numerator
        self.denominator = denominator
        self._hash = hash((Div, numerator._hash, denominator._hash))
        self._coords = _union((numerator, denominator))

    def children(self):
        return (self.numerator, self.denominator)


class Neg(Expression):
    __slots__ = ("arg",)

    def __init__(self, arg: Expression):
        self.arg = arg
        self._hash = hash((Neg, arg._hash))
        self._coords = arg._coords

    def children(self):
        return (self.arg,)


class Pow(Expression):
    """Integer power.  The exponent is data, not a child expression."""

    __slots__ = ("base", "exponent", "_key")

    def __init__(self, base: Expression, exponent: int):
        self.base = base
        self.exponent = int(exponent)
        self._key = (self.exponent,)
        self._hash = hash((Pow, base._hash, self.exponent))
        self._coords = base._coords

    def children(self):
        return (self.base,)


FUNCTIONS = ("sqrt", "sin", "cos", "exp", "log")  # named alike in math and numpy


class Func(Expression):
    __slots__ = ("name", "arg", "_key")

    def __init__(self, name: str, arg: Expression):
        if name not in FUNCTIONS:
            raise ValueError(f"unknown function '{name}'")
        self.name = name
        self.arg = arg
        self._key = (name,)
        self._hash = hash((Func, name, arg._hash))
        self._coords = arg._coords

    def children(self):
        return (self.arg,)


# ---------------------------------------------------------------------------
# the one walk
# ---------------------------------------------------------------------------


def fold(root: Expression, rule: Callable):
    """``rule(node, results)`` applied bottom-up, where ``results`` holds the
    rule's values for the node's children in order; returns the root's value.

    Each node of a shared DAG is visited once, after its children, with an
    explicit stack, so no walk costs more than the number of distinct nodes
    and no depth reaches Python's recursion limit.
    """
    done = {}  # id(node) -> result
    stack = [(root, False)]
    while stack:
        node, ready = stack.pop()
        if ready:
            done[id(node)] = rule(node, [done[id(c)] for c in node.children()])
        elif id(node) not in done:
            children = node.children()
            if children:
                stack.append((node, True))
                stack += [(c, False) for c in reversed(children)]
            else:
                done[id(node)] = rule(node, [])
    return done[id(root)]


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
    nums: list[Num] = []
    constant = 1.0
    for factor in factors:
        if isinstance(factor, Mul):
            for sub in factor.factors:
                if isinstance(sub, Num):
                    constant *= sub.value
                    nums.append(sub)
                else:
                    flat.append(sub)
        elif isinstance(factor, Num):
            constant *= factor.value
            nums.append(factor)
        else:
            flat.append(factor)
    if constant == 0.0 and all(c.value for c in nums):  # an underflow stays as written
        flat[:0] = [c for c in nums if c.value != 1.0]
    elif constant == 0.0:
        return Num(0.0)
    elif constant != 1.0:
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
            quotient = numerator.value / denominator.value
            if quotient != 0.0 or numerator.value == 0.0:  # an underflow stays as written
                return Num(quotient)
    if isinstance(numerator, Num) and numerator.value == 0.0:
        return Num(0.0)
    return Div(numerator, denominator)


def make_pow(base: Expression, exponent: int) -> Expression:
    exponent = int(exponent)
    if exponent == 0:
        return Num(1.0)
    if exponent == 1:
        return base
    if isinstance(base, Num) and not (base.value == 0.0 and exponent < 0):
        try:
            power = base.value**exponent
        except OverflowError:
            return Pow(base, exponent)
        if power != 0.0 or base.value == 0.0:  # an underflow stays as written
            return Num(power)
    return Pow(base, exponent)


def make_func(name: str, arg: Expression) -> Expression:
    if isinstance(arg, Num) and name in FUNCTIONS:
        try:
            return Num(getattr(math, name)(arg.value))
        except (ValueError, OverflowError):
            pass  # fold only when in domain; defer errors to evaluation
    return Func(name, arg)


def _partial(e: Expression, d: list) -> Expression:
    """The derivative of a node with children, by one slot, from its
    children's derivatives ``d`` by that slot."""
    t = type(e)
    if t is Add:
        return make_add(*d)
    if t is Mul:
        f = e.factors
        return make_add(*[make_mul(*f[:i], di, *f[i + 1:]) for i, di in enumerate(d)])
    if t is Div:
        (u, v), (du, dv) = e.children(), d
        return make_div(make_add(make_mul(du, v), make_neg(make_mul(u, dv))), make_pow(v, 2))
    if t is Neg:
        return make_neg(d[0])
    if t is Pow:
        return make_mul(Num(float(e.exponent)), make_pow(e.base, e.exponent - 1), d[0])
    u, du = e.arg, d[0]
    if e.name == "sqrt":
        return make_div(du, make_mul(Num(2.0), make_func("sqrt", u)))
    if e.name == "sin":
        return make_mul(make_func("cos", u), du)
    if e.name == "cos":
        return make_neg(make_mul(make_func("sin", u), du))
    if e.name == "exp":
        return make_mul(make_func("exp", u), du)
    return make_div(du, u)  # log


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_NEG = 4
_PREC_ATOM = 5


def _fmt_num(v: float) -> str:
    if math.isfinite(v) and v == math.floor(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _wrap(printed: tuple, min_prec: int):
    text, prec = printed[0], printed[1]
    return ("(", text, ")") if prec < min_prec else text


def _print_rule(e: Expression, kids: list) -> tuple:
    """(text, precedence, printed argument of a Neg).  Text is a tree of
    string tuples, joined once at the end, so printing stays linear."""
    t = type(e)
    if t is Num:
        return _fmt_num(e.value), _PREC_ATOM if e.value >= 0.0 else _PREC_NEG, None
    if t is Coord:
        return e.name, _PREC_ATOM, None
    if t is Add:
        parts = [_wrap(kids[0], _PREC_ADD)]
        for term, printed in zip(e.terms[1:], kids[1:]):
            if type(term) is Neg:
                parts.append((" - ", _wrap(printed[2], _PREC_MUL)))
            else:
                parts.append((" + ", _wrap(printed, _PREC_ADD)))
        return tuple(parts), _PREC_ADD, None
    if t is Mul:
        parts = [_wrap(kids[0], _PREC_MUL)]
        for factor, printed in zip(e.factors[1:], kids[1:]):
            if type(factor) is Div:
                parts.append((" * (", printed[0], ")"))
            else:
                parts.append((" * ", _wrap(printed, _PREC_MUL)))
        return tuple(parts), _PREC_MUL, None
    if t is Div:
        return (_wrap(kids[0], _PREC_MUL), " / ", _wrap(kids[1], _PREC_POW)), _PREC_MUL, None
    if t is Neg:
        return ("-", _wrap(kids[0], _PREC_ATOM)), _PREC_NEG, kids[0]
    if t is Pow:
        return (_wrap(kids[0], _PREC_ATOM), "^", str(e.exponent)), _PREC_POW, None
    return (e.name, "(", kids[0][0], ")"), _PREC_ATOM, None  # Func


def to_source(e: Expression) -> str:
    """Render to text in the input grammar.  Reparsing the result yields a
    structurally identical AST (checked by the round-trip tests)."""
    out, stack = [], [fold(e, _print_rule)[0]]
    while stack:
        part = stack.pop()
        if type(part) is str:
            out.append(part)
        else:
            stack.extend(reversed(part))
    return "".join(out)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()])"
)


class _Token(Record):
    def __init__(self, kind: str, text: str, offset: int):  # kind: num, ident, op or end
        self._set(kind=kind, text=text, offset=offset)


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


# nesting the parser accepts: it recurses one frame per level, so this stays
# well inside Python's default recursion limit of 1000 frames
_MAX_DEPTH = 500


class _Parser:
    def __init__(self, tokens: list[_Token], chart: ChartSpace, parameters: dict):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
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
        tok = self.advance()
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {_MAX_DEPTH} levels", tok.offset)
        if tok.kind == "num":
            left = Num(float(tok.text))
        elif tok.kind == "op" and tok.text == "-":
            left = make_neg(self.parse_expr(_BP_UNARY))
        elif tok.kind == "op" and tok.text == "(":
            left = self.parse_expr(0)
            self.expect(")")
        elif tok.kind == "ident" and self.peek().text == "(":
            if tok.text not in FUNCTIONS:
                raise UnknownIdentifierError(tok.text, tok.offset)
            self.advance()
            arg = self.parse_expr(0)
            self.expect(")")
            left = make_func(tok.text, arg)
        elif tok.kind == "ident" and self.chart.has_coordinate(tok.text):
            left = self.chart.coordinate(tok.text)
        elif tok.kind == "ident" and tok.text in self.parameters:
            left = Num(float(self.parameters[tok.text]))
        elif tok.kind == "ident":
            raise UnknownIdentifierError(tok.text, tok.offset)
        else:
            raise ExprSyntaxError(f"unexpected token '{tok.text or '<end>'}'", tok.offset)
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
                if not isinstance(rhs, Num) or not rhs.value.is_integer():  # nor inf or nan
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
        self.depth -= 1
        return left


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


# distinct expressions kept differentiated, and distinct expression tuples
# kept compiled; one command on a bundled model compiles fewer than ten
COMPILE_CACHE_SIZE = 1024


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def gradient(e: Expression) -> dict[int, Expression]:
    """``{slot: exact partial}`` for each slot whose partial is not the literal 0,
    in slot order, from one walk: a node takes the one-slot rule only for slots
    its children read, so an unread slot has partial 0 beside an infinite literal.
    The dict is memoized per structurally equal expression and shared by every
    caller, so nothing may mutate it."""
    zero = Num(0.0)

    def rule(node, kids):
        if type(node) is Coord:
            return {node.index: Num(1.0)}
        partials = ((slot, _partial(node, [kid.get(slot, zero) for kid in kids]))
                    for slot in sorted(set().union(*kids)))
        return {slot: d for slot, d in partials if d != zero}

    return fold(e, rule)


def validate_on_chart(e: Expression, chart: ChartSpace) -> None:
    """Check that each coordinate reference matches the chart by index and name,
    from the expression's coordinate set; a foreign one in the lowest slot is named."""
    slots = _name_index_map(chart)
    foreign = [(index, name) for index, name in e._coords if slots.get(name) != index]
    if foreign:
        index, name = min(foreign)
        raise ValueError(f"coordinate {name!r} (slot {index}) does not belong to the chart")


# ---------------------------------------------------------------------------
# compiled evaluation: tapes of numpy calls over point arrays
# ---------------------------------------------------------------------------

_NUMPY_IMPL = {name: getattr(np, name) for name in FUNCTIONS}

# rows per kernel block and draws per sampling step: no temporary of 8,192
# floats reaches the 128 kB at which glibc starts to trim and regrow its heap
_BLOCK = 8192

# the numpy call each operator makes (``**`` keeps numpy's fast paths for
# small powers); a coordinate is a row of the transposed points
_CALLS = {Add: np.add, Mul: np.multiply, Div: np.divide, Neg: np.negative, Pow: operator.pow,
          Coord: operator.getitem}

# the test on an operand that leaves its domain -- a ufunc and its second
# argument (None is ``isinf``'s ``out``) -- and why; Pow only below zero
_DOMAINS = {
    Div: (np.equal, 0, "division by zero"),
    Pow: (np.equal, 0, "division by zero"),
    "sqrt": (np.less, 0, "square root of a negative number"),
    "log": (np.less_equal, 0, "logarithm of a non-positive number"),
    "sin": (np.isinf, None, "sin of an infinite number"),
    "cos": (np.isinf, None, "cos of an infinite number"),
}


def _walk(tape: list, constants: list, P, out) -> list:
    """The registers -- P, ``out``, then ``constants`` -- after each step
    (fn, dest, a, b, c) stores fn of registers a, b, c, those not None, in dest."""
    r = [P, out, *constants]
    for fn, dest, a, b, c in tape:
        r[dest] = fn(r[a]) if b is None else fn(r[a], r[b]) if c is None else fn(r[a], r[b], r[c])
    return r


def _compile(exprs: tuple[Expression, ...]) -> tuple[Callable, Callable, list, list]:
    """A kernel ``run(P, out)`` over the transposed points that stores
    component j of ``exprs`` in ``out[j]``: a tape of the numpy calls the
    nodes' operators make, on registers holding P, ``out``, the literals and
    one value per structurally unique node of all the components, each
    operation in the order the nested expression takes it.

    ``checked(P, out)`` walks the same tape with domain-code steps among it;
    its register ``codes[j]`` holds per row the index into ``failures`` --
    (reason, node) pairs -- of component j's first node, in scalar evaluation
    order, that leaves its domain, or -1.  That order takes children left to
    right, each node after its children, except that a ``Div`` tests its
    denominator before it evaluates its numerator.
    """
    registers, literals, values, tape, checked, failures = [None, None], {}, {}, [], [], []

    def literal(value) -> int:  # repr names every NaN alike
        if repr(value) not in literals:
            literals[repr(value)] = len(registers)
            registers.append(value)
        return literals[repr(value)]

    def step(fn, *operands, dest=None, fast=True) -> int:
        if dest is None:
            dest = len(registers)
            registers.append(None)
        checked.append((fn, dest, *operands, *(None,) * (3 - len(operands))))
        if fast:
            tape.append(checked[-1])
        return dest

    def rule(node, kids):
        t = type(node)
        if t is Num:
            return literal(np.float64(node.value)), None
        args, codes = zip(*kids) if kids else ((0, literal(node.index)), ())  # Coord: P's row
        key = (t, node._key, args)
        if key in values:
            return values[key]
        operands = (*args, literal(node.exponent)) if t is Pow else args
        fn = _CALLS.get(t) or _NUMPY_IMPL[node.name]
        value = step(fn, *operands[:2])
        for operand in operands[2:]:  # sums and products one operand at a time
            value = step(fn, value, operand, dest=value)
        domain = _DOMAINS.get(node.name if t is Func else t)
        own = None
        if domain and (t is not Pow or node.exponent < 0):  # on the last argument
            failed = step(domain[0], args[-1], literal(domain[1]), fast=False)
            own = step(np.where, failed, literal(len(failures)), literal(-1), fast=False)
            failures.append((domain[2], node))
        codes = [c for c in ([codes[1], own, codes[0]] if t is Div else [*codes, own]) if c]
        code = codes.pop() if codes else None
        for first in reversed(codes):  # per row, the first code that is not -1
            at = step(np.greater_equal, first, literal(0), fast=False)
            code = step(np.where, at, first, code, fast=False)
        values[key] = value, code
        return value, code

    folded = [fold(e, rule) for e in exprs]
    for j, (root, _) in enumerate(folded):
        step(operator.setitem, 1, literal(j), root)
    codes = [literal(-1) if code is None else code for _, code in folded]
    constants = registers[2:]
    return partial(_walk, tape, constants), partial(_walk, checked, constants), codes, failures


def _blocks(P, values) -> Iterable[tuple]:
    """(P, values) column blocks of at most ``_BLOCK`` rows of the transposed
    points P and the values they fill; one block is the whole arrays, unsliced."""
    m = P.shape[1]
    if m <= _BLOCK:
        return ((P, values),)
    return ((P[:, i:i + _BLOCK], values[:, i:i + _BLOCK]) for i in range(0, m, _BLOCK))


@lru_cache(maxsize=COMPILE_CACHE_SIZE)
def field_evaluator(exprs: tuple[Expression, ...]) -> Callable:
    """One numpy kernel for a tuple of expressions, mapping an (m, N) point
    array to the (m, len(exprs)) array of their values; an empty tuple gives
    an (m, 0) array.

    Its tape runs over blocks of at most ``_BLOCK`` rows, with numpy raising
    on division by zero, invalid operations and overflow.  A block it raises
    in is rerun in checked mode; otherwise only the rows it left non-finite
    are, and an entry it left finite is kept.  Checked mode walks the same
    tape in IEEE arithmetic, so overflow keeps its infinity, and finds per
    row the first node that leaves its domain: a zero divisor, zero to a
    negative power, the square root of a negative number, the logarithm of
    a non-positive one, sin or cos of an infinity.  The lowest failing
    component's first failing row raises an ``EvaluationDomainError`` naming
    that subexpression; with ``strict=False`` each failing entry is NaN.
    ``kernel.tape(points)`` walks the same blocks with no guard and no rerun,
    under the errstate of a caller that guards it, and returns the values.
    """
    run, checked, codes, failures = _compile(exprs)

    def tape(points) -> np.ndarray:
        values = np.empty((len(exprs), len(points)))
        for P, out in _blocks(points.T, values):
            run(P, out)
        return values.T

    def kernel(points, strict: bool = True) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        values = np.empty((len(exprs), len(points)))
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            for P, out in _blocks(points.T, values):
                try:
                    run(P, out)
                except FloatingPointError:
                    out[...] = math.nan
        finite = np.isfinite(values)
        if np.count_nonzero(finite) == finite.size:  # cheaper than ``all``
            return values.T
        redo = ~finite
        rows = np.flatnonzero(redo.any(axis=0))
        redo, rerun = redo[:, rows], np.empty((len(exprs), len(rows)))
        with np.errstate(all="ignore"):
            registers = checked(points[rows].T, rerun)
        values[:, rows] = np.where(redo, rerun, values[:, rows])
        for j, code in enumerate(codes):
            code = np.broadcast_to(registers[code], rows.shape)
            bad = np.flatnonzero(redo[j] & (code >= 0))
            if len(bad) and strict:
                reason, node = failures[code[bad[0]]]
                raise EvaluationDomainError(reason, to_source(node))
            values[j, rows[bad]] = math.nan
        return values.T

    kernel.tape = tape
    return kernel


# ---------------------------------------------------------------------------
# seeded sampling
# ---------------------------------------------------------------------------

_M32, _M64, _M128 = 2**32 - 1, 2**64 - 1, 2**128 - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(const: int, mult: int) -> Callable:
    """numpy's SeedSequence hash: each call mixes one uint32 with a running constant."""

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16

    return hashmix


def _seed_words(seed) -> list[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``, as ints."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        pool = [mix(p, hashmix(word)) for p in pool]
    words = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool * 2))
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


def _mul_add(x, k, add) -> np.ndarray:
    """x * k + add mod 2^128 on (high, low) uint64 halves along the first axis
    of each, broadcast against each other; the high half of the low halves'
    product is taken on 32-bit halves."""
    (hi, lo), (k_hi, k_lo) = x, k
    a1, a0, b1, b0 = lo >> 32, lo & _M32, k_lo >> 32, k_lo & _M32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _M32) + (p10 & _M32)
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + hi * k_lo + lo * k_hi
    lo = lo * k_lo + add[1]
    return np.array([hi + add[0] + (lo < add[1]), lo])


def _halves(ints) -> np.ndarray:
    """128-bit ints as a (2, len(ints)) array of (high, low) uint64 halves."""
    return np.array([[i >> 64 for i in ints], [i & _M64 for i in ints]], dtype=np.uint64)


def _then(first: tuple, second: tuple) -> tuple:
    """The jump by ``first``, then by ``second``: (A, C) pairs that take state s to A s + C."""
    return first[0] * second[0] & _M128, (first[1] * second[0] + second[1]) & _M128


def _uniform_stream(seed) -> Callable:
    """``draw(low, high, shape)``: the values of successive
    ``default_rng(seed).uniform(low, high, shape)`` calls on one numpy
    Generator, bit for bit -- its PCG64 seeded through SeedSequence -- without
    importing numpy's random module.  A draw steps the generator in blocks of
    up to _BLOCK states.  Its first block holds A_j s_r + C_j, the lane jumps
    (A_j, C_j) by j = 1 .. L = ceil(sqrt(size)) steps applied to row starts
    s_r, L steps apart, all taken as Python ints; each later block is the
    jump by _BLOCK steps of the block before it."""
    w0, w1, w2, w3 = _seed_words(seed)
    inc = ((w2 << 64 | w3) << 1 | 1) & _M128
    state = ((inc + (w0 << 64 | w1)) * _PCG64_MULT + inc) & _M128
    jump, power, n = (1, 0), (_PCG64_MULT, inc), _BLOCK  # by _BLOCK steps, by squaring
    while n:
        jump, power, n = _then(jump, power) if n & 1 else jump, _then(power, power), n >> 1
    block_jump = _halves(jump[:1]), _halves(jump[1:])

    def draw(low: float, high: float, shape: tuple) -> np.ndarray:
        nonlocal state
        low, span = float(low), float(high) - float(low)
        out = np.empty(math.prod(shape))
        for start in range(0, out.size, _BLOCK):
            size = min(_BLOCK, out.size - start)
            if start:
                states = _mul_add(states[:, :size], *block_jump)
            else:
                lanes = [(_PCG64_MULT, inc)]
                while len(lanes) ** 2 < size:
                    lanes.append(_then(lanes[-1], lanes[0]))
                (a, c), starts = lanes[-1], [state]  # a row is the jump by L steps
                while len(starts) * len(lanes) < size:
                    starts.append((a * starts[-1] + c) & _M128)
                lane_a, lane_c = zip(*lanes)
                states = _mul_add(_halves(starts).reshape(2, -1, 1),
                                  _halves(lane_a).reshape(2, 1, -1),
                                  _halves(lane_c).reshape(2, 1, -1)).reshape(2, -1)[:, :size]
            hi, lo = states
            x, rot = hi ^ lo, hi >> 58  # PCG's XSL-RR output
            bits = x >> rot | x << (-rot & 63)
            out[start : start + size] = low + span * ((bits >> 11) * 2.0**-53)
            state = int(hi[-1]) << 64 | int(lo[-1])
        return out.reshape(shape)

    return draw


def sample_points(
    chart: ChartSpace,
    count: int = 64,
    seed: int = 42,
    halfwidth: float = 1.0,
    require: Iterable = (),
) -> np.ndarray:
    """Draw ``count`` points uniformly from [-halfwidth, halfwidth]^N, the
    values ``default_rng(seed).uniform`` gives, row by row.

    ``require`` holds expressions (or scalar fields, standing for their
    expressions).  Points where any of them is non-finite or hits an
    evaluation domain error are discarded and redrawn, up to a 10x
    oversampling budget; the first valid points are kept in draw order.
    Past the budget, the error names the first expression that rejected a
    draw, why (inf, nan or its domain error), and that point.
    """
    if not math.isfinite(2.0 * halfwidth):
        raise SamplingError(f"halfwidth {halfwidth!r} spans a box of non-finite width")
    draw = _uniform_stream(seed)
    exprs = tuple(getattr(item, "expr", item) for item in require)
    kernel = field_evaluator(exprs)  # one run per draw for all of them

    accepted, kept, drawn = [], 0, 0  # each batch's valid rows, copied only if some are not
    budget = 10 * count
    rejected = None  # (expression, point) of the first rejected draw
    while kept < count:
        if drawn >= budget:
            raise SamplingError(
                f"could not draw {count} valid points within {budget} attempts; "
                + _rejection(*rejected)
            )
        batch = min(count, budget - drawn)
        pts = draw(-halfwidth, halfwidth, (batch, chart.dimension))
        drawn += batch
        finite = np.isfinite(kernel(pts, strict=False))
        valid = finite.all(axis=1)
        if rejected is None and not valid.all():
            first = int(np.argmin(finite.all(axis=0)))
            rejected = exprs[first], pts[np.argmin(finite[:, first])]
        accepted.append((pts if valid.all() else pts[valid])[: count - kept])
        kept += len(accepted[-1])
    if len(accepted) == 1:
        return accepted[0]
    return np.concatenate([np.empty((0, chart.dimension)), *accepted])  # none for count 0


def _rejection(e: Expression, point) -> str:
    """Why ``e`` rejected ``point``, from a strict rerun of that one row."""
    try:
        cause = f"is {field_evaluator((e,))(point[None])[0, 0]}"  # inf, -inf or nan
    except EvaluationDomainError as exc:
        cause = f"has a domain error, {exc},"
    return f"'{to_source(e)}' {cause} at {[float(x) for x in point]}"


def worst_sample(residuals) -> tuple[float, int]:
    """The largest residual and the index of its first occurrence; (0.0, 0)
    for none.  NaN counts as largest (``np.argmax`` stops at the first), so a
    NaN sample never passes a check written as ``worst <= tolerance``."""
    if not len(residuals):
        return 0.0, 0
    at = int(np.argmax(residuals))
    return float(residuals[at]), at


class Check(Record, eq=False):
    """The verdict on one claim: its worst residual against a tolerance, the
    point where it occurs, and the extra report entries, as printed."""

    def __init__(self, kind: str, holds: bool, max_residual: float, tolerance: float,
                 witness: np.ndarray, extra: dict | None = None):
        self._set(kind=kind, holds=holds, max_residual=max_residual, tolerance=tolerance,
                  witness=np.asarray(witness, dtype=float), extra={} if extra is None else extra)


def residual_check(kind: str, residuals, points, tolerance: float, **extra) -> Check:
    """Holds iff the worst of the per-point ``residuals`` is within
    ``tolerance`` (never on NaN); the witness is that point."""
    top, at = worst_sample(residuals)
    witness = points[at] if len(residuals) else ()
    return Check(kind, top <= tolerance, top, tolerance, witness, extra)
