"""The interpretive scalar evaluator, kept as the reference that the batched
kernels of ``ksym.expr.field_evaluator`` are tested against.

It walks the tree at one point in Python floats and raises the
``EvaluationDomainError`` of the first node, in evaluation order, that
leaves its domain.  A ``Div`` evaluates and tests its denominator before its
numerator.  Integer powers and the analytic functions are numpy's, applied
to a one-element array as the kernels apply them: Python's ``float ** int``
and ``math.exp`` or ``math.log`` differ from them by an ulp at some points,
and cancellation or a function near a root, as in sin((x_1^2)^-2), magnifies
that gap to thousands of ulp.
"""

from __future__ import annotations

import math
import operator
from functools import partial

import numpy as np

from ksym.expr import Add, Coord, Div, EvaluationDomainError, Mul, Neg, Num, Pow, to_source

_NUMPY = {"sqrt": np.sqrt, "sin": np.sin, "cos": np.cos, "exp": np.exp, "log": np.log}


def _elementwise(fn, value: float, *args) -> float:
    """``fn(value, *args)`` as a kernel takes it, on a one-element array."""
    with np.errstate(over="ignore"):  # an overflow is the signed infinity
        return float(fn(np.array([value]), *args)[0])


def evaluate(e, point) -> float:
    t = type(e)
    if t is Num:
        return e.value
    if t is Coord:
        return float(point[e.index])
    if t is Add:
        total = 0.0
        for term in e.terms:
            total += evaluate(term, point)
        return total
    if t is Mul:
        total = 1.0
        for factor in e.factors:
            total *= evaluate(factor, point)
        return total
    if t is Div:
        den = evaluate(e.denominator, point)
        if den == 0.0:
            raise EvaluationDomainError("division by zero", to_source(e))
        return evaluate(e.numerator, point) / den
    if t is Neg:
        return -evaluate(e.arg, point)
    if t is Pow:
        base = evaluate(e.base, point)
        if base == 0.0 and e.exponent < 0:
            raise EvaluationDomainError("division by zero", to_source(e))
        return _elementwise(operator.pow, base, e.exponent)
    value = evaluate(e.arg, point)  # Func
    if e.name == "sqrt" and value < 0.0:
        raise EvaluationDomainError("square root of a negative number", to_source(e))
    if e.name == "log" and value <= 0.0:
        raise EvaluationDomainError("logarithm of a non-positive number", to_source(e))
    if e.name in ("sin", "cos") and math.isinf(value):
        raise EvaluationDomainError(f"{e.name} of an infinite number", to_source(e))
    return _elementwise(_NUMPY[e.name], value)


def evaluator(e):
    """``evaluate`` bound to ``e``: a function of the point."""
    return partial(evaluate, e)
