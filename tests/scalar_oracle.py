"""The interpretive scalar evaluator, kept as the reference that the batched
kernels of ``ksym.expr.batch_evaluator`` are tested against.

It walks the tree at one point in Python floats and the ``math`` module and
raises the ``EvaluationDomainError`` of the first node, in evaluation order,
that leaves its domain.  A ``Div`` evaluates and tests its denominator
before its numerator.
"""

from __future__ import annotations

import math
from functools import partial

from ksym.expr import Add, Coord, Div, EvaluationDomainError, Mul, Neg, Num, Pow, to_source

_MATH = {"sqrt": math.sqrt, "sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log}


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
        try:
            return base**e.exponent
        except ZeroDivisionError:
            raise EvaluationDomainError("division by zero", to_source(e)) from None
        except OverflowError:
            sign = 1.0 if (base > 0 or e.exponent % 2 == 0) else -1.0
            return sign * math.inf
    value = evaluate(e.arg, point)  # Func
    if e.name == "sqrt" and value < 0.0:
        raise EvaluationDomainError("square root of a negative number", to_source(e))
    if e.name == "log" and value <= 0.0:
        raise EvaluationDomainError("logarithm of a non-positive number", to_source(e))
    try:
        return _MATH[e.name](value)
    except OverflowError:
        return math.inf
    except ValueError:  # sin and cos of an infinite argument
        raise EvaluationDomainError(f"{e.name} of an infinite number", to_source(e)) from None


def evaluator(e):
    """``evaluate`` bound to ``e``: a function of the point."""
    return partial(evaluate, e)
