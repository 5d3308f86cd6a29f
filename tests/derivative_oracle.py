"""The one-slot derivative walk, kept as the reference that the one-walk
``ksym.expr.gradient`` is tested against.

``partial(e, index)`` folds the whole tree once for one slot, applying the
sum, product, quotient, chain and power rules through the package's smart
constructors at every node, whether or not the node reads the slot.
"""

from __future__ import annotations

from ksym.expr import (
    Add,
    Coord,
    Div,
    Mul,
    Neg,
    Num,
    Pow,
    fold,
    make_add,
    make_div,
    make_func,
    make_mul,
    make_neg,
    make_pow,
)


def partial(e, index: int):
    """d e / d(slot ``index``), one fold over every node of ``e``."""

    def rule(node, d):
        t = type(node)
        if t is Num:
            return Num(0.0)
        if t is Coord:
            return Num(1.0) if node.index == index else Num(0.0)
        if t is Add:
            return make_add(*d)
        if t is Mul:
            f = node.factors
            return make_add(*[make_mul(*f[:i], di, *f[i + 1:]) for i, di in enumerate(d)])
        if t is Div:
            (u, v), (du, dv) = node.children(), d
            return make_div(make_add(make_mul(du, v), make_neg(make_mul(u, dv))), make_pow(v, 2))
        if t is Neg:
            return make_neg(d[0])
        if t is Pow:
            return make_mul(Num(float(node.exponent)), make_pow(node.base, node.exponent - 1), d[0])
        u, du = node.arg, d[0]
        if node.name == "sqrt":
            return make_div(du, make_mul(Num(2.0), make_func("sqrt", u)))
        if node.name == "sin":
            return make_mul(make_func("cos", u), du)
        if node.name == "cos":
            return make_neg(make_mul(make_func("sin", u), du))
        if node.name == "exp":
            return make_mul(make_func("exp", u), du)
        return make_div(du, u)  # log

    return fold(e, rule)
