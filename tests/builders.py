"""Shorthand that only the tests use, built on the package's public
functions: frame and zero fields, a field from its nonzero components, the
zero form, and a constant k-vector field; one partial read off ``gradient``
and one expression's values read off its ``field_evaluator`` kernel; and
kernel compilers that count their kernels' runs or rows.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping

import numpy as np

from ksym.calculus import PForm, VectorField
from ksym.dynamics import KVectorField
from ksym.expr import ChartSpace, Expression, Num, field_evaluator, gradient


def zero_vector_field(chart: ChartSpace) -> VectorField:
    return VectorField(chart, tuple(Num(0.0) for _ in range(chart.dimension)))


def coordinate_vector_field(chart: ChartSpace, coordinate: str | int) -> VectorField:
    """The frame field d/d(coordinate)."""
    if isinstance(coordinate, str):
        coordinate = chart.index_of(coordinate)
    comps = [Num(0.0)] * chart.dimension
    comps[coordinate] = Num(1.0)
    return VectorField(chart, tuple(comps))


def vector_field_from_map(chart: ChartSpace, nonzero: Mapping[str, Expression]) -> VectorField:
    comps = [Num(0.0)] * chart.dimension
    for name, expr in nonzero.items():
        comps[chart.index_of(name)] = expr
    return VectorField(chart, tuple(comps))


def is_zero_field(X: VectorField) -> bool:
    """Is every component of X the literal 0?"""
    return all(isinstance(c, Num) and c.value == 0.0 for c in X.components)


def zero_form(chart: ChartSpace, degree: int) -> PForm:
    return PForm(chart, degree, {})


def repeat(Y: VectorField, k: int | None = None) -> KVectorField:
    """The constant tuple (Y, ..., Y), k = Y.chart.k by default."""
    if k is None:
        k = Y.chart.k
    return KVectorField(Y.chart, tuple([Y] * k))


def derivative(e: Expression, index: int) -> Expression:
    """The exact partial of ``e`` in slot ``index``: its ``gradient`` entry,
    or the literal 0 for a slot the gradient leaves out."""
    return gradient(e).get(index, Num(0.0))


def kernel_values(e: Expression, points, strict: bool = True) -> np.ndarray:
    """The values of ``e`` at each of the (m, N) points, shape (m,): column 0
    of one run of the kernel ``field_evaluator((e,))``."""
    return field_evaluator((e,))(points, strict)[:, 0]


def counting(runs: Counter, compiler=field_evaluator):
    """A stand-in for ``compiler`` whose kernels count their runs per
    compiled argument."""
    def counted(e):
        kernel = compiler(e)

        def run(points, *args, **kwargs):
            runs[e] += 1
            return kernel(points, *args, **kwargs)

        run.tape = kernel.tape  # a bare walk is not a run
        return run

    return counted


def counting_rows(rows: list, compiler=field_evaluator):
    """A stand-in for ``compiler`` whose kernels append each run's row count to ``rows``."""
    def counted(exprs):
        kernel = compiler(exprs)

        def run(points, *args, **kwargs):
            rows.append(len(points))
            return kernel(points, *args, **kwargs)

        run.tape = kernel.tape  # a bare walk is not a run
        return run

    return counted
