"""Canonical geometric structures on k-tangent and k-cotangent charts:
tautological and symplectic form families, the dilation (Liouville) field,
vertical endomorphisms, and first prolongations of maps from the parameter
space into the base.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .calculus import (
    PForm,
    VectorField,
    exterior_derivative,
    form_neg,
    one_form,
)
from .expr import (
    ChartSpace,
    Coord,
    Expression,
    Num,
    Record,
    batch_evaluator,
    cotangent_chart,
    tangent_chart,
)

__all__ = [
    "KCotangentChart",
    "KTangentChart",
    "TangentStructure",
    "cotangent_bundle",
    "tangent_bundle",
    "first_prolongation",
    "SymbolicProlongation",
]


# ---------------------------------------------------------------------------
# k-cotangent charts
# ---------------------------------------------------------------------------


class KCotangentChart(Record):
    """Chart on the k-fold cotangent bundle with its canonical form families.

    theta[A-1] is the A-th tautological one-form sum_i p_A_i dx_i and
    omega[A-1] = -d(theta[A-1]); the two are tied structurally, not merely
    numerically.
    """

    def __init__(self, n: int, k: int, chart: ChartSpace, theta: tuple[PForm, ...],
                 omega: tuple[PForm, ...]):
        self._set(n=n, k=k, chart=chart, theta=theta, omega=omega)


@lru_cache(maxsize=None)
def cotangent_bundle(n: int, k: int) -> KCotangentChart:
    chart = cotangent_chart(n, k)
    thetas = []
    omegas = []
    for A in range(1, k + 1):
        comps = {}
        for i in range(1, n + 1):
            p_name = f"p_{A}_{i}"
            comps[chart.base_index(i)] = chart.coordinate(p_name)
        theta = one_form(chart, comps)
        thetas.append(theta)
        omegas.append(form_neg(exterior_derivative(theta)))
    return KCotangentChart(n=n, k=k, chart=chart, theta=tuple(thetas), omega=tuple(omegas))


# ---------------------------------------------------------------------------
# k-tangent charts
# ---------------------------------------------------------------------------


class TangentStructure(Record):
    """The A-th vertical endomorphism: sends d/dx_i to d/dv_A_i and kills
    fiber directions.  Stored as a sparse map from base slots to fiber slots.
    """

    def __init__(self, A: int, chart: ChartSpace, slot_map: tuple[tuple[int, int], ...]):
        self._set(A=A, chart=chart, slot_map=slot_map)  # slot_map: (x_i slot, v_A_i slot) pairs

    def precompose_one_form(self, alpha: PForm) -> PForm:
        """alpha composed with this endomorphism: (alpha o S)(V) = alpha(S V)."""
        if alpha.chart != self.chart or alpha.degree != 1:
            raise ValueError("expected a one-form on the same chart")
        comps = {}
        for src, dst in self.slot_map:
            entry = alpha.components.get((dst,))
            if entry is not None:
                comps[src] = entry
        return one_form(self.chart, comps)


class KTangentChart(Record):
    """Chart on the k-fold tangent bundle with the dilation field and the
    family of vertical endomorphisms."""

    def __init__(self, n: int, k: int, chart: ChartSpace, liouville: VectorField,
                 structures: tuple[TangentStructure, ...]):
        self._set(n=n, k=k, chart=chart, liouville=liouville, structures=structures)


@lru_cache(maxsize=None)
def tangent_bundle(n: int, k: int) -> KTangentChart:
    chart = tangent_chart(n, k)
    comps = [Num(0.0)] * chart.dimension
    for A in range(1, k + 1):
        for i in range(1, n + 1):
            slot = chart.fiber_index(A, i)
            comps[slot] = Coord(slot, chart.coordinate_names[slot])
    liouville = VectorField(chart, tuple(comps))
    structures = []
    for A in range(1, k + 1):
        slot_map = tuple(
            (chart.base_index(i), chart.fiber_index(A, i)) for i in range(1, n + 1)
        )
        structures.append(TangentStructure(A=A, chart=chart, slot_map=slot_map))
    return KTangentChart(
        n=n, k=k, chart=chart, liouville=liouville, structures=tuple(structures)
    )


# ---------------------------------------------------------------------------
# first prolongation
# ---------------------------------------------------------------------------


class SymbolicProlongation(Record):
    """First prolongation of a closed-form map from the k-dimensional
    parameter chart (coordinates x_1..x_k read as the parameters t^A) into
    an n-dimensional base.  Calling it returns the point on the k-tangent
    chart: base values first, then the A-th partial derivatives per block
    (``fiber_exprs`` grouped by A, then i).
    """

    def __init__(self, n: int, k: int, base_exprs: tuple[Expression, ...],
                 fiber_exprs: tuple[Expression, ...]):
        self._set(n=n, k=k, base_exprs=base_exprs, fiber_exprs=fiber_exprs)

    def __call__(self, t) -> np.ndarray:
        row = np.asarray(t, dtype=float)[None]
        return np.array([batch_evaluator(e)(row)[0] for e in self.base_exprs + self.fiber_exprs])


def first_prolongation(phi, *, steps: Sequence[float] | None = None):
    """First prolongation of a map from parameter space into the base.

    Closed-form path: ``phi`` is a sequence of ScalarFields on ``base_chart(k)``
    (parameter chart); the prolongation is exact, with symbolic derivatives.

    Grid path: ``phi`` is an array of shape (m_1, ..., m_k, n) of sampled
    values with ``steps`` the per-axis spacings; derivatives use second-order
    central differences with one-sided stencils at the boundaries, and each
    axis needs at least 3 nodes.
    """
    if isinstance(phi, np.ndarray):
        if steps is None:
            raise ValueError("grid prolongation requires the per-axis steps")
        k = phi.ndim - 1
        if k < 1:
            raise ValueError("grid must have at least one parameter axis")
        if len(steps) != k:
            raise ValueError(f"expected {k} steps, got {len(steps)}")
        shape = phi.shape[:-1]
        if any(m < 3 for m in shape):
            raise ValueError("each parameter axis needs at least 3 nodes")
        n = phi.shape[-1]
        out = np.empty(shape + (n * (1 + k),))
        out[..., :n] = phi
        for A in range(k):
            block = np.gradient(phi, steps[A], axis=A, edge_order=2)
            out[..., n * (1 + A): n * (2 + A)] = block
        return out

    fields = list(phi)
    if not fields:
        raise ValueError("empty map")
    chart = fields[0].chart
    if chart.kind != "base":
        raise ValueError("closed-form prolongation expects fields on the parameter chart")
    k = chart.n
    for f in fields:
        if f.chart != chart:
            raise ValueError("all components must share the parameter chart")
    n = len(fields)
    base_exprs = tuple(f.expr for f in fields)
    fiber = []
    for A in range(k):
        for f in fields:
            fiber.append(f.expr.diff(A))
    return SymbolicProlongation(n=n, k=k, base_exprs=base_exprs, fiber_exprs=tuple(fiber))
