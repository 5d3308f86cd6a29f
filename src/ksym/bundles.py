"""Canonical geometric structures on k-tangent and k-cotangent charts:
tautological and symplectic form families, the dilation (Liouville) field
and the vertical endomorphisms.
"""

from __future__ import annotations

from functools import lru_cache

from .calculus import (
    PForm,
    VectorField,
    _same_chart,
    exterior_derivative,
    form_neg,
    one_form,
)
from .expr import ChartSpace, Coord, Num, Record, cotangent_chart, tangent_chart

__all__ = [
    "KCotangentChart",
    "KTangentChart",
    "TangentStructure",
    "cotangent_bundle",
    "tangent_bundle",
]


# ---------------------------------------------------------------------------
# k-cotangent charts
# ---------------------------------------------------------------------------


class KCotangentChart(Record):
    """Chart on the k-fold cotangent bundle with its canonical form families.

    theta[A-1] is the A-th tautological one-form sum_i p_A_i dx_i and
    omega[A-1] = -d(theta[A-1]); the two are tied structurally, not merely
    numerically.  n and k are the chart's.
    """

    def __init__(self, chart: ChartSpace, theta: tuple[PForm, ...], omega: tuple[PForm, ...]):
        self._set(chart=chart, theta=theta, omega=omega)


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
    return KCotangentChart(chart=chart, theta=tuple(thetas), omega=tuple(omegas))


# ---------------------------------------------------------------------------
# k-tangent charts
# ---------------------------------------------------------------------------


class TangentStructure(Record):
    """The A-th vertical endomorphism: sends d/dx_i to d/dv_A_i and kills
    fiber directions; the chart's slot indices are its whole matrix.
    """

    def __init__(self, A: int, chart: ChartSpace):
        self._set(A=A, chart=chart)

    def precompose_one_form(self, alpha: PForm) -> PForm:
        """alpha composed with this endomorphism: (alpha o S)(V) = alpha(S V)."""
        _same_chart(self, alpha)
        if alpha.degree != 1:
            raise ValueError("expected a one-form")
        chart, comps = self.chart, {}
        for i in range(1, chart.n + 1):
            entry = alpha.components.get((chart.fiber_index(self.A, i),))
            if entry is not None:
                comps[chart.base_index(i)] = entry
        return one_form(chart, comps)


class KTangentChart(Record):
    """Chart on the k-fold tangent bundle with the dilation field and the
    family of vertical endomorphisms; n and k are the chart's."""

    def __init__(self, chart: ChartSpace, liouville: VectorField,
                 structures: tuple[TangentStructure, ...]):
        self._set(chart=chart, liouville=liouville, structures=structures)


@lru_cache(maxsize=None)
def tangent_bundle(n: int, k: int) -> KTangentChart:
    chart = tangent_chart(n, k)
    comps = [Num(0.0)] * chart.dimension
    for A in range(1, k + 1):
        for i in range(1, n + 1):
            slot = chart.fiber_index(A, i)
            comps[slot] = Coord(slot, chart.coordinate_names[slot])
    liouville = VectorField(chart, tuple(comps))
    structures = tuple(TangentStructure(A=A, chart=chart) for A in range(1, k + 1))
    return KTangentChart(chart=chart, liouville=liouville, structures=structures)

