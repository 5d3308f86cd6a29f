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
        _same_chart(self, alpha)
        if alpha.degree != 1:
            raise ValueError("expected a one-form")
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

