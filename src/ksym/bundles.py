"""Canonical geometric structures on k-tangent and k-cotangent charts:
tautological and symplectic form families, the dilation (Liouville) field,
vertical endomorphisms, coordinate lifts of base vector fields, and first
prolongations of maps from the parameter space into the base.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    compiled_evaluator,
    cotangent_chart,
    make_add,
    make_mul,
    make_neg,
    tangent_chart,
)

__all__ = [
    "KCotangentChart",
    "KTangentChart",
    "TangentStructure",
    "cotangent_bundle",
    "tangent_bundle",
    "transplant",
    "canonical_cotangent_lift",
    "canonical_tangent_lift",
    "vertical_lift",
    "first_prolongation",
    "SymbolicProlongation",
]


def transplant(expr: Expression, target: ChartSpace) -> Expression:
    """Rebuild ``expr`` with coordinate slots resolved by name on ``target``.

    Used to read base-chart expressions on a bundle chart (base coordinates
    come first with the same names) and vice versa for projections.
    """
    if isinstance(expr, Coord):
        return Coord(target.index_of(expr.name), expr.name)
    if isinstance(expr, Num):
        return expr
    children = expr.children()
    if not children:
        return expr
    rebuilt = [transplant(c, target) for c in children]
    cls = type(expr)
    from .expr import Add, Div, Func, Mul, Neg, Pow

    if cls is Add:
        return Add(tuple(rebuilt))
    if cls is Mul:
        return Mul(tuple(rebuilt))
    if cls is Div:
        return Div(rebuilt[0], rebuilt[1])
    if cls is Neg:
        return Neg(rebuilt[0])
    if cls is Pow:
        return Pow(rebuilt[0], expr.exponent)
    if cls is Func:
        return Func(expr.name, rebuilt[0])
    raise TypeError(f"cannot transplant {expr!r}")


# ---------------------------------------------------------------------------
# k-cotangent charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KCotangentChart:
    """Chart on the k-fold cotangent bundle with its canonical form families.

    theta[A-1] is the A-th tautological one-form sum_i p_A_i dx_i and
    omega[A-1] = -d(theta[A-1]); the two are tied structurally, not merely
    numerically.
    """

    n: int
    k: int
    chart: ChartSpace
    theta: tuple[PForm, ...]
    omega: tuple[PForm, ...]
    vertical_frame: tuple[VectorField, ...]


@lru_cache(maxsize=None)
def cotangent_bundle(n: int, k: int) -> KCotangentChart:
    chart = cotangent_chart(n, k)
    thetas = []
    omegas = []
    frame = []
    for A in range(1, k + 1):
        comps = {}
        for i in range(1, n + 1):
            p_name = f"p_{A}_{i}"
            comps[chart.base_index(i)] = chart.coordinate(p_name)
        theta = one_form(chart, comps)
        thetas.append(theta)
        omegas.append(form_neg(exterior_derivative(theta)))
    for A in range(1, k + 1):
        for i in range(1, n + 1):
            comps = [Num(0.0)] * chart.dimension
            comps[chart.fiber_index(A, i)] = Num(1.0)
            frame.append(VectorField(chart, tuple(comps)))
    return KCotangentChart(
        n=n, k=k, chart=chart, theta=tuple(thetas), omega=tuple(omegas),
        vertical_frame=tuple(frame),
    )


# ---------------------------------------------------------------------------
# k-tangent charts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TangentStructure:
    """The A-th vertical endomorphism: sends d/dx_i to d/dv_A_i and kills
    fiber directions.  Stored as a sparse map from base slots to fiber slots.
    """

    A: int
    chart: ChartSpace
    slot_map: tuple[tuple[int, int], ...]  # (x_i slot, v_A_i slot)

    def apply_to_vector(self, V: VectorField) -> VectorField:
        if V.chart != self.chart:
            raise ValueError("vector field lives on a different chart")
        comps = [Num(0.0)] * self.chart.dimension
        for src, dst in self.slot_map:
            comps[dst] = V.components[src]
        return VectorField(self.chart, tuple(comps))

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


@dataclass(frozen=True)
class KTangentChart:
    """Chart on the k-fold tangent bundle with the dilation field and the
    family of vertical endomorphisms."""

    n: int
    k: int
    chart: ChartSpace
    liouville: VectorField
    structures: tuple[TangentStructure, ...]


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
# lifts of base vector fields
# ---------------------------------------------------------------------------


def _require_base(Z: VectorField) -> ChartSpace:
    if Z.chart.kind != "base":
        raise ValueError("lifts take a vector field on a base chart")
    return Z.chart


def canonical_cotangent_lift(Z: VectorField, k: int) -> VectorField:
    """Complete lift to the k-cotangent chart:

    Z^i d/dx_i  ->  Z^i d/dx_i - p_A_j (dZ^j/dx_i) d/dp_A_i for every copy A.
    """
    base = _require_base(Z)
    bundle = cotangent_bundle(base.n, k)
    chart = bundle.chart
    comps = [Num(0.0)] * chart.dimension
    for i in range(1, base.n + 1):
        comps[chart.base_index(i)] = transplant(Z.components[i - 1], chart)
    for A in range(1, k + 1):
        for i in range(1, base.n + 1):
            terms = []
            for j in range(1, base.n + 1):
                dZj = Z.components[j - 1].diff(base.base_index(i))
                if isinstance(dZj, Num) and dZj.value == 0.0:
                    continue
                terms.append(
                    make_mul(
                        chart.coordinate(f"p_{A}_{j}"),
                        transplant(dZj, chart),
                    )
                )
            if terms:
                comps[chart.fiber_index(A, i)] = make_neg(make_add(*terms))
    return VectorField(chart, tuple(comps))


def canonical_tangent_lift(Z: VectorField, k: int) -> VectorField:
    """Complete lift to the k-tangent chart:

    Z^i d/dx_i  ->  Z^i d/dx_i + v_A_j (dZ^i/dx_j) d/dv_A_i for every copy A.
    """
    base = _require_base(Z)
    bundle = tangent_bundle(base.n, k)
    chart = bundle.chart
    comps = [Num(0.0)] * chart.dimension
    for i in range(1, base.n + 1):
        comps[chart.base_index(i)] = transplant(Z.components[i - 1], chart)
    for A in range(1, k + 1):
        for i in range(1, base.n + 1):
            terms = []
            for j in range(1, base.n + 1):
                dZi = Z.components[i - 1].diff(base.base_index(j))
                if isinstance(dZi, Num) and dZi.value == 0.0:
                    continue
                terms.append(
                    make_mul(
                        chart.coordinate(f"v_{A}_{j}"),
                        transplant(dZi, chart),
                    )
                )
            if terms:
                comps[chart.fiber_index(A, i)] = make_add(*terms)
    return VectorField(chart, tuple(comps))


def vertical_lift(Z: VectorField, A: int, k: int) -> VectorField:
    """Copy the components of a base field into the A-th fiber block."""
    base = _require_base(Z)
    if not 1 <= A <= k:
        raise ValueError(f"copy index {A} out of range 1..{k}")
    bundle = tangent_bundle(base.n, k)
    chart = bundle.chart
    comps = [Num(0.0)] * chart.dimension
    for i in range(1, base.n + 1):
        comps[chart.fiber_index(A, i)] = transplant(Z.components[i - 1], chart)
    return VectorField(chart, tuple(comps))


# ---------------------------------------------------------------------------
# first prolongation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymbolicProlongation:
    """First prolongation of a closed-form map from the k-dimensional
    parameter chart (coordinates x_1..x_k read as the parameters t^A) into
    an n-dimensional base.  Calling it returns the point on the k-tangent
    chart: base values first, then the A-th partial derivatives per block.
    """

    n: int
    k: int
    base_exprs: tuple[Expression, ...]
    fiber_exprs: tuple[Expression, ...]  # grouped by A, then i

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.empty(self.n * (1 + self.k))
        for i, e in enumerate(self.base_exprs):
            out[i] = compiled_evaluator(e)(t)
        for j, e in enumerate(self.fiber_exprs):
            out[self.n + j] = compiled_evaluator(e)(t)
        return out


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
