"""Conservation laws: construction and sampled verification.

A law is a tuple of scalar quantities Phi_1..Phi_k on one chart, conserved
along an evolution family X when sum_A X_A(Phi_A) vanishes.  Two
constructors:

  * build_bracket_law   Phi_A = omega_A(S_1, ..., S_{p-1}, Y), fully
                        symbolic.  Deliberately total: it does not check
                        that Y is a symmetry or the forms invariant, so the
                        verifier can demonstrate which hypotheses matter.
  * build_noether_law   Phi_A = theta_A(Y) - f_A for a Cartan symmetry Y,
                        where df_A = L_Y theta_A.  When that derivative
                        vanishes on the samples f_A is taken to be zero and
                        the law stays symbolic; otherwise f_A is recovered
                        by line-integral quadrature, pinned to 0 at the
                        base point.

Verification differentiates every component exactly.  A quadrature-backed
component needs no finite difference: its potential satisfies df_A =
L_Y theta_A by construction, so X_A(Phi_A) = X_A(theta_A(Y)) - (L_Y
theta_A)(X_A) and d Phi_A = d(theta_A(Y)) - L_Y theta_A, both symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .calculus import (
    ChartMismatchError,
    PForm,
    PotentialEvaluator,
    ScalarField,
    VectorField,
    apply_form,
    directional_derivative,
    exterior_derivative,
    form_sub,
    interior_product,
    lie_derivative_form,
    max_abs,
    potential_of_exact_one_form,
    scalar_form,
)
from .dynamics import FieldSystem, KVectorField
from .expr import ChartSpace, Num, batch_evaluator, make_add, make_neg, sample_points, worst_sample
from .symmetry import SymmetryVerdict, is_cartan_symmetry

__all__ = [
    "ConservationLaw",
    "NumericLawComponent",
    "MomentumConverseVerdict",
    "NotCartanSymmetryError",
    "user_law",
    "build_bracket_law",
    "build_noether_law",
    "law_residuals",
    "verify_law_pointwise",
    "check_momentum_converse",
]

PROVENANCES = ("bracket-law", "noether", "user")


class NotCartanSymmetryError(ValueError):
    """The candidate field failed the Cartan check gating the construction."""

    def __init__(self, verdict: SymmetryVerdict):
        super().__init__(
            "field is not a Cartan symmetry: residual "
            f"{verdict.max_residual:.3e} at {verdict.witness}"
        )
        self.verdict = verdict


@dataclass(frozen=True)
class NumericLawComponent:
    """theta_A(Y) minus a quadrature-backed potential of L_Y theta_A."""

    chart: ChartSpace
    symbolic: ScalarField
    potential: PotentialEvaluator

    def evaluate(self, point) -> float:
        return self.symbolic.evaluate(point) - self.potential.evaluate(point)

    def evaluate_batch(self, points) -> np.ndarray:
        return self.symbolic.evaluate_batch(points) - self.potential.evaluate_batch(points)


@dataclass(frozen=True, eq=False)
class ConservationLaw:
    chart: ChartSpace
    components: tuple
    provenance: str
    ingredients: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if len(self.components) != self.chart.k:
            raise ValueError(
                f"expected {self.chart.k} components on this chart, got {len(self.components)}"
            )
        for comp in self.components:
            if comp.chart != self.chart:
                raise ChartMismatchError("law component lives on a different chart")

    @property
    def symbolic(self) -> bool:
        return all(isinstance(c, ScalarField) for c in self.components)

    def evaluate(self, point) -> np.ndarray:
        return np.array([c.evaluate(point) for c in self.components])


def user_law(chart: ChartSpace, components: Sequence) -> ConservationLaw:
    return ConservationLaw(chart, tuple(components), "user")


def build_bracket_law(
    omegas: Sequence[PForm], s_fields: Sequence[VectorField], Y: VectorField
) -> ConservationLaw:
    """Phi_A = omega_A(S_1, ..., S_{p-1}, Y), expanded symbolically."""
    if not omegas:
        raise ValueError("need at least one form")
    chart = Y.chart
    degrees = {w.degree for w in omegas}
    if len(degrees) != 1:
        raise ValueError(f"forms have mixed degrees {sorted(degrees)}")
    p = degrees.pop()
    if len(s_fields) != p - 1:
        raise ValueError(
            f"degree-{p} forms need {p - 1} companion fields, got {len(s_fields)}"
        )
    for w in omegas:
        if w.chart != chart:
            raise ChartMismatchError("form lives on a different chart")
    for S in s_fields:
        if S.chart != chart:
            raise ChartMismatchError("field lives on a different chart")
    components = tuple(
        ScalarField(chart, apply_form(w, list(s_fields) + [Y])) for w in omegas
    )
    return ConservationLaw(
        chart,
        components,
        "bracket-law",
        {"omega": tuple(omegas), "S": tuple(s_fields), "Y": Y},
    )


def build_noether_law(
    sys: FieldSystem,
    Y: VectorField,
    base_point=None,
    *,
    points=None,
    samples: int = 64,
    seed: int = 42,
    halfwidth: float = 1.0,
    tolerance: float | None = None,
    nodes: int = 64,
) -> ConservationLaw:
    """Momentum law of a Cartan symmetry: Phi_A = theta_A(Y) - f_A.

    Raises NotCartanSymmetryError when Y fails the gate, and the closedness
    error of the potential constructor when L_Y theta_A is not exact.
    """
    if Y.chart != sys.chart:
        raise ChartMismatchError("field lives on a different chart")
    tol = sys.default_tolerance if tolerance is None else tolerance
    if points is None:
        points = sample_points(sys.chart, count=samples, seed=seed, halfwidth=halfwidth)
    verdict = is_cartan_symmetry(sys, Y, points, tol)
    if not verdict.holds:
        raise NotCartanSymmetryError(verdict)
    base = (
        np.zeros(sys.chart.dimension)
        if base_point is None
        else np.asarray(base_point, dtype=float)
    )
    components = []
    potentials = []
    for theta in sys.theta:
        pairing = ScalarField(sys.chart, apply_form(theta, [Y]))
        derivative = lie_derivative_form(Y, theta)
        if worst_sample(derivative.max_abs(points))[0] <= tol:
            potentials.append(ScalarField(sys.chart, Num(0.0)))
            components.append(pairing)
        else:
            f = potential_of_exact_one_form(
                derivative,
                base,
                samples=samples,
                seed=seed,
                halfwidth=halfwidth,
                tolerance=tol,
                nodes=nodes,
            )
            potentials.append(f)
            components.append(NumericLawComponent(sys.chart, pairing, f))
    return ConservationLaw(
        sys.chart,
        tuple(components),
        "noether",
        {"Y": Y, "theta": sys.theta, "f": tuple(potentials), "cartan": verdict},
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _directional_derivative(Xa: VectorField, comp):
    if isinstance(comp, ScalarField):
        return directional_derivative(Xa, comp.expr)
    # X_A(f_A) = alpha_A(X_A) because df_A = alpha_A
    return make_add(
        directional_derivative(Xa, comp.symbolic.expr),
        make_neg(apply_form(comp.potential.alpha, [Xa])),
    )


def law_residuals(X: KVectorField, law: ConservationLaw, points) -> np.ndarray:
    """|sum_A X_A(Phi_A)| at each sample point.

    Quadrature-backed components are differentiated exactly, through the
    one-form alpha_A = df_A their potential integrates.
    """
    if X.chart != law.chart:
        raise ChartMismatchError("family lives on a different chart")
    if len(X) != len(law.components):
        raise ValueError("family and law have different lengths")
    return np.abs(sum(
        batch_evaluator(_directional_derivative(Xa, comp))(points)
        for Xa, comp in zip(X, law.components)
    ))


def verify_law_pointwise(X: KVectorField, law: ConservationLaw, points) -> float:
    """Max over samples of |sum_A X_A(Phi_A)|; NaN if any sample gives NaN."""
    return worst_sample(law_residuals(X, law, points))[0]


def _differential(comp) -> PForm:
    if isinstance(comp, ScalarField):
        return exterior_derivative(scalar_form(comp))
    # d Phi_A = d(theta_A(Y)) - alpha_A because df_A = alpha_A
    return form_sub(exterior_derivative(scalar_form(comp.symbolic)), comp.potential.alpha)


def _pairing_form(X_single, comp, omega) -> PForm:
    return form_sub(interior_product(X_single, omega), _differential(comp))


@dataclass(frozen=True)
class MomentumConverseVerdict:
    """Three-way diagnosis of whether a law is induced by a Cartan symmetry."""

    pairing_residual: float
    law_residual: float
    cartan: SymmetryVerdict
    tolerance: float

    @property
    def pairing_holds(self) -> bool:
        return self.pairing_residual <= self.tolerance

    @property
    def law_holds(self) -> bool:
        return self.law_residual <= self.tolerance

    @property
    def noether_induced(self) -> bool:
        return self.pairing_holds and self.law_holds and self.cartan.holds


def check_momentum_converse(
    sys: FieldSystem,
    X_single: VectorField,
    law: ConservationLaw,
    X: KVectorField,
    points,
    tolerance: float | None = None,
) -> MomentumConverseVerdict:
    """Test the biconditional linking a law to a generating Cartan symmetry.

    (a) i_{X_single} omega_A = d Phi_A for every A, (b) the law holds along
    X, (c) X_single is a Cartan symmetry of the system.
    """
    if X_single.chart != sys.chart or law.chart != sys.chart:
        raise ChartMismatchError("ingredients live on different charts")
    tol = sys.default_tolerance if tolerance is None else tolerance
    pairing_forms = [
        _pairing_form(X_single, comp, omega) for comp, omega in zip(law.components, sys.omega)
    ]
    exprs = [e for form in pairing_forms for e in form.components.values()]
    pairing = worst_sample(max_abs(exprs, points))[0]
    law_residual = verify_law_pointwise(X, law, points)
    cartan = is_cartan_symmetry(sys, X_single, points, tol)
    return MomentumConverseVerdict(
        pairing_residual=pairing,
        law_residual=law_residual,
        cartan=cartan,
        tolerance=tol,
    )
