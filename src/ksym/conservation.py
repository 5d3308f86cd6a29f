"""Conservation laws: construction and sampled verification.

A law is a tuple of scalar quantities Phi_1..Phi_k on one chart, conserved
along an evolution family X when sum_A X_A(Phi_A) vanishes.  Two
constructors:

  * build_bracket_law   Phi_A = omega_A(S_1, ..., S_{p-1}, Y), fully
                        symbolic.  Deliberately total: it does not check
                        that Y is a symmetry or the forms invariant, so the
                        verifier can demonstrate which hypotheses matter.
  * build_noether_law   Phi_A = theta_A(Y) - f_A for a Cartan symmetry Y,
                        where df_A = L_Y theta_A.  The Cartan gate, the
                        vanishing test below and the closedness of
                        L_Y theta_A all run on the caller's one point set.
                        When that derivative vanishes on the points f_A is
                        taken to be zero and the law stays symbolic;
                        otherwise f_A is recovered by line-integral
                        quadrature, pinned to 0 at the chart origin.

Verification differentiates every component exactly.  A quadrature-backed
component needs no finite difference: its potential satisfies df_A =
L_Y theta_A by construction, so X_A(Phi_A) = X_A(theta_A(Y)) - (L_Y
theta_A)(X_A) and d Phi_A = d(theta_A(Y)) - L_Y theta_A, both symbolic.
"""

from __future__ import annotations

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
from .expr import (
    ChartSpace, Check, Num, Record, batch_evaluator, make_add, make_neg, residual_check,
    worst_sample,
)
from .symmetry import is_cartan_symmetry

__all__ = [
    "ConservationLaw",
    "NumericLawComponent",
    "NotCartanSymmetryError",
    "user_law",
    "build_bracket_law",
    "build_noether_law",
    "law_residuals",
    "verify_law_pointwise",
    "check_momentum_converse",
]

PROVENANCES = ("bracket-law", "noether", "user")
LAW_TOLERANCE = 1e-9


class NotCartanSymmetryError(ValueError):
    """The candidate field failed the Cartan check gating the construction."""

    def __init__(self, verdict: Check):
        super().__init__(
            "field is not a Cartan symmetry: residual "
            f"{verdict.max_residual:.3e} at {verdict.witness}"
        )
        self.verdict = verdict


class NumericLawComponent(Record):
    """theta_A(Y) minus a quadrature-backed potential of L_Y theta_A."""

    def __init__(self, chart: ChartSpace, symbolic: ScalarField, potential: PotentialEvaluator):
        self._set(chart=chart, symbolic=symbolic, potential=potential)

    def evaluate(self, points) -> np.ndarray:
        """Values at each of the (m, N) points, shape (m,)."""
        return self.symbolic.evaluate(points) - self.potential.evaluate(points)


class ConservationLaw(Record, eq=False):
    def __init__(self, chart: ChartSpace, components: tuple, provenance: str,
                 ingredients: Mapping | None = None):
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        if len(components) != chart.k:
            raise ValueError(f"expected {chart.k} components on this chart, got {len(components)}")
        for comp in components:
            if comp.chart != chart:
                raise ChartMismatchError("law component lives on a different chart")
        self._set(chart=chart, components=components, provenance=provenance,
                  ingredients={} if ingredients is None else ingredients)

    @property
    def symbolic(self) -> bool:
        return all(isinstance(c, ScalarField) for c in self.components)

    def evaluate(self, points) -> np.ndarray:
        """Phi_1..Phi_k at each of the (m, N) points, shape (k, m)."""
        return np.stack([c.evaluate(points) for c in self.components])


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
    sys: FieldSystem, Y: VectorField, points, tolerance: float | None = None
) -> ConservationLaw:
    """Momentum law of a Cartan symmetry: Phi_A = theta_A(Y) - f_A, with every
    hypothesis checked at the (m, N) ``points``.

    Raises NotCartanSymmetryError when Y fails the gate, and the closedness
    error of the potential constructor when L_Y theta_A is not exact.
    """
    if Y.chart != sys.chart:
        raise ChartMismatchError("field lives on a different chart")
    tol = sys.default_tolerance if tolerance is None else tolerance
    verdict = is_cartan_symmetry(sys, Y, points, tol)
    if not verdict.holds:
        raise NotCartanSymmetryError(verdict)
    components = []
    potentials = []
    for theta in sys.theta:
        pairing = ScalarField(sys.chart, apply_form(theta, [Y]))
        derivative = lie_derivative_form(Y, theta)
        if worst_sample(derivative.max_component_at(points))[0] <= tol:
            potentials.append(ScalarField(sys.chart, Num(0.0)))
            components.append(pairing)
        else:
            f = potential_of_exact_one_form(derivative, np.zeros(sys.chart.dimension), points, tol)
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
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN verdict
        return np.abs(sum(
            batch_evaluator(_directional_derivative(Xa, comp))(points)
            for Xa, comp in zip(X, law.components)
        ))


def verify_law_pointwise(
    X: KVectorField, law: ConservationLaw, points, tolerance: float = LAW_TOLERANCE
) -> Check:
    """The "law-pointwise" check: max over samples of |sum_A X_A(Phi_A)|."""
    return residual_check("law-pointwise", law_residuals(X, law, points), points, tolerance)


def _differential(comp) -> PForm:
    if isinstance(comp, ScalarField):
        return exterior_derivative(scalar_form(comp))
    # d Phi_A = d(theta_A(Y)) - alpha_A because df_A = alpha_A
    return form_sub(exterior_derivative(scalar_form(comp.symbolic)), comp.potential.alpha)


def _pairing_form(X_single, comp, omega) -> PForm:
    return form_sub(interior_product(X_single, omega), _differential(comp))


def check_momentum_converse(
    sys: FieldSystem,
    X_single: VectorField,
    law: ConservationLaw,
    X: KVectorField,
    points,
    tolerance: float | None = None,
) -> tuple[Check, Check, Check]:
    """Test the biconditional linking a law to a generating Cartan symmetry.

    Returns three checks: (a) "pairing", i_{X_single} omega_A = d Phi_A for
    every A, (b) "law-pointwise", the law holds along X, (c) "cartan",
    X_single is a Cartan symmetry of the system.  The law is induced by
    X_single (Noether-induced) iff all three hold.
    """
    if X_single.chart != sys.chart or law.chart != sys.chart:
        raise ChartMismatchError("ingredients live on different charts")
    tol = sys.default_tolerance if tolerance is None else tolerance
    pairing_forms = [
        _pairing_form(X_single, comp, omega) for comp, omega in zip(law.components, sys.omega)
    ]
    exprs = [e for form in pairing_forms for e in form.components.values()]
    pairing = residual_check("pairing", max_abs(exprs, points), points, tol)
    conserved = verify_law_pointwise(X, law, points, tol)
    return pairing, conserved, is_cartan_symmetry(sys, X_single, points, tol)
