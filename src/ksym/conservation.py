"""Conservation laws: construction and sampled verification.

A law is a tuple of scalar quantities Phi_A = c_A - f_A on one chart,
conserved along an evolution family X when sum_A X_A(Phi_A) vanishes: each
c_A is a ``ScalarField`` and each f_A a quadrature-backed potential or
absent (zero).  Two constructors:

  * build_bracket_law   Phi_A = omega_A(S_1, ..., S_{p-1}, Y), fully
                        symbolic.  Deliberately total: it does not check
                        that Y is a symmetry or the forms invariant, so the
                        verifier can demonstrate which hypotheses matter.
  * build_noether_law   Phi_A = theta_A(Y) - f_A for a Cartan symmetry Y,
                        where df_A = L_Y theta_A.  The Cartan gate, the
                        vanishing test below and the closedness of
                        L_Y theta_A all run on the caller's one point set.
                        When that derivative is the zero form, or vanishes
                        on the points, f_A is absent; otherwise f_A is
                        recovered by line-integral quadrature, pinned to 0
                        at the chart origin.

Verification differentiates every component exactly.  A potential needs
no finite difference: it satisfies df_A = alpha_A (= L_Y theta_A) by
construction, so X_A(Phi_A) = X_A(c_A) - alpha_A(X_A) and d Phi_A =
d c_A - alpha_A, both symbolic.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .calculus import (
    PForm,
    ScalarField,
    VectorField,
    _same_chart,
    apply_form,
    directional_derivative,
    lie_derivative_form,
    potential_of_exact_one_form,
    verdict,
)
from .dynamics import FieldSystem, KVectorField
from .expr import ChartSpace, Check, Record, field_evaluator, make_add, make_neg, worst_sample
from .symmetry import is_cartan_symmetry

__all__ = [
    "ConservationLaw",
    "NotCartanSymmetryError",
    "user_law",
    "build_bracket_law",
    "build_noether_law",
    "verify_law_pointwise",
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


class ConservationLaw(Record, eq=False):
    """Phi_A = c_A - f_A: k ``ScalarField`` c_A, k ``PotentialEvaluator`` f_A or None (0)."""

    def __init__(self, chart: ChartSpace, components: tuple, provenance: str,
                 potentials: tuple | None = None, ingredients: Mapping | None = None):
        if provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {provenance!r}")
        if len(components) != chart.k:
            raise ValueError(f"expected {chart.k} components on this chart, got {len(components)}")
        potentials = (None,) * chart.k if potentials is None else tuple(potentials)
        if len(potentials) != chart.k:
            raise ValueError(f"expected {chart.k} potentials on this chart, got {len(potentials)}")
        _same_chart(chart, *components, *(f.alpha for f in potentials if f is not None))
        self._set(chart=chart, components=components, provenance=provenance,
                  potentials=potentials, ingredients={} if ingredients is None else ingredients)

    def evaluate(self, points) -> np.ndarray:
        """Phi_1..Phi_k at each of the (m, N) points, shape (k, m): one kernel
        run over the components, minus each potential there is."""
        values = field_evaluator(tuple(c.expr for c in self.components))(points).T
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN value
            for row, f in zip(values, self.potentials):
                if f is not None:
                    row -= f.evaluate(points)
        return values


def user_law(chart: ChartSpace, components: Sequence) -> ConservationLaw:
    return ConservationLaw(chart, tuple(components), "user")


def build_bracket_law(
    omegas: Sequence[PForm], s_fields: Sequence[VectorField], Y: VectorField
) -> ConservationLaw:
    """Phi_A = omega_A(S_1, ..., S_{p-1}, Y), expanded symbolically."""
    if not omegas:
        raise ValueError("need at least one form")
    p = omegas[0].degree
    if len(s_fields) != p - 1:
        raise ValueError(
            f"degree-{p} forms need {p - 1} companion fields, got {len(s_fields)}"
        )
    components = tuple(
        ScalarField(Y.chart, apply_form(w, list(s_fields) + [Y])) for w in omegas
    )
    return ConservationLaw(
        Y.chart,
        components,
        "bracket-law",
        ingredients={"omega": tuple(omegas), "S": tuple(s_fields), "Y": Y},
    )


def build_noether_law(
    sys: FieldSystem, Y: VectorField, points, tolerance: float | None = None
) -> ConservationLaw:
    """Momentum law of a Cartan symmetry: Phi_A = theta_A(Y) - f_A, with every
    hypothesis checked at the (m, N) ``points``.

    Raises NotCartanSymmetryError when Y fails the gate, and the closedness
    error of the potential constructor when L_Y theta_A is not exact.
    """
    _same_chart(sys, Y)
    tol = sys.default_tolerance if tolerance is None else tolerance
    verdict = is_cartan_symmetry(sys, Y, points, tol)
    if not verdict.holds:
        raise NotCartanSymmetryError(verdict)
    components = tuple(ScalarField(sys.chart, apply_form(theta, [Y])) for theta in sys.theta)
    potentials = []
    for theta in sys.theta:
        derivative = lie_derivative_form(Y, theta)
        vanishes = (derivative.is_zero()
                    or worst_sample(derivative.max_component_at(points))[0] <= tol)
        potentials.append(None if vanishes else potential_of_exact_one_form(
            derivative, np.zeros(sys.chart.dimension), points, tol))
    return ConservationLaw(
        sys.chart,
        components,
        "noether",
        potentials,
        {"Y": Y, "theta": sys.theta, "cartan": verdict},
    )


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def _directional_derivative(Xa: VectorField, comp: ScalarField, f):
    term = directional_derivative(Xa, comp.expr)
    # X_A(f_A) = alpha_A(X_A) because df_A = alpha_A
    return term if f is None else make_add(term, make_neg(apply_form(f.alpha, [Xa])))


def verify_law_pointwise(
    X: KVectorField, law: ConservationLaw, points, tolerance: float = LAW_TOLERANCE
) -> Check:
    """The "law-pointwise" check: max over samples of |sum_A X_A(Phi_A)|, the
    k terms from one kernel run, summed as values.  Potentials are
    differentiated exactly, through the one-form alpha_A = df_A each
    integrates."""
    _same_chart(law, X)
    terms = tuple(map(_directional_derivative, X, law.components, law.potentials))
    return verdict("law-pointwise", terms, points, tolerance, summed=True)
