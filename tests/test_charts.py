"""One chart contract: every entry point given an operand on another chart
raises ``ChartMismatchError`` with the one message of ``calculus._same_chart``."""

from __future__ import annotations

import numpy as np
import pytest

from ksym.bundles import tangent_bundle
from ksym.calculus import (
    ChartMismatchError,
    PForm,
    ScalarField,
    apply_form,
    form_add,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    one_form,
    scalar_form,
)
from ksym.conservation import (
    ConservationLaw,
    build_bracket_law,
    build_noether_law,
    user_law,
    verify_law_pointwise,
)
from ksym.dynamics import KVectorField, build_system, evolution_residuals, verify_evolution
from ksym.expr import Num
from ksym.sections import SectionGrid, verify_law_divergence
from ksym.symmetry import (
    is_cartan_symmetry,
    is_invariant_form,
    is_symmetry,
    solve_pseudosymmetry,
)
from builders import coordinate_vector_field

MESSAGE = r"^chart mismatch: [a-z-]+\(\d+,\d+\) vs [a-z-]+\(\d+,\d+\)$"


def _mismatches():
    """One call per entry point, passing exactly one operand on tangent(2,1)
    where the others live on tangent(1,1)."""
    sys = build_system("lagrangian", 1, 1, "v_1_1^2/2")
    far_sys = build_system("lagrangian", 2, 1, "v_1_1^2/2")
    ch, far = sys.chart, far_sys.chart
    dx, far_dx = coordinate_vector_field(ch, 0), coordinate_vector_field(far, 0)
    X, far_X = KVectorField(ch, (dx,)), KVectorField(far, (far_dx,))
    far_law = user_law(far, [ScalarField(far, Num(1.0))])
    w, far_w = sys.omega[0], far_sys.omega[0]
    points = np.zeros((1, ch.dimension))
    grid = SectionGrid(ch, 0.5, np.zeros((3, ch.dimension)))
    cases = [
        ("precompose_one_form",
         lambda: tangent_bundle(1, 1).structures[0].precompose_one_form(
             one_form(far, {0: Num(1.0)}))),
        ("ConservationLaw", lambda: ConservationLaw(ch, (ScalarField(far, Num(1.0)),), "user")),
        ("build_bracket_law-form", lambda: build_bracket_law([far_w], [dx], dx)),
        ("build_bracket_law-companion", lambda: build_bracket_law([w], [far_dx], dx)),
        ("build_bracket_law-field", lambda: build_bracket_law([w], [dx], far_dx)),
        ("build_noether_law", lambda: build_noether_law(sys, far_dx, points)),
        ("verify_law_pointwise", lambda: verify_law_pointwise(X, far_law, points)),
        ("KVectorField", lambda: KVectorField(ch, (far_dx,))),
        ("verify_evolution", lambda: verify_evolution(sys, far_X, points)),
        ("evolution_residuals", lambda: evolution_residuals(sys, far_X)),
        ("verify_law_divergence", lambda: verify_law_divergence(far_law, grid)),
        ("is_symmetry", lambda: is_symmetry(X, far_dx, points)),
        ("solve_pseudosymmetry", lambda: solve_pseudosymmetry(X, dx, far_X, points)),
        ("is_cartan_symmetry", lambda: is_cartan_symmetry(sys, far_dx, points)),
        ("is_invariant_form", lambda: is_invariant_form(X, [far_w], points)),
        ("lie_bracket", lambda: lie_bracket(dx, far_dx)),
        ("form_add", lambda: form_add(w, far_w)),
        ("interior_product", lambda: interior_product(far_dx, w)),
        ("lie_derivative_form", lambda: lie_derivative_form(far_dx, w)),
        ("lie_derivative_form-0-form",
         lambda: lie_derivative_form(far_dx, scalar_form(sys.function))),
        ("apply_form", lambda: apply_form(w, [dx, far_dx])),
        ("apply_form-empty-form", lambda: apply_form(PForm(far, 1, {}), [dx])),
    ]
    return [pytest.param(call, id=name) for name, call in cases]


@pytest.mark.parametrize("call", _mismatches())
def test_an_operand_on_another_chart_raises_the_one_chart_mismatch(call):
    with pytest.raises(ChartMismatchError, match=MESSAGE):
        call()
