from __future__ import annotations

import numpy as np
import pytest

from ksym.bundles import cotangent_bundle, tangent_bundle
from ksym.calculus import (
    ScalarField,
    exterior_derivative,
    form_neg,
    lie_derivative_form,
    one_form,
    scalar_form,
)
from ksym.expr import Num, parse_expression, sample_points
from builders import vector_field_from_map
from scalar_oracle import evaluate


# ---------------------------------------------------------------------------
# canonical cotangent structures
# ---------------------------------------------------------------------------


def test_tautological_forms_components():
    cb = cotangent_bundle(2, 2)
    chart = cb.chart
    theta1 = cb.theta[0]
    assert theta1.component(chart.base_index(1)) == chart.coordinate("p_1_1")
    assert theta1.component(chart.base_index(2)) == chart.coordinate("p_1_2")
    theta2 = cb.theta[1]
    assert theta2.component(chart.base_index(1)) == chart.coordinate("p_2_1")
    # no fiber components
    for idx in range(chart.n, chart.dimension):
        assert theta1.component(idx) == Num(0.0)


def test_omega_is_minus_d_theta_structurally():
    cb = cotangent_bundle(2, 3)
    for theta, omega in zip(cb.theta, cb.omega):
        again = form_neg(exterior_derivative(theta))
        assert omega.components == again.components


def test_omega_pairs_base_with_matching_momentum():
    cb = cotangent_bundle(2, 2)
    chart = cb.chart
    omega1 = cb.omega[0]
    # omega_A = dx_i ^ dp_A_i: coefficient +1 on (x_i, p_A_i)
    assert omega1.component(chart.base_index(1), chart.fiber_index(1, 1)) == Num(1.0)
    assert omega1.component(chart.base_index(2), chart.fiber_index(1, 2)) == Num(1.0)
    assert omega1.component(chart.base_index(1), chart.fiber_index(2, 1)) == Num(0.0)
    assert len(omega1.components) == 2


# ---------------------------------------------------------------------------
# canonical tangent structures
# ---------------------------------------------------------------------------


def test_liouville_field_components():
    tb = tangent_bundle(1, 2)
    chart = tb.chart
    delta = tb.liouville
    point = np.array([0.3, 1.5, -2.0])
    (vals,) = delta.evaluate(point[None])
    assert vals[chart.base_index(1)] == 0.0
    assert vals[chart.fiber_index(1, 1)] == 1.5
    assert vals[chart.fiber_index(2, 1)] == -2.0


def test_tangent_structure_maps_base_to_fiber():
    # S_2 sends d/dx_i to d/dv_2_i and kills fiber directions, so alpha o S_2
    # reads the dv_2_i components of alpha into the dx_i slots and nothing else
    tb = tangent_bundle(2, 2)
    chart = tb.chart
    alpha = one_form(
        chart,
        {
            chart.base_index(1): Num(3.0),
            chart.fiber_index(1, 1): Num(7.0),
            chart.fiber_index(2, 1): chart.coordinate("x_2"),
        },
    )
    out = tb.structures[1].precompose_one_form(alpha)
    assert out.components == {(chart.base_index(1),): chart.coordinate("x_2")}


def test_tangent_structure_precompose_picks_fiber_slots():
    tb = tangent_bundle(1, 2)
    chart = tb.chart
    L = ScalarField(chart, parse_expression("(1/2)*(v_1_1^2 - v_2_1^2)", chart))
    dL = exterior_derivative(scalar_form(L))
    theta1 = tb.structures[0].precompose_one_form(dL)
    theta2 = tb.structures[1].precompose_one_form(dL)
    # theta_A = (dL o S^A) = dL/dv_A_1 dx_1
    assert theta1.component(chart.base_index(1)) == chart.coordinate("v_1_1")
    for p in sample_points(chart, count=8, seed=3):
        assert evaluate(theta2.component(chart.base_index(1)), p) == pytest.approx(-p[2])


def test_cotangent_lift_preserves_canonical_forms():
    # the complete lift of Z = (x_1^2 - x_2) d/dx_1 + 3 x_1 x_2 d/dx_2, with
    # -p_A_j dZ^j/dx_i in each d/dp_A_i slot, is a symmetry of every omega_A
    cb = cotangent_bundle(2, 2)
    sources = {"x_1": "x_1^2 - x_2", "x_2": "3*x_1*x_2"}
    for A in (1, 2):
        sources[f"p_{A}_1"] = f"-(2*x_1*p_{A}_1 + 3*x_2*p_{A}_2)"
        sources[f"p_{A}_2"] = f"p_{A}_1 - 3*x_1*p_{A}_2"
    lifted = vector_field_from_map(
        cb.chart, {name: parse_expression(src, cb.chart) for name, src in sources.items()}
    )
    for omega in cb.omega:
        lie = lie_derivative_form(lifted, omega)
        assert (lie.max_component_at(sample_points(cb.chart, count=16, seed=11)) <= 1e-9).all()

