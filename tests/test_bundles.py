from __future__ import annotations

import numpy as np
import pytest

from ksym.bundles import (
    canonical_cotangent_lift,
    canonical_tangent_lift,
    cotangent_bundle,
    first_prolongation,
    tangent_bundle,
    transplant,
    vertical_lift,
)
from ksym.calculus import (
    ScalarField,
    exterior_derivative,
    form_add,
    form_neg,
    lie_derivative_form,
    one_form,
    scalar_form,
    vector_field_from_map,
)
from ksym.expr import (
    Num,
    base_chart,
    parse_expression,
    sample_points,
    tangent_chart,
)
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
    for idx in chart.fiber_indices:
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


def test_vertical_frame_spans_momenta():
    cb = cotangent_bundle(2, 2)
    assert len(cb.vertical_frame) == 4
    v = cb.vertical_frame[0].evaluate(np.zeros(cb.chart.dimension))
    assert v[cb.chart.fiber_index(1, 1)] == 1.0
    assert np.sum(np.abs(v)) == 1.0


# ---------------------------------------------------------------------------
# canonical tangent structures
# ---------------------------------------------------------------------------


def test_liouville_field_components():
    tb = tangent_bundle(1, 2)
    chart = tb.chart
    delta = tb.liouville
    point = np.array([0.3, 1.5, -2.0])
    vals = delta.evaluate(point)
    assert vals[chart.base_index(1)] == 0.0
    assert vals[chart.fiber_index(1, 1)] == 1.5
    assert vals[chart.fiber_index(2, 1)] == -2.0


def test_tangent_structure_maps_base_to_fiber():
    tb = tangent_bundle(2, 2)
    chart = tb.chart
    V = vector_field_from_map(
        chart, {"x_1": parse_expression("x_2", chart), "v_1_1": Num(7.0)}
    )
    S2 = tb.structures[1]
    out = S2.apply_to_vector(V)
    point = np.array([0.0, 0.5, 0, 0, 0, 0], dtype=float)
    vals = out.evaluate(point)
    # base component of V lands in the second fiber block; fiber input ignored
    assert vals[chart.fiber_index(2, 1)] == 0.5
    assert np.count_nonzero(vals) == 1


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


def test_vertical_lift_matches_structure_applied_to_tangent_lift():
    base = base_chart(2)
    Z = vector_field_from_map(
        base, {"x_1": parse_expression("x_2^2", base), "x_2": parse_expression("x_1", base)}
    )
    tb = tangent_bundle(2, 2)
    lifted = canonical_tangent_lift(Z, 2)
    for A in (1, 2):
        vert = vertical_lift(Z, A, 2)
        via_structure = tb.structures[A - 1].apply_to_vector(lifted)
        for p in sample_points(tb.chart, count=8, seed=5):
            assert np.allclose(vert.evaluate(p), via_structure.evaluate(p), atol=1e-14)


# ---------------------------------------------------------------------------
# lifts
# ---------------------------------------------------------------------------


def test_cotangent_lift_of_translation_is_translation():
    base = base_chart(1)
    Z = vector_field_from_map(base, {"x_1": Num(1.0)})
    lifted = canonical_cotangent_lift(Z, 2)
    point = np.array([0.4, 1.0, 2.0])
    assert np.allclose(lifted.evaluate(point), [1.0, 0.0, 0.0])


def test_cotangent_lift_of_scaling_field():
    # Z = x d/dx lifts to x d/dx - p_A d/dp_A on each copy
    base = base_chart(1)
    Z = vector_field_from_map(base, {"x_1": base.coordinate("x_1")})
    lifted = canonical_cotangent_lift(Z, 2)
    chart = cotangent_bundle(1, 2).chart
    point = np.array([0.7, 2.0, -3.0])
    vals = lifted.evaluate(point)
    assert vals[chart.base_index(1)] == pytest.approx(0.7)
    assert vals[chart.fiber_index(1, 1)] == pytest.approx(-2.0)
    assert vals[chart.fiber_index(2, 1)] == pytest.approx(3.0)


def test_tangent_lift_of_scaling_field():
    # Z = x d/dx lifts to x d/dx + v_A d/dv_A
    base = base_chart(1)
    Z = vector_field_from_map(base, {"x_1": base.coordinate("x_1")})
    lifted = canonical_tangent_lift(Z, 2)
    chart = tangent_bundle(1, 2).chart
    point = np.array([0.7, 2.0, -3.0])
    vals = lifted.evaluate(point)
    assert vals[chart.base_index(1)] == pytest.approx(0.7)
    assert vals[chart.fiber_index(1, 1)] == pytest.approx(2.0)
    assert vals[chart.fiber_index(2, 1)] == pytest.approx(-3.0)


def test_cotangent_lift_preserves_canonical_forms():
    rng = np.random.default_rng(8)
    base = base_chart(2)
    Z = vector_field_from_map(
        base,
        {
            "x_1": parse_expression("x_1^2 - x_2", base),
            "x_2": parse_expression("3*x_1*x_2", base),
        },
    )
    lifted = canonical_cotangent_lift(Z, 2)
    cb = cotangent_bundle(2, 2)
    for omega in cb.omega:
        lie = lie_derivative_form(lifted, omega)
        for p in sample_points(cb.chart, count=16, seed=11):
            assert lie.max_component_at(p) <= 1e-9


def test_lift_linearity():
    base = base_chart(2)
    Z1 = vector_field_from_map(base, {"x_1": parse_expression("x_2^2", base)})
    Z2 = vector_field_from_map(base, {"x_2": parse_expression("x_1", base)})
    combo = vector_field_from_map(
        base,
        {
            "x_1": parse_expression("2*x_2^2", base),
            "x_2": parse_expression("-3*x_1", base),
        },
    )
    for lift in (canonical_tangent_lift, canonical_cotangent_lift):
        L1 = lift(Z1, 2)
        L2 = lift(Z2, 2)
        Lc = lift(combo, 2)
        for p in sample_points(L1.chart, count=8, seed=19):
            lhs = Lc.evaluate(p)
            rhs = 2.0 * L1.evaluate(p) - 3.0 * L2.evaluate(p)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, np.max(np.abs(rhs)))


def test_transplant_rejects_missing_names():
    tb = tangent_bundle(1, 1)
    e = parse_expression("v_1_1", tb.chart)
    with pytest.raises(KeyError):
        transplant(e, base_chart(1))


# ---------------------------------------------------------------------------
# first prolongation
# ---------------------------------------------------------------------------


def test_symbolic_prolongation_of_affine_map():
    # phi(t1, t2) = (a + b t1 + c t2) -> fibers are the constant slopes
    params = base_chart(2)
    phi = [ScalarField(params, parse_expression("1 + 2*x_1 - 3*x_2", params))]
    section = first_prolongation(phi)
    out = section([0.5, 0.25])
    assert out == pytest.approx([1 + 1.0 - 0.75, 2.0, -3.0])


def test_symbolic_prolongation_orders_fibers_by_copy():
    params = base_chart(2)
    phi = [
        ScalarField(params, parse_expression("x_1^2", params)),
        ScalarField(params, parse_expression("x_1*x_2", params)),
    ]
    section = first_prolongation(phi)
    t = np.array([0.5, 2.0])
    out = section(t)
    chart = tangent_chart(2, 2)
    assert out[chart.base_index(1)] == pytest.approx(0.25)
    assert out[chart.base_index(2)] == pytest.approx(1.0)
    assert out[chart.fiber_index(1, 1)] == pytest.approx(1.0)  # d(t1^2)/dt1
    assert out[chart.fiber_index(1, 2)] == pytest.approx(2.0)  # d(t1 t2)/dt1
    assert out[chart.fiber_index(2, 1)] == pytest.approx(0.0)
    assert out[chart.fiber_index(2, 2)] == pytest.approx(0.5)


def test_grid_prolongation_matches_symbolic_to_second_order():
    params = base_chart(2)
    phi = [ScalarField(params, parse_expression("sin(x_1)*cos(x_2)", params))]
    section = first_prolongation(phi)
    h = 1.0 / 64
    m = 33
    t1 = np.arange(m) * h
    t2 = np.arange(m) * h
    grid = np.empty((m, m, 1))
    for i, a in enumerate(t1):
        for j, b in enumerate(t2):
            grid[i, j, 0] = np.sin(a) * np.cos(b)
    prolonged = first_prolongation(grid, steps=[h, h])
    worst = 0.0
    for i in (0, m // 2, m - 1):
        for j in (0, m // 2, m - 1):
            exact = section([t1[i], t2[j]])
            worst = max(worst, np.max(np.abs(prolonged[i, j] - exact)))
    assert worst <= 5 * h**2


def test_grid_prolongation_requires_three_nodes():
    grid = np.zeros((2, 4, 1))
    with pytest.raises(ValueError):
        first_prolongation(grid, steps=[0.1, 0.1])


def test_grid_prolongation_requires_steps():
    with pytest.raises(ValueError):
        first_prolongation(np.zeros((4, 4, 1)))
