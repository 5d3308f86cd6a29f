from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ksym
from ksym.calculus import (
    ChartMismatchError,
    ClosednessError,
    PForm,
    PotentialEvaluator,
    ScalarField,
    VectorField,
    apply_form,
    coordinate_vector_field,
    directional_derivative,
    exterior_derivative,
    form_sub,
    interior_product,
    lie_bracket,
    lie_derivative_form,
    one_form,
    potential_of_exact_one_form,
    scalar_form,
    two_form_matrix,
    vector_field_from_map,
    zero_vector_field,
)
from ksym.expr import (
    Coord,
    Num,
    base_chart,
    make_add,
    make_mul,
    make_neg,
    parse_expression,
    sample_points,
    tangent_chart,
)
from scalar_oracle import evaluate


def _vf(chart, sources):
    return vector_field_from_map(
        chart, {name: parse_expression(src, chart) for name, src in sources.items()}
    )


def _random_poly_field(chart, rng):
    comps = {}
    for name in chart.coordinate_names:
        terms = [Num(float(rng.integers(-2, 3)))]
        for other in chart.coordinate_names:
            terms.append(
                make_mul(Num(float(rng.integers(-2, 3))), chart.coordinate(other))
            )
        a, b = rng.choice(len(chart.coordinate_names), size=2)
        terms.append(
            make_mul(
                Num(float(rng.integers(-1, 2))),
                Coord(int(a), chart.coordinate_names[int(a)]),
                Coord(int(b), chart.coordinate_names[int(b)]),
            )
        )
        comps[name] = make_add(*terms)
    return _vf(chart, {k: str(v) for k, v in comps.items()})


# ---------------------------------------------------------------------------
# brackets
# ---------------------------------------------------------------------------


def test_bracket_cyclic_quadratic_system():
    # X = (x2 x3, x3 x1, x1 x2), Y the radial field: [X, Y] = -X
    chart = base_chart(3)
    X = _vf(chart, {"x_1": "x_2*x_3", "x_2": "x_3*x_1", "x_3": "x_1*x_2"})
    Y = _vf(chart, {"x_1": "x_1", "x_2": "x_2", "x_3": "x_3"})
    bracket = lie_bracket(X, Y)
    pts = sample_points(chart, count=32, seed=9)
    assert np.allclose(bracket.evaluate(pts), -X.evaluate(pts), atol=1e-12)


def test_bracket_of_field_with_itself_vanishes():
    chart = base_chart(3)
    X = _vf(chart, {"x_1": "x_2*x_3", "x_2": "x_3*x_1", "x_3": "x_1*x_2"})
    bracket = lie_bracket(X, X)
    assert np.allclose(bracket.evaluate(sample_points(chart, count=8, seed=2)), 0.0, atol=1e-14)


def test_bracket_coordinate_fields_commute():
    chart = base_chart(2)
    d1 = coordinate_vector_field(chart, 0)
    d2 = coordinate_vector_field(chart, 1)
    assert lie_bracket(d1, d2).is_zero()


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_bracket_antisymmetry_and_jacobi(seed):
    rng = np.random.default_rng(seed)
    chart = base_chart(3)
    X = _random_poly_field(chart, rng)
    Y = _random_poly_field(chart, rng)
    Z = _random_poly_field(chart, rng)
    pts = rng.uniform(-1, 1, size=(6, 3))
    anti = lie_bracket(X, Y)
    anti_rev = lie_bracket(Y, X)
    jac = lie_bracket(X, lie_bracket(Y, Z))
    jac2 = lie_bracket(Y, lie_bracket(Z, X))
    jac3 = lie_bracket(Z, lie_bracket(X, Y))
    rows = zip(anti.evaluate(pts), anti_rev.evaluate(pts), jac.evaluate(pts),
               jac2.evaluate(pts), jac3.evaluate(pts))
    for a, b, j1, j2, j3 in rows:
        scale = max(1.0, np.max(np.abs(a)))
        assert np.max(np.abs(a + b)) <= 1e-10 * scale
        total = j1 + j2 + j3
        assert np.max(np.abs(total)) <= 1e-10 * max(1.0, np.max(np.abs(j1)))


def test_bracket_chart_mismatch_rejected():
    X = zero_vector_field(base_chart(2))
    Y = zero_vector_field(base_chart(3))
    with pytest.raises(ChartMismatchError):
        lie_bracket(X, Y)


# ---------------------------------------------------------------------------
# exterior derivative, interior product
# ---------------------------------------------------------------------------


def test_exterior_derivative_of_momentum_form():
    # d(p dx) = dp ^ dx = -(dx ^ dp)
    from ksym.expr import cotangent_chart

    chart = cotangent_chart(1, 1)
    p = chart.coordinate("p_1_1")
    theta = one_form(chart, {chart.index_of("x_1"): p})
    dtheta = exterior_derivative(theta)
    assert dtheta.degree == 2
    assert dtheta.component(0, 1) == Num(-1.0)


def test_d_squared_zero_pointwise():
    chart = base_chart(4)
    alpha = one_form(
        chart,
        {
            0: parse_expression("sin(x_2)*x_3", chart),
            1: parse_expression("exp(x_1*x_4)", chart),
            2: parse_expression("x_1^2*x_2", chart),
        },
    )
    dd = exterior_derivative(exterior_derivative(alpha))
    assert (dd.max_component_at(sample_points(chart, count=16, seed=21)) <= 1e-12).all()


def test_nan_component_is_not_folded_away():
    chart = base_chart(2)
    huge = parse_expression("exp(1000*x_1)", chart)
    alpha = one_form(chart, [Num(1.0), make_add(huge, make_neg(huge))])  # inf - inf at x_1 = 0.9
    assert math.isnan(alpha.max_component_at(np.array([[0.9, 0.0]]))[0])
    assert alpha.max_component_at(np.array([[0.0, 0.0]]))[0] == 1.0
    residuals = alpha.max_component_at(np.array([[0.0, 0.0], [0.9, 0.0], [-0.5, 0.0]]))
    assert residuals[0] == 1.0 and math.isnan(residuals[1]) and residuals[2] == 1.0


def test_interior_product_of_two_form():
    chart = base_chart(2)
    w = PForm(chart, 2, {(0, 1): Num(1.0)})  # dx1 ^ dx2
    d1 = coordinate_vector_field(chart, 0)
    d2 = coordinate_vector_field(chart, 1)
    assert interior_product(d1, w).component(1) == Num(1.0)
    contracted = interior_product(d2, w)
    assert contracted.component(0) == Num(-1.0)


def test_two_form_full_contraction_matches_matrix():
    chart = base_chart(3)
    w = PForm(
        chart,
        2,
        {
            (0, 1): parse_expression("x_3", chart),
            (0, 2): parse_expression("x_2^2", chart),
            (1, 2): Num(2.0),
        },
    )
    rng = np.random.default_rng(4)
    for _ in range(8):
        p = rng.uniform(-1, 1, size=3)
        u = rng.uniform(-1, 1, size=3)
        v = rng.uniform(-1, 1, size=3)
        U = VectorField(chart, tuple(Num(c) for c in u))
        V = VectorField(chart, tuple(Num(c) for c in v))
        symbolic = evaluate(apply_form(w, [U, V]), p)
        W = two_form_matrix(w, p)
        assert symbolic == pytest.approx(u @ W @ v, rel=1e-12, abs=1e-12)


def test_apply_form_alternating():
    chart = base_chart(3)
    w = PForm(chart, 2, {(0, 1): Num(1.0), (1, 2): parse_expression("x_1", chart)})
    X = _vf(chart, {"x_1": "x_2", "x_2": "x_3", "x_3": "x_1"})
    same = apply_form(w, [X, X])
    for p in sample_points(chart, count=8, seed=13):
        assert abs(evaluate(same, p)) <= 1e-14


# ---------------------------------------------------------------------------
# Lie derivatives: Cartan identity against the componentwise formula
# ---------------------------------------------------------------------------


def _componentwise_lie_one_form(X, alpha):
    # (L_X alpha)_j = X(alpha_j) + alpha_i d(X^i)/dx_j
    chart = alpha.chart
    comps = {}
    for j in range(chart.dimension):
        terms = [directional_derivative(X, alpha.component(j))]
        for i in range(chart.dimension):
            terms.append(make_mul(alpha.component(i), X.components[i].diff(j)))
        comps[j] = make_add(*terms)
    return one_form(chart, comps)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_cartan_identity_matches_componentwise_formula(seed):
    rng = np.random.default_rng(seed)
    chart = base_chart(3)
    X = _random_poly_field(chart, rng)
    alpha = one_form(
        chart,
        {i: _random_poly_field(chart, rng).components[i] for i in range(3)},
    )
    via_cartan = lie_derivative_form(X, alpha)
    direct = _componentwise_lie_one_form(X, alpha)
    diff = form_sub(via_cartan, direct)
    pts = rng.uniform(-1, 1, size=(6, 3))
    for d, gap in zip(direct.max_component_at(pts), diff.max_component_at(pts)):
        scale = max(1.0, d)
        assert gap <= 1e-10 * scale


def test_lie_derivative_scalar_matches_directional():
    chart = base_chart(2)
    X = _vf(chart, {"x_1": "x_2", "x_2": "-x_1"})
    f = ScalarField(chart, parse_expression("x_1^2 + x_2^2", chart))
    lf = lie_derivative_form(X, scalar_form(f))
    assert lf.component() == directional_derivative(X, f.expr)
    for p in sample_points(chart, count=8, seed=3):
        assert evaluate(lf.component(), p) == pytest.approx(0.0, abs=1e-14)


def test_lie_derivative_of_constant_form_along_constant_field():
    chart = base_chart(2)
    X = coordinate_vector_field(chart, 0)
    w = PForm(chart, 2, {(0, 1): Num(3.0)})
    assert lie_derivative_form(X, w).is_zero()


def test_lie_derivative_zero_form():
    chart = base_chart(2)
    X = _vf(chart, {"x_1": "x_2"})
    f = scalar_form(ScalarField(chart, parse_expression("x_1^2", chart)))
    lf = lie_derivative_form(X, f)
    p = [0.5, 2.0]
    assert evaluate(lf.component(), p) == pytest.approx(2.0 * 0.5 * 2.0)


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


def test_potential_of_coordinate_differential():
    chart = base_chart(2)
    alpha = one_form(chart, {0: Num(1.0)})
    g = potential_of_exact_one_form(alpha, [0.0, 0.0], sample_points(chart))
    at_point, at_base = g.evaluate(np.array([[0.7, -0.3], [0.0, 0.0]]))
    assert at_point == pytest.approx(0.7, abs=1e-13)
    assert at_base == 0.0


def test_potential_of_radial_one_form():
    # alpha = x1 dx1 + x2 dx2 has potential (x1^2 + x2^2)/2
    chart = base_chart(2)
    alpha = one_form(chart, {0: chart.coordinate("x_1"), 1: chart.coordinate("x_2")})
    g = potential_of_exact_one_form(alpha, [0.0, 0.0], sample_points(chart))
    pts = sample_points(chart, count=16, seed=17)
    for p, value in zip(pts, g.evaluate(pts)):
        assert value == pytest.approx(0.5 * (p[0] ** 2 + p[1] ** 2), abs=1e-12)


def test_potential_gradient_reproduces_form(fd):
    chart = base_chart(2)
    alpha = one_form(
        chart,
        {
            0: parse_expression("cos(x_1)*x_2", chart),
            1: parse_expression("sin(x_1)", chart),
        },
    )
    g = potential_of_exact_one_form(alpha, [0.0, 0.0], sample_points(chart))
    for p in sample_points(chart, count=12, seed=23):
        for index in range(2):
            grad = fd(lambda q: g.evaluate(q[None])[0], p, index)
            want = evaluate(alpha.component(index), p)
            assert grad == pytest.approx(want, abs=1e-6)


def test_potential_base_point_respected():
    chart = base_chart(1)
    alpha = one_form(chart, {0: parse_expression("2*x_1", chart)})
    g = potential_of_exact_one_form(alpha, [0.5], sample_points(chart))
    at_base, at_one = g.evaluate(np.array([[0.5], [1.0]]))
    assert at_base == 0.0
    assert at_one == pytest.approx(1.0 - 0.25, abs=1e-12)


def test_potential_rejects_non_closed_form():
    chart = base_chart(2)
    alpha = one_form(chart, {0: chart.coordinate("x_2")})  # d(alpha) = -dx1^dx2 != 0
    with pytest.raises(ClosednessError) as err:
        potential_of_exact_one_form(alpha, [0.0, 0.0], sample_points(chart))
    assert err.value.max_residual >= 0.9
    assert err.value.witness.shape == (2,)
    assert str(err.value).endswith(f" at {err.value.witness.tolist()}")  # plain floats


def test_potential_is_the_64_node_gauss_legendre_quadrature():
    chart = base_chart(2)
    sources = ["cos(x_1)*x_2", "sin(x_1)"]
    alpha = one_form(chart, {i: parse_expression(src, chart) for i, src in enumerate(sources)})
    base = np.array([0.25, -0.5])
    pts = sample_points(chart, count=16, seed=19)
    ts, ws = np.polynomial.legendre.leggauss(64)
    delta = pts - base
    expected = np.zeros(len(pts))
    for t, w in zip(0.5 * (ts + 1.0), 0.5 * ws):
        x = base + t * delta
        expected += w * (np.cos(x[:, 0]) * x[:, 1] * delta[:, 0] + np.sin(x[:, 0]) * delta[:, 1])
    actual = PotentialEvaluator(alpha, base).evaluate(pts)
    assert actual.tobytes() == expected.tobytes()


def test_building_a_potential_imports_nothing():
    # the quadrature nodes and kernels wait for the first evaluation
    code = "\n".join([
        "import sys",
        "from ksym.calculus import PotentialEvaluator, one_form",
        "from ksym.expr import base_chart, parse_expression",
        "chart = base_chart(2)",
        "alpha = one_form(chart, {0: parse_expression('sin(x_1)', chart)})",
        "before = set(sys.modules)",
        "g = PotentialEvaluator(alpha, [0.0, 0.0])",
        "print(sorted(set(sys.modules) - before), sorted(vars(g)))",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(ksym.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] ['alpha', 'base_point']\n"


def test_potential_of_zero_form_is_zero():
    chart = tangent_chart(1, 2)
    zero = one_form(chart, {})
    g = potential_of_exact_one_form(zero, [0.0, 0.0, 0.0], sample_points(chart))
    assert g.evaluate(np.array([[0.3, -0.2, 0.9]]))[0] == 0.0
