from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ksym.expr import (
    Add,
    ChartSpace,
    Coord,
    EvaluationDomainError,
    ExprSyntaxError,
    Mul,
    Neg,
    NonIntegerExponentError,
    Num,
    Pow,
    SamplingError,
    UnknownIdentifierError,
    base_chart,
    batch_evaluator,
    compiled_evaluator,
    cotangent_chart,
    differentiate,
    make_add,
    make_div,
    make_func,
    make_mul,
    make_neg,
    make_pow,
    parse_expression,
    sample_points,
    simplify,
    tangent_chart,
    to_source,
    validate_on_chart,
)


# ---------------------------------------------------------------------------
# chart naming and ordering
# ---------------------------------------------------------------------------


def test_base_chart_names():
    ch = base_chart(3)
    assert ch.coordinate_names == ("x_1", "x_2", "x_3")
    assert ch.dimension == 3
    assert ch.kind == "base"


def test_tangent_chart_grouped_by_copy_then_base_index():
    ch = tangent_chart(2, 2)
    assert ch.coordinate_names == ("x_1", "x_2", "v_1_1", "v_1_2", "v_2_1", "v_2_2")
    assert ch.fiber_index(1, 2) == 3
    assert ch.fiber_index(2, 1) == 4
    assert ch.dimension == 2 * (1 + 2)


def test_cotangent_chart_names_unpadded():
    ch = cotangent_chart(1, 12)
    assert ch.coordinate_names[0] == "x_1"
    assert ch.coordinate_names[-1] == "p_12_1"
    assert ch.index_of("p_3_1") == 3


def test_chart_rejects_bad_kind():
    with pytest.raises(ValueError):
        ChartSpace(n=1, k=1, kind="weird", coordinate_names=("x_1",))


def test_charts_are_cached_instances():
    assert tangent_chart(1, 2) is tangent_chart(1, 2)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_single_coordinate():
    ch = base_chart(2)
    e = parse_expression("x_2", ch)
    assert e == Coord(1, "x_2")


def test_parse_precedence_mul_over_add():
    ch = base_chart(2)
    e = parse_expression("x_1 + x_2 * x_1", ch)
    assert e == Add((Coord(0, "x_1"), Mul((Coord(1, "x_2"), Coord(0, "x_1")))))


def test_parse_left_associative_subtraction():
    ch = base_chart(3)
    e = parse_expression("x_1 - x_2 - x_3", ch)
    # a - b - c == (a - b) - c, flattened to one sum of signed terms
    pt = [5.0, 2.0, 1.0]
    assert e.evaluate(pt) == 2.0
    assert e == Add((Coord(0, "x_1"), Neg(Coord(1, "x_2")), Neg(Coord(2, "x_3"))))


def test_parse_left_associative_division():
    ch = base_chart(3)
    e = parse_expression("x_1 / x_2 / x_3", ch)
    assert e.evaluate([8.0, 2.0, 2.0]) == 2.0


def test_power_right_associative_and_integer_only():
    ch = base_chart(1)
    e = parse_expression("x_1^2^3", ch)
    assert e == Pow(Coord(0, "x_1"), 8)
    with pytest.raises(NonIntegerExponentError):
        parse_expression("x_1^2.5", ch)
    with pytest.raises(NonIntegerExponentError):
        parse_expression("x_1^x_1", ch)
    with pytest.raises(NonIntegerExponentError):
        parse_expression("x_1^(1/2)", ch)


def test_unary_minus_binds_tighter_than_power():
    ch = base_chart(1)
    e = parse_expression("-x_1^2", ch)
    assert e == Pow(Neg(Coord(0, "x_1")), 2)
    assert e.evaluate([3.0]) == 9.0


def test_negative_integer_exponent():
    ch = base_chart(1)
    e = parse_expression("x_1^-2", ch)
    assert e == Pow(Coord(0, "x_1"), -2)
    assert e.evaluate([2.0]) == 0.25


def test_parse_functions():
    ch = base_chart(1)
    e = parse_expression("sqrt(1 + x_1^2)", ch)
    assert e.evaluate([0.0]) == 1.0
    assert abs(e.evaluate([1.0]) - math.sqrt(2.0)) < 1e-15


def test_parse_parameters_substituted_as_literals():
    ch = tangent_chart(1, 2)
    e = parse_expression("(1/2)*(s*v_1_1^2 - t*v_2_1^2)", ch, {"s": 2.0, "t": 4.0})
    assert e.evaluate([0.0, 1.0, 1.0]) == pytest.approx(-1.0)
    # no identifiers survive substitution
    assert "s" not in to_source(e).replace("sqrt", "").replace("cos", "").replace("sin", "")


def test_unknown_identifier_reports_name_and_offset():
    ch = base_chart(1)
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expression("x_1 + bogus", ch)
    assert err.value.name == "bogus"
    assert err.value.offset == 6


def test_unknown_function_rejected():
    ch = base_chart(1)
    with pytest.raises(UnknownIdentifierError) as err:
        parse_expression("tanh(x_1)", ch)
    assert err.value.name == "tanh"


def test_syntax_error_carries_byte_offset():
    ch = base_chart(1)
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x_1 + ", ch)
    assert err.value.offset == 6
    with pytest.raises(ExprSyntaxError) as err:
        parse_expression("x_1 $ 2", ch)
    assert err.value.offset == 4
    with pytest.raises(ExprSyntaxError):
        parse_expression("(x_1", ch)
    with pytest.raises(ExprSyntaxError):
        parse_expression("", ch)


def test_coordinate_from_wrong_chart_rejected():
    ch = base_chart(1)
    with pytest.raises(UnknownIdentifierError):
        parse_expression("v_1_1", ch)
    other = tangent_chart(1, 1)
    e = parse_expression("v_1_1", other)
    with pytest.raises(ValueError):
        validate_on_chart(e, base_chart(2))


# ---------------------------------------------------------------------------
# differentiation against the finite-difference oracle
# ---------------------------------------------------------------------------

CASES = [
    ("x_1^3 + 2*x_1*x_2", base_chart(2), [0.7, -0.3]),
    ("sin(x_1)*cos(x_2)", base_chart(2), [0.4, 1.1]),
    ("exp(x_1*x_2)", base_chart(2), [0.2, -0.5]),
    ("log(2 + x_1)", base_chart(1), [0.3]),
    ("sqrt(1 + x_1^2 + x_2^2)", base_chart(2), [0.6, -0.8]),
    ("x_1 / (1 + x_2^2)", base_chart(2), [0.9, 0.4]),
    ("(1/2)*(v_1_1^2 - v_2_1^2)", tangent_chart(1, 2), [0.1, 0.7, -0.2]),
]


@pytest.mark.parametrize("source,chart,point", CASES)
def test_derivative_matches_central_difference(source, chart, point, fd):
    e = parse_expression(source, chart)
    for index in range(chart.dimension):
        sym = e.diff(index).evaluate(point)
        num = fd(e.evaluate, point, index)
        assert sym == pytest.approx(num, rel=1e-6, abs=1e-8)


def test_mixed_partials_commute_numerically():
    chart = base_chart(2)
    e = parse_expression("exp(x_1*x_2) + sin(x_1)*x_2^3", chart)
    d12 = e.diff(0).diff(1)
    d21 = e.diff(1).diff(0)
    for point in sample_points(chart, count=16, seed=7):
        assert d12.evaluate(point) == pytest.approx(d21.evaluate(point), rel=1e-10, abs=1e-10)


def test_third_derivatives_supported():
    chart = base_chart(1)
    e = parse_expression("x_1^5", chart)
    d3 = e.diff(0).diff(0).diff(0)
    assert d3.evaluate([2.0]) == pytest.approx(60.0 * 4.0)


def test_sqrt_derivative_closed_form():
    chart = tangent_chart(1, 2)
    L = parse_expression("sqrt(1 + v_1_1^2 + v_2_1^2)", chart)
    dv1 = L.diff(chart.fiber_index(1, 1))
    for point in sample_points(chart, count=16, seed=3):
        w = math.sqrt(1 + point[1] ** 2 + point[2] ** 2)
        assert dv1.evaluate(point) == pytest.approx(point[1] / w, rel=1e-12)


# ---------------------------------------------------------------------------
# linearity and product-rule invariants
# ---------------------------------------------------------------------------


def _poly_expr(chart, draw_coeffs):
    # small dense quadratic in the chart coordinates
    terms = [Num(draw_coeffs())]
    for i in range(chart.dimension):
        terms.append(make_mul(Num(draw_coeffs()), Coord(i, chart.coordinate_names[i])))
        for j in range(i, chart.dimension):
            terms.append(
                make_mul(
                    Num(draw_coeffs()),
                    Coord(i, chart.coordinate_names[i]),
                    Coord(j, chart.coordinate_names[j]),
                )
            )
    return make_add(*terms)


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_differentiation_linear(seed):
    rng = np.random.default_rng(seed)
    chart = base_chart(3)
    f = _poly_expr(chart, lambda: float(rng.integers(-3, 4)))
    g = _poly_expr(chart, lambda: float(rng.integers(-3, 4)))
    a, b = float(rng.integers(-3, 4)), float(rng.integers(-3, 4))
    combo = make_add(make_mul(Num(a), f), make_mul(Num(b), g))
    pts = rng.uniform(-1, 1, size=(8, 3))
    for index in range(3):
        lhs = combo.diff(index)
        rhs = make_add(make_mul(Num(a), f.diff(index)), make_mul(Num(b), g.diff(index)))
        for p in pts:
            assert abs(lhs.evaluate(p) - rhs.evaluate(p)) <= 1e-12 * max(
                1.0, abs(rhs.evaluate(p))
            )


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_product_rule(seed):
    rng = np.random.default_rng(seed)
    chart = base_chart(2)
    f = _poly_expr(chart, lambda: float(rng.integers(-2, 3)))
    g = _poly_expr(chart, lambda: float(rng.integers(-2, 3)))
    product = make_mul(f, g)
    pts = rng.uniform(-1, 1, size=(8, 2))
    for index in range(2):
        lhs = product.diff(index)
        rhs = make_add(make_mul(f.diff(index), g), make_mul(f, g.diff(index)))
        for p in pts:
            assert abs(lhs.evaluate(p) - rhs.evaluate(p)) <= 1e-10 * max(
                1.0, abs(rhs.evaluate(p))
            )


# ---------------------------------------------------------------------------
# printing round-trip and simplification
# ---------------------------------------------------------------------------


def _expression_strategy(chart):
    coords = st.sampled_from(
        [Coord(i, name) for i, name in enumerate(chart.coordinate_names)]
    )
    nums = st.builds(Num, st.floats(-4, 4, allow_nan=False).map(lambda v: round(v, 3)))
    atoms = st.one_of(coords, nums)

    def extend(children):
        return st.one_of(
            st.lists(children, min_size=2, max_size=3).map(lambda ts: make_add(*ts)),
            st.lists(children, min_size=2, max_size=3).map(lambda fs: make_mul(*fs)),
            st.tuples(children, children).map(lambda ab: make_div(ab[0], ab[1])),
            children.map(make_neg),
            st.tuples(children, st.integers(-3, 3)).map(lambda be: make_pow(be[0], be[1])),
            st.tuples(st.sampled_from(["sqrt", "sin", "cos", "exp", "log"]), children).map(
                lambda fa: make_func(fa[0], fa[1])
            ),
        )

    return st.recursive(atoms, extend, max_leaves=12)


@given(_expression_strategy(tangent_chart(2, 2)))
def test_print_parse_round_trip(e):
    text = to_source(e)
    reparsed = parse_expression(text, tangent_chart(2, 2))
    assert reparsed == e


@given(_expression_strategy(base_chart(3)))
def test_simplify_idempotent(e):
    once = simplify(e)
    twice = simplify(once)
    assert once == twice


def test_simplify_examples():
    x = Coord(0, "x_1")
    assert simplify(Add((Num(0.0), x))) == x
    assert simplify(Mul((Num(1.0), x))) == x
    assert simplify(Mul((Num(0.0), x))) == Num(0.0)
    assert make_pow(x, 0) == Num(1.0)
    assert make_pow(x, 1) == x
    assert make_neg(make_neg(x)) == x
    assert make_add(Num(1.0), Num(2.0)) == Num(3.0)
    assert make_div(x, Num(1.0)) == x


def test_round_trip_fixed_cases():
    chart = tangent_chart(1, 2)
    for source in [
        "(1/2)*(v_1_1^2 - v_2_1^2)",
        "-x_1^2",
        "x_1 - (v_1_1 + v_2_1)",
        "2*v_1_1*v_2_1 / (1 + x_1^2)",
        "sqrt(1 + v_1_1^2)",
        "x_1^-3",
    ]:
        e = parse_expression(source, chart)
        assert parse_expression(to_source(e), chart) == e


# ---------------------------------------------------------------------------
# evaluation and domain errors
# ---------------------------------------------------------------------------


def test_division_by_zero_carries_subexpression():
    chart = base_chart(2)
    e = parse_expression("x_1 / x_2", chart)
    with pytest.raises(EvaluationDomainError) as err:
        e.evaluate([1.0, 0.0])
    assert "x_1 / x_2" in str(err.value)


def test_sqrt_negative_domain_error():
    chart = base_chart(1)
    e = parse_expression("sqrt(x_1)", chart)
    with pytest.raises(EvaluationDomainError) as err:
        e.evaluate([-1.0])
    assert "sqrt(x_1)" in err.value.subexpression


def test_log_nonpositive_domain_error():
    chart = base_chart(1)
    e = parse_expression("log(x_1)", chart)
    with pytest.raises(EvaluationDomainError):
        e.evaluate([0.0])
    with pytest.raises(EvaluationDomainError):
        e.evaluate([-2.0])


def test_zero_to_negative_power_domain_error():
    chart = base_chart(1)
    e = parse_expression("x_1^-1", chart)
    with pytest.raises(EvaluationDomainError):
        e.evaluate([0.0])


def test_compiled_evaluator_matches_interpreter():
    chart = tangent_chart(1, 2)
    e = parse_expression("tau*(sigma*v_1_1^2 + tau*v_2_1^2)", chart, {"sigma": 1, "tau": 1})
    fast = compiled_evaluator(e)
    for point in sample_points(chart, count=32, seed=11):
        assert fast(point) == e.evaluate(point)


def test_compiled_evaluator_preserves_domain_errors():
    chart = base_chart(1)
    e = parse_expression("log(x_1)", chart)
    fast = compiled_evaluator(e)
    with pytest.raises(EvaluationDomainError):
        fast([-1.0])


def test_non_finite_literals_compile_and_print():
    x = Coord(0, "x_1")
    for value in (math.inf, -math.inf, math.nan):
        e = make_mul(Num(value), x)
        assert to_source(Num(value)) == repr(value)
        assert math.isnan(compiled_evaluator(e)([0.0]))  # inf * 0
        assert compiled_evaluator(e)([1.0]) == pytest.approx(value, nan_ok=True)
    assert parse_expression("1e308*10*x_1", base_chart(1)) == make_mul(Num(math.inf), x)


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------


def _scalar_rows(e, points):
    """Values on the scalar path row by row, or the error of its first bad row."""
    fast = compiled_evaluator(e)
    try:
        return np.array([fast(p) for p in points], dtype=float), None
    except (EvaluationDomainError, ValueError) as exc:
        return None, exc


@given(
    _expression_strategy(base_chart(3)),
    st.lists(st.lists(st.floats(-2, 2), min_size=3, max_size=3), min_size=1, max_size=6),
)
def test_batch_kernel_matches_scalar_path(e, rows):
    points = np.array(rows)
    expected, error = _scalar_rows(e, points)
    if error is not None:
        with pytest.raises(type(error)) as caught:
            batch_evaluator(e)(points)
        assert str(caught.value) == str(error)
        return
    values = batch_evaluator(e)(points)
    finite = np.isfinite(values)
    assert np.array_equal(finite, np.isfinite(expected))
    np.testing.assert_array_equal(values[~finite], expected[~finite])
    np.testing.assert_array_max_ulp(values[finite], expected[finite], maxulp=2)


@pytest.mark.parametrize(
    "source, x, reason",
    [
        ("1/(1/x_1)", 0.0, "division by zero"),  # plain numpy: 1/inf = 0
        ("exp(-1/x_1)", 0.0, "division by zero"),  # plain numpy: exp(-inf) = 0
        ("sqrt(x_1)", -1.0, "square root of a negative number"),
        ("log(x_1)", 0.0, "logarithm of a non-positive number"),
        ("sin(x_1*exp(x_1))", 1000.0, "sin of an infinite number"),  # math.sin: ValueError
        ("cos(exp(x_1))", 1000.0, "cos of an infinite number"),
    ],
)
def test_batch_kernel_raises_the_scalar_domain_error(source, x, reason):
    e = parse_expression(source, base_chart(1))
    points = np.array([[0.5], [x], [2.0]])
    with pytest.raises(EvaluationDomainError) as scalar:
        compiled_evaluator(e)(points[1])
    with pytest.raises(EvaluationDomainError) as batch:
        batch_evaluator(e)(points)
    assert batch.value.reason == scalar.value.reason == reason
    assert batch.value.subexpression == scalar.value.subexpression
    relaxed = batch_evaluator(e)(points, strict=False)
    assert math.isnan(relaxed[1])
    assert relaxed[0] == pytest.approx(compiled_evaluator(e)(points[0]), rel=1e-15)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_sampling_is_deterministic():
    chart = base_chart(4)
    a = sample_points(chart, count=64, seed=42)
    b = sample_points(chart, count=64, seed=42)
    assert a.shape == (64, 4)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 1.0)


def test_sampling_redraws_on_domain_errors():
    chart = base_chart(1)
    e = parse_expression("log(x_1)", chart)
    pts = sample_points(chart, count=32, seed=5, require=[e])
    assert len(pts) == 32
    assert np.all(pts[:, 0] > 0.0)


def test_sampling_gives_up_after_budget():
    chart = base_chart(1)
    e = parse_expression("sqrt(-1 - x_1^2)", chart)
    with pytest.raises(SamplingError):
        sample_points(chart, count=8, seed=5, require=[e])


def _sample_row_by_row(chart, count, seed, require):
    """The row-by-row filter sample_points replaced, kept as its reference."""
    rng = np.random.default_rng(seed)
    accepted, drawn = [], 0
    while len(accepted) < count:
        batch = min(count, 10 * count - drawn)
        drawn += batch
        for row in rng.uniform(-1.0, 1.0, size=(batch, chart.dimension)):
            if len(accepted) == count:
                break
            try:
                if all(math.isfinite(e.evaluate(row)) for e in require):
                    accepted.append(row)
            except EvaluationDomainError:
                pass
    return np.asarray(accepted)


@pytest.mark.parametrize("source", ["log(x_1)", "1/x_1"])
def test_sampling_filter_keeps_the_row_by_row_sample(source):
    chart = base_chart(2)
    require = [parse_expression(source, chart)]
    for seed in range(21):
        expected = _sample_row_by_row(chart, 32, seed, require)
        actual = sample_points(chart, count=32, seed=seed, require=require)
        assert actual.tobytes() == expected.tobytes()
