from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ksym import expr
from ksym.expr import (
    Add,
    ChartSpace,
    Coord,
    Div,
    EvaluationDomainError,
    ExprSyntaxError,
    Func,
    Mul,
    Neg,
    NonIntegerExponentError,
    Num,
    Pow,
    SamplingError,
    UnknownIdentifierError,
    base_chart,
    cotangent_chart,
    field_evaluator,
    fold,
    gradient,
    make_add,
    make_div,
    make_func,
    make_mul,
    make_neg,
    make_pow,
    parse_expression,
    sample_points,
    tangent_chart,
    to_source,
    validate_on_chart,
)
from ksym.expr import _BLOCK, _NUMPY_IMPL, _uniform_stream
import derivative_oracle
from builders import derivative, kernel_values
from scalar_oracle import evaluate, evaluator


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


@pytest.mark.parametrize("kind, prefix", [("base", None), ("k-tangent", "v"), ("k-cotangent", "p")])
@pytest.mark.parametrize("n, k", [(1, 1), (2, 3), (3, 12)])
def test_a_chart_names_its_coordinates_by_the_grammar(kind, prefix, n, k):
    chart = ChartSpace(n, k, kind)
    names = chart.coordinate_names
    assert len(names) == n * (1 if prefix is None else 1 + k) == chart.dimension
    for i in range(1, n + 1):
        assert names[chart.base_index(i)] == f"x_{i}"
        for A in range(1, k + 1) if prefix else ():
            assert names[chart.fiber_index(A, i)] == f"{prefix}_{A}_{i}"
    for slot, name in enumerate(names):
        assert parse_expression(name, chart) == Coord(slot, name)
    # derived from (n, k, kind): not a field, so repr, == and hash ignore it
    assert "coordinate_names" not in repr(chart) and chart == ChartSpace(n, k, kind)


def test_chart_rejects_bad_kind():
    with pytest.raises(ValueError):
        ChartSpace(n=1, k=1, kind="weird")


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
    assert evaluate(e, pt) == 2.0
    assert e == Add((Coord(0, "x_1"), Neg(Coord(1, "x_2")), Neg(Coord(2, "x_3"))))


def test_parse_left_associative_division():
    ch = base_chart(3)
    e = parse_expression("x_1 / x_2 / x_3", ch)
    assert evaluate(e, [8.0, 2.0, 2.0]) == 2.0


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
    for exponent in ("1e400", "(0*1e400)"):  # inf and nan
        with pytest.raises(NonIntegerExponentError):
            parse_expression(f"x_1^{exponent}", ch)


def test_unary_minus_binds_tighter_than_power():
    ch = base_chart(1)
    e = parse_expression("-x_1^2", ch)
    assert e == Pow(Neg(Coord(0, "x_1")), 2)
    assert evaluate(e, [3.0]) == 9.0


def test_negative_integer_exponent():
    ch = base_chart(1)
    e = parse_expression("x_1^-2", ch)
    assert e == Pow(Coord(0, "x_1"), -2)
    assert evaluate(e, [2.0]) == 0.25


def test_parse_functions():
    ch = base_chart(1)
    e = parse_expression("sqrt(1 + x_1^2)", ch)
    assert evaluate(e, [0.0]) == 1.0
    assert abs(evaluate(e, [1.0]) - math.sqrt(2.0)) < 1e-15


def test_parse_parameters_substituted_as_literals():
    ch = tangent_chart(1, 2)
    e = parse_expression("(1/2)*(s*v_1_1^2 - t*v_2_1^2)", ch, {"s": 2.0, "t": 4.0})
    assert evaluate(e, [0.0, 1.0, 1.0]) == pytest.approx(-1.0)
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


def test_of_several_foreign_coordinates_the_lowest_slot_is_named():
    x_9, x_3 = Coord(5, "x_9"), Coord(2, "x_3")
    for e in (make_add(x_9, x_3), make_add(x_3, x_9), make_mul(make_neg(x_9), x_3)):
        with pytest.raises(ValueError, match=r"^coordinate 'x_3' \(slot 2\) does not belong"):
            validate_on_chart(e, base_chart(2))
    # whatever order a set of foreign names iterates in, the lowest slot wins
    for tag in range(6):
        e = make_add(*(Coord(slot, f"y_{slot}_{tag}") for slot in range(5, -1, -1)))
        with pytest.raises(ValueError, match=rf"^coordinate 'y_0_{tag}' \(slot 0\)"):
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
        sym = evaluate(derivative(e, index), point)
        num = fd(evaluator(e), point, index)
        assert sym == pytest.approx(num, rel=1e-6, abs=1e-8)


def test_mixed_partials_commute_numerically():
    chart = base_chart(2)
    e = parse_expression("exp(x_1*x_2) + sin(x_1)*x_2^3", chart)
    d12 = derivative(derivative(e, 0), 1)
    d21 = derivative(derivative(e, 1), 0)
    for point in sample_points(chart, count=16, seed=7):
        assert evaluate(d12, point) == pytest.approx(evaluate(d21, point), rel=1e-10, abs=1e-10)


def test_third_derivatives_supported():
    chart = base_chart(1)
    e = parse_expression("x_1^5", chart)
    d3 = derivative(derivative(derivative(e, 0), 0), 0)
    assert evaluate(d3, [2.0]) == pytest.approx(60.0 * 4.0)


def test_sqrt_derivative_closed_form():
    chart = tangent_chart(1, 2)
    L = parse_expression("sqrt(1 + v_1_1^2 + v_2_1^2)", chart)
    dv1 = derivative(L, chart.fiber_index(1, 1))
    for point in sample_points(chart, count=16, seed=3):
        w = math.sqrt(1 + point[1] ** 2 + point[2] ** 2)
        assert evaluate(dv1, point) == pytest.approx(point[1] / w, rel=1e-12)


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
        lhs = derivative(combo, index)
        rhs = make_add(
            make_mul(Num(a), derivative(f, index)), make_mul(Num(b), derivative(g, index))
        )
        for p in pts:
            assert abs(evaluate(lhs, p) - evaluate(rhs, p)) <= 1e-12 * max(
                1.0, abs(evaluate(rhs, p))
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
        lhs = derivative(product, index)
        rhs = make_add(make_mul(derivative(f, index), g), make_mul(f, derivative(g, index)))
        for p in pts:
            assert abs(evaluate(lhs, p) - evaluate(rhs, p)) <= 1e-10 * max(
                1.0, abs(evaluate(rhs, p))
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


def _rebuild(e):
    """``e`` rebuilt bottom up through the smart constructors."""
    build = {Add: make_add, Mul: make_mul, Div: make_div, Neg: make_neg}

    def rule(node, kids):
        t = type(node)
        if t in build:
            return build[t](*kids)
        if t is Pow:
            return make_pow(kids[0], node.exponent)
        if t is Func:
            return make_func(node.name, kids[0])
        return node

    return fold(e, rule)


@given(_expression_strategy(base_chart(3)))
def test_simplify_idempotent(e):
    once = _rebuild(e)
    assert _rebuild(once) == once


def _check_coordinate_sets(e):
    """Assert that every node of ``e`` carries the (slot, name) pairs of the
    ``Coord`` leaves under it, as a fold collects them."""
    def rule(node, kids):
        is_coord = type(node) is Coord
        leaves = frozenset([(node.index, node.name)]) if is_coord else frozenset().union(*kids)
        assert node._coords == leaves, node
        return leaves

    fold(e, rule)


@given(_expression_strategy(tangent_chart(2, 2)))
def test_each_node_carries_the_coordinates_of_its_leaves(e):
    parsed = parse_expression(to_source(e), tangent_chart(2, 2))
    for tree in (e, parsed, *gradient(parsed).values(), make_add(e, parsed), make_mul(e, parsed),
                 make_div(e, parsed), make_neg(e), make_pow(e, 3), make_func("exp", e)):
        _check_coordinate_sets(tree)


def test_each_node_class_carries_its_coordinate_set():
    x, y, z = Coord(0, "x_1"), Coord(1, "x_2"), Coord(2, "x_3")
    xy = Mul((x, y))
    nodes = [Num(2.0), x, Add((Num(1.0), x, z)), xy, Div(x, y), Div(y, x), Neg(z), Pow(y, 3),
             Func("sin", z), Add((xy, y, z))]
    for node in nodes:
        _check_coordinate_sets(node)
    # a node whose child already holds every coordinate shares that child's set
    assert Add((xy, Neg(x)))._coords is xy._coords and Pow(xy, 2)._coords is xy._coords


def _finite_literals(e) -> bool:
    return fold(e, lambda node, kids: (type(node) is not Num or math.isfinite(node.value))
                and all(kids))


@settings(max_examples=200)
@given(_expression_strategy(tangent_chart(2, 2)))
# a partial that cancels to the literal 0 is left out
@example(make_add(Coord(0, "x_1"), make_neg(Coord(0, "x_1"))))
@example(make_mul(Coord(3, "v_1_2"),
                  make_add(Num(2.0), make_neg(Coord(2, "v_1_1")), Coord(2, "v_1_1"))))
def test_the_gradient_is_every_nonzero_one_slot_derivative(e):
    assume(_finite_literals(e))  # folded constants can overflow; see the test below
    chart = tangent_chart(2, 2)
    expected = {slot: derivative_oracle.partial(e, slot) for slot in range(chart.dimension)}
    expected = {slot: d for slot, d in expected.items() if d != Num(0.0)}
    grad = gradient(e)
    assert list(grad) == list(expected)  # the same slots, in slot order
    for slot, d in expected.items():
        assert grad[slot] == d, slot  # node for node


def test_a_slot_beside_an_infinite_literal_has_partial_zero():
    e = parse_expression("1e999*x_1", base_chart(2))
    assert gradient(e) == {0: Num(math.inf)}  # no entry for slot 1: its partial is 0
    again = parse_expression("1e999*x_1", base_chart(2))
    assert again is not e and gradient(again) is gradient(e)  # one memo entry per equal tree
    # the one-slot walk folds the literal times the 0 of d(x_1)/d(x_2) to NaN
    assert derivative_oracle.partial(e, 1) == Num(math.nan)


def test_simplify_examples():
    x = Coord(0, "x_1")
    assert make_add(Num(0.0), x) == x
    assert make_mul(Num(1.0), x) == x
    assert make_mul(Num(0.0), x) == Num(0.0)
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


@pytest.mark.parametrize("source, printed", [
    ("1e-200*1e-200*x_1^3", "1e-200 * 1e-200 * x_1^3"),
    ("x_1*1e-200*1e-200", "1e-200 * 1e-200 * x_1"),
    ("1*1e-200*1e-200*x_1", "1e-200 * 1e-200 * x_1"),
    ("(1e-200)^2*x_1", "1e-200^2 * x_1"),
    ("1e-200/1e200*x_1", "1e-200 / 1e+200 * x_1"),
    ("0*x_1", "0"),
    ("2*3*x_1", "6 * x_1"),
])
def test_constants_fold_unless_the_result_underflows(source, printed):
    # a nonzero operation on constants that gives 0.0 stays as written, so a
    # nonzero field is never read as the zero field; its values are the same
    chart = base_chart(1)
    e = parse_expression(source, chart)
    assert to_source(e) == printed
    assert parse_expression(printed, chart) == e
    xs = [-2.0, 0.5, 3.0]
    floats = [eval(source.replace("^", "**"), {"x_1": x}) for x in xs]
    assert kernel_values(e, np.array([xs]).T).tolist() == floats


# ---------------------------------------------------------------------------
# evaluation and domain errors
# ---------------------------------------------------------------------------


def _domain_error(source, chart, point):
    """The error the kernel raises at ``point``, which the oracle raises too."""
    e = parse_expression(source, chart)
    with pytest.raises(EvaluationDomainError) as scalar:
        evaluate(e, point)
    with pytest.raises(EvaluationDomainError) as batch:
        kernel_values(e, np.array([point], dtype=float))
    assert str(batch.value) == str(scalar.value)
    return batch.value


def test_division_by_zero_carries_subexpression():
    err = _domain_error("x_1 / x_2", base_chart(2), [1.0, 0.0])
    assert "x_1 / x_2" in str(err)


def test_sqrt_negative_domain_error():
    err = _domain_error("sqrt(x_1)", base_chart(1), [-1.0])
    assert "sqrt(x_1)" in err.subexpression


def test_log_nonpositive_domain_error():
    _domain_error("log(x_1)", base_chart(1), [0.0])
    _domain_error("log(x_1)", base_chart(1), [-2.0])


def test_zero_to_negative_power_domain_error():
    _domain_error("x_1^-1", base_chart(1), [0.0])


def test_a_5000_deep_tree_stays_within_the_recursion_limit():
    # x * sin(x * sin(... x)), 5,000 nodes deep, against the default limit of
    # 1,000 frames: hashing, every walk and the kernel are iterative
    assert sys.getrecursionlimit() <= 1000
    x = Coord(0, "x_1")
    e = x
    for _ in range(2500):
        e = make_mul(x, make_func("sin", e))
    assert _rebuild(e) == e and hash(_rebuild(e)) == hash(e)
    text = to_source(e)
    assert text.startswith("x_1 * sin(x_1 * sin(") and text.count("sin(") == 2500
    points = np.array([[1.2], [1.5], [1.8]])  # f = x * sin(f) has a stable fixed point f > 0
    h = 1e-6
    expected = (kernel_values(e, points + h) - kernel_values(e, points - h)) / (2 * h)
    np.testing.assert_allclose(kernel_values(derivative(e, 0), points), expected, rtol=1e-6)


def test_non_finite_literals_compile_and_print():
    x = Coord(0, "x_1")
    for value in (math.inf, -math.inf, math.nan):
        e = make_mul(Num(value), x)
        assert to_source(Num(value)) == repr(value)
        values = kernel_values(e, np.array([[0.0], [1.0]]))
        assert math.isnan(values[0])  # inf * 0
        assert values[1] == pytest.approx(value, nan_ok=True)
    assert parse_expression("1e308*10*x_1", base_chart(1)) == make_mul(Num(math.inf), x)


# ---------------------------------------------------------------------------
# batched evaluation
# ---------------------------------------------------------------------------


def _scalar_rows(e, points):
    """Values on the interpretive path row by row, or the error of its first
    bad row."""
    try:
        return np.array([evaluate(e, p) for p in points], dtype=float), None
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
            kernel_values(e, points)
        assert str(caught.value) == str(error)
        return
    values = kernel_values(e, points)
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
        evaluate(e, points[1])
    with pytest.raises(EvaluationDomainError) as batch:
        kernel_values(e, points)
    assert batch.value.reason == scalar.value.reason == reason
    assert batch.value.subexpression == scalar.value.subexpression
    relaxed = kernel_values(e, points, strict=False)
    assert math.isnan(relaxed[1])
    assert relaxed[0] == pytest.approx(evaluate(e, points[0]), rel=1e-15)


# ---------------------------------------------------------------------------
# field kernels
# ---------------------------------------------------------------------------

# row counts on both sides of the kernel's block boundary
_FIELD_ROWS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 20_000)
_FIELD_POINTS = sample_points(base_chart(3), count=max(_FIELD_ROWS), seed=11, halfwidth=2.0)


def _outcome(evaluate_all, strict):
    """Values and no error, or no values and the strict error's text."""
    try:
        return evaluate_all(strict), None
    except EvaluationDomainError as exc:
        return None, str(exc)


@given(
    st.lists(_expression_strategy(base_chart(3)), min_size=1, max_size=4).map(tuple),
    st.sampled_from(_FIELD_ROWS),
)
def test_field_kernel_matches_the_stacked_expression_kernels(exprs, m):
    points = _FIELD_POINTS[:m]
    field = field_evaluator(exprs)

    def stacked(strict):
        return np.stack([kernel_values(e, points, strict) for e in exprs], axis=-1)

    for strict in (True, False):
        (values, error), (expected, expected_error) = (
            _outcome(lambda strict: field(points, strict), strict), _outcome(stacked, strict))
        assert error == expected_error
        if error is None:
            assert values.shape == (m, len(exprs))
            np.testing.assert_array_equal(values, expected)
            np.testing.assert_array_equal(np.signbit(values), np.signbit(expected))
            np.testing.assert_array_equal(np.isnan(values), np.isnan(expected))
    # a row's entries, here from the strict=False run, do not depend on its
    # block: each side of the boundary gives what that row alone gives
    for row in {0, _BLOCK - 1, _BLOCK, m - 1} & set(range(m)):
        np.testing.assert_array_equal(values[row], field(points[row:row + 1], False)[0])


def test_the_lowest_failing_component_names_the_error_whatever_its_row():
    chart = base_chart(3)
    exprs = (parse_expression("sqrt(x_1)", chart), parse_expression("1/x_2", chart),
             parse_expression("x_3", chart))
    points = np.ones((20_000, 3))
    points[_BLOCK + 5, 0] = -1.0  # component 0 fails in the second block
    points[3, 1] = 0.0  # component 1 fails sooner, in the first
    with pytest.raises(EvaluationDomainError) as caught:
        field_evaluator(exprs)(points)
    assert str(caught.value) == "square root of a negative number in 'sqrt(x_1)'"
    with pytest.raises(EvaluationDomainError, match="division by zero in '1 / x_2'"):
        field_evaluator(exprs[1:])(points)
    relaxed = field_evaluator(exprs)(points, strict=False)
    assert np.argwhere(np.isnan(relaxed)).tolist() == [[3, 1], [_BLOCK + 5, 0]]
    assert (relaxed[~np.isnan(relaxed)] == 1.0).all()


def test_a_field_kernel_takes_a_shared_subexpression_once(monkeypatch):
    calls = []
    monkeypatch.setitem(_NUMPY_IMPL, "exp", lambda x: calls.append(x) or np.exp(x))
    chart = base_chart(2)
    exprs = tuple(parse_expression(f"exp(0.375 * x_1 * x_2) + {i}", chart) for i in (1, 2, 3))
    values = field_evaluator(exprs)(np.zeros((5, 2)))
    assert len(calls) == 1 and values.tolist() == [[2.0, 3.0, 4.0]] * 5


def test_a_negative_zero_literal_is_zero():
    # Num(-0.0) == Num(0.0), so both key one cached kernel and must compile alike
    assert math.copysign(1.0, make_neg(Num(0.0)).value) == 1.0
    assert not np.signbit(kernel_values(make_neg(Num(0.0)), np.zeros((2, 1)))).any()


def test_an_overflowing_entry_keeps_its_infinity_beside_finite_ones():
    chart = base_chart(1)
    exprs = (parse_expression("exp(x_1)", chart), parse_expression("-exp(x_1)", chart),
             parse_expression("x_1", chart))
    values = field_evaluator(exprs)(np.array([[1000.0], [0.0]]))
    assert values.tolist() == [[math.inf, -math.inf, 1000.0], [1.0, -1.0, 0.0]]


@pytest.mark.parametrize("m", _FIELD_ROWS)
def test_an_empty_family_evaluates_to_m_by_0(m):
    # a k = 1 commutation check, a constant target and a zero form are empty families
    assert field_evaluator(())(_FIELD_POINTS[:m]).shape == (m, 0)


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


@pytest.mark.parametrize(
    "source, cause",
    [
        ("sqrt(-1 - x_1^2)", "has a domain error, square root of a negative number in "),
        ("exp(1000 + x_1^2)", "is inf"),
        ("exp(1000 + x_1^2) - exp(1000 + x_1^2)", "is nan"),
    ],
)
def test_sampling_failure_names_the_rejecting_function(source, cause):
    chart = base_chart(1)
    e = parse_expression(source, chart)
    with pytest.raises(SamplingError) as err:
        sample_points(chart, count=8, seed=5, require=[Num(1.0), e])
    message = str(err.value)
    assert message.startswith("could not draw 8 valid points within 80 attempts; ")
    assert f"'{to_source(e)}' {cause}" in message
    point = np.array([json.loads(message.rpartition(" at ")[2])])
    assert point.shape == (1, 1) and not np.isfinite(kernel_values(e, point, strict=False)[0])


@pytest.mark.parametrize("halfwidth", [1e308, math.inf, math.nan])
def test_sampling_refuses_a_box_of_non_finite_width(halfwidth):
    with pytest.raises(SamplingError, match="non-finite width"):
        sample_points(base_chart(2), count=4, halfwidth=halfwidth)


def test_sampling_accepts_the_widest_finite_box():
    pts = sample_points(base_chart(2), count=4, halfwidth=8e307)  # 2 * 8e307 is finite
    assert np.isfinite(pts).all() and np.all(np.abs(pts) <= 8e307)


def assert_stream_is_numpys(seed, halfwidth, sizes):
    """Successive draws continue one stream.  Each is compared after the last,
    so a draw that hands out, or later overwrites, a buffer of the stream fails."""
    rng, draw = np.random.default_rng(seed), _uniform_stream(seed)
    drawn = [draw(-halfwidth, halfwidth, (size,)) for size in sizes]
    for actual, size in zip(drawn, sizes):
        assert actual.tobytes() == rng.uniform(-halfwidth, halfwidth, size=(size,)).tobytes()


# a draw's first block of L^2 states has L lanes, and one of L^2 + 1 one more
LANE_BOUNDARIES = [2, 4, 5, 64, 65, 384, 400, 401, 1024, 1025, 8100, 8101]


@given(
    seed=st.integers(0, 2**128),
    halfwidth=st.floats(5e-324, 8e307),
    sizes=st.lists(
        st.sampled_from(
            [0, 1, *LANE_BOUNDARIES, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]
        ),
        min_size=1,
        max_size=4,
    ),
)
# each draw starts from where the last one stopped, with a first block of its
# own lane count; a partial first block, then full and partial later blocks
@example(seed=7, halfwidth=1.0, sizes=[0, 1, 2, 4, 5])
@example(seed=8, halfwidth=1.0, sizes=[64, 65, 400, 401])
@example(seed=9, halfwidth=1.0, sizes=[384, 1024, 1025, 8100, 8101])
@example(seed=10, halfwidth=1.0, sizes=[128, _BLOCK - 1, 2 * _BLOCK + 3, 1])
@example(seed=11, halfwidth=1.0, sizes=[5, 2 * _BLOCK + 3, _BLOCK])
@example(seed=12, halfwidth=1.0, sizes=[_BLOCK, _BLOCK + 1])
# a subnormal span: 2^-53 folded into it would underflow
@example(seed=13, halfwidth=5e-324, sizes=[1, 65, _BLOCK + 1])
def test_sample_stream_is_numpys_uniform_stream(seed, halfwidth, sizes):
    assert_stream_is_numpys(seed, halfwidth, sizes)


@pytest.mark.parametrize("block", [7, 64])
def test_sample_stream_at_small_blocks_is_numpys_uniform_stream(monkeypatch, block):
    # many later blocks, partial blocks and buffer swaps per draw
    monkeypatch.setattr(expr, "_BLOCK", block)
    assert_stream_is_numpys(5, 2.0, [1, 6, 7, 8, 50, 130, 3])


@pytest.mark.parametrize("count", [1, 64, 20_000])
def test_unfiltered_sample_is_numpys_uniform_sample(count):
    expected = np.random.default_rng(11).uniform(-0.5, 0.5, (count, 3))
    actual = sample_points(base_chart(3), count=count, seed=11, halfwidth=0.5)
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("require", [[], ["log(x_1)"]])
def test_sampling_no_points_gives_an_empty_row_block(require):
    chart = base_chart(2)
    pts = sample_points(chart, count=0, require=[parse_expression(e, chart) for e in require])
    assert pts.shape == (0, 2)


def test_sampling_refuses_a_negative_seed():
    with pytest.raises(ValueError):
        sample_points(base_chart(2), count=4, seed=-1)


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
                if all(math.isfinite(evaluate(e, row)) for e in require):
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
