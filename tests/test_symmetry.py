"""Symmetry, pseudosymmetry, Cartan, and invariant-form checks."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from ksym import calculus, symmetry
from ksym.calculus import (
    ChartMismatchError,
    VectorField,
    lie_bracket,
)
from ksym.bundles import tangent_bundle
from ksym.dynamics import KVectorField, build_system
from ksym.expr import (
    Num,
    base_chart,
    make_add,
    make_mul,
    parse_expression,
    sample_points,
)
from ksym.symmetry import (
    is_cartan_symmetry,
    is_invariant_form,
    is_symmetry,
    solve_pseudosymmetry,
    _jacobi_svd,
    _stacked_solve,
)
from builders import (
    coordinate_vector_field, counting, repeat, vector_field_from_map, zero_vector_field,
)
import lstsq_oracle
from scalar_oracle import evaluate


def cyclic_quadratic_family():
    """X^i = product of the other two coordinates, on a 3d base chart."""
    ch = base_chart(3)
    X = VectorField(
        ch,
        (
            parse_expression("x_2*x_3", ch),
            parse_expression("x_3*x_1", ch),
            parse_expression("x_1*x_2", ch),
        ),
    )
    return ch, KVectorField(ch, (X,))


def radial(ch) -> VectorField:
    return VectorField(ch, tuple(parse_expression(n, ch) for n in ch.coordinate_names[:3]))


def string_sopde():
    sys = build_system("lagrangian", 1, 2, "v_1_1^2/2 - v_2_1^2/2")
    ch = sys.chart
    xi1 = VectorField(
        ch,
        (
            parse_expression("v_1_1", ch),
            parse_expression("v_1_1^2 + v_2_1^2", ch),
            parse_expression("2*v_1_1*v_2_1", ch),
        ),
    )
    xi2 = VectorField(
        ch,
        (
            parse_expression("v_2_1", ch),
            parse_expression("2*v_1_1*v_2_1", ch),
            parse_expression("v_1_1^2 + v_2_1^2", ch),
        ),
    )
    return sys, KVectorField(ch, (xi1, xi2))


def free_particle():
    sys = build_system("lagrangian", 1, 2, "(v_1_1^2 + v_2_1^2)/2")
    ch = sys.chart
    g1 = vector_field_from_map(ch, {"x_1": parse_expression("v_1_1", ch)})
    g2 = vector_field_from_map(ch, {"x_1": parse_expression("v_2_1", ch)})
    return sys, KVectorField(ch, (g1, g2))


# ---------------------------------------------------------------------------
# plain symmetry
# ---------------------------------------------------------------------------


def test_translation_is_symmetry_of_string_sopde():
    sys, family = string_sopde()
    pts = sample_points(sys.chart, count=32, seed=1)
    verdict = is_symmetry(family, coordinate_vector_field(sys.chart, "x_1"), pts)
    assert verdict.kind == "symmetry"
    assert verdict.holds
    assert verdict.max_residual <= 1e-10


def test_component_field_commutes_with_free_particle_family():
    sys, family = free_particle()
    pts = sample_points(sys.chart, count=16, seed=2)
    verdict = is_symmetry(family, family[0], pts)
    assert verdict.holds


def test_radial_field_is_not_symmetry_of_cyclic_system():
    ch, family = cyclic_quadratic_family()
    pts = sample_points(ch, count=32, seed=3)
    verdict = is_symmetry(family, radial(ch), pts)
    assert not verdict.holds
    # the bracket is -X, so the worst residual is the largest |X| sample
    expected = max(float(np.max(np.abs(row))) for row in family[0].evaluate(pts))
    assert verdict.max_residual == pytest.approx(expected, rel=1e-12)
    assert np.max(np.abs(family[0].evaluate(verdict.witness[None]))) == pytest.approx(
        verdict.max_residual
    )


def test_symmetry_chart_mismatch():
    ch, family = cyclic_quadratic_family()
    other = base_chart(2)
    with pytest.raises(ChartMismatchError):
        is_symmetry(family, zero_vector_field(other), [np.zeros(3)])


# ---------------------------------------------------------------------------
# pseudosymmetry
# ---------------------------------------------------------------------------


def test_radial_field_is_pseudosymmetry_with_constant_coefficient():
    ch, family = cyclic_quadratic_family()
    pts = sample_points(ch, count=32, seed=4)
    verdict, lam = solve_pseudosymmetry(family, radial(ch), family, pts)
    assert verdict.holds
    assert verdict.max_residual <= 1e-9
    np.testing.assert_allclose(lam, -1.0, atol=1e-9)
    assert verdict.extra["lambda_fit"] == [["-1"]]
    assert verdict.extra["lambda_fit_residual"] <= 1e-9
    assert "rank_deficient_points" not in verdict.extra


def test_the_pseudosymmetry_stacks_run_one_kernel_per_stack(monkeypatch):
    # the k fields Z_B, and the k brackets [X_A, Y], are one kernel run each
    sys, family = free_particle()
    delta = tangent_bundle(1, 2).liouville
    pts = sample_points(sys.chart, count=32, seed=4)
    runs = Counter()
    for module in (calculus, symmetry):
        monkeypatch.setattr(module, "field_evaluator", counting(runs))
    solve_pseudosymmetry(family, delta, family, pts)
    stack = lambda fields: tuple(c for F in fields for c in F.components)
    assert runs == Counter([stack(family), stack(lie_bracket(X, delta) for X in family)])


def test_liouville_brackets_into_span_of_translation_tuple():
    sys, family = free_particle()
    ch = sys.chart
    pts = sample_points(ch, count=48, seed=5)
    delta = tangent_bundle(1, 2).liouville
    dx = coordinate_vector_field(ch, "x_1")
    verdict, lam = solve_pseudosymmetry(family, delta, repeat(dx), pts)
    assert verdict.holds
    assert verdict.max_residual <= 1e-9
    # the shortest coefficients split -v_A evenly across the two copies
    v1 = ch.index_of("v_1_1")
    v2 = ch.index_of("v_2_1")
    for pi, p in enumerate(pts):
        np.testing.assert_allclose(
            lam[pi, 0], [-p[v1] / 2, -p[v1] / 2], atol=1e-12
        )
        np.testing.assert_allclose(
            lam[pi, 1], [-p[v2] / 2, -p[v2] / 2], atol=1e-12
        )
    # and the polynomial report recovers them in closed form
    assert verdict.extra["lambda_fit_residual"] <= 1e-8
    for a, name in ((0, "v_1_1"), (1, "v_2_1")):
        for b in range(2):
            fitted = parse_expression(verdict.extra["lambda_fit"][a][b], ch)
            for p in pts[:8]:
                assert evaluate(fitted, p) == pytest.approx(-p[ch.index_of(name)] / 2, abs=1e-9)


def test_zero_tuple_reduces_to_plain_symmetry():
    ch, family = cyclic_quadratic_family()
    pts = sample_points(ch, count=16, seed=6)
    zeros = KVectorField(ch, (zero_vector_field(ch),))
    pseudo, lam = solve_pseudosymmetry(family, radial(ch), zeros, pts)
    plain = is_symmetry(family, radial(ch), pts)
    assert not pseudo.holds
    assert pseudo.max_residual == pytest.approx(plain.max_residual, rel=1e-12)
    np.testing.assert_allclose(lam, 0.0)
    assert pseudo.extra["rank_deficient_points"] == len(pts)


def test_symmetry_implies_pseudosymmetry_with_vanishing_coefficients():
    sys, family = string_sopde()
    pts = sample_points(sys.chart, count=16, seed=7)
    dx = coordinate_vector_field(sys.chart, "x_1")
    verdict, lam = solve_pseudosymmetry(family, dx, family, pts)
    assert verdict.holds
    np.testing.assert_allclose(lam, 0.0, atol=1e-10)


def test_pseudosymmetry_chart_mismatch():
    ch, family = cyclic_quadratic_family()
    other = tangent_bundle(1, 1).chart
    with pytest.raises(ChartMismatchError):
        solve_pseudosymmetry(
            family,
            radial(ch),
            KVectorField(other, (zero_vector_field(other),)),
            [np.zeros(3)],
        )


@st.composite
def z_stacks(draw):
    """(m, N, k) stacks of small-integer Z, scaled by a power of ten, with
    repeated columns and all-zero Z at drawn samples, and (m, N, k) brackets."""
    m, n, k = draw(st.integers(0, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    Z = draw(arrays(float, (m, n, k), elements=st.integers(-2, 2).map(float)))
    repeated = draw(arrays(bool, m))
    if k > 1:
        Z[repeated, :, -1] = Z[repeated, :, 0] * draw(st.integers(-2, 2))
    Z[draw(arrays(bool, m))] = 0.0
    Z *= 10.0 ** draw(st.integers(-3, 3))
    return Z, draw(arrays(float, (m, n, k), elements=st.floats(-5, 5)))


@given(stack=z_stacks())
@example(stack=(np.zeros((0, 3, 2)), np.zeros((0, 3, 2))))
@example(stack=(np.zeros((2, 3, 2)), np.ones((2, 3, 2))))
@example(stack=(np.array([[[1.0, 1.0], [2.0, 2.0]]]), np.array([[[1.0, 0.0], [0.0, 1.0]]])))
# one column is the round-off of the other after the first rotation: a pair
# rotated on its cosine alone would never settle
@example(stack=(np.array([[[2.0, 5.0], [0.0, 0.0], [0.0, 0.0]]]), np.ones((1, 3, 2))))
def test_stacked_solve_matches_the_per_point_lstsq(stack):
    Zmats, rhs = stack
    sol, residuals, rank_deficient = _stacked_solve(Zmats, rhs)
    want_sol, want_residuals, want_deficient = lstsq_oracle.solve(Zmats, rhs)
    assert sol.shape == want_sol.shape and residuals.shape == want_residuals.shape
    assert rank_deficient == want_deficient
    for pi in range(len(Zmats)):
        s = np.linalg.svd(Zmats[pi], compute_uv=False)
        kept = s[s > 1e-12 * s[0]]
        bound = 1.0 + np.abs(rhs[pi]).max()
        # the forward error of a least-squares solution scales with |b| * cond / s_min
        scale = bound * kept[0] / kept[-1] ** 2 if len(kept) else 1.0
        np.testing.assert_allclose(sol[pi], want_sol[pi], rtol=0, atol=1e-12 * scale)
        assert abs(residuals[pi] - want_residuals[pi]) <= 1e-12 * bound


@st.composite
def svd_stacks(draw):
    """(m, N, k) stacks of small-integer matrices, each scaled by its own
    power of ten up to 10^+-150, with zero, parallel and near-parallel columns
    at drawn samples."""
    m, n, k = draw(st.integers(0, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    Z = draw(arrays(float, (m, n, k), elements=st.integers(-3, 3).map(float)))
    if k > 1:
        parallel, near = draw(arrays(bool, m)), draw(arrays(bool, m))
        Z[parallel, :, -1] = Z[parallel, :, 0] * draw(st.integers(-3, 3))
        Z[near, :, 1] = Z[near, :, 0] + 10.0 ** -draw(st.integers(1, 16)) * Z[near, :, 1]
    Z[draw(arrays(bool, m)), :, draw(st.integers(0, k - 1))] = 0.0
    return Z * 10.0 ** draw(arrays(int, m, elements=st.integers(-150, 150)))[:, None, None]


@given(Z=svd_stacks())
@example(Z=np.array([[[2.0, 5.0], [0.0, 0.0], [0.0, 0.0]]]))
@example(Z=np.zeros((2, 3, 3)))
def test_jacobi_svd_matches_lapack(Z):
    m, n, k = Z.shape
    U, s, Vt = _jacobi_svd(Z)
    assert U.shape == Z.shape and s.shape == (m, k) and Vt.shape == (m, k, k)
    for pi in range(m):
        want = np.linalg.svd(Z[pi], compute_uv=False)
        got = np.sort(s[pi])[::-1]
        bound = 1e-13 * want[0]
        assert np.abs(got[:len(want)] - want).max() <= bound
        assert (got[len(want):] <= bound).all()  # a wide Z has k - N round-off values
        assert np.abs(U[pi] * s[pi] @ Vt[pi] - Z[pi]).max() <= bound
        assert np.abs(Vt[pi] @ Vt[pi].T - np.eye(k)).max() <= 1e-13


def test_stacked_solve_leaves_non_finite_samples_unsolved():
    # only the finite samples 0 and 2 (rank 1) are solved and counted
    Zmats = np.zeros((5, 3, 2))
    Zmats[:, 0, 0] = Zmats[:, 1, 1] = 1.0
    Zmats[1, 0, 0], Zmats[2, 1, 0], Zmats[3, 2, 1] = np.nan, 1.0, np.inf
    Zmats[2, 1, 1] = Zmats[3, 1, 1] = 0.0
    rhs = np.ones((5, 3, 1))
    rhs[4, 2, 0] = np.inf
    sol, residuals, rank_deficient = _stacked_solve(Zmats, rhs)
    want_sol, want_residuals, want_deficient = _stacked_solve(Zmats[[0, 2]], rhs[[0, 2]])
    assert np.array_equal(sol[[0, 2]], want_sol)
    assert np.array_equal(residuals[[0, 2]], want_residuals)
    assert np.isnan(sol[[1, 3, 4]]).all() and np.isnan(residuals[[1, 3, 4]]).all()
    assert rank_deficient == want_deficient == 1


def test_solver_calls_do_not_grow_with_the_sample_count(monkeypatch):
    calls = Counter()
    for name in ("lstsq", "svd", "pinv", "matrix_rank"):
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    ch, family = cyclic_quadratic_family()
    seen = []
    for count in (10, 1000):
        pts = sample_points(ch, count=count, seed=3)
        calls.clear()
        solve_pseudosymmetry(family, radial(ch), family, pts)
        seen.append(dict(calls))
    # the stacked solve calls no LAPACK SVD; the one lstsq is the lambda fit
    assert seen[0] == seen[1] == {"lstsq": 1}


@given(
    a=st.floats(-3, 3, allow_nan=False),
    b=st.floats(-3, 3, allow_nan=False),
)
def test_bracket_residual_is_bilinear_in_the_candidate(a, b):
    ch, family = cyclic_quadratic_family()
    pts = sample_points(ch, count=8, seed=8)
    y1 = radial(ch)
    y2 = coordinate_vector_field(ch, "x_1")
    mixed = VectorField(
        ch,
        tuple(
            make_add(make_mul(Num(a), c1), make_mul(Num(b), c2))
            for c1, c2 in zip(y1.components, y2.components)
        ),
    )
    r1 = is_symmetry(family, y1, pts).max_residual
    r2 = is_symmetry(family, y2, pts).max_residual
    rm = is_symmetry(family, mixed, pts).max_residual
    assert rm <= abs(a) * r1 + abs(b) * r2 + 1e-9


# ---------------------------------------------------------------------------
# Cartan symmetry
# ---------------------------------------------------------------------------


def test_translation_is_cartan_symmetry_of_string():
    sys, _ = string_sopde()
    pts = sample_points(sys.chart, count=32, seed=9)
    verdict = is_cartan_symmetry(sys, coordinate_vector_field(sys.chart, "x_1"), pts)
    assert verdict.kind == "cartan"
    assert verdict.holds
    assert verdict.max_residual <= 1e-10
    assert verdict.tolerance == 1e-8


def test_diagonal_translation_is_cartan_symmetry_of_coupled_model():
    src = (
        "(lam/2 + nu)*(v_1_1^2 + v_2_2^2) + (nu/2)*(v_2_1^2 + v_1_2^2)"
        " + (lam + nu)*v_1_1*v_2_2"
    )
    sys = build_system("lagrangian", 2, 2, src, {"lam": 1.0, "nu": 1.0})
    ch = sys.chart
    Y = VectorField(
        ch,
        tuple(
            Num(1.0) if name in ("x_1", "x_2") else Num(0.0)
            for name in ch.coordinate_names
        ),
    )
    verdict = is_cartan_symmetry(sys, Y, sample_points(ch, count=16, seed=10))
    assert verdict.holds


def test_rotation_is_cartan_symmetry_of_oscillator():
    sys = build_system("hamiltonian", 1, 1, "(p_1_1^2 + x_1^2)/2")
    ch = sys.chart
    Y = VectorField(
        ch, (parse_expression("-p_1_1", ch), parse_expression("x_1", ch))
    )
    verdict = is_cartan_symmetry(sys, Y, sample_points(ch, count=32, seed=11))
    assert verdict.holds
    assert verdict.max_residual <= 1e-10


def test_dilation_fails_cartan_on_string():
    sys, _ = string_sopde()
    pts = sample_points(sys.chart, count=32, seed=12)
    verdict = is_cartan_symmetry(sys, tangent_bundle(1, 2).liouville, pts)
    assert not verdict.holds
    # scaling doubles the quadratic energy, so the energy residual alone
    # reaches 2|E| at the witness
    energy = abs(2.0 * sys.energy.evaluate(verdict.witness[None])[0])
    assert verdict.max_residual >= energy - 1e-12
    assert verdict.max_residual > 0.5


def test_cartan_tolerance_follows_system_default():
    surface = build_system("lagrangian", 1, 2, "sqrt(1 + v_1_1^2 + v_2_1^2)")
    pts = sample_points(surface.chart, count=8, seed=13)
    verdict = is_cartan_symmetry(
        surface, coordinate_vector_field(surface.chart, "x_1"), pts
    )
    assert verdict.tolerance == 1e-6
    assert verdict.holds


# ---------------------------------------------------------------------------
# invariant forms
# ---------------------------------------------------------------------------


def test_free_particle_flow_preserves_its_forms():
    sys, family = free_particle()
    pts = sample_points(sys.chart, count=16, seed=14)
    verdict = is_invariant_form(family, sys.omega, pts)
    assert verdict.kind == "invariant-form"
    assert verdict.holds
    assert verdict.max_residual <= 1e-10


def test_constant_family_preserves_canonical_forms():
    sys = build_system("hamiltonian", 1, 2, "p_1_1^2/2 + p_2_1^2/2")
    ch = sys.chart
    family = KVectorField(
        ch,
        (
            VectorField(ch, (Num(1.0), Num(2.0), Num(0.0))),
            VectorField(ch, (Num(0.5), Num(0.0), Num(-1.0))),
        ),
    )
    verdict = is_invariant_form(family, sys.omega, sample_points(ch, count=8, seed=15))
    assert verdict.holds


def test_string_sopde_does_not_preserve_its_forms():
    sys, family = string_sopde()
    pts = sample_points(sys.chart, count=32, seed=16)
    verdict = is_invariant_form(family, sys.omega, pts)
    assert not verdict.holds
    v1 = sys.chart.index_of("v_1_1")
    v2 = sys.chart.index_of("v_2_1")
    expected = max(2.0 * max(abs(p[v1]), abs(p[v2])) for p in pts)
    assert verdict.max_residual == pytest.approx(expected, rel=1e-10)


def test_invariant_form_arity_check():
    sys, family = free_particle()
    with pytest.raises(ValueError):
        is_invariant_form(family, sys.omega[:1], [np.zeros(3)])
