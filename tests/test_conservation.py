"""Conservation-law constructors and verifiers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ksym.calculus import (
    ChartMismatchError,
    ScalarField,
    VectorField,
    coordinate_vector_field,
    two_form_matrix,
    zero_vector_field,
)
from ksym.conservation import (
    LAW_TOLERANCE,
    ConservationLaw,
    NotCartanSymmetryError,
    NumericLawComponent,
    build_bracket_law,
    build_noether_law,
    check_momentum_converse,
    user_law,
    verify_law_pointwise,
)
from ksym.dynamics import KVectorField, build_system
from ksym.expr import Num, base_chart, make_add, make_mul, parse_expression, sample_points
from ksym.symmetry import is_invariant_form, is_symmetry, solve_pseudosymmetry


def free_particle():
    sys = build_system("lagrangian", 1, 2, "(v_1_1^2 + v_2_1^2)/2")
    ch = sys.chart
    g1 = VectorField(ch, (parse_expression("v_1_1", ch), Num(0.0), Num(0.0)))
    g2 = VectorField(ch, (parse_expression("v_2_1", ch), Num(0.0), Num(0.0)))
    return sys, KVectorField(ch, (g1, g2))


def string_system(sigma=1.0, tau=1.0):
    return build_system(
        "lagrangian", 1, 2, "(sigma/2)*v_1_1^2 - (tau/2)*v_2_1^2",
        {"sigma": sigma, "tau": tau},
    )


def string_sopde(ch):
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
    return KVectorField(ch, (xi1, xi2))


def oscillator():
    sys = build_system("hamiltonian", 1, 1, "(p_1_1^2 + x_1^2)/2")
    ch = sys.chart
    rotation = VectorField(
        ch, (parse_expression("-p_1_1", ch), parse_expression("x_1", ch))
    )
    evolution = KVectorField(
        ch,
        (VectorField(ch, (parse_expression("p_1_1", ch), parse_expression("-x_1", ch))),),
    )
    return sys, rotation, evolution


# ---------------------------------------------------------------------------
# bracket-law constructor
# ---------------------------------------------------------------------------


def test_bracket_law_matches_matrix_contraction_oracle():
    sys, family = free_particle()
    ch = sys.chart
    delta = sys.bundle.liouville
    dx = coordinate_vector_field(ch, "x_1")
    law = build_bracket_law(sys.omega, [delta], dx)
    assert law.provenance == "bracket-law"
    assert law.symbolic
    pts = sample_points(ch, count=16, seed=20)
    phis = law.evaluate(pts).T
    for p, s_val, y_val, phi in zip(pts, delta.evaluate(pts), dx.evaluate(pts), phis):
        for value, omega in zip(phi, sys.omega):
            oracle = float(s_val @ two_form_matrix(omega, p) @ y_val)
            assert value == pytest.approx(oracle, abs=1e-12)


def test_bracket_law_free_particle_yields_momenta():
    sys, family = free_particle()
    ch = sys.chart
    law = build_bracket_law(
        sys.omega, [sys.bundle.liouville], coordinate_vector_field(ch, "x_1")
    )
    v1, v2 = ch.index_of("v_1_1"), ch.index_of("v_2_1")
    pts = sample_points(ch, count=16, seed=21)
    for p, phi1, phi2 in zip(pts, *law.evaluate(pts)):
        assert phi1 == pytest.approx(-p[v1], abs=1e-12)
        assert phi2 == pytest.approx(-p[v2], abs=1e-12)
    check = verify_law_pointwise(family, law, sample_points(ch, count=32, seed=22))
    assert check.max_residual <= 1e-9


def test_bracket_law_with_repeated_field_vanishes():
    sys, _ = free_particle()
    dx = coordinate_vector_field(sys.chart, "x_1")
    law = build_bracket_law(sys.omega, [dx], dx)
    np.testing.assert_allclose(law.evaluate(sample_points(sys.chart, count=8, seed=23)), 0.0,
                               atol=1e-15)


def test_bracket_law_classical_pairing():
    sys = build_system("hamiltonian", 1, 1, "p_1_1^2/2")
    ch = sys.chart
    scaling = VectorField(
        ch, (parse_expression("x_1", ch), parse_expression("p_1_1", ch))
    )
    law = build_bracket_law(sys.omega, [scaling], coordinate_vector_field(ch, "x_1"))
    p_idx = ch.index_of("p_1_1")
    pts = sample_points(ch, count=16, seed=24)
    for p, phi in zip(pts, law.components[0].evaluate(pts)):
        assert phi == pytest.approx(-p[p_idx], abs=1e-12)
    flow = KVectorField(
        ch, (VectorField(ch, (parse_expression("p_1_1", ch), Num(0.0))),)
    )
    assert verify_law_pointwise(flow, law, pts).max_residual <= 1e-12


def test_bracket_law_rejects_bad_ingredients():
    sys, _ = free_particle()
    dx = coordinate_vector_field(sys.chart, "x_1")
    with pytest.raises(ValueError):
        build_bracket_law(sys.omega, [], dx)
    with pytest.raises(ValueError):
        build_bracket_law([sys.omega[0], sys.theta[0]], [dx], dx)
    other = base_chart(3)
    with pytest.raises(ChartMismatchError):
        build_bracket_law(sys.omega, [zero_vector_field(other)], dx)


# ---------------------------------------------------------------------------
# Noether constructor, symbolic branch
# ---------------------------------------------------------------------------


def test_noether_law_string_momenta():
    sys = string_system(sigma=2.0, tau=3.0)
    ch = sys.chart
    law = build_noether_law(sys, coordinate_vector_field(ch, "x_1"), sample_points(ch))
    assert law.provenance == "noether"
    assert law.symbolic
    v1, v2 = ch.index_of("v_1_1"), ch.index_of("v_2_1")
    pts = sample_points(ch, count=16, seed=25)
    for p, phi1, phi2 in zip(pts, *law.evaluate(pts)):
        assert phi1 == pytest.approx(2.0 * p[v1], abs=1e-12)
        assert phi2 == pytest.approx(-3.0 * p[v2], abs=1e-12)


def test_noether_law_conserved_along_string_evolution():
    sys = string_system()
    pts = sample_points(sys.chart, count=64, seed=42)
    law = build_noether_law(sys, coordinate_vector_field(sys.chart, "x_1"), pts)
    family = string_sopde(sys.chart)
    assert verify_law_pointwise(family, law, pts).max_residual <= 1e-9


def test_noether_law_sqrt_model():
    sys = build_system("lagrangian", 1, 2, "sqrt(1 + v_1_1^2 + v_2_1^2)")
    ch = sys.chart
    law = build_noether_law(sys, coordinate_vector_field(ch, "x_1"), sample_points(ch))
    v1, v2 = ch.index_of("v_1_1"), ch.index_of("v_2_1")
    pts = sample_points(ch, count=16, seed=26)
    for p, phi1, phi2 in zip(pts, *law.evaluate(pts)):
        w = np.sqrt(1.0 + p[v1] ** 2 + p[v2] ** 2)
        assert phi1 == pytest.approx(p[v1] / w, abs=1e-12)
        assert phi2 == pytest.approx(p[v2] / w, abs=1e-12)


def test_noether_law_three_copy_model():
    sys = build_system("lagrangian", 1, 3, "(v_1_1^2 + v_2_1^2 + v_3_1^2)/2")
    ch = sys.chart
    law = build_noether_law(sys, coordinate_vector_field(ch, "x_1"), sample_points(ch))
    pts = sample_points(ch, count=8, seed=27)
    for p, phi in zip(pts, law.evaluate(pts).T):
        for A in (1, 2, 3):
            idx = ch.index_of(f"v_{A}_1")
            assert phi[A - 1] == pytest.approx(p[idx], abs=1e-12)


def test_noether_law_coupled_quadratic_model():
    src = (
        "(lam/2 + nu)*(v_1_1^2 + v_2_2^2) + (nu/2)*(v_2_1^2 + v_1_2^2)"
        " + (lam + nu)*v_1_1*v_2_2"
    )
    lam, nu = 1.5, 0.5
    sys = build_system("lagrangian", 2, 2, src, {"lam": lam, "nu": nu})
    ch = sys.chart
    Y = VectorField(
        ch,
        tuple(
            Num(1.0) if name in ("x_1", "x_2") else Num(0.0)
            for name in ch.coordinate_names
        ),
    )
    law = build_noether_law(sys, Y, sample_points(ch))
    pts = sample_points(ch, count=16, seed=28)
    for p, value1, value2 in zip(pts, *law.evaluate(pts)):
        v = {name: p[ch.index_of(name)] for name in ("v_1_1", "v_1_2", "v_2_1", "v_2_2")}
        phi1 = (lam + 2 * nu) * v["v_1_1"] + nu * v["v_1_2"] + (lam + nu) * v["v_2_2"]
        phi2 = (lam + nu) * v["v_1_1"] + nu * v["v_2_1"] + (lam + 2 * nu) * v["v_2_2"]
        assert value1 == pytest.approx(phi1, abs=1e-12)
        assert value2 == pytest.approx(phi2, abs=1e-12)


def test_noether_gate_rejects_non_cartan_field():
    sys = string_system()
    with pytest.raises(NotCartanSymmetryError) as info:
        build_noether_law(sys, sys.bundle.liouville, sample_points(sys.chart))
    assert info.value.verdict.max_residual > 0.5


# ---------------------------------------------------------------------------
# Noether constructor, quadrature branch
# ---------------------------------------------------------------------------


def test_noether_quadrature_branch_recovers_energy():
    sys, rotation, evolution = oscillator()
    ch = sys.chart
    law = build_noether_law(sys, rotation, sample_points(ch))
    assert not law.symbolic
    assert isinstance(law.components[0], NumericLawComponent)
    # the rotation drags theta into x dx - p dp, whose potential is
    # (x^2 - p^2)/2; the law collapses to minus the energy
    H = sys.function
    assert law.components[0].evaluate(np.zeros((1, 2)))[0] == pytest.approx(0.0, abs=1e-12)
    pts = sample_points(ch, count=32, seed=29)
    for phi, energy in zip(law.components[0].evaluate(pts), H.evaluate(pts)):
        assert phi == pytest.approx(-energy, abs=1e-6)
    f = law.ingredients["f"][0]
    x, q = ch.index_of("x_1"), ch.index_of("p_1_1")
    pts = sample_points(ch, count=8, seed=30)
    for p, value in zip(pts, f.evaluate(pts)):
        assert value == pytest.approx((p[x] ** 2 - p[q] ** 2) / 2, abs=1e-10)


def test_noether_quadrature_component_recomposition():
    sys, rotation, _ = oscillator()
    law = build_noether_law(sys, rotation, sample_points(sys.chart))
    comp = law.components[0]
    pts = sample_points(sys.chart, count=8, seed=31)
    assert (comp.evaluate(pts) == comp.symbolic.evaluate(pts) - comp.potential.evaluate(pts)).all()


def test_noether_quadrature_law_verifies_along_flow():
    sys, rotation, evolution = oscillator()
    law = build_noether_law(sys, rotation, sample_points(sys.chart))
    pts = sample_points(sys.chart, count=32, seed=32)
    # X(Phi) = X(theta(Y)) - alpha(X) exactly, so only round-off remains
    assert verify_law_pointwise(evolution, law, pts).max_residual <= 1e-14


# ---------------------------------------------------------------------------
# pointwise verification
# ---------------------------------------------------------------------------


def test_wave_flux_law_is_conserved():
    sys = string_system()
    ch = sys.chart
    law = user_law(
        ch,
        (
            ScalarField(ch, parse_expression("-2*v_1_1*v_2_1", ch)),
            ScalarField(ch, parse_expression("v_1_1^2 + v_2_1^2", ch)),
        ),
    )
    family = string_sopde(ch)
    pts = sample_points(ch, count=64, seed=42)
    assert verify_law_pointwise(family, law, pts).max_residual <= 1e-9


def test_constant_law_has_zero_residual():
    sys = string_system()
    law = user_law(
        sys.chart,
        (ScalarField(sys.chart, Num(3.0)), ScalarField(sys.chart, Num(-1.0))),
    )
    family = string_sopde(sys.chart)
    check = verify_law_pointwise(family, law, sample_points(sys.chart, count=8, seed=33))
    assert check.max_residual == 0.0


def test_energy_tuple_is_not_conserved_for_string():
    sys = string_system()
    ch = sys.chart
    law = user_law(ch, (sys.energy, sys.energy))
    family = string_sopde(ch)
    pts = sample_points(ch, count=64, seed=42)
    residual = verify_law_pointwise(family, law, pts).max_residual
    assert residual > 0.1
    # the residual expands to (v1 + v2)^2 (v1 - v2)
    v1, v2 = ch.index_of("v_1_1"), ch.index_of("v_2_1")
    expected = max(abs((p[v1] + p[v2]) ** 2 * (p[v1] - p[v2])) for p in pts)
    assert residual == pytest.approx(expected, rel=1e-9)


def test_verify_law_pointwise_reports_the_worst_sample_as_its_check():
    sys = string_system()
    ch = sys.chart
    law = user_law(ch, (sys.energy, sys.energy))
    family = string_sopde(ch)
    pts = sample_points(ch, count=64, seed=42)
    v1, v2 = ch.index_of("v_1_1"), ch.index_of("v_2_1")
    expected = [abs((p[v1] + p[v2]) ** 2 * (p[v1] - p[v2])) for p in pts]
    worst = int(np.argmax(expected))
    check = verify_law_pointwise(family, law, pts)
    assert (check.kind, check.holds, check.tolerance) == ("law-pointwise", False, LAW_TOLERANCE)
    assert check.max_residual == pytest.approx(expected[worst], rel=1e-9)
    assert np.array_equal(check.witness, pts[worst])
    wide = verify_law_pointwise(family, law, pts, tolerance=check.max_residual)
    assert wide.holds and wide.tolerance == check.max_residual
    assert wide.max_residual == check.max_residual

def test_verify_law_chart_and_arity_errors():
    sys = string_system()
    law = user_law(
        sys.chart,
        (ScalarField(sys.chart, Num(0.0)), ScalarField(sys.chart, Num(0.0))),
    )
    other = base_chart(2, k=2)
    family = KVectorField(other, (zero_vector_field(other), zero_vector_field(other)))
    with pytest.raises(ChartMismatchError):
        verify_law_pointwise(family, law, [np.zeros(2)])


def test_nan_residual_is_not_folded_into_a_pass():
    sys, _, evolution = oscillator()
    ch = sys.chart
    # X(Phi) evaluates to inf - inf + 5 p at x_1 = 0.9
    law = user_law(
        ch, (ScalarField(ch, parse_expression("exp(1000*x_1) - exp(1000*x_1) + 5*x_1", ch)),)
    )
    clean = np.array([0.0, 0.2])
    assert verify_law_pointwise(evolution, law, [clean]).max_residual == pytest.approx(1.0)
    residual = verify_law_pointwise(evolution, law, [clean, np.array([0.9, 0.3])]).max_residual
    assert np.isnan(residual)
    assert not residual <= 1e-8


@given(a=st.floats(-2, 2, allow_nan=False), b=st.floats(-2, 2, allow_nan=False))
def test_verification_residual_is_sublinear(a, b):
    sys, family = free_particle()
    ch = sys.chart
    law_a = build_bracket_law(
        sys.omega, [sys.bundle.liouville], coordinate_vector_field(ch, "x_1")
    )
    law_b = user_law(ch, (sys.energy, sys.energy))
    pts = sample_points(ch, count=8, seed=34)
    mixed = user_law(
        ch,
        tuple(
            ScalarField(ch, make_add(make_mul(Num(a), ca.expr), make_mul(Num(b), cb.expr)))
            for ca, cb in zip(law_a.components, law_b.components)
        ),
    )
    ra = verify_law_pointwise(family, law_a, pts).max_residual
    rb = verify_law_pointwise(family, law_b, pts).max_residual
    rm = verify_law_pointwise(family, mixed, pts).max_residual
    assert rm <= abs(a) * ra + abs(b) * rb + 1e-9


# ---------------------------------------------------------------------------
# momentum converse
# ---------------------------------------------------------------------------


def test_converse_recognizes_noether_induced_law():
    sys, rotation, evolution = oscillator()
    law = build_noether_law(sys, rotation, sample_points(sys.chart))
    pts = sample_points(sys.chart, count=32, seed=35)
    pairing, conserved, cartan = check_momentum_converse(sys, rotation, law, evolution, pts)
    assert (pairing.kind, conserved.kind, cartan.kind) == ("pairing", "law-pointwise", "cartan")
    assert pairing.holds
    assert conserved.holds
    assert cartan.holds


def test_converse_on_string_translation_law():
    sys = string_system()
    ch = sys.chart
    dx = coordinate_vector_field(ch, "x_1")
    law = build_noether_law(sys, dx, sample_points(ch))
    family = string_sopde(ch)
    pts = sample_points(ch, count=32, seed=36)
    checks = check_momentum_converse(sys, dx, law, family, pts)
    assert all(check.holds for check in checks)


def test_wave_flux_law_is_not_noether_induced_by_ansatz_fields():
    sys = string_system()
    ch = sys.chart
    law = user_law(
        ch,
        (
            ScalarField(ch, parse_expression("-2*v_1_1*v_2_1", ch)),
            ScalarField(ch, parse_expression("v_1_1^2 + v_2_1^2", ch)),
        ),
    )
    family = string_sopde(ch)
    pts = sample_points(ch, count=32, seed=37)
    for candidate in (coordinate_vector_field(ch, "x_1"), sys.bundle.liouville):
        pairing, conserved, _cartan = check_momentum_converse(sys, candidate, law, family, pts)
        assert conserved.holds
        assert not pairing.holds


# ---------------------------------------------------------------------------
# main-theorem soundness, end to end
# ---------------------------------------------------------------------------


def test_verified_hypotheses_imply_conservation():
    sys, family = free_particle()
    ch = sys.chart
    dx = coordinate_vector_field(ch, "x_1")
    delta = sys.bundle.liouville
    pts = sample_points(ch, count=48, seed=42)
    assert is_symmetry(family, dx, pts).holds
    assert solve_pseudosymmetry(family, delta, KVectorField.repeat(dx), pts)[0].holds
    assert is_invariant_form(family, sys.omega, pts).holds
    law = build_bracket_law(sys.omega, [delta], dx)
    assert verify_law_pointwise(family, law, pts).max_residual <= 1e-6


# ---------------------------------------------------------------------------
# law type invariants
# ---------------------------------------------------------------------------


def test_law_length_must_match_chart():
    sys = string_system()
    with pytest.raises(ValueError):
        ConservationLaw(sys.chart, (sys.energy,), "user")


def test_law_rejects_unknown_provenance():
    sys = string_system()
    with pytest.raises(ValueError):
        ConservationLaw(sys.chart, (sys.energy, sys.energy), "conjecture")


def test_law_rejects_foreign_components():
    sys = string_system()
    other = base_chart(2)
    stray = ScalarField(other, Num(1.0))
    with pytest.raises(ChartMismatchError):
        ConservationLaw(sys.chart, (stray, stray), "user")
