"""Field systems: construction, regularity, and the evolution solvers."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lagrangian_oracle
from ksym import bundles, calculus, dynamics, expr
from ksym.bundles import cotangent_bundle, tangent_bundle
from ksym.calculus import VectorField, two_form_matrix
from ksym.cli import load_model, main, resolve_model_path
from ksym.dynamics import (
    EVOLUTION_TOLERANCE,
    FieldSystem,
    InconsistentSystemError,
    KVectorField,
    SingularHessianError,
    build_system,
    check_regularity,
    evolution_residuals,
    solve_evolution_hamiltonian,
    solve_evolution_lagrangian,
    verify_evolution,
)
from ksym.expr import (
    Num,
    make_add,
    parse_expression,
    sample_points,
)
from builders import counting, derivative, kernel_values, repeat, zero_form
from scalar_oracle import evaluate


STRING = "(sigma/2)*v_1_1^2 - (tau/2)*v_2_1^2"


def string_system(sigma=1.0, tau=1.0):
    return build_system(
        "lagrangian", 1, 2, STRING, {"sigma": sigma, "tau": tau}
    )


def constant_family(chart, values) -> KVectorField:
    """Wrap a (k, N) array of numbers as a family of constant fields."""
    rows = np.asarray(values, dtype=float)
    fields = tuple(
        VectorField(chart, tuple(Num(float(v)) for v in row)) for row in rows
    )
    return KVectorField(chart, fields)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_hamiltonian_system_canonical_forms():
    sys = build_system("hamiltonian", 2, 1, "(p_1_1^2 + p_1_2^2)/2 + x_1*x_2")
    assert sys.kind == "hamiltonian"
    assert sys.chart.kind == "k-cotangent"
    assert sys.energy is None
    assert sys.target is sys.function
    assert sys.omega == cotangent_bundle(2, 1).omega
    assert sys.theta == cotangent_bundle(2, 1).theta


def test_build_lagrangian_string_forms():
    sys = string_system(sigma=2.0, tau=3.0)
    ch = sys.chart
    x, v1, v2 = ch.index_of("x_1"), ch.index_of("v_1_1"), ch.index_of("v_2_1")
    # theta_A = dL . S^A, omega_A = -d theta_A
    assert sys.omega[0].components == {(x, v1): Num(2.0)}
    assert sys.omega[1].components == {(x, v2): Num(-3.0)}
    pts = sample_points(ch, count=16, seed=3)
    rows = zip(pts, sys.energy.evaluate(pts), sys.function.evaluate(pts))
    for p, energy, function in rows:
        assert evaluate(sys.theta[0].component(x), p) == pytest.approx(2.0 * p[v1])
        assert evaluate(sys.theta[1].component(x), p) == pytest.approx(-3.0 * p[v2])
        # homogeneous quadratic Lagrangian: the energy coincides with L
        assert energy == pytest.approx(function)


def test_energy_of_nonhomogeneous_lagrangian():
    sys = build_system("lagrangian", 1, 1, "v_1_1^2/2 - x_1^2")
    ch = sys.chart
    pts = sample_points(ch, count=16, seed=4)
    for p, energy in zip(pts, sys.energy.evaluate(pts)):
        x, v = p[ch.index_of("x_1")], p[ch.index_of("v_1_1")]
        assert energy == pytest.approx(v * v / 2 + x * x, abs=1e-12)


def test_build_system_rejects_unknown_kind():
    with pytest.raises(ValueError):
        build_system("dissipative", 1, 1, "x_1")


def test_default_tolerance_tracks_function_class():
    assert string_system().default_tolerance == 1e-8
    surface = build_system("lagrangian", 1, 2, "sqrt(1 + v_1_1^2 + v_2_1^2)")
    assert surface.default_tolerance == 1e-6


def test_the_default_tolerance_walks_the_function_once(monkeypatch):
    system, walked, fold = string_system(), [], dynamics.fold
    monkeypatch.setattr(dynamics, "fold", lambda e, rule: walked.append(e) or fold(e, rule))
    assert system.default_tolerance == system.default_tolerance == 1e-8
    assert walked == [system.function.expr]


def test_kvector_field_arity_and_repeat():
    sys = string_system()
    ch = sys.chart
    dx = VectorField(ch, (Num(1.0), Num(0.0), Num(0.0)))
    with pytest.raises(ValueError):
        KVectorField(ch, (dx,))
    family = repeat(dx)
    assert len(family) == 2
    assert all(f is dx for f in family)
    assert family[1] is dx


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def test_regularity_string_constant_hessian():
    sys = string_system(sigma=2.0, tau=3.0)
    report = check_regularity(sys, sample_points(sys.chart, count=8, seed=5))
    assert report.holds
    assert report.extra["min_abs_det"] == pytest.approx(6.0, abs=1e-12)


def test_regularity_coupled_quadratic_model():
    src = (
        "(lam/2 + nu)*(v_1_1^2 + v_2_2^2) + (nu/2)*(v_2_1^2 + v_1_2^2)"
        " + (lam + nu)*v_1_1*v_2_2"
    )
    sys = build_system("lagrangian", 2, 2, src, {"lam": 1.0, "nu": 1.0})
    report = check_regularity(sys, sample_points(sys.chart, count=8, seed=6))
    assert report.holds
    # nu^2 ((lam + 2 nu)^2 - (lam + nu)^2) at lam = nu = 1
    assert report.extra["min_abs_det"] == pytest.approx(5.0, abs=1e-12)


def test_regularity_sqrt_model_bounded_below():
    sys = build_system("lagrangian", 1, 2, "sqrt(1 + v_1_1^2 + v_2_1^2)")
    pts = sample_points(sys.chart, count=64, seed=7)
    report = check_regularity(sys, pts)
    assert report.holds
    # determinant is (1 + |v|^2)^-2, at least 1/9 on the unit box
    assert 1.0 / 9.0 - 1e-9 <= report.extra["min_abs_det"] <= 1.0
    w = report.witness
    expected = (1.0 + w[1] ** 2 + w[2] ** 2) ** -2
    assert report.extra["min_abs_det"] == pytest.approx(expected, rel=1e-12)


def test_regularity_rejects_linear_lagrangian():
    sys = build_system("lagrangian", 1, 1, "v_1_1")
    report = check_regularity(sys, sample_points(sys.chart, count=4, seed=8))
    assert not report.holds
    assert report.extra["min_abs_det"] == 0.0


@pytest.mark.filterwarnings("ignore:invalid value encountered in det:RuntimeWarning")
def test_regularity_fails_on_a_nan_determinant():
    sys = build_system("lagrangian", 1, 1, "(1 + x_1^2)*v_1_1^2/2")
    points = [np.array([0.5, 0.1]), np.array([np.nan, 0.2]), np.array([0.0, 0.3])]
    report = check_regularity(sys, points)
    assert not report.holds
    assert np.isnan(report.extra["min_abs_det"])
    assert np.isnan(report.witness[0])


def test_regularity_refuses_an_empty_point_set():
    sys = string_system()
    with pytest.raises(ValueError, match="regularity needs at least one sample point, got none"):
        check_regularity(sys, np.empty((0, sys.chart.dimension)))


def test_regularity_requires_lagrangian_side():
    sys = build_system("hamiltonian", 1, 1, "p_1_1^2/2")
    with pytest.raises(ValueError):
        check_regularity(sys, [np.zeros(2)])


# ---------------------------------------------------------------------------
# Hamiltonian solver
# ---------------------------------------------------------------------------


def test_classical_hamilton_equations_unique():
    sys = build_system(
        "hamiltonian", 2, 1, "(p_1_1^2 + p_1_2^2)/2 + sin(x_1) + x_2^2"
    )
    ch = sys.chart
    x1, x2 = ch.index_of("x_1"), ch.index_of("x_2")
    p1, p2 = ch.index_of("p_1_1"), ch.index_of("p_1_2")
    for p in sample_points(ch, count=32, seed=9):
        X = solve_evolution_hamiltonian(sys, p)
        assert X.shape == (1, 4)
        expected = np.zeros(4)
        expected[x1] = p[p1]
        expected[x2] = p[p2]
        expected[p1] = -np.cos(p[x1])
        expected[p2] = -2.0 * p[x2]
        np.testing.assert_allclose(X[0], expected, atol=1e-12)


def test_hamiltonian_min_norm_representative_frozen():
    sys = build_system("hamiltonian", 1, 2, "(p_1_1^2 + p_2_1^2)/2")
    point = np.array([0.2, 0.7, -0.4])
    X = solve_evolution_hamiltonian(sys, point)
    # the base rows are determined; min-norm zeroes every fiber component
    np.testing.assert_allclose(X[0], [0.7, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(X[1], [-0.4, 0.0, 0.0], atol=1e-12)


def test_hamiltonian_solver_matches_matrix_assembly():
    sys = build_system(
        "hamiltonian", 1, 2, "p_1_1^2/2 + p_2_1^2/2 + x_1*p_2_1 + x_1^2"
    )
    ch = sys.chart
    N = ch.dimension
    for point in sample_points(ch, count=12, seed=10):
        M = np.hstack([two_form_matrix(w, point).T for w in sys.omega])
        x1 = point[ch.index_of("x_1")]
        q1 = point[ch.index_of("p_1_1")]
        q2 = point[ch.index_of("p_2_1")]
        b = np.array([q2 + 2.0 * x1, q1, q2 + x1])
        oracle, *_ = np.linalg.lstsq(M, b, rcond=1e-12)
        X = solve_evolution_hamiltonian(sys, point)
        np.testing.assert_allclose(X.reshape(-1), oracle.reshape(2, N).reshape(-1), atol=1e-10)


@given(
    a=st.floats(-2, 2, allow_nan=False),
    b=st.floats(-2, 2, allow_nan=False),
    x=st.floats(-1, 1, allow_nan=False),
    q=st.floats(-1, 1, allow_nan=False),
)
def test_hamiltonian_k1_closed_form(a, b, x, q):
    ch_source = f"p_1_1^2/2 + ({a})*x_1^2 + ({b})*x_1"
    sys = build_system("hamiltonian", 1, 1, ch_source)
    X = solve_evolution_hamiltonian(sys, np.array([x, q]))
    np.testing.assert_allclose(X[0], [q, -(2.0 * a * x + b)], atol=1e-10)


def test_inconsistent_system_raises():
    # no x solves 0 x = (1, 0): the least-squares residual refuses it
    with pytest.raises(InconsistentSystemError, match="inconsistent: residual 1.000e[+]00"):
        dynamics._least_squares(np.zeros((2, 2)), np.array([1.0, 0.0]))
    # and the solver passes the refusal on, here for a zero omega in place of dx ^ dp
    broken = build_system("hamiltonian", 1, 1, "x_1")
    broken.omega = (zero_form(broken.chart, 2),)
    with pytest.raises(InconsistentSystemError):
        solve_evolution_hamiltonian(broken, np.zeros(2))


# ---------------------------------------------------------------------------
# Lagrangian solver
# ---------------------------------------------------------------------------


def test_classical_second_order_equation():
    sys = build_system("lagrangian", 1, 1, "v_1_1^2/2 - x_1^2")
    X = solve_evolution_lagrangian(sys, np.array([0.5, 2.0]))
    np.testing.assert_allclose(X, [[2.0, -1.0]], atol=1e-12)


def test_lagrangian_base_components_are_velocities():
    sys = string_system()
    point = np.array([0.3, 1.0, 2.0])
    X = solve_evolution_lagrangian(sys, point)
    ch = sys.chart
    assert X[0, ch.index_of("x_1")] == pytest.approx(1.0)
    assert X[1, ch.index_of("x_1")] == pytest.approx(2.0)


def test_lagrangian_linear_potential_frozen_min_norm():
    # dynamic row g_11 - g_22 = 1 plus the constraint g_12 = g_21; the
    # shortest solution is (1/2, 0, 0, -1/2)
    sys = build_system("lagrangian", 1, 2, "v_1_1^2/2 - v_2_1^2/2 + x_1")
    for point in sample_points(sys.chart, count=8, seed=11):
        X = solve_evolution_lagrangian(sys, point)
        assert X[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert X[0, 2] == pytest.approx(0.0, abs=1e-12)
        assert X[1, 1] == pytest.approx(0.0, abs=1e-12)
        assert X[1, 2] == pytest.approx(-0.5, abs=1e-12)
        family = constant_family(sys.chart, X)
        assert verify_evolution(sys, family, [point]).max_residual <= 1e-12


def test_lagrangian_mixed_partial_terms_cancel():
    # d/dt^A of dL/dv picks up a base derivative through x*v_1_1; here it
    # exactly cancels dL/dx, so the min-norm fibers vanish
    sys = build_system("lagrangian", 1, 2, "v_1_1^2/2 - v_2_1^2/2 + x_1*v_1_1")
    for point in sample_points(sys.chart, count=8, seed=12):
        X = solve_evolution_lagrangian(sys, point)
        np.testing.assert_allclose(X[:, 1:], np.zeros((2, 2)), atol=1e-12)
        family = constant_family(sys.chart, X)
        assert verify_evolution(sys, family, [point]).max_residual <= 1e-12


def test_lagrangian_solution_satisfies_equation_pointwise():
    sys = string_system(sigma=2.0, tau=0.5)
    for point in sample_points(sys.chart, count=16, seed=13):
        X = solve_evolution_lagrangian(sys, point)
        family = constant_family(sys.chart, X)
        assert verify_evolution(sys, family, [point]).max_residual <= 1e-10


def test_singular_hessian_raises():
    sys = build_system("lagrangian", 1, 1, "v_1_1")
    with pytest.raises(SingularHessianError):
        solve_evolution_lagrangian(sys, np.zeros(2))


weights = st.floats(-2, 2).map(lambda c: round(c, 3))


@st.composite
def polynomial_lagrangians(draw, with_x: bool):
    """(n, k, source): a diagonally dominant quadratic form in the velocities
    (diagonal at least 1/2 in size, couplings at most 0.1), plus terms linear
    in the velocities and a potential, x-dependent when ``with_x``."""
    n, k = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    xs = [f"x_{i}" for i in range(1, n + 1)]
    vs = [f"v_{A}_{i}" for A in range(1, k + 1) for i in range(1, n + 1)]
    x_monomial = st.builds(lambda x, p: f"{x}^{p}", st.sampled_from(xs), st.integers(1, 3))
    factor = x_monomial if with_x else st.just("1")
    terms = []
    for v in vs:
        size = draw(st.floats(0.5, 2).map(lambda c: round(c, 3)))
        terms.append(f"({draw(st.sampled_from([size, -size]))})*{v}^2/2")
    for a, v in enumerate(vs):
        for w in vs[a + 1:]:
            weight = draw(st.floats(-0.1, 0.1).map(lambda c: round(c, 3)))
            terms.append(f"({weight})*{draw(factor)}*{v}*{w}")
        terms.append(f"({draw(weights)})*{draw(factor)}*{v}")
    if with_x:
        terms.append(f"({draw(weights)})*{draw(x_monomial)}*{draw(x_monomial)}")
    return n, k, " + ".join(terms)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), with_x=st.booleans())
def test_lagrangian_solver_matches_the_euler_lagrange_oracle(data, with_x):
    n, k, source = data.draw(polynomial_lagrangians(with_x))
    system = build_system("lagrangian", n, k, source)
    N = system.chart.dimension
    point = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=N, max_size=N)))
    X = solve_evolution_lagrangian(system, point)
    expected = lagrangian_oracle.solve(system, point)
    if with_x:
        assert np.max(np.abs(X - expected)) <= 1e-12 * max(1.0, np.max(np.abs(expected)))
    else:
        assert X.tobytes() == expected.tobytes()
    family = constant_family(system.chart, X)
    assert evolution_residuals(system, family).max_component_at(point[None])[0] <= 1e-9


# ---------------------------------------------------------------------------
# symbolic verification
# ---------------------------------------------------------------------------


def quadratic_string_sopde(chart):
    xi1 = VectorField(
        chart,
        (
            parse_expression("v_1_1", chart),
            parse_expression("v_1_1^2 + v_2_1^2", chart),
            parse_expression("2*v_1_1*v_2_1", chart),
        ),
    )
    xi2 = VectorField(
        chart,
        (
            parse_expression("v_2_1", chart),
            parse_expression("2*v_1_1*v_2_1", chart),
            parse_expression("v_1_1^2 + v_2_1^2", chart),
        ),
    )
    return KVectorField(chart, (xi1, xi2))


def test_verify_evolution_string_quadratic_sopde():
    sys = string_system()
    family = quadratic_string_sopde(sys.chart)
    pts = sample_points(sys.chart, count=64, seed=42)
    assert verify_evolution(sys, family, pts).max_residual <= 1e-9


def test_verify_evolution_flags_perturbation():
    sys = string_system()
    family = quadratic_string_sopde(sys.chart)
    bumped = VectorField(
        sys.chart,
        (
            family[0].components[0],
            make_add(family[0].components[1], Num(0.1)),
            family[0].components[2],
        ),
    )
    perturbed = KVectorField(sys.chart, (bumped, family[1]))
    pts = sample_points(sys.chart, count=64, seed=42)
    residuals = evolution_residuals(sys, perturbed).max_component_at(pts)
    assert residuals.min() >= 0.09
    assert verify_evolution(sys, perturbed, pts).max_residual >= 0.09


def test_verify_evolution_reports_the_worst_sample_as_its_check():
    sys = string_system()
    family = quadratic_string_sopde(sys.chart)
    pts = sample_points(sys.chart, count=64, seed=42)
    check = verify_evolution(sys, family, pts)
    assert (check.kind, check.holds, check.tolerance) == (
        "evolution-residual", True, EVOLUTION_TOLERANCE)
    bumped = VectorField(sys.chart, (family[0].components[0],
                                     make_add(family[0].components[1], Num(0.1)),
                                     family[0].components[2]))
    perturbed = KVectorField(sys.chart, (bumped, family[1]))
    residuals = evolution_residuals(sys, perturbed).max_component_at(pts)
    check = verify_evolution(sys, perturbed, pts)
    assert not check.holds and check.max_residual == residuals.max()
    assert np.array_equal(check.witness, pts[int(np.argmax(residuals))])
    wide = verify_evolution(sys, perturbed, pts, tolerance=check.max_residual)
    assert wide.holds and wide.tolerance == check.max_residual

def test_verify_evolution_chart_mismatch():
    sys = string_system()
    other = build_system("hamiltonian", 1, 2, "p_1_1^2/2 + p_2_1^2/2")
    family = repeat(
        VectorField(other.chart, (Num(0.0), Num(0.0), Num(0.0))), 2
    )
    with pytest.raises(ValueError):
        verify_evolution(sys, family, [np.zeros(3)])


BUNDLED_LAGRANGIANS = ["free_particle", "laplace3", "minimal_surface", "navier", "vibrating_string"]
AD_HOC_LAGRANGIANS = {
    "x_dependent": (2, 1, "(1 + x_1^2)*v_1_1^2/2 + x_2*v_1_1*v_1_2 + v_1_2^2 - x_1*x_2*v_1_2"),
    "exp_log": (1, 2, "exp(x_1*v_1_1) + log(2 + v_2_1^2) - x_1^2"),
    "singular": (1, 2, "(v_1_1 + v_2_1)^2/2 + x_1*v_1_1"),
}


@pytest.mark.parametrize("name", BUNDLED_LAGRANGIANS + list(AD_HOC_LAGRANGIANS))
def test_fiber_hessian_is_read_off_omega(name):
    if name in AD_HOC_LAGRANGIANS:
        system = build_system("lagrangian", *AD_HOC_LAGRANGIANS[name])
    else:
        system = load_model(resolve_model_path(name)).system
    chart = system.chart
    for theta, omega in zip(system.theta, system.omega, strict=True):
        for i in range(chart.n):
            for slot in range(chart.n, chart.dimension):
                coefficient = omega.components.get((i, slot), Num(0.0))
                # the entry d/dv_B_j of theta_A(d/dx_i) = dL/dv_A_i, as it would be derived
                assert coefficient == derivative(theta.component(i), slot)


def hessian_entries(system) -> Counter:
    """omega_A's (x_i, v_B_j) coefficients, one count per Hessian entry."""
    n = system.chart.n
    return Counter(
        e for omega in system.omega for (i, j), e in omega.components.items() if i < n <= j
    )


@pytest.mark.parametrize("name", BUNDLED_LAGRANGIANS + list(AD_HOC_LAGRANGIANS))
def test_regularity_runs_the_dense_hessian_in_one_kernel_run(name, monkeypatch):
    if name in AD_HOC_LAGRANGIANS:
        system = build_system("lagrangian", *AD_HOC_LAGRANGIANS[name])
    else:
        system = load_model(resolve_model_path(name)).system
    chart = system.chart
    points = sample_points(chart, count=16, seed=9)
    # the dense table, zero entries included, as a reference for the verdict
    dense = np.stack([
        np.stack([kernel_values(omega.components.get((i, b), Num(0.0)), points)
                  for b in range(chart.n, chart.dimension)], axis=-1)
        for omega in system.omega for i in range(chart.n)
    ], axis=1)
    runs = Counter()
    monkeypatch.setattr(dynamics, "field_evaluator", counting(runs))
    check = check_regularity(system, points)
    # one run of all (nk)^2 entries, an absent one as the literal 0
    [(entries, count)] = runs.items()
    assert count == 1 and len(entries) == (chart.n * chart.k) ** 2
    assert Counter(e for e in entries if e != Num(0.0)) == hessian_entries(system)
    assert check.extra["min_abs_det"] == np.min(np.abs(np.linalg.det(dense)))


@pytest.mark.parametrize("name", ["navier", "vibrating_string", "laplace3", "minimal_surface"])
def test_lagrangian_derivatives_are_taken_once(name, monkeypatch):
    # loading derives nothing; the regularity check walks L once (dL, shared by
    # theta_A and E_L) and each theta_A component once (omega_A); the solve
    # then walks E_L once, for d(E_L), which the residual shares
    walked = Counter()
    gradient = expr.gradient

    def counted(e):
        walked[e] += 1
        return gradient(e)

    monkeypatch.setattr(calculus, "gradient", counted)  # its one caller in ksym
    system = load_model(resolve_model_path(name)).system
    assert not walked
    point = np.full(system.chart.dimension, 0.5)
    assert check_regularity(system, point[None]).holds
    assert "energy" not in vars(system)
    thetas = {e for theta in system.theta for e in theta.components.values()}
    assert set(walked) == {system.function.expr} | thetas
    solution = solve_evolution_lagrangian(system, point)
    verify_evolution(system, constant_family(system.chart, solution), point[None])
    assert max(walked.values()) == 1, [expr.to_source(e) for e, count in walked.items() if count > 1]
    assert set(walked) == {system.function.expr, system.energy.expr} | thetas


@pytest.mark.parametrize("argv", [
    ["verify", "law", "--model", "free_particle", "--law", "momenta"],
    ["check", "symmetry", "--model", "free_particle", "--field", "ddx"],
])
def test_a_check_along_given_fields_derives_no_form(argv, monkeypatch, capsys):
    # neither command reads theta_A, omega_A or E_L, so loading the model and
    # running the command take no exterior derivative
    taken = []
    exterior_derivative = calculus.exterior_derivative

    def counted(form):
        taken.append(form)
        return exterior_derivative(form)

    for module in (bundles, calculus, dynamics):
        monkeypatch.setattr(module, "exterior_derivative", counted)
    load_model(resolve_model_path("free_particle"))
    assert main(argv) == 0
    capsys.readouterr()
    assert taken == []


@pytest.mark.parametrize("name", ["navier", "vibrating_string", "laplace3", "minimal_surface"])
def test_a_lagrangian_solve_runs_one_kernel_per_omega_and_one_for_the_gradient(name, monkeypatch):
    # the solve reads the Hessian off omega_A's (x_i, v_B_j) entries, so each
    # omega_A, the Hessian's entries among them, and d(E_L) are one run each
    system = load_model(resolve_model_path(name)).system
    expected = Counter(tuple(omega.components.values()) for omega in system.omega)
    expected[tuple(system.target_differential.components.values())] += 1
    runs = Counter()
    for module in (calculus, dynamics):
        monkeypatch.setattr(module, "field_evaluator", counting(runs))
    solve_evolution_lagrangian(system, np.full(system.chart.dimension, 0.5))
    assert runs == expected, runs


@pytest.mark.parametrize("copied", [dict(n=1), dict(k=1), dict(bundle=tangent_bundle(1, 1))])
def test_a_field_system_holds_no_copy_of_its_chart(copied):
    # n = 1, k = 1 beside a k = 2 chart once built a system that crashed the solver
    good = build_system("lagrangian", 1, 2, "(v_1_1^2 + v_2_1^2)/2")
    fields = {name: getattr(good, name) for name in ("kind", "chart", "function")}
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{next(iter(copied))}'"):
        FieldSystem(**fields, **copied)
