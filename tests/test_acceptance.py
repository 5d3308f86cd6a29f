"""Acceptance gate: ten end-to-end criteria over the bundled models.

Each test records one line into RESULTS; the conftest terminal-summary hook
prints them so the run ends with one pass/fail line per criterion.  Expected
closed-form values are stated inline next to each use.
"""

from __future__ import annotations

import math
import re
import time
from functools import lru_cache

import numpy as np

from ksym.calculus import (
    ScalarField,
    VectorField,
    exterior_derivative,
    form_sub,
    form_add,
    interior_product,
    lie_derivative_form,
)
from ksym.cli import load_model, main, resolve_model_path
from ksym.conservation import (
    build_bracket_law,
    build_noether_law,
    user_law,
    verify_law_pointwise,
)
from ksym.dynamics import KVectorField, solve_evolution_hamiltonian, verify_evolution
from ksym.expr import (
    Num,
    base_chart,
    parse_expression,
    sample_points,
)
from ksym.models import bundled_model_names
from ksym.sections import integrate_section, verify_law_divergence
from ksym.symmetry import is_invariant_form, is_symmetry, solve_pseudosymmetry
from builders import derivative, repeat
from scalar_oracle import evaluator

RESULTS: dict[int, tuple[bool, str]] = {}


def _record(number: int, description: str, passed: bool, detail: str):
    RESULTS[number] = (passed, f"{description} ({detail})")
    assert passed, f"criterion {number}: {description} ({detail})"


@lru_cache(maxsize=None)
def _model(name: str):
    return load_model(resolve_model_path(name))


def _points(chart, count: int = 64) -> np.ndarray:
    return sample_points(chart, count=count, seed=42, halfwidth=1.0)


def _family(model, *names) -> KVectorField:
    return KVectorField(model.chart, [model.fields[n] for n in names])


def _law_max_residual(X: KVectorField, law, points) -> float:
    return max(verify_law_pointwise(X, law, [p]).max_residual for p in points)


def test_criterion_01_string_law_conserved_fast():
    model = _model("vibrating_string")
    xi = _family(model, "xi1", "xi2")
    law = model.laws["wave_flux"]
    points = _points(model.chart)
    start = time.perf_counter()
    worst = _law_max_residual(xi, law, points)
    elapsed = time.perf_counter() - start
    _record(
        1,
        "string momentum-flux law conserved along the solution family",
        worst <= 1e-9 and elapsed < 1.0,
        f"max residual {worst:.2e} <= 1e-09 in {elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_string_family_solves_evolution():
    model = _model("vibrating_string")
    xi = _family(model, "xi1", "xi2")
    worst = verify_evolution(model.system, xi, _points(model.chart)).max_residual
    _record(
        2,
        "string family satisfies the evolution equation",
        worst <= 1e-9,
        f"one-form residual {worst:.2e} <= 1e-09",
    )


def test_criterion_03_rescaling_pseudosymmetry_constant():
    model = _model("nahm")
    X = _family(model, "X")
    radial = model.fields["radial"]
    # [X, radial] = -X exactly, so every sample solves with lambda = -1
    verdict, lam = solve_pseudosymmetry(X, radial, X, _points(model.chart))
    worst = float(np.max(np.abs(lam + 1.0)))
    fit = verdict.extra["lambda_fit"]
    _record(
        3,
        "radial field is a pseudosymmetry with constant coefficient -1",
        verdict.holds and worst <= 1e-9 and fit == [["-1"]],
        f"max |lambda + 1| = {worst:.2e}, fitted {fit[0][0]!r}",
    )


NOETHER_EXPECTED = [
    ("vibrating_string", "ddx", ("v_1_1", "-v_2_1")),
    (
        "minimal_surface",
        "ddx",
        (
            "v_1_1 / sqrt(1 + v_1_1^2 + v_2_1^2)",
            "v_2_1 / sqrt(1 + v_1_1^2 + v_2_1^2)",
        ),
    ),
    ("laplace3", "ddx", ("v_1_1", "v_2_1", "v_3_1")),
    (
        "navier",
        "dd12",
        ("3*v_1_1 + v_1_2 + 2*v_2_2", "2*v_1_1 + v_2_1 + 3*v_2_2"),
    ),
]


def test_criterion_04_noether_momenta_match_expected_formulas():
    worst = 0.0
    for model_name, field_name, formulas in NOETHER_EXPECTED:
        model = _model(model_name)
        points = _points(model.chart)
        law = build_noether_law(model.system, model.fields[field_name], points=points)
        origin = np.zeros(model.chart.dimension)
        for comp, source in zip(law.components, formulas):
            expected = evaluator(parse_expression(source, model.chart))
            shift = comp.evaluate(origin[None])[0] - expected(origin)
            diff = max(
                abs((value - shift) - expected(p)) for p, value in zip(points, comp.evaluate(points))
            )
            worst = max(worst, diff)
    _record(
        4,
        "momentum laws match the closed forms up to an additive constant",
        worst <= 1e-9,
        f"max deviation {worst:.2e} over {len(NOETHER_EXPECTED)} models",
    )


def test_criterion_05_main_theorem_end_to_end():
    model = _model("free_particle")
    system = model.system
    X = _family(model, "X1", "X2")
    Y = model.fields["ddx"]
    S = model.fields["delta"]
    points = _points(model.chart)

    symmetry = is_symmetry(X, Y, points, tolerance=1e-10)
    pseudo, _lam = solve_pseudosymmetry(X, S, repeat(Y, 2), points, tolerance=1e-9)
    forms = is_invariant_form(X, system.omega, points, tolerance=1e-10)

    law = build_bracket_law(system.omega, [S], Y)
    # bilinear expansion of omega_A(Delta, d/dx) gives exactly -v_A
    oracle = [
        evaluator(parse_expression(src, model.chart))
        for src in ("-v_1_1", "-v_2_1")
    ]
    oracle_worst = max(
        abs(value - fn(p))
        for comp, fn in zip(law.components, oracle)
        for p, value in zip(points, comp.evaluate(points))
    )
    law_worst = _law_max_residual(X, law, points)

    grid = integrate_section(X, np.array([0.0, 1.0, 2.0]), 0.5, 1.0 / 128.0)
    divergence = verify_law_divergence(law, grid)

    parts = {
        "symmetry": symmetry.holds,
        "pseudosymmetry": pseudo.holds,
        "invariant forms": forms.holds,
        "law formula": oracle_worst <= 1e-9,
        "pointwise": law_worst <= 1e-9,
        "divergence": divergence.max_residual <= 1e-10,
    }
    _record(
        5,
        "constructed law passes every gate of the main theorem",
        all(parts.values()),
        f"grid {grid.shape[0]}x{grid.shape[1]}, divergence {divergence.max_residual:.2e}; "
        + ", ".join(f"{k} {'ok' if v else 'FAILED'}" for k, v in parts.items()),
    )


def test_criterion_06_energy_tuple_negative_control():
    model = _model("vibrating_string")
    xi = _family(model, "xi1", "xi2")
    law = model.laws["energy_tuple"]
    points = _points(model.chart)
    residuals = [verify_law_pointwise(xi, law, [p]).max_residual for p in points]
    worst = max(residuals)
    witness = points[int(np.argmax(residuals))]
    # closed form at sigma = tau = 1: |sum xi_A(E)| = |(v1+v2)^2 (v1-v2)|
    v1, v2 = witness[1], witness[2]
    predicted = abs((v1 + v2) ** 2 * (v1 - v2))
    agrees = math.isclose(worst, predicted, rel_tol=1e-9, abs_tol=1e-12)
    _record(
        6,
        "energy tuple is rejected as a conservation law",
        worst >= 0.05 and agrees,
        f"witness residual {worst:.3f} >= 0.05, matches closed form {predicted:.3f}",
    )


def test_criterion_07_oracle_equivalence(fd):
    worst_rel = 0.0
    for name in bundled_model_names():
        model = _model(name)
        exprs = []
        if model.system is not None:
            exprs.append(model.system.function.expr)
        for field in model.fields.values():
            exprs.extend(c for c in field.components if not isinstance(c, Num))
        for law in model.laws.values():
            exprs.extend(comp.expr for comp in law.components)
        points = _points(model.chart, count=16)
        for expr in exprs:
            fn = evaluator(expr)
            for i in range(model.chart.dimension):
                sym = evaluator(derivative(expr, i))
                for p in points:
                    expected = sym(p)
                    rel = abs(fd(fn, p, i) - expected) / max(1.0, abs(expected))
                    worst_rel = max(worst_rel, rel)

    worst_cartan = 0.0
    for model_name, field_name in (("vibrating_string", "xi1"), ("oscillator_k1", "rotation")):
        model = _model(model_name)
        Y = model.fields[field_name]
        points = _points(model.chart, count=16)
        for omega in model.system.omega:
            homotopy = form_add(
                interior_product(Y, exterior_derivative(omega)),
                exterior_derivative(interior_product(Y, omega)),
            )
            gap = form_sub(lie_derivative_form(Y, omega), homotopy)
            worst_cartan = max(
                worst_cartan, max(gap.max_component_at(points))
            )
    _record(
        7,
        "symbolic derivatives agree with finite differences and the homotopy identity",
        worst_rel <= 1e-6 and worst_cartan <= 1e-10,
        f"max relative gap {worst_rel:.2e} <= 1e-06, identity gap {worst_cartan:.2e} <= 1e-10",
    )


def test_criterion_08_integrator_order():
    chart = base_chart(1)
    growth = KVectorField(chart, [VectorField(chart, [parse_expression("x_1", chart)])])
    flow = integrate_section(growth, np.array([1.0]), 1.0, 1e-3)
    flow_error = abs(float(flow.values[-1, 0]) - math.e)

    model = _model("free_particle")
    X = _family(model, "X1", "X2")
    law = build_bracket_law(model.system.omega, [model.fields["delta"]], model.fields["ddx"])
    origin = np.array([0.0, 1.0, 2.0])
    spacings = (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0)
    residuals = [
        verify_law_divergence(law, integrate_section(X, origin, 0.5, h)).max_residual
        for h in spacings
    ]
    if max(residuals) <= 1e-11:
        # the momenta stencils cancel exactly on affine sections, so the
        # residual sits at integrator noise for every spacing
        shrink_ok = True
        shrink_note = f"integrator-limited at {max(residuals):.1e}"
    else:
        shrink_ok = all(a / b >= 3.5 for a, b in zip(residuals, residuals[1:]))
        shrink_note = "ratios " + ", ".join(
            f"{a / b:.2f}" for a, b in zip(residuals, residuals[1:])
        )

    # a law whose divergence stencil does not cancel shows the h^2 order
    cubic = user_law(
        model.chart,
        [
            ScalarField(model.chart, parse_expression("-v_2_1*x_1^3/3", model.chart)),
            ScalarField(model.chart, parse_expression("v_1_1*x_1^3/3", model.chart)),
        ],
    )
    cubic_residuals = [
        verify_law_divergence(cubic, integrate_section(X, origin, 0.5, h)).max_residual
        for h in spacings
    ]
    ratios = [a / b for a, b in zip(cubic_residuals, cubic_residuals[1:])]
    order_ok = all(r >= 3.5 for r in ratios)

    _record(
        8,
        "integrator is fourth order and divergence stencils shrink at second order",
        flow_error <= 1e-8 and shrink_ok and order_ok,
        f"exponential flow error {flow_error:.2e} <= 1e-08; momenta {shrink_note}; "
        f"cubic-law ratios {ratios[0]:.2f}, {ratios[1]:.2f} >= 3.5",
    )


def test_criterion_09_classical_anchor():
    model = _model("oscillator_k1")
    system = model.system
    points = _points(model.chart)
    solve_worst = 0.0
    for p in points:
        solution = solve_evolution_hamiltonian(system, p)
        expected = np.array([[p[1], -p[0]]])
        solve_worst = max(solve_worst, float(np.max(np.abs(solution - expected))))

    X = _family(model, "X")
    grid = integrate_section(X, np.array([1.0, 0.0]), 1.0, 1e-3)
    energy = evaluator(system.function.expr)
    start = energy(grid.values[0])
    drift = max(abs(energy(v) - start) for v in grid.values)
    _record(
        9,
        "oscillator evolution is recovered and its energy is conserved",
        solve_worst <= 1e-12 and drift <= 1e-8,
        f"solver gap {solve_worst:.2e} <= 1e-12, energy drift {drift:.2e} <= 1e-08 over T=1",
    )


def test_criterion_10_cli_reports_reproducible(capsys):
    from test_cli import GOLDEN_CASES

    scrub = lambda s: re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', s)
    stable = True
    exits_seen = set()
    for _name, argv, expected_exit in GOLDEN_CASES:
        full = argv + ["--format", "json"]
        code1 = main(full)
        out1 = capsys.readouterr().out
        code2 = main(full)
        out2 = capsys.readouterr().out
        exits_seen.add(code1)
        if not (code1 == code2 == expected_exit and scrub(out1) == scrub(out2)):
            stable = False
    usage_code = main(["list-models", "--bogus"])
    capsys.readouterr()
    _record(
        10,
        "reports reproduce byte-for-byte and exit codes honor the contract",
        stable and exits_seen >= {0, 1} and usage_code == 2,
        f"{len(GOLDEN_CASES)} commands run twice; exits seen {sorted(exits_seen)} plus usage 2",
    )
