"""Section integration by flow composition and divergence-form checks."""

import io
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

from ksym.bundles import tangent_bundle
from ksym.calculus import ScalarField, VectorField, coordinate_vector_field
from ksym.cli import load_model, resolve_model_path
from ksym.conservation import build_bracket_law, user_law
from ksym.dynamics import KVectorField, build_system
from ksym.expr import Num, base_chart, parse_expression, sample_points
from ksym.sections import (
    COMMUTATION_TOLERANCE,
    SectionIntegrationError,
    check_integrability,
    export_grid_csv,
    integrate_section,
    verify_law_divergence,
)
from scalar_oracle import evaluator


def free_particle():
    sys = build_system("lagrangian", 1, 2, "(v_1_1^2 + v_2_1^2)/2")
    ch = sys.chart
    g1 = VectorField(ch, (parse_expression("v_1_1", ch), Num(0.0), Num(0.0)))
    g2 = VectorField(ch, (parse_expression("v_2_1", ch), Num(0.0), Num(0.0)))
    return sys, KVectorField(ch, (g1, g2))


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


def exponential_flow():
    ch = base_chart(1)
    X = VectorField(ch, (parse_expression("x_1", ch),))
    return ch, KVectorField(ch, (X,))


# ---------------------------------------------------------------------------
# integrability
# ---------------------------------------------------------------------------


def test_string_sopde_is_integrable():
    sys, family = string_sopde()
    pts = sample_points(sys.chart, count=32, seed=40)
    report = check_integrability(family, pts)
    assert report.holds
    assert report.max_residual <= 1e-8


def test_free_particle_brackets_vanish_identically():
    sys, family = free_particle()
    pts = sample_points(sys.chart, count=8, seed=41)
    report = check_integrability(family, pts)
    assert report.holds
    assert report.max_residual == 0.0


def test_single_field_family_is_trivially_integrable():
    ch, family = exponential_flow()
    report = check_integrability(family, [np.ones(1)])
    assert report.holds
    assert report.max_residual == 0.0


def non_commuting_family():
    ch = tangent_bundle(1, 2).chart
    X1 = coordinate_vector_field(ch, "x_1")
    X2 = VectorField(ch, (Num(0.0), parse_expression("x_1", ch), Num(0.0)))
    return ch, KVectorField(ch, (X1, X2))


def test_shear_pair_fails_integrability():
    ch, family = non_commuting_family()
    report = check_integrability(family, sample_points(ch, count=8, seed=42))
    assert not report.holds
    assert report.max_residual == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------


def test_free_particle_section_is_affine_and_exact():
    sys, family = free_particle()
    origin = np.array([0.0, 1.0, 2.0])
    grid = integrate_section(family, origin, ranges=0.5, steps=1 / 8)
    assert grid.shape == (5, 5)
    assert check_integrability(family, grid.values.reshape(-1, 3)).max_residual == 0.0
    np.testing.assert_allclose(grid.values[0, 0], origin)
    for i, t1 in enumerate(grid.axes[0]):
        for j, t2 in enumerate(grid.axes[1]):
            np.testing.assert_allclose(
                grid.values[i, j], [t1 + 2.0 * t2, 1.0, 2.0], atol=1e-12
            )


def test_exponential_flow_meets_rk4_budget():
    ch, family = exponential_flow()
    grid = integrate_section(family, np.array([1.0]), ranges=1.0, steps=1e-3)
    assert abs(grid.values[-1, 0] - np.e) <= 1e-8


def test_rk4_is_fourth_order_on_exponential_flow():
    ch, family = exponential_flow()
    errors = []
    for h in (0.05, 0.025):
        grid = integrate_section(family, np.array([1.0]), ranges=1.0, steps=h)
        errors.append(abs(grid.values[-1, 0] - np.e))
    assert errors[0] / errors[1] >= 12.0


def test_string_section_satisfies_defining_pde():
    sys, family = string_sopde()
    origin = np.array([0.0, 0.3, 0.2])

    def pde_residual(h):
        grid = integrate_section(family, origin, ranges=0.25, steps=h)
        worst = 0.0
        vals = grid.values
        for a in (0, 1):
            upper = tuple(slice(2, None) if b == a else slice(1, -1) for b in (0, 1))
            lower = tuple(slice(0, -2) if b == a else slice(1, -1) for b in (0, 1))
            mid = tuple(slice(1, -1) for _ in (0, 1))
            deriv = (vals[upper] - vals[lower]) / (2.0 * h)
            expected = family[a].evaluate(vals[mid].reshape(-1, 3)).reshape(vals[mid].shape)
            worst = max(worst, float(np.max(np.abs(deriv - expected))))
        return worst

    coarse, fine = pde_residual(1 / 32), pde_residual(1 / 64)
    assert fine <= 1e-4
    assert 3.0 <= coarse / fine <= 5.0


def test_commuting_flows_permute():
    sys, family = string_sopde()
    origin = np.array([0.0, 0.3, 0.2])
    fwd = integrate_section(family, origin, ranges=0.25, steps=1 / 64)
    swapped = KVectorField(sys.chart, (family[1], family[0]))
    rev = integrate_section(swapped, origin, ranges=0.25, steps=1 / 64)
    np.testing.assert_allclose(
        fwd.values, np.swapaxes(rev.values, 0, 1), atol=1e-6
    )


def test_non_commuting_family_reports_its_residual_without_a_warning():
    ch, family = non_commuting_family()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = integrate_section(family, np.zeros(3), ranges=0.25, steps=1 / 8)
        check = check_integrability(family, grid.values.reshape(-1, 3))
    assert check.max_residual == pytest.approx(1.0)
    assert not check.holds


def test_range_must_be_multiple_of_step():
    ch, family = exponential_flow()
    with pytest.raises(ValueError):
        integrate_section(family, np.ones(1), ranges=0.5, steps=0.15)


def test_step_count_overflow_is_a_value_error():
    ch, family = exponential_flow()
    with pytest.raises(ValueError, match="overflows"):
        integrate_section(family, np.ones(1), ranges=1e300, steps=1e-300)


def test_origin_shape_check():
    ch, family = exponential_flow()
    with pytest.raises(ValueError):
        integrate_section(family, np.ones(2), ranges=0.5, steps=0.125)


def test_domain_error_reports_flow_position():
    # constant speed -1 written through a sqrt, so crossing x = 0 raises
    ch = base_chart(1)
    X = VectorField(ch, (parse_expression("sqrt(x_1)^2 - x_1 - 1", ch),))
    family = KVectorField(ch, (X,))
    with pytest.raises(SectionIntegrationError, match="left the domain"):
        integrate_section(family, np.array([0.3]), ranges=0.75, steps=0.25)


def test_nan_guard_reports_divergence():
    # 0/0 under IEEE semantics degrades to NaN rather than raising
    ch = base_chart(1)
    X = VectorField(ch, (parse_expression("-x_1/x_1", ch),))
    family = KVectorField(ch, (X,))
    with pytest.raises(SectionIntegrationError, match="axis 1"):
        integrate_section(family, np.array([0.5]), ranges=0.625, steps=0.125)


def test_overflow_guard_reports_divergence():
    ch, family = exponential_flow()
    with pytest.raises(SectionIntegrationError, match="diverged"):
        integrate_section(family, np.array([1.0]), ranges=800.0, steps=1.0)


def test_first_failing_line_in_row_order_is_reported():
    # line j of axis 1 starts at x_2 = j/4 and leaves sqrt's domain after
    # about 0.3/(1 + j/4) in t, so later lines fail sooner; the report still
    # names line 0, the one a line-by-line march reaches first
    ch = base_chart(2, 2)
    X1 = VectorField(ch, (parse_expression("sqrt(x_1)^2 - x_1 - (1 + x_2)", ch), Num(0.0)))
    X2 = VectorField(ch, (Num(0.0), Num(1.0)))
    family = KVectorField(ch, (X1, X2))
    with pytest.raises(SectionIntegrationError) as info:
        integrate_section(family, np.array([0.3, 0.0]), ranges=(1, 2), steps=(0.0625, 0.25))
    assert str(info.value) == (
        "flow along axis 1 left the domain at t=0.3125, point [0.05 0.  ]: "
        "square root of a negative number in 'sqrt(x_1)'"
    )


def per_line_march(X, origin, T, h):
    """The line-by-line RK4 march on the interpretive evaluator, kept as
    the reference for the batched front march."""
    k, m = len(X), int(round(T / h))
    values = np.empty((m + 1,) * k + (len(origin),))
    values[(0,) * k] = origin
    for a in range(k - 1, -1, -1):
        comps = [evaluator(c) for c in X[a].components]

        def F(p):
            return np.array([fn(p) for fn in comps])

        for suffix in np.ndindex(*values.shape[a + 1:-1]):
            p = values[(0,) * a + (0,) + suffix]
            for i in range(m):
                k1 = F(p)
                k2 = F(p + (h / 2.0) * k1)
                k3 = F(p + (h / 2.0) * k2)
                k4 = F(p + h * k3)
                p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                values[(0,) * a + (i + 1,) + suffix] = p
    return values


def bundled_family(name, fields):
    model = load_model(resolve_model_path(name))
    return KVectorField(model.chart, tuple(model.fields[f] for f in fields))


@pytest.mark.parametrize(
    "family, origin, T, h",
    [
        (bundled_family("free_particle", ("X1", "X2")), [0.0, 1.0, 2.0], 0.5, 1 / 32),
        (bundled_family("vibrating_string", ("xi1", "xi2")), [0.0, 0.4, 0.3], 0.25, 1 / 64),
        (bundled_family("laplace3", ("X1", "X2", "X3")), [0.1, 0.5, -0.25, 2.0], 0.25, 1 / 32),
    ],
    ids=["free_particle", "vibrating_string", "laplace3"],
)
def test_front_march_is_bit_identical_on_polynomial_families(family, origin, T, h):
    grid = integrate_section(family, np.array(origin), ranges=T, steps=h)
    reference = per_line_march(family, np.array(origin), T, h)
    assert np.array_equal(grid.values, reference)


def test_front_march_matches_per_line_march_on_a_transcendental_flow():
    ch = base_chart(2, 2)
    X1 = VectorField(ch, (parse_expression("sin(x_1 + x_2)", ch), parse_expression("cos(x_1)/2", ch)))
    X2 = VectorField(ch, (parse_expression("exp(-x_2)", ch), parse_expression("1 + sin(3*x_1)", ch)))
    family = KVectorField(ch, (X1, X2))
    origin = np.array([0.2, -0.4])
    with warnings.catch_warnings():  # the fields do not commute; that is no warning
        warnings.simplefilter("error")
        grid = integrate_section(family, origin, ranges=0.5, steps=1 / 32)
        commutation = check_integrability(family, grid.values.reshape(-1, 2))
    assert not commutation.max_residual <= COMMUTATION_TOLERANCE
    np.testing.assert_array_max_ulp(grid.values, per_line_march(family, origin, 0.5, 1 / 32), maxulp=4)


# ---------------------------------------------------------------------------
# divergence verification
# ---------------------------------------------------------------------------


def test_momentum_law_divergence_is_exactly_zero_for_free_particle():
    sys, family = free_particle()
    law = build_bracket_law(
        sys.omega, [sys.bundle.liouville], coordinate_vector_field(sys.chart, "x_1")
    )
    grid = integrate_section(family, np.array([0.0, 1.0, 2.0]), ranges=0.5, steps=1 / 16)
    report = verify_law_divergence(law, grid)
    assert report.max_residual == 0.0


def test_constant_law_divergence_is_zero():
    sys, family = string_sopde()
    law = user_law(
        sys.chart, (ScalarField(sys.chart, Num(2.0)), ScalarField(sys.chart, Num(-7.0)))
    )
    grid = integrate_section(family, np.array([0.0, 0.3, 0.2]), ranges=0.25, steps=1 / 16)
    assert verify_law_divergence(law, grid).max_residual == 0.0


def string_flux_law(ch):
    return user_law(
        ch,
        (
            ScalarField(ch, parse_expression("-2*v_1_1*v_2_1", ch)),
            ScalarField(ch, parse_expression("v_1_1^2 + v_2_1^2", ch)),
        ),
    )


def test_wave_flux_divergence_is_integrator_limited():
    # both components compose into functions of t1 +/- t2, so the central
    # difference stencils cancel exactly and only RK4 error remains
    sys, family = string_sopde()
    origin = np.array([0.0, 0.4, 0.3])
    grid = integrate_section(family, origin, ranges=0.25, steps=1 / 128)
    report = verify_law_divergence(string_flux_law(sys.chart), grid)
    assert report.max_residual <= 1e-11


def test_cubic_law_divergence_shrinks_at_second_order():
    sys, family = free_particle()
    ch = sys.chart
    law = user_law(
        ch,
        (
            ScalarField(ch, parse_expression("-v_2_1*x_1^3/3", ch)),
            ScalarField(ch, parse_expression("v_1_1*x_1^3/3", ch)),
        ),
    )
    from ksym.conservation import verify_law_pointwise

    pts = sample_points(ch, count=32, seed=43)
    assert verify_law_pointwise(family, law, pts).max_residual <= 1e-9
    origin = np.array([0.0, 1.0, 2.0])
    residuals = []
    for h in (1 / 32, 1 / 64, 1 / 128):
        grid = integrate_section(family, origin, ranges=0.25, steps=h)
        report = verify_law_divergence(law, grid)
        residuals.append(report.max_residual)
        assert report.extra["scale_constant"] < 10.0
    assert residuals[2] > 1e-11  # above the floor, so the ratios are meaningful
    assert 3.5 <= residuals[0] / residuals[1] <= 4.5
    assert 3.5 <= residuals[1] / residuals[2] <= 4.5


def test_divergence_needs_three_nodes_per_axis():
    sys, family = free_particle()
    law = user_law(
        sys.chart, (ScalarField(sys.chart, Num(0.0)), ScalarField(sys.chart, Num(0.0)))
    )
    grid = integrate_section(family, np.zeros(3), ranges=0.25, steps=0.125)
    report = verify_law_divergence(law, grid)  # 3 nodes: minimum accepted
    assert report.max_residual == 0.0
    thin = integrate_section(family, np.zeros(3), ranges=0.25, steps=0.25)
    with pytest.raises(ValueError):
        verify_law_divergence(law, thin)


def test_prolongation_of_base_track_recovers_fibers():
    sys, family = string_sopde()
    origin = np.array([0.0, 0.3, 0.2])
    h = 1 / 64
    grid = integrate_section(family, origin, ranges=0.25, steps=h)
    base_track = grid.values[..., :1]
    fibers = [np.gradient(base_track, grid.steps[A], axis=A, edge_order=2) for A in range(grid.k)]
    prolonged = np.concatenate([base_track, *fibers], axis=-1)
    np.testing.assert_allclose(prolonged, grid.values, atol=1e-4)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_csv_export_layout():
    sys, family = free_particle()
    grid = integrate_section(family, np.array([0.0, 1.0, 2.0]), ranges=0.25, steps=0.125)
    buffer = io.StringIO()
    export_grid_csv(grid, buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == "t_1,t_2,x_1,v_1_1,v_2_1"
    assert len(lines) == 1 + 3 * 3
    assert lines[1] == "0,0,0,1,2"
    # row-major: the second row advances the last axis
    second = lines[2].split(",")
    assert float(second[0]) == 0.0
    assert float(second[1]) == 0.125
    assert float(second[2]) == pytest.approx(0.25)


def row_loop_csv(grid) -> str:
    """The per-row formatting loop export_grid_csv replaced, kept as its
    byte-for-byte reference."""
    header = [f"t_{a + 1}" for a in range(grid.k)] + list(grid.chart.coordinate_names)
    lines = [",".join(header)]
    for idx in np.ndindex(*grid.shape):
        row = [grid.axes[a][idx[a]] for a in range(grid.k)] + list(grid.values[idx])
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def test_csv_export_matches_the_row_loop_byte_for_byte(tmp_path):
    model = load_model(resolve_model_path("laplace3"))
    family = KVectorField(model.chart, [model.fields[f"X{A}"] for A in (1, 2, 3)])
    grid = integrate_section(family, np.array([0.1, -0.3, 0.7, 0.2]), ranges=0.25, steps=1 / 16)
    expected = row_loop_csv(grid).encode()
    for target in (tmp_path / "path.csv", str(tmp_path / "str.csv"), bytes(tmp_path / "b.csv")):
        export_grid_csv(grid, target)
        assert Path(os.fsdecode(target)).read_bytes() == expected
    buffer = io.StringIO()
    export_grid_csv(grid, buffer)
    assert buffer.getvalue() == row_loop_csv(grid)
