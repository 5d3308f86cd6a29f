"""Symmetry detection for families of vector fields.

Four checks, each sampled over a point set and returned as one
``expr.Check``:

  * plain symmetry          [X_A, Y] = 0 for every A
  * generalized symmetry    [X_A, Y] = sum_B lambda_A^B Z_B, coefficients
                            solved at every sample by one stacked SVD
  * Cartan symmetry         L_Y omega_A = 0 for every A and Y kills the
                            system's driving scalar
  * invariant form family   L_{X_A} omega_A = 0, paired per copy

The lambda coefficients are returned beside the check as sampled values; a
low-degree polynomial fit is attempted purely for reporting and never
affects the verdict.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .calculus import (
    PForm,
    VectorField,
    _same_chart,
    directional_derivative,
    lie_bracket,
    lie_derivative_form,
    max_abs,
)
from .dynamics import RCOND, FieldSystem, KVectorField
from .expr import (
    ChartSpace, Check, Coord, Num, field_evaluator, make_add, make_mul, make_pow, residual_check,
    to_source,
)

__all__ = [
    "is_symmetry",
    "solve_pseudosymmetry",
    "is_cartan_symmetry",
    "is_invariant_form",
]

BRACKET_TOLERANCE = 1e-8
FIT_TOLERANCE = 1e-8
FIT_DEGREE = 2


def is_symmetry(
    X: KVectorField, Y: VectorField, points, tolerance: float = BRACKET_TOLERANCE
) -> Check:
    """Does Y commute with every component field of X on the samples?"""
    _same_chart(X, Y)
    brackets = [lie_bracket(Xa, Y) for Xa in X]
    residuals = max_abs((c for br in brackets for c in br.components), points)
    return residual_check("symmetry", residuals, points, tolerance)


def solve_pseudosymmetry(
    X: KVectorField, Y: VectorField, Z: KVectorField, points, tolerance: float = BRACKET_TOLERANCE
) -> tuple[Check, np.ndarray]:
    """Solve [X_A, Y] = sum_B lambda_A^B Z_B at every sample by one SVD of
    the stacked (m, N, k) Z matrices, for minimum-norm coefficients.

    Returns the check and the (m, k, k) sampled coefficients.  A
    rank-deficient Z at a sample is not an error: the coefficients are still
    defined (an all-zero Z reduces the check to plain symmetry with
    lambda = 0).  How many samples were rank deficient is reported.
    """
    _same_chart(X, Y, Z)
    Zmats = _field_stack(Z, points)
    rhs = _field_stack([lie_bracket(Xa, Y) for Xa in X], points)
    lam_t, residuals, rank_deficient = _stacked_solve(Zmats, rhs)
    lam = lam_t.transpose(0, 2, 1)  # lam[:, a, b] = lambda_A^B
    extra = _fit_lambda(X.chart, points, lam)
    if rank_deficient:
        extra["rank_deficient_points"] = rank_deficient
    return residual_check("pseudosymmetry", residuals, points, tolerance, **extra), lam


def _field_stack(fields: Sequence[VectorField], points) -> np.ndarray:
    """The (m, N, k) values of k fields at the (m, N) points, from one kernel run."""
    values = field_evaluator(tuple(c for F in fields for c in F.components))(points)
    return values.reshape(len(values), len(fields), -1).swapaxes(1, 2)


def _stacked_solve(Zmats: np.ndarray, rhs: np.ndarray):
    """Minimum-norm solutions of Zmats[i] @ x = rhs[i] over a stack of (N, k)
    matrices and (N, c) right-hand sides, from one SVD of the finite samples:
    the (m, k, c) solutions and each sample's worst residual, both NaN where
    Zmats[i] or rhs[i] is not finite, and how many finite matrices have a rank
    below k as ``np.linalg.matrix_rank`` counts it.  Singular values at or
    below ``dynamics.RCOND`` times the largest count as zero."""
    finite = np.isfinite(Zmats).all(axis=(1, 2)) & np.isfinite(rhs).all(axis=(1, 2))
    U, s, Vt = np.linalg.svd(Zmats[finite], full_matrices=False)
    s_max = s.max(axis=-1, keepdims=True)
    rank = np.count_nonzero(s > s_max * (max(Zmats.shape[1:]) * np.finfo(float).eps), axis=-1)
    s_inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > RCOND * s_max)
    sol = np.full((len(Zmats), Zmats.shape[2], rhs.shape[2]), np.nan)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite sample gives NaN residuals
        sol[finite] = Vt.swapaxes(1, 2) @ (s_inv[..., None] * (U.swapaxes(1, 2) @ rhs[finite]))
        residuals = np.abs(Zmats @ sol - rhs).max(axis=(1, 2))
    return sol, residuals, int(np.count_nonzero(rank < Zmats.shape[2]))


def is_cartan_symmetry(
    sys: FieldSystem, Y: VectorField, points, tolerance: float | None = None
) -> Check:
    """Does Y preserve every two-form of the system and its driving scalar?"""
    _same_chart(sys, Y)
    if tolerance is None:
        tolerance = sys.default_tolerance
    lies = [lie_derivative_form(Y, w) for w in sys.omega]
    exprs = [directional_derivative(Y, sys.target.expr)]
    exprs += [e for form in lies for e in form.components.values()]
    return residual_check("cartan", max_abs(exprs, points), points, tolerance)


def is_invariant_form(
    X: KVectorField,
    omegas: Sequence[PForm],
    points,
    tolerance: float = BRACKET_TOLERANCE,
) -> Check:
    """Per-copy invariance: L_{X_A} omega_A = 0 for every A."""
    if len(omegas) != len(X):
        raise ValueError(
            f"expected {len(X)} forms to pair with the field family, got {len(omegas)}"
        )
    _same_chart(X, *omegas)
    lies = [lie_derivative_form(Xa, w) for Xa, w in zip(X, omegas)]
    residuals = max_abs((e for form in lies for e in form.components.values()), points)
    return residual_check("invariant-form", residuals, points, tolerance)


# ---------------------------------------------------------------------------
# polynomial reporting of the sampled coefficients
# ---------------------------------------------------------------------------


def _monomial_exponents(dimension: int, degree: int):
    out = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(dimension), d):
            counts = [0] * dimension
            for i in combo:
                counts[i] += 1
            out.append(tuple(counts))
    return out


def _render_polynomial(chart: ChartSpace, exponents, coefficients) -> str:
    scale = max(1.0, float(np.max(np.abs(coefficients))))
    terms = []
    for exps, c in zip(exponents, coefficients):
        if abs(c) <= 1e-9 * scale:
            continue
        if abs(c - round(c)) <= 1e-9:
            c = float(round(c))
        else:
            # the fit is only trusted to FIT_TOLERANCE, so shorter is cleaner
            c = round(c, 9)
        factors = [Num(c)]
        for i, e in enumerate(exps):
            if e:
                factors.append(make_pow(Coord(i, chart.coordinate_names[i]), e))
        terms.append(make_mul(*factors))
    return to_source(make_add(*terms)) if terms else "0"


def _fit_lambda(chart, points, lam) -> dict:
    """Report entries lambda_fit (rows of degree-``FIT_DEGREE`` polynomial
    sources, None where the fit misses ``FIT_TOLERANCE``) and
    lambda_fit_residual; none when a monomial or lambda value is not finite or
    the samples cannot fix every coefficient (no samples, or fewer independent
    ones than monomials)."""
    n_pts, k, _ = lam.shape
    exponents = _monomial_exponents(chart.dimension, FIT_DEGREE)
    pts = np.asarray(points, dtype=float).reshape(n_pts, chart.dimension)
    design = np.ones((n_pts, len(exponents)))
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite design fits nothing
        for m, exps in enumerate(exponents):
            for i, e in enumerate(exps):
                if e:
                    design[:, m] *= pts[:, i] ** e
    values = lam.reshape(n_pts, k * k)
    if not (np.isfinite(design).all() and np.isfinite(values).all()):
        return {}
    coef, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < len(exponents):
        return {}
    deviation = np.abs(design @ coef - values).max(axis=0).reshape(k, k)
    coef = coef.reshape(len(exponents), k, k)
    rows = [
        [_render_polynomial(chart, exponents, coef[:, a, b])
         if deviation[a, b] <= FIT_TOLERANCE else None for b in range(k)]
        for a in range(k)
    ]
    return {"lambda_fit": rows, "lambda_fit_residual": float(deviation.max())}
