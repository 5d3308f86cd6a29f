"""Symmetry detection for families of vector fields.

Four checks, all sampled over a point set and reported through one verdict
type:

  * plain symmetry          [X_A, Y] = 0 for every A
  * generalized symmetry    [X_A, Y] = sum_B lambda_A^B Z_B, coefficients
                            solved pointwise by least squares
  * Cartan symmetry         L_Y omega_A = 0 for every A and Y kills the
                            system's driving scalar
  * invariant form family   L_{X_A} omega_A = 0, paired per copy

The lambda coefficients are returned as sampled values; a low-degree
polynomial fit is attempted purely for reporting and never affects the
verdict.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calculus import (
    ChartMismatchError,
    PForm,
    VectorField,
    directional_derivative,
    lie_bracket,
    lie_derivative_form,
    max_abs,
)
from .dynamics import FieldSystem, KVectorField
from .expr import ChartSpace, Coord, Num, make_add, make_mul, make_pow, to_source, worst_sample

__all__ = [
    "SymmetryVerdict",
    "is_symmetry",
    "solve_pseudosymmetry",
    "is_cartan_symmetry",
    "is_invariant_form",
]

BRACKET_TOLERANCE = 1e-8
FIT_TOLERANCE = 1e-8
FIT_DEGREE = 2


@dataclass(frozen=True)
class SymmetryVerdict:
    """Outcome of one sampled symmetry check; holds iff the worst residual
    is within tolerance."""

    kind: str
    holds: bool
    max_residual: float
    tolerance: float
    witness: np.ndarray
    lambda_samples: np.ndarray | None = None
    lambda_fit: tuple | None = None
    lambda_fit_residual: float | None = None
    rank_deficient_points: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "witness", np.asarray(self.witness, dtype=float))


def _verdict(kind, residuals, points, tolerance, **extra) -> SymmetryVerdict:
    top, worst = worst_sample(residuals)
    witness = np.asarray(points[worst] if len(residuals) else (), dtype=float)
    return SymmetryVerdict(
        kind=kind,
        holds=top <= tolerance,
        max_residual=top,
        tolerance=tolerance,
        witness=witness,
        **extra,
    )


def is_symmetry(
    X: KVectorField, Y: VectorField, points, tolerance: float = BRACKET_TOLERANCE
) -> SymmetryVerdict:
    """Does Y commute with every component field of X on the samples?"""
    if Y.chart != X.chart:
        raise ChartMismatchError("field lives on a different chart")
    brackets = [lie_bracket(Xa, Y) for Xa in X]
    residuals = max_abs((c for br in brackets for c in br.components), points)
    return _verdict("symmetry", residuals, points, tolerance)


def solve_pseudosymmetry(
    X: KVectorField,
    Y: VectorField,
    Z: KVectorField,
    points,
    tolerance: float = BRACKET_TOLERANCE,
    fit_degree: int = FIT_DEGREE,
    fit_tolerance: float = FIT_TOLERANCE,
) -> SymmetryVerdict:
    """Solve [X_A, Y] = sum_B lambda_A^B Z_B pointwise by least squares.

    A rank-deficient Z at a sample is not an error: the minimum-norm
    coefficients are still defined (an all-zero Z reduces the check to plain
    symmetry with lambda = 0).  Such sample indices are reported.
    """
    if Y.chart != X.chart or Z.chart != X.chart:
        raise ChartMismatchError("fields live on different charts")
    k = len(X)
    n_pts = len(points)
    Zmats = np.stack([Zb.evaluate_batch(points) for Zb in Z], axis=-1)  # (m, N, k)
    rank_deficient = np.flatnonzero(np.linalg.matrix_rank(Zmats) < k)
    brackets = [lie_bracket(Xa, Y).evaluate_batch(points) for Xa in X]  # k of (m, N)
    lam = np.zeros((n_pts, k, k))
    residuals = np.zeros(n_pts)
    # lstsq stays per point: a stacked solve changes lambda in the last bits
    for pi, Zmat in enumerate(Zmats):
        worst = 0.0
        for a, br in enumerate(brackets):
            sol, *_ = np.linalg.lstsq(Zmat, br[pi], rcond=1e-12)
            lam[pi, a] = sol
            worst = max(worst, float(np.max(np.abs(Zmat @ sol - br[pi]))))
        residuals[pi] = worst
    fit, fit_residual = _fit_lambda(X.chart, points, lam, fit_degree, fit_tolerance)
    return _verdict(
        "pseudosymmetry",
        residuals,
        points,
        tolerance,
        lambda_samples=lam,
        lambda_fit=fit,
        lambda_fit_residual=fit_residual,
        rank_deficient_points=tuple(int(i) for i in rank_deficient),
    )


def is_cartan_symmetry(
    sys: FieldSystem, Y: VectorField, points, tolerance: float | None = None
) -> SymmetryVerdict:
    """Does Y preserve every two-form of the system and its driving scalar?"""
    if Y.chart != sys.chart:
        raise ChartMismatchError("field lives on a different chart")
    if tolerance is None:
        tolerance = sys.default_tolerance
    lies = [lie_derivative_form(Y, w) for w in sys.omega]
    exprs = [directional_derivative(Y, sys.target.expr)]
    exprs += [e for form in lies for e in form.components.values()]
    return _verdict("cartan", max_abs(exprs, points), points, tolerance)


def is_invariant_form(
    X: KVectorField,
    omegas: Sequence[PForm],
    points,
    tolerance: float = BRACKET_TOLERANCE,
) -> SymmetryVerdict:
    """Per-copy invariance: L_{X_A} omega_A = 0 for every A."""
    if len(omegas) != len(X):
        raise ValueError(
            f"expected {len(X)} forms to pair with the field family, got {len(omegas)}"
        )
    for w in omegas:
        if w.chart != X.chart:
            raise ChartMismatchError("form lives on a different chart")
    lies = [lie_derivative_form(Xa, w) for Xa, w in zip(X, omegas)]
    residuals = max_abs((e for form in lies for e in form.components.values()), points)
    return _verdict("invariant-form", residuals, points, tolerance)


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


def _fit_lambda(chart, points, lam, degree, fit_tolerance):
    n_pts, k, _ = lam.shape
    if n_pts == 0:
        return None, None
    exponents = _monomial_exponents(chart.dimension, degree)
    pts = np.asarray(points, dtype=float)
    design = np.empty((n_pts, len(exponents)))
    for m, exps in enumerate(exponents):
        col = np.ones(n_pts)
        for i, e in enumerate(exps):
            if e:
                col = col * pts[:, i] ** e
        design[:, m] = col
    rows = []
    worst = 0.0
    for a in range(k):
        row = []
        for b in range(k):
            coef, *_ = np.linalg.lstsq(design, lam[:, a, b], rcond=None)
            deviation = float(np.max(np.abs(design @ coef - lam[:, a, b])))
            worst = max(worst, deviation)
            row.append(
                _render_polynomial(chart, exponents, coef)
                if deviation <= fit_tolerance
                else None
            )
        rows.append(tuple(row))
    return tuple(rows), worst
