"""Field systems and their geometric evolution equation.

A system couples a chart, a generating function (Hamiltonian or Lagrangian),
and the k families of one- and two-forms that turn the evolution condition

    sum_A  i_{X_A} omega_A = d(H)        (Hamiltonian side)
    sum_A  i_{X_A} omega_A = d(E_L)      (Lagrangian side)

into pointwise linear algebra.  Both sides assemble one linear system from
the coefficients of omega_A and the gradient of the target; the Lagrangian
solver fixes the base components to the velocities and keeps the base rows,
and the fiber Hessian it gates on (like the regularity check) is read off
omega_A.  Solvers return the minimum-norm least-squares representative when
the system is underdetermined (k > 1); for k = 1 the solution is the unique
classical one.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bundles import KCotangentChart, KTangentChart, cotangent_bundle, tangent_bundle
from .calculus import (
    PForm,
    ScalarField,
    VectorField,
    exterior_derivative,
    form_add,
    form_neg,
    form_sub,
    interior_product,
    scalar_form,
    two_form_matrix,
)
from .expr import (
    ChartSpace,
    Check,
    Func,
    Num,
    Record,
    batch_evaluator,
    fold,
    make_add,
    make_neg,
    parse_expression,
    residual_check,
)

__all__ = [
    "FieldSystem",
    "KVectorField",
    "SingularHessianError",
    "InconsistentSystemError",
    "build_system",
    "check_regularity",
    "solve_evolution_hamiltonian",
    "solve_evolution_lagrangian",
    "verify_evolution",
    "evolution_residuals",
]

SYSTEM_KINDS = ("hamiltonian", "lagrangian")

# singular values below RCOND * sigma_max are treated as zero
RCOND = 1e-12
SOLVE_RESIDUAL_TOL = 1e-9
REGULARITY_DET_TOL = 1e-10
EVOLUTION_TOLERANCE = 1e-9


class SingularHessianError(ValueError):
    """The fiber Hessian is numerically singular at the requested point."""


class InconsistentSystemError(ValueError):
    """The pointwise linear system is not finite or has no solution within tolerance."""

    def __init__(self, residual: float, reason: str | None = None):
        super().__init__(reason or f"evolution system inconsistent: residual {residual:.3e}")
        self.residual = residual


class KVectorField(Record):
    """An ordered family (X_1, ..., X_k) of vector fields on one chart."""

    def __init__(self, chart: ChartSpace, fields: tuple[VectorField, ...]):
        if len(fields) != chart.k:
            raise ValueError(f"expected {chart.k} component fields, got {len(fields)}")
        for f in fields:
            if f.chart != chart:
                raise ValueError("component fields must share the chart")
        self._set(chart=chart, fields=fields)

    @classmethod
    def repeat(cls, Y: VectorField, k: int | None = None) -> "KVectorField":
        """The constant tuple (Y, ..., Y)."""
        if k is None:
            k = Y.chart.k
        return cls(Y.chart, tuple([Y] * k))

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, index):
        return self.fields[index]


class FieldSystem(Record, frozen=False):
    """A Hamiltonian or Lagrangian field model on its bundle chart: ``function``
    is H on the cotangent side and L on the tangent side, ``energy`` is
    E_L = Delta(L) - L, None on the Hamiltonian side."""

    def __init__(self, kind: str, n: int, k: int, chart: ChartSpace, function: ScalarField,
                 theta: tuple[PForm, ...], omega: tuple[PForm, ...], energy: ScalarField | None,
                 bundle: KCotangentChart | KTangentChart):
        self._set(kind=kind, n=n, k=k, chart=chart, function=function, theta=theta,
                  omega=omega, energy=energy, bundle=bundle)

    @property
    def hamiltonian_side(self) -> bool:
        return self.kind == "hamiltonian"

    @property
    def target(self) -> ScalarField:
        """The scalar whose differential drives the evolution equation."""
        return self.function if self.hamiltonian_side else self.energy

    @property
    def default_tolerance(self) -> float:
        """1e-8 on polynomial data, relaxed to 1e-6 when the model involves
        non-polynomial functions (square roots and friends)."""
        has_func = fold(self.function.expr, lambda node, kids: isinstance(node, Func) or any(kids))
        return 1e-6 if has_func else 1e-8

    # evaluator tables, each built on first use and kept with the system

    @cached_property
    def fiber_hessian(self) -> list[list]:
        """Evaluators of d^2 L / dv_A_i dv_B_j: row (A, i), column (B, j), read off
        omega_A's (x_i, v_B_j) coefficient, since omega_A = -d(dL/dv_A_i dx_i)."""
        chart, zero = self.chart, Num(0.0)
        return [
            [batch_evaluator(omega.components.get((i, b), zero)) for b in chart.fiber_indices]
            for omega in self.omega for i in range(self.n)
        ]

    @cached_property
    def target_differential(self) -> PForm:
        """d(target), derived once for the solvers and the residual."""
        return exterior_derivative(scalar_form(self.target))


def build_system(
    kind: str,
    n: int,
    k: int,
    function_source: str,
    parameters: dict | None = None,
) -> FieldSystem:
    """Construct a field system from the generating function's source text.

    Parameters are substituted as literals while parsing.  On the Lagrangian
    side the one-form family is dL composed with each vertical endomorphism,
    the two-form family is minus its exterior derivative, and the energy is
    Delta(L) - L with Delta(L) = i_Delta dL.
    """
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    if kind == "hamiltonian":
        bundle = cotangent_bundle(n, k)
        chart = bundle.chart
        H = ScalarField(chart, parse_expression(function_source, chart, parameters))
        return FieldSystem(
            kind=kind, n=n, k=k, chart=chart, function=H,
            theta=bundle.theta, omega=bundle.omega, energy=None, bundle=bundle,
        )
    bundle = tangent_bundle(n, k)
    chart = bundle.chart
    L = ScalarField(chart, parse_expression(function_source, chart, parameters))
    dL = exterior_derivative(scalar_form(L))
    thetas = tuple(S.precompose_one_form(dL) for S in bundle.structures)
    omegas = tuple(form_neg(exterior_derivative(th)) for th in thetas)
    energy_expr = make_add(interior_product(bundle.liouville, dL).component(), make_neg(L.expr))
    energy = ScalarField(chart, energy_expr)
    return FieldSystem(
        kind=kind, n=n, k=k, chart=chart, function=L,
        theta=thetas, omega=omegas, energy=energy, bundle=bundle,
    )


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def check_regularity(
    system: FieldSystem, points, tolerance: float = REGULARITY_DET_TOL
) -> Check:
    """Invertibility of the fiber Hessian of L across the sample points.

    Regular iff min |det| > tolerance, strictly.  The check reports it as
    max_residual = -min |det| against -tolerance, so a larger residual is
    still worse; holds keeps the strict comparison.
    """
    if system.kind != "lagrangian":
        raise ValueError("regularity applies to Lagrangian systems")
    points = np.asarray(points, dtype=float)
    hess = np.array([[fn(points) for fn in row] for row in system.fiber_hessian])
    # an infinite entry makes det NaN and huge ones overflow it: verdicts, not warnings
    with np.errstate(invalid="ignore", over="ignore"):
        dets = np.abs(np.linalg.det(np.moveaxis(hess, -1, 0)))  # one (nk, nk) matrix per point
    at = int(np.argmin(dets))  # the first NaN, if any
    det = float(dets[at])
    return Check("regularity", det > tolerance, -det, -tolerance, points[at], {"min_abs_det": det})


# ---------------------------------------------------------------------------
# evolution solvers
# ---------------------------------------------------------------------------


def _evolution_system(system: FieldSystem, point: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row c of sum_A i_{X_A} omega_A = d(target) at one point: the (N, kN)
    matrix with sum_A sum_b W_A[b, c] (X_A)^b on row c, and (d target)_c."""
    M = np.hstack([two_form_matrix(omega, point).T for omega in system.omega])
    b = np.zeros(system.chart.dimension)
    for (c,), expr in system.target_differential.components.items():
        b[c] = batch_evaluator(expr)(point[None])[0]
    return M, b


def _least_squares(M: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solution of M x = b, refused when M or b
    is not finite or the residual exceeds SOLVE_RESIDUAL_TOL."""
    if not (np.isfinite(M).all() and np.isfinite(b).all()):
        raise InconsistentSystemError(np.nan, "evolution system has non-finite entries at the point")
    solution, *_ = np.linalg.lstsq(M, b, rcond=RCOND)
    residual = float(np.max(np.abs(M @ solution - b), initial=0.0))
    if residual > SOLVE_RESIDUAL_TOL:
        raise InconsistentSystemError(residual)
    return solution


def solve_evolution_hamiltonian(system: FieldSystem, point) -> np.ndarray:
    """Solve sum_A i_{X_A} omega_A = dH at one point.

    Returns a (k, N) array of components, the minimum-norm least-squares
    representative.  The base rows are the determined part of the system:
    they reproduce dH/dp_A_i up to the round-off of the solve.
    """
    if system.kind != "hamiltonian":
        raise ValueError("expected a Hamiltonian system")
    M, b = _evolution_system(system, np.asarray(point, dtype=float))
    return _least_squares(M, b).reshape(system.k, -1)


def solve_evolution_lagrangian(system: FieldSystem, point) -> np.ndarray:
    """Solve sum_A i_{X_A} omega_A = dE_L at one point as a second-order system.

    The base components are fixed to the velocities, (X_A)^{x_i} = v_A_i, and
    moved to the right-hand side.  The nk^2 fiber components are the
    minimum-norm least-squares solution of the n base rows, negated into the
    Euler-Lagrange equations with the fiber Hessian as their fiber block,
    together with the symmetry constraints (X_A)^{v_B_j} = (X_B)^{v_A_j}.
    """
    if system.kind != "lagrangian":
        raise ValueError("expected a Lagrangian system")
    n, k = system.n, system.k
    point = np.asarray(point, dtype=float)
    M, b = _evolution_system(system, point)
    rows = M[:n].reshape(n, k, -1)  # base row i, copy A, slot
    el = -rows[:, :, n:]  # the Euler-Lagrange rows: d^2 L / dv_A_i dv_B_j at [i, A, (B, j)]
    with np.errstate(invalid="ignore", over="ignore"):  # as in check_regularity
        det = abs(float(np.linalg.det(el.transpose(1, 0, 2).reshape(n * k, n * k))))
    if not det > REGULARITY_DET_TOL:  # the verdict of check_regularity, NaN included
        raise SingularHessianError(f"fiber Hessian is singular at the point (|det| = {det:.3e})")

    # fiber unknowns (X_A)^{v_B_j} in A, B, j order; a symmetry row per A < B and j
    unknown = np.arange(n * k * k).reshape(k, k, n)
    A, B = np.triu_indices(k, 1)
    eye = np.eye(n * k * k)
    sym = eye[unknown[A, B].ravel()] - eye[unknown[B, A].ravel()]
    velocities = point[n:]  # v_A_i, A-major like the base columns
    fibers = _least_squares(
        np.vstack([el.reshape(n, -1), sym]),
        np.concatenate([rows[:, :, :n].reshape(n, -1) @ velocities - b[:n], np.zeros(len(sym))]),
    )
    return np.hstack([velocities.reshape(k, n), fibers.reshape(k, k * n)])


def _evolution_residual_form(system: FieldSystem, X: KVectorField) -> PForm:
    if X.chart != system.chart:
        raise ValueError("field family lives on a different chart")
    total = None
    for Xa, omega in zip(X.fields, system.omega):
        term = interior_product(Xa, omega)
        total = term if total is None else form_add(total, term)
    return form_sub(total, system.target_differential)


def evolution_residuals(system: FieldSystem, X: KVectorField, points) -> np.ndarray:
    """Sup-norm of the evolution one-form residual at each sample point."""
    return _evolution_residual_form(system, X).max_component_at(points)


def verify_evolution(
    system: FieldSystem, X: KVectorField, points, tolerance: float = EVOLUTION_TOLERANCE
) -> Check:
    """The "evolution-residual" check: max over samples of the sup-norm of
    sum_A i_{X_A} omega_A - d(target)."""
    return residual_check(
        "evolution-residual", evolution_residuals(system, X, points), points, tolerance
    )
