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

from functools import cached_property, reduce

import numpy as np

from .bundles import cotangent_bundle, tangent_bundle
from .calculus import (
    PForm,
    ScalarField,
    VectorField,
    _rows_read,
    _same_chart,
    exterior_derivative,
    form_add,
    form_neg,
    form_sub,
    interior_product,
    scalar_form,
    two_form_matrix,
    verdict,
)
from .expr import (
    ChartSpace,
    Check,
    Func,
    Record,
    cotangent_chart,
    field_evaluator,
    fold,
    make_add,
    make_neg,
    parse_expression,
    tangent_chart,
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
    """An ordered family (X_1, ..., X_k) of vector fields on one chart, held
    as a tuple."""

    def __init__(self, chart: ChartSpace, fields: tuple[VectorField, ...]):
        fields = tuple(fields)
        if len(fields) != chart.k:
            raise ValueError(f"expected {chart.k} component fields, got {len(fields)}")
        _same_chart(chart, *fields)
        self._set(chart=chart, fields=fields)

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __getitem__(self, index):
        return self.fields[index]


class FieldSystem(Record, frozen=False):
    """A Hamiltonian or Lagrangian field model on its bundle chart, the one owner
    of n and k: ``function`` is H on the cotangent side and L on the tangent
    side.  ``theta``, ``omega`` and ``energy`` are derived on first read: the
    cotangent bundle's forms and None, or dL o J^A, -d(theta_A) and i_Delta dL - L."""

    def __init__(self, kind: str, chart: ChartSpace, function: ScalarField):
        self._set(kind=kind, chart=chart, function=function)

    @cached_property
    def _dL(self) -> PForm:  # shared by theta_A and E_L
        return exterior_derivative(scalar_form(self.function))

    @cached_property
    def theta(self) -> tuple[PForm, ...]:
        if self.kind == "hamiltonian":
            return cotangent_bundle(self.chart.n, self.chart.k).theta
        structures = tangent_bundle(self.chart.n, self.chart.k).structures
        return tuple(S.precompose_one_form(self._dL) for S in structures)

    @cached_property
    def omega(self) -> tuple[PForm, ...]:
        if self.kind == "hamiltonian":
            return cotangent_bundle(self.chart.n, self.chart.k).omega
        return tuple(form_neg(exterior_derivative(theta)) for theta in self.theta)

    @cached_property
    def energy(self) -> ScalarField | None:
        if self.kind == "hamiltonian":
            return None
        liouville = tangent_bundle(self.chart.n, self.chart.k).liouville
        energy = make_add(interior_product(liouville, self._dL).component(),
                          make_neg(self.function.expr))
        return ScalarField(self.chart, energy)

    @property
    def target(self) -> ScalarField:
        """The scalar whose differential drives the evolution equation."""
        return self.function if self.kind == "hamiltonian" else self.energy

    @cached_property
    def default_tolerance(self) -> float:
        """1e-8 on polynomial data, relaxed to 1e-6 when the model involves
        non-polynomial functions (square roots and friends)."""
        has_func = fold(self.function.expr, lambda node, kids: isinstance(node, Func) or any(kids))
        return 1e-6 if has_func else 1e-8

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
    """A field system whose function is parsed from ``function_source`` on the
    bundle chart, with ``parameters`` substituted as literals."""
    if kind not in SYSTEM_KINDS:
        raise ValueError(f"unknown system kind {kind!r}")
    chart = cotangent_chart(n, k) if kind == "hamiltonian" else tangent_chart(n, k)
    function = ScalarField(chart, parse_expression(function_source, chart, parameters))
    return FieldSystem(kind, chart, function)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def _abs_dets(matrices: np.ndarray) -> np.ndarray:
    """|det| of each square matrix in the stack.  An infinite entry makes det
    NaN and huge ones overflow it: verdicts, not warnings."""
    with np.errstate(invalid="ignore", over="ignore"):
        return np.abs(np.linalg.det(matrices))


def check_regularity(
    system: FieldSystem, points, tolerance: float = REGULARITY_DET_TOL
) -> Check:
    """Invertibility of the fiber Hessian of L across the sample points: entry
    d^2 L / dv_A_i dv_B_j is omega_A's (x_i, v_B_j) coefficient, zero if absent.

    Regular iff min |det| > tolerance, strictly.  The check reports it as
    max_residual = -min |det| against -tolerance, so a larger residual is
    still worse; holds keeps the strict comparison.  A Hessian that reads no
    coordinate is evaluated, and its determinant taken, at the first point.
    """
    if system.kind != "lagrangian":
        raise ValueError("regularity applies to Lagrangian systems")
    points = np.asarray(points, dtype=float)
    if not len(points):
        raise ValueError("regularity needs at least one sample point, got none")
    n, dim = system.chart.n, system.chart.dimension
    entries = tuple(omega.component(i, b) for omega in system.omega
                    for i in range(n) for b in range(n, dim))
    rows = _rows_read(entries, points)
    hess = field_evaluator(entries)(rows).reshape(len(rows), dim - n, dim - n)  # no copy
    dets = _abs_dets(hess)
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
    gradient = system.target_differential.components
    b = np.zeros(system.chart.dimension)
    b[[c for (c,) in gradient]] = field_evaluator(tuple(gradient.values()))(point[None])[0]
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
    return _least_squares(M, b).reshape(system.chart.k, -1)


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
    n, k = system.chart.n, system.chart.k
    point = np.asarray(point, dtype=float)
    M, b = _evolution_system(system, point)
    rows = M[:n].reshape(n, k, -1)  # base row i, copy A, slot
    el = -rows[:, :, n:]  # the Euler-Lagrange rows: d^2 L / dv_A_i dv_B_j at [i, A, (B, j)]
    det = float(_abs_dets(el.transpose(1, 0, 2).reshape(n * k, n * k)))
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


def evolution_residuals(system: FieldSystem, X: KVectorField) -> PForm:
    """The evolution residual one-form sum_A i_{X_A} omega_A - d(target)."""
    _same_chart(system, X)
    total = reduce(form_add, map(interior_product, X, system.omega))
    return form_sub(total, system.target_differential)


def verify_evolution(
    system: FieldSystem, X: KVectorField, points, tolerance: float = EVOLUTION_TOLERANCE
) -> Check:
    """The "evolution-residual" check: max over samples of the sup-norm of
    sum_A i_{X_A} omega_A - d(target)."""
    residual = evolution_residuals(system, X)
    return verdict("evolution-residual", residual.components.values(), points, tolerance)
