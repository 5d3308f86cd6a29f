"""Field systems and their geometric evolution equation.

A system couples a chart, a generating function (Hamiltonian or Lagrangian),
and the k families of one- and two-forms that turn the evolution condition

    sum_A  i_{X_A} omega_A = d(H)        (Hamiltonian side)
    sum_A  i_{X_A} omega_A = d(E_L)      (Lagrangian side)

into pointwise linear algebra.  Solvers return the minimum-norm
least-squares representative when the system is underdetermined (k > 1);
for k = 1 the solution is the unique classical one.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .bundles import KCotangentChart, KTangentChart, cotangent_bundle, tangent_bundle
from .calculus import (
    PForm,
    ScalarField,
    VectorField,
    directional_derivative,
    exterior_derivative,
    form_add,
    form_neg,
    form_sub,
    interior_product,
    scalar_form,
)
from .expr import (
    ChartSpace,
    Check,
    Expression,
    Func,
    Record,
    batch_evaluator,
    fold,
    make_add,
    make_neg,
    parse_expression,
    worst_sample,
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


class SingularHessianError(ValueError):
    """The fiber Hessian is numerically singular at the requested point."""


class InconsistentSystemError(ValueError):
    """The pointwise linear system has no solution within tolerance."""

    def __init__(self, residual: float):
        super().__init__(f"evolution system inconsistent: residual {residual:.3e}")
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

    # derivative tables, each derived on first use and kept with the system

    @property
    def fiber_gradient(self) -> list[Expression]:
        """dL/dv_A_i per fiber slot, read off theta_A(d/dx_i) as build_system derived it."""
        return [th.component(i) for th in self.theta for i in range(self.n)]

    @cached_property
    def fiber_hessian(self) -> list[list]:
        """Evaluators of d^2 L / dv_a dv_b: row a, column b, over the fiber slots."""
        slots = self.chart.fiber_indices
        return [[batch_evaluator(da.diff(b)) for b in slots] for da in self.fiber_gradient]

    @cached_property
    def lagrangian_rows(self) -> tuple[list, dict]:
        """Evaluators of dL/dx_i, and of d^2 L / dv_A_i dx_j keyed (A, i, j)."""
        chart, n = self.chart, self.n
        L = self.function.expr
        dLdx = [batch_evaluator(L.diff(chart.base_index(i))) for i in range(1, n + 1)]
        mixed = {}
        for a, e in enumerate(self.fiber_gradient):
            A, i = divmod(a, n)
            for j in range(1, n + 1):
                mixed[(A + 1, i + 1, j)] = batch_evaluator(e.diff(chart.base_index(j)))
        return dLdx, mixed

    @cached_property
    def target_gradient(self) -> list:
        """Evaluators of the target's partial derivatives, one per chart slot."""
        expr = self.target.expr
        return [batch_evaluator(expr.diff(i)) for i in range(self.chart.dimension)]

    @cached_property
    def omega_entries(self) -> list[list]:
        """Per copy A: (i, j, evaluator) for each two-form coefficient."""
        return [
            [(i, j, batch_evaluator(expr)) for (i, j), expr in omega.components.items()]
            for omega in self.omega
        ]


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
    Delta(L) - L.
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
    energy_expr = make_add(
        directional_derivative(bundle.liouville, L.expr), make_neg(L.expr)
    )
    energy = ScalarField(chart, energy_expr)
    return FieldSystem(
        kind=kind, n=n, k=k, chart=chart, function=L,
        theta=thetas, omega=omegas, energy=energy, bundle=bundle,
    )


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------


def _fiber_hessian_values(system: FieldSystem, points) -> np.ndarray:
    """The fiber Hessian of L at each of the (m, N) points, shape (m, nk, nk)."""
    rows = system.fiber_hessian
    M = np.empty((len(points), len(rows), len(rows)))
    for a, row in enumerate(rows):
        for b, fn in enumerate(row):
            M[:, a, b] = fn(points)
    return M


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
    dets = np.abs(np.linalg.det(_fiber_hessian_values(system, points)))
    at = int(np.argmin(dets))  # the first NaN, if any
    det = float(dets[at])
    return Check("regularity", det > tolerance, -det, -tolerance, points[at], {"min_abs_det": det})


# ---------------------------------------------------------------------------
# evolution solvers
# ---------------------------------------------------------------------------


def solve_evolution_hamiltonian(system: FieldSystem, point) -> np.ndarray:
    """Solve sum_A i_{X_A} omega_A = dH at one point.

    Returns a (k, N) array of components, the minimum-norm least-squares
    representative; the base rows reproduce dH/dp_A_i exactly, which is the
    determined part of the system.
    """
    if system.kind != "hamiltonian":
        raise ValueError("expected a Hamiltonian system")
    chart = system.chart
    N = chart.dimension
    k = system.k
    batch = np.asarray(point, dtype=float)[None]  # one-row batch for the kernels

    # row c of the system: sum_A sum_b W_A[b, c] (X_A)^b = (dH)_c
    M = np.zeros((N, k * N))
    for A, entries in enumerate(system.omega_entries):
        for i, j, fn in entries:
            w = fn(batch)[0]
            M[j, A * N + i] += w
            M[i, A * N + j] -= w
    b = np.array([fn(batch)[0] for fn in system.target_gradient])

    solution, *_ = np.linalg.lstsq(M, b, rcond=RCOND)
    residual = float(np.max(np.abs(M @ solution - b))) if N else 0.0
    if residual > SOLVE_RESIDUAL_TOL:
        raise InconsistentSystemError(residual)
    return solution.reshape(k, N)


def solve_evolution_lagrangian(system: FieldSystem, point) -> np.ndarray:
    """Solve the second-order evolution condition at one point.

    The base components are fixed structurally to the fiber velocities; the
    remaining nk^2 second components are the minimum-norm least-squares
    solution of the n dynamic equations together with the symmetry
    constraints (Gamma_A)^i_B = (Gamma_B)^i_A.
    """
    if system.kind != "lagrangian":
        raise ValueError("expected a Lagrangian system")
    chart = system.chart
    n, k = system.n, system.k
    point = np.asarray(point, dtype=float)
    batch = point[None]  # one-row batch for the kernels

    hess = _fiber_hessian_values(system, batch)[0]
    det = abs(float(np.linalg.det(hess)))
    if not det > REGULARITY_DET_TOL:  # the verdict of check_regularity, NaN included
        raise SingularHessianError(f"fiber Hessian is singular at the point (|det| = {det:.3e})")

    dLdx, mixed = system.lagrangian_rows

    def unknown(A: int, B: int, j: int) -> int:
        # (Gamma_A)^j_B laid out A-major, then B, then j (all 1-based here)
        return ((A - 1) * k + (B - 1)) * n + (j - 1)

    n_unknowns = n * k * k
    sym_rows = n * k * (k - 1) // 2
    M = np.zeros((n + sym_rows, n_unknowns))
    b = np.zeros(n + sym_rows)

    for i in range(1, n + 1):
        row = i - 1
        rhs = dLdx[i - 1](batch)[0]
        for A in range(1, k + 1):
            for j in range(1, n + 1):
                rhs -= mixed[(A, i, j)](batch)[0] * point[chart.fiber_index(A, j)]
                for B in range(1, k + 1):
                    M[row, unknown(A, B, j)] += hess[(A - 1) * n + i - 1, (B - 1) * n + j - 1]
        b[row] = rhs

    row = n
    for A in range(1, k + 1):
        for B in range(A + 1, k + 1):
            for j in range(1, n + 1):
                M[row, unknown(A, B, j)] = 1.0
                M[row, unknown(B, A, j)] = -1.0
                row += 1

    solution, *_ = np.linalg.lstsq(M, b, rcond=RCOND)
    residual = float(np.max(np.abs(M @ solution - b)))
    if residual > SOLVE_RESIDUAL_TOL:
        raise InconsistentSystemError(residual)

    out = np.zeros((k, chart.dimension))
    for A in range(1, k + 1):
        for i in range(1, n + 1):
            out[A - 1, chart.base_index(i)] = point[chart.fiber_index(A, i)]
        for B in range(1, k + 1):
            for j in range(1, n + 1):
                out[A - 1, chart.fiber_index(B, j)] = solution[unknown(A, B, j)]
    return out


def _evolution_residual_form(system: FieldSystem, X: KVectorField) -> PForm:
    if X.chart != system.chart:
        raise ValueError("field family lives on a different chart")
    total = None
    for Xa, omega in zip(X.fields, system.omega):
        term = interior_product(Xa, omega)
        total = term if total is None else form_add(total, term)
    return form_sub(total, exterior_derivative(scalar_form(system.target)))


def evolution_residuals(system: FieldSystem, X: KVectorField, points) -> np.ndarray:
    """Sup-norm of the evolution one-form residual at each sample point."""
    return _evolution_residual_form(system, X).max_abs(points)


def verify_evolution(system: FieldSystem, X: KVectorField, points) -> float:
    """Max over samples of the sup-norm of sum_A i_{X_A} omega_A - d(target)."""
    return worst_sample(evolution_residuals(system, X, points))[0]
