"""The hand-built Euler-Lagrange solve, kept as the reference that
``ksym.dynamics.solve_evolution_lagrangian`` is tested against.

It differentiates L itself, one slot at a time through ``gradient``: dL/dx_i,
the mixed partials d^2 L / dv_A_i dx_j and the fiber Hessian
d^2 L / dv_A_i dv_B_j, each evaluated alone by its own kernel.  Row i of its
system is the Euler-Lagrange equation

    sum_{A,B,j} H[(A,i),(B,j)] (X_A)^{v_B_j} = dL/dx_i - sum_{A,j} d^2 L / dv_A_i dx_j v_A_j,

followed by the symmetry rows (X_A)^{v_B_j} = (X_B)^{v_A_j}, A < B, solved
by ``np.linalg.lstsq`` with the cutoff the package uses (``rcond=1e-12``).
"""

from __future__ import annotations

import numpy as np

from ksym.dynamics import InconsistentSystemError, SingularHessianError
from builders import derivative, kernel_values


def solve(system, point) -> np.ndarray:
    """The (k, N) components at one point: base rows the velocities, fiber rows
    the minimum-norm solution of the Euler-Lagrange and symmetry rows."""
    chart, n, k = system.chart, system.chart.n, system.chart.k
    L = system.function.expr
    point = np.asarray(point, dtype=float)
    batch = point[None]

    def value(e) -> float:
        return kernel_values(e, batch)[0]

    def fiber(A: int, i: int) -> int:  # 1-based A and i
        return chart.fiber_index(A, i)

    def unknown(A: int, B: int, j: int) -> int:  # (X_A)^{v_B_j}, 1-based
        return ((A - 1) * k + (B - 1)) * n + (j - 1)

    dLdv = {(A, i): derivative(L, fiber(A, i)) for A in range(1, k + 1) for i in range(1, n + 1)}
    hess = np.array([[value(derivative(dLdv[a], fiber(*b))) for b in dLdv] for a in dLdv])
    det = abs(float(np.linalg.det(hess)))
    if not det > 1e-10:
        raise SingularHessianError(f"fiber Hessian is singular at the point (|det| = {det:.3e})")

    sym_rows = n * k * (k - 1) // 2
    M = np.zeros((n + sym_rows, n * k * k))
    b = np.zeros(n + sym_rows)
    for i in range(1, n + 1):
        rhs = value(derivative(L, chart.base_index(i)))
        for A in range(1, k + 1):
            for j in range(1, n + 1):
                rhs -= value(derivative(dLdv[(A, i)], chart.base_index(j))) * point[fiber(A, j)]
                for B in range(1, k + 1):
                    M[i - 1, unknown(A, B, j)] += hess[(A - 1) * n + i - 1, (B - 1) * n + j - 1]
        b[i - 1] = rhs
    row = n
    for A in range(1, k + 1):
        for B in range(A + 1, k + 1):
            for j in range(1, n + 1):
                M[row, unknown(A, B, j)] = 1.0
                M[row, unknown(B, A, j)] = -1.0
                row += 1

    solution, *_ = np.linalg.lstsq(M, b, rcond=1e-12)
    residual = float(np.max(np.abs(M @ solution - b)))
    if residual > 1e-9:
        raise InconsistentSystemError(residual)
    out = np.zeros((k, chart.dimension))
    for A in range(1, k + 1):
        for i in range(1, n + 1):
            out[A - 1, chart.base_index(i)] = point[fiber(A, i)]
        for B in range(1, k + 1):
            for j in range(1, n + 1):
                out[A - 1, fiber(B, j)] = solution[unknown(A, B, j)]
    return out
