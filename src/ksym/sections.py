"""Integral sections of k-vector fields and divergence-form verification.

A section through p0 is built by composing the flows of the component
fields, innermost copy first:

    psi(t^1, ..., t^k) = Flow_{X_1}^{t^1} ( ... Flow_{X_k}^{t^k}(p0) ... )

Each flow runs classical fixed-step fourth-order Runge-Kutta, one step per
grid interval.  The grid is filled by marching the last axis first and
reusing every previously integrated line as the starting data for the next
axis, so each node is computed exactly once.

For commuting component fields the composition order is immaterial up to
integration error; the pairwise commutation residual is attached to every
grid so downstream tolerances can widen when it is not.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .calculus import ChartMismatchError, lie_bracket, max_abs
from .conservation import ConservationLaw
from .dynamics import KVectorField
from .expr import ChartSpace, EvaluationDomainError, compiled_evaluator, worst_sample

__all__ = [
    "IntegrabilityReport",
    "SectionGrid",
    "DivergenceReport",
    "SectionIntegrationError",
    "check_integrability",
    "integrate_section",
    "verify_law_divergence",
    "export_grid_csv",
]

COMMUTATION_TOLERANCE = 1e-8


class SectionIntegrationError(RuntimeError):
    """A flow left the expression domain or blew up mid-integration."""


@dataclass(frozen=True)
class IntegrabilityReport:
    integrable: bool
    max_residual: float
    tolerance: float
    witness: np.ndarray


@dataclass(frozen=True, eq=False)
class SectionGrid:
    """A rectangular grid of section values psi(t), including t = 0."""

    chart: ChartSpace
    origin: np.ndarray
    ranges: tuple[float, ...]
    steps: tuple[float, ...]
    axes: tuple[np.ndarray, ...]
    values: np.ndarray
    commutation_residual: float

    @property
    def k(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[:-1]


def _commutation_residuals(X: KVectorField, points) -> np.ndarray:
    """Largest |[X_A, X_B]| component, A < B, at each point."""
    k = len(X)
    brackets = [lie_bracket(X[a], X[b]) for a in range(k) for b in range(a + 1, k)]
    return max_abs((c for br in brackets for c in br.components), points)


def check_integrability(
    X: KVectorField, points, tolerance: float = COMMUTATION_TOLERANCE
) -> IntegrabilityReport:
    """Max over samples of |[X_A, X_B]| components, A < B."""
    points = np.asarray(points, dtype=float)
    worst, at = worst_sample(_commutation_residuals(X, points))
    return IntegrabilityReport(worst <= tolerance, worst, tolerance, points[at])


def _per_axis(value, k: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * k
    out = tuple(float(v) for v in value)
    if len(out) != k:
        raise ValueError(f"expected {k} {name} entries, got {len(out)}")
    return out


def _rk4_line(F, start: np.ndarray, h: float, m: int, axis_label: str) -> np.ndarray:
    """Integrate m fixed steps of size h along F, returning m+1 points."""
    out = np.empty((m + 1, start.size))
    out[0] = start
    p = start
    # non-finite values are caught by the guard below, so let them propagate
    # through the arithmetic silently
    with np.errstate(all="ignore"):
        for i in range(m):
            t = i * h
            try:
                k1 = F(p)
                k2 = F(p + (h / 2.0) * k1)
                k3 = F(p + (h / 2.0) * k2)
                k4 = F(p + h * k3)
            except EvaluationDomainError as err:
                raise SectionIntegrationError(
                    f"flow along {axis_label} left the domain at t={t + h:.6g}, "
                    f"point {p}: {err}"
                ) from err
            p = p + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if not np.all(np.isfinite(p)):
                raise SectionIntegrationError(
                    f"flow along {axis_label} diverged at t={(i + 1) * h:.6g}, "
                    f"point {out[i]}"
                )
            out[i + 1] = p
    return out


def integrate_section(
    X: KVectorField,
    origin,
    ranges,
    steps,
    tolerance: float = COMMUTATION_TOLERANCE,
) -> SectionGrid:
    """Fill the section grid over [0, T_A] with spacing h_A per axis.

    Each T_A must be an integer multiple of h_A (to 1e-9 relative).  The
    pairwise commutation residual is evaluated over the finished grid; a
    warning is issued when it exceeds the tolerance, since the flow
    composition order then matters.
    """
    chart = X.chart
    k = len(X)
    origin = np.asarray(origin, dtype=float)
    if origin.shape != (chart.dimension,):
        raise ValueError(
            f"origin has shape {origin.shape}, chart needs ({chart.dimension},)"
        )
    T = _per_axis(ranges, k, "range")
    h = _per_axis(steps, k, "step")
    counts = []
    for a in range(k):
        if h[a] <= 0 or T[a] < 0:
            raise ValueError("ranges must be nonnegative and steps positive")
        m = int(round(T[a] / h[a])) if T[a] else 0
        if abs(m * h[a] - T[a]) > 1e-9 * max(1.0, abs(T[a])):
            raise ValueError(
                f"axis {a + 1}: range {T[a]} is not an integer multiple of step {h[a]}"
            )
        counts.append(m)

    evaluators = [
        [compiled_evaluator(c) for c in field.components] for field in X
    ]

    def flow_fn(a):
        comps = evaluators[a]

        def F(p):
            return np.array([fn(p) for fn in comps])

        return F

    shape = tuple(m + 1 for m in counts)
    values = np.empty(shape + (chart.dimension,))
    values[(0,) * k] = origin

    # march the innermost flow first, then extend earlier axes line by line
    for a in range(k - 1, -1, -1):
        F = flow_fn(a)
        suffix_shape = shape[a + 1:]
        prefix = (0,) * a
        for suffix in np.ndindex(*suffix_shape):
            start = values[prefix + (0,) + suffix]
            line = _rk4_line(F, start, h[a], counts[a], f"axis {a + 1}")
            for i in range(1, counts[a] + 1):
                values[prefix + (i,) + suffix] = line[i]

    residual = worst_sample(_commutation_residuals(X, values.reshape(-1, chart.dimension)))[0]
    if not residual <= tolerance:
        warnings.warn(
            f"component fields do not commute (residual {residual:.3e}); "
            "the section depends on flow order",
            stacklevel=2,
        )
    axes = tuple(np.arange(m + 1) * h[a] for a, m in enumerate(counts))
    return SectionGrid(
        chart=chart,
        origin=origin,
        ranges=T,
        steps=h,
        axes=axes,
        values=values,
        commutation_residual=residual,
    )


@dataclass(frozen=True, eq=False)
class DivergenceReport:
    max_residual: float
    scale_constant: float
    steps: tuple[float, ...]
    witness_t: tuple[float, ...]
    witness_point: np.ndarray


def verify_law_divergence(law: ConservationLaw, grid: SectionGrid) -> DivergenceReport:
    """Max over interior nodes of |sum_A d(Phi_A o psi)/dt^A|.

    Derivatives are second-order central differences per axis, so a true
    conservation law leaves a residual of order h^2; the implied constant
    is reported as scale_constant = residual / max(h)^2.
    """
    if law.chart != grid.chart:
        raise ChartMismatchError("law lives on a different chart")
    k = grid.k
    if len(law.components) != k:
        raise ValueError("law length does not match the grid")
    shape = grid.shape
    if any(m < 3 for m in shape):
        raise ValueError("divergence check needs at least 3 nodes per axis")
    flat = grid.values.reshape(-1, grid.values.shape[-1])
    phi = np.stack([comp.evaluate_batch(flat).reshape(shape) for comp in law.components])

    total = np.zeros(tuple(m - 2 for m in shape))
    for A in range(k):
        upper = tuple(
            slice(2, None) if a == A else slice(1, -1) for a in range(k)
        )
        lower = tuple(
            slice(0, -2) if a == A else slice(1, -1) for a in range(k)
        )
        total += (phi[A][upper] - phi[A][lower]) / (2.0 * grid.steps[A])

    residual = np.abs(total)
    worst_flat = int(np.argmax(residual))
    worst_idx = np.unravel_index(worst_flat, residual.shape)
    node_idx = tuple(i + 1 for i in worst_idx)
    h_max = max(grid.steps)
    top = float(residual[worst_idx])
    return DivergenceReport(
        max_residual=top,
        scale_constant=top / h_max**2,
        steps=grid.steps,
        witness_t=tuple(float(grid.axes[a][node_idx[a]]) for a in range(k)),
        witness_point=grid.values[node_idx],
    )


def export_grid_csv(grid: SectionGrid, target) -> None:
    """Write the grid row-major: columns t_1..t_k then the chart coordinates."""
    close = False
    if isinstance(target, (str, bytes)) or hasattr(target, "__fspath__"):
        handle = open(target, "w", encoding="utf-8", newline="\n")
        close = True
    else:
        handle = target
    try:
        header = [f"t_{a + 1}" for a in range(grid.k)] + list(grid.chart.coordinate_names)
        handle.write(",".join(header) + "\n")
        for idx in np.ndindex(*grid.shape):
            ts = [grid.axes[a][idx[a]] for a in range(grid.k)]
            row = list(ts) + list(grid.values[idx])
            handle.write(",".join(f"{v:.17g}" for v in row) + "\n")
    finally:
        if close:
            handle.close()
