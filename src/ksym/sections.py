"""Integral sections of k-vector fields and divergence-form verification.

A section through p0 is built by composing the flows of the component
fields, innermost copy first:

    psi(t^1, ..., t^k) = Flow_{X_1}^{t^1} ( ... Flow_{X_k}^{t^k}(p0) ... )

Each flow runs classical fixed-step fourth-order Runge-Kutta, one step per
grid interval.  The grid is filled by marching the last axis first; every
node filled so far starts one line of the next axis, and all lines of an
axis advance together as one front through the batched kernels, so each
node is computed exactly once.

For commuting component fields the composition order is immaterial up to
integration error; ``check_integrability`` is the commutation verdict, run
on a grid's nodes (or any points) to tell whether it is.  It and the
divergence of a law over a grid are each returned as one ``expr.Check``;
``export_grid_csv`` writes a grid with a single ``np.savetxt`` over the
stacked (t, values) rows.
"""

from __future__ import annotations

import os

import numpy as np

from .calculus import ChartMismatchError, lie_bracket, max_abs
from .conservation import ConservationLaw
from .dynamics import KVectorField
from .expr import (
    ChartSpace, Check, EvaluationDomainError, Record, batch_evaluator, residual_check,
    worst_sample,
)

__all__ = [
    "SectionGrid",
    "SectionIntegrationError",
    "check_integrability",
    "integrate_section",
    "verify_law_divergence",
    "export_grid_csv",
]

COMMUTATION_TOLERANCE = 1e-8
DIVERGENCE_TOLERANCE = 1e-8


class SectionIntegrationError(RuntimeError):
    """A flow left the expression domain or blew up mid-integration."""


class SectionGrid(Record, eq=False):
    """A rectangular grid of section values psi(t), including t = 0."""

    def __init__(self, chart: ChartSpace, origin: np.ndarray, ranges: tuple[float, ...],
                 steps: tuple[float, ...], axes: tuple[np.ndarray, ...], values: np.ndarray):
        self._set(chart=chart, origin=origin, ranges=ranges, steps=steps, axes=axes, values=values)

    @property
    def k(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[:-1]


def check_integrability(
    X: KVectorField, points, tolerance: float = COMMUTATION_TOLERANCE
) -> Check:
    """Max over samples of |[X_A, X_B]| components, A < B."""
    k = len(X)
    brackets = [lie_bracket(X[a], X[b]) for a in range(k) for b in range(a + 1, k)]
    residuals = max_abs((c for br in brackets for c in br.components), points)
    return residual_check("commutation", residuals, points, tolerance)


def _per_axis(value, k: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * k
    out = tuple(float(v) for v in value)
    if len(out) != k:
        raise ValueError(f"expected {k} {name} entries, got {len(out)}")
    return out


def _rk4_step(kernels, P: np.ndarray, h: float, strict: bool) -> np.ndarray:
    """One classical RK4 step of size h from every row of the (L, N) array P."""
    def F(Q):
        return np.stack([kern(Q, strict=strict) for kern in kernels], axis=-1)
    k1 = F(P)
    k2 = F(P + (h / 2.0) * k1)
    k3 = F(P + (h / 2.0) * k2)
    k4 = F(P + h * k3)
    return P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(kernels, lines: np.ndarray, h: float, axis_label: str) -> None:
    """Fill lines[1:] from lines[0] (an (m+1, L, N) view), all L lines at once.

    Non-finite values propagate silently and stop their line.  The
    lowest-index stopped line replays that one step on the strict path, so
    the error names the line a line-by-line march reaches first, with the
    scalar evaluator's reason and subexpression.
    """
    alive = np.arange(lines.shape[1])
    failed_at = np.full(lines.shape[1], -1)
    with np.errstate(all="ignore"):
        for i in range(len(lines) - 1):
            new = _rk4_step(kernels, lines[i, alive], h, strict=False)
            ok = np.isfinite(new).all(axis=1)
            failed_at[alive[~ok]] = i
            alive = alive[ok]
            lines[i + 1, alive] = new[ok]
        if alive.size == lines.shape[1]:
            return
        line = int(np.argmax(failed_at >= 0))
        i = int(failed_at[line])
        p = lines[i, line]
        try:
            _rk4_step(kernels, p[None], h, strict=True)
        except EvaluationDomainError as err:
            raise SectionIntegrationError(
                f"flow along {axis_label} left the domain at t={i * h + h:.6g}, "
                f"point {p}: {err}"
            ) from err
    raise SectionIntegrationError(
        f"flow along {axis_label} diverged at t={(i + 1) * h:.6g}, point {p}"
    )


def integrate_section(X: KVectorField, origin, ranges, steps) -> SectionGrid:
    """Fill the section grid over [0, T_A] with spacing h_A per axis.

    Each T_A must be an integer multiple of h_A (to 1e-9 relative).  Where
    the fields do not commute the flow composition order matters:
    ``check_integrability`` on ``values.reshape(-1, N)`` tells.
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
        if not (0.0 < h[a] < np.inf and 0.0 <= T[a] < np.inf):
            raise ValueError("ranges must be finite and nonnegative, steps finite and positive")
        if not T[a] / h[a] < np.inf:
            raise ValueError(f"axis {a + 1}: range {T[a]} over step {h[a]} overflows")
        m = int(round(T[a] / h[a])) if T[a] else 0
        if abs(m * h[a] - T[a]) > 1e-9 * max(1.0, abs(T[a])):
            raise ValueError(
                f"axis {a + 1}: range {T[a]} is not an integer multiple of step {h[a]}"
            )
        counts.append(m)

    shape = tuple(m + 1 for m in counts)
    values = np.empty(shape + (chart.dimension,))
    values[(0,) * k] = origin

    # march the innermost flow first; every node already filled along the
    # later axes starts one line of the next axis out
    for a in range(k - 1, -1, -1):
        kernels = [batch_evaluator(c) for c in X[a].components]
        lines = values[(0,) * a].reshape(shape[a], -1, chart.dimension)
        _march(kernels, lines, h[a], f"axis {a + 1}")

    axes = tuple(np.arange(m + 1) * h[a] for a, m in enumerate(counts))
    return SectionGrid(chart=chart, origin=origin, ranges=T, steps=h, axes=axes, values=values)


def verify_law_divergence(
    law: ConservationLaw, grid: SectionGrid, tolerance: float = DIVERGENCE_TOLERANCE
) -> Check:
    """Max over interior nodes of |sum_A d(Phi_A o psi)/dt^A|.

    Derivatives are second-order central differences per axis, so a true
    conservation law leaves a residual of order h^2; the implied constant
    is reported as scale_constant = residual / max(h)^2, beside the grid
    times witness_t of the witness node.
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
    phi = law.evaluate(flat).reshape((k,) + shape)

    total = np.zeros(tuple(m - 2 for m in shape))
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite Phi is a verdict
        for A in range(k):
            upper = tuple(slice(2, None) if a == A else slice(1, -1) for a in range(k))
            lower = tuple(slice(0, -2) if a == A else slice(1, -1) for a in range(k))
            total += (phi[A][upper] - phi[A][lower]) / (2.0 * grid.steps[A])

    residual = np.abs(total)
    top, at = worst_sample(residual.ravel())
    node = tuple(int(i) + 1 for i in np.unravel_index(at, residual.shape))
    return Check(
        "divergence",
        top <= tolerance,
        top,
        tolerance,
        grid.values[node],
        {
            "scale_constant": top / max(grid.steps) / max(grid.steps),  # h^2 may underflow
            "witness_t": [float(grid.axes[a][node[a]]) for a in range(k)],
        },
    )


def export_grid_csv(grid: SectionGrid, target) -> None:
    """Write the grid row-major: columns t_1..t_k then the chart coordinates.

    ``target`` is a path (str, bytes or path-like) or an open text file.
    A path is opened here: given one, ``np.savetxt`` would load numpy's
    compressed-file openers, and write gzip to a name ending in ``.gz``.
    """
    if isinstance(target, (str, bytes, os.PathLike)):
        with open(target, "w", encoding="utf-8") as fh:
            return export_grid_csv(grid, fh)
    header = [f"t_{a + 1}" for a in range(grid.k)] + list(grid.chart.coordinate_names)
    times = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1)
    rows = np.concatenate([times, grid.values], axis=-1).reshape(-1, len(header))
    np.savetxt(target, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
