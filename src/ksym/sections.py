"""Integral sections of k-vector fields and divergence-form verification.

A section through p0 is built by composing the flows of the component
fields, innermost copy first:

    psi(t^1, ..., t^k) = Flow_{X_1}^{t^1} ( ... Flow_{X_k}^{t^k}(p0) ... )

Each flow runs classical fixed-step fourth-order Runge-Kutta, one step per
grid interval.  The grid is filled by marching the last axis first; every
node filled so far starts one line of the next axis, and all lines of an
axis advance together as one front, so each node is computed exactly once.
Each RK4 stage is one ``kernel.tape`` walk of the field's kernel over the
front, in the kernel's own row blocks, under one errstate per axis that
raises on division by zero, invalid operations and overflow.  A step that
raises or leaves a non-finite value is redone, with every later step, as
kernel runs, which stop the failing lines and name the first one's error.

For commuting component fields the composition order is immaterial up to
integration error; ``check_integrability`` is the commutation verdict, run
on a grid's nodes (or any points) to tell whether it is.  It and the
divergence of a law over a grid are each returned as one ``expr.Check``;
``export_grid_csv`` writes a grid with a single ``np.savetxt`` over the
stacked (t, values) rows.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np

from .calculus import _same_chart, lie_bracket, verdict
from .conservation import ConservationLaw
from .dynamics import KVectorField
from .expr import ChartSpace, Check, EvaluationDomainError, Record, field_evaluator, worst_sample

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
    """A grid of section values psi(t) over [0, T]^k with spacing ``step``,
    including t = 0: the origin is ``values[0, ..., 0]`` and every axis
    runs through ``times``."""

    def __init__(self, chart: ChartSpace, step: float, values: np.ndarray):
        self._set(chart=chart, step=step, values=values)

    @property
    def k(self) -> int:
        return self.values.ndim - 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape[:-1]

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.shape[0]) * self.step


def check_integrability(
    X: KVectorField, points, tolerance: float = COMMUTATION_TOLERANCE
) -> Check:
    """Max over samples of |[X_A, X_B]| components, A < B."""
    k = len(X)
    brackets = [lie_bracket(X[a], X[b]) for a in range(k) for b in range(a + 1, k)]
    return verdict("commutation", (c for br in brackets for c in br.components), points, tolerance)


def _rk4_step(field, P: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of size h from every row of the (L, N) array P,
    one call of ``field`` per stage."""
    k1 = field(P)
    k2 = field(P + (h / 2.0) * k1)
    k3 = field(P + (h / 2.0) * k2)
    k4 = field(P + h * k3)
    return P + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _march(exprs: tuple, lines: np.ndarray, h: float, axis_label: str) -> None:
    """Fill lines[1:] from lines[0] (an (m+1, L, N) view), all L lines at once.

    From the first step whose ``kernel.tape`` walks raise or leave a
    non-finite value on, the march runs the kernel itself: non-finite values
    stop their line, and the lowest-index stopped line replays that one step
    on the strict path, so the error names the line a line-by-line march
    reaches first, with the scalar evaluator's reason and subexpression.
    """
    kernel = field_evaluator(exprs)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for step in range(len(lines) - 1):
            try:
                new = _rk4_step(kernel.tape, lines[step], h)
            except FloatingPointError:
                break
            if np.count_nonzero(np.isfinite(new)) < new.size:  # cheaper than ``all``
                break
            lines[step + 1] = new
        else:
            return
    alive = np.arange(lines.shape[1])
    failed_at = np.full(lines.shape[1], -1)
    with np.errstate(all="ignore"):
        for i in range(step, len(lines) - 1):
            new = _rk4_step(partial(kernel, strict=False), lines[i, alive], h)
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
            _rk4_step(kernel, p[None], h)
        except EvaluationDomainError as err:
            raise SectionIntegrationError(
                f"flow along {axis_label} left the domain at t={i * h + h:.6g}, "
                f"point {p}: {err}"
            ) from err
    raise SectionIntegrationError(
        f"flow along {axis_label} diverged at t={(i + 1) * h:.6g}, point {p}"
    )


def integrate_section(X: KVectorField, origin, T: float, h: float) -> SectionGrid:
    """Fill the section grid over [0, T]^k with spacing h on every axis.

    T must be an integer multiple of h (to 1e-9 relative).  Where the
    fields do not commute the flow composition order matters:
    ``check_integrability`` on ``values.reshape(-1, N)`` tells.
    """
    chart = X.chart
    k = len(X)
    origin = np.asarray(origin, dtype=float)
    if origin.shape != (chart.dimension,):
        raise ValueError(
            f"origin has shape {origin.shape}, chart needs ({chart.dimension},)"
        )
    T, h = float(T), float(h)
    if not (0.0 < h < np.inf and 0.0 <= T < np.inf):
        raise ValueError("range must be finite and nonnegative, step finite and positive")
    if not T / h < np.inf:
        raise ValueError(f"range {T} over step {h} overflows")
    m = int(round(T / h)) if T else 0
    if abs(m * h - T) > 1e-9 * max(1.0, abs(T)):
        raise ValueError(f"range {T} is not an integer multiple of step {h}")

    shape = (m + 1,) * k
    values = np.empty(shape + (chart.dimension,))
    values[(0,) * k] = origin

    # march the innermost flow first; every node already filled along the
    # later axes starts one line of the next axis out
    for a in range(k - 1, -1, -1):
        lines = values[(0,) * a].reshape(m + 1, -1, chart.dimension)
        _march(X[a].components, lines, h, f"axis {a + 1}")
    return SectionGrid(chart=chart, step=h, values=values)


def verify_law_divergence(
    law: ConservationLaw, grid: SectionGrid, tolerance: float = DIVERGENCE_TOLERANCE
) -> Check:
    """Max over interior nodes of |sum_A d(Phi_A o psi)/dt^A|.

    Derivatives are second-order central differences per axis, so a true
    conservation law leaves a residual of order h^2; the implied constant
    is reported as scale_constant = residual / h^2, beside the grid
    times witness_t of the witness node.
    """
    _same_chart(grid, law)
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
            total += (phi[A][upper] - phi[A][lower]) / (2.0 * grid.step)

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
            "scale_constant": top / grid.step / grid.step,  # h^2 may underflow
            "witness_t": [float(grid.times[i]) for i in node],
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
    times = np.stack(np.meshgrid(*(grid.times,) * grid.k, indexing="ij"), axis=-1)
    rows = np.concatenate([times, grid.values], axis=-1).reshape(-1, len(header))
    np.savetxt(target, rows, fmt="%.17g", delimiter=",", header=",".join(header), comments="")
