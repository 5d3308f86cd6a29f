"""Exterior calculus in coordinates: scalar and vector fields, sparse
alternating forms, Lie brackets and derivatives, and quadrature-backed
potentials of exact one-forms.

Forms are stored sparsely as maps from strictly increasing index tuples to
coefficient expressions; contraction is iterated interior products.
Fields and potentials ``evaluate``, forms ``max_component_at``, an (m, N)
array of chart points: one row per point is the only evaluation path.
Each residual family (a bracket's components, a form's coefficients, a
law's terms) is one kernel run reduced by ``max_abs``, and ``verdict`` is
the one sampled ``Check`` on a family; a family that reads no coordinate
runs on one row.
Every field and form, given or derived, is built by its public constructor,
which checks each expression's coordinate set against the chart without a walk.
"""

from __future__ import annotations

import functools
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import (
    ChartSpace,
    Check,
    Expression,
    Num,
    Record,
    field_evaluator,
    gradient,
    make_add,
    make_mul,
    make_neg,
    validate_on_chart,
    worst_sample,
)

__all__ = [
    "ChartMismatchError",
    "ClosednessError",
    "ScalarField",
    "VectorField",
    "PForm",
    "scalar_form",
    "one_form",
    "form_add",
    "form_neg",
    "form_sub",
    "apply_form",
    "two_form_matrix",
    "directional_derivative",
    "lie_bracket",
    "exterior_derivative",
    "interior_product",
    "lie_derivative_form",
    "PotentialEvaluator",
    "potential_of_exact_one_form",
    "verdict",
]


class ChartMismatchError(ValueError):
    """Operands live on different chart spaces."""


class ClosednessError(ValueError):
    """A one-form failed the exactness precondition d(alpha) = 0."""

    def __init__(self, max_residual: float, witness):
        super().__init__(
            f"one-form is not closed: max |d alpha| = {max_residual:.3e} at "
            f"{[float(x) for x in witness]}"
        )
        self.max_residual = max_residual
        self.witness = np.asarray(witness, dtype=float)


def _rows_read(exprs: Sequence[Expression], points):
    """``points``, or only its first row when no expression of ``exprs``
    reads a coordinate: such a family has the same values at every point."""
    return points if any(e._coords for e in exprs) else points[:1]


def max_abs(exprs: Iterable[Expression], points, summed: bool = False) -> np.ndarray:
    """The largest |e| over the family ``exprs`` (0 if empty) at each of the
    (m, N) points, in place on the values of one kernel run, or with
    ``summed`` |sum of the values| in family order; NaN propagates, so no
    NaN ever passes a tolerance.  A family that reads no coordinate runs on
    the first row, and its value is repeated m times."""
    exprs = tuple(exprs)
    rows = _rows_read(exprs, points)
    values = field_evaluator(exprs)(rows)
    if summed:
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is a NaN residual
            top = np.abs(values.sum(axis=1))
    else:
        top = np.abs(values, out=values).max(axis=1, initial=0.0)
    return top if rows is points else np.repeat(top, len(points))


def verdict(kind: str, family: Iterable[Expression], points, tolerance: float,
            summed: bool = False) -> Check:
    """The sampled check that the residual ``family`` vanishes: holds iff its
    ``max_abs`` (``summed`` as there) is within ``tolerance`` at every one of
    the (m, N) points, never on NaN; the witness is the first worst point.
    No point raises ``ValueError``: a check over none would prove nothing."""
    if not len(points):
        raise ValueError(f"{kind} needs at least one sample point, got none")
    top, at = worst_sample(max_abs(family, points, summed))
    return Check(kind, top <= tolerance, top, tolerance, points[at])


def _same_chart(*operands) -> ChartSpace:
    """The one chart of ``operands``, each a chart or an object on one; the
    first that differs raises ``ChartMismatchError``."""
    chart, *rest = (op if isinstance(op, ChartSpace) else op.chart for op in operands)
    for other in rest:
        if other != chart:
            raise ChartMismatchError(
                f"chart mismatch: {other.kind}({other.n},{other.k}) vs "
                f"{chart.kind}({chart.n},{chart.k})"
            )
    return chart


def _is_zero_expr(e: Expression) -> bool:
    return isinstance(e, Num) and e.value == 0.0


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


class ScalarField(Record):
    """A real-valued function of the chart coordinates."""

    def __init__(self, chart: ChartSpace, expr: Expression):
        validate_on_chart(expr, chart)
        self._set(chart=chart, expr=expr)

    def evaluate(self, points) -> np.ndarray:
        """Values at each of the (m, N) points, shape (m,)."""
        return field_evaluator((self.expr,))(points)[:, 0]


class VectorField(Record):
    """A vector field written in the coordinate frame; one component per
    chart coordinate, held as a tuple, which also keys the field's kernel."""

    def __init__(self, chart: ChartSpace, components: tuple[Expression, ...]):
        components = tuple(components)
        if len(components) != chart.dimension:
            raise ValueError(f"expected {chart.dimension} components, got {len(components)}")
        for comp in components:
            validate_on_chart(comp, chart)
        self._set(chart=chart, components=components)

    def evaluate(self, points) -> np.ndarray:
        """Component values at each of the (m, N) points, shape (m, N), from
        one run of the field's kernel."""
        return field_evaluator(self.components)(points)


def directional_derivative(X: VectorField, f: Expression) -> Expression:
    """X(f) = sum_i X^i d_i f, from the memoized ``gradient`` of f."""
    return make_add(*[make_mul(X.components[index], partial)
                      for index, partial in gradient(f).items()
                      if not _is_zero_expr(X.components[index])])


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y]^j = X(Y^j) - Y(X^j), by ``directional_derivative``
    on the memoized ``gradient`` of each component."""
    chart = _same_chart(X, Y)
    comps = tuple(make_add(directional_derivative(X, y), make_neg(directional_derivative(Y, x)))
                  for x, y in zip(X.components, Y.components))
    return VectorField(chart, comps)


# ---------------------------------------------------------------------------
# alternating forms
# ---------------------------------------------------------------------------


class PForm(Record):
    """Sparse alternating p-form.  Components are keyed by strictly
    increasing coordinate-index tuples; degree 0 uses the empty key."""

    def __init__(self, chart: ChartSpace, degree: int, components: dict):
        # degrees above the chart dimension are allowed but force the zero
        # form: no strictly increasing key of that length exists
        if degree < 0:
            raise ValueError(f"negative degree {degree}")
        cleaned = {}
        for key, expr in components.items():
            key = tuple(int(i) for i in key)
            if len(key) != degree:
                raise ValueError(f"key {key} has wrong length for degree {degree}")
            if any(not 0 <= i < chart.dimension for i in key):
                raise ValueError(f"key {key} out of coordinate range")
            if any(key[a] >= key[a + 1] for a in range(len(key) - 1)):
                raise ValueError(f"key {key} is not strictly increasing")
            validate_on_chart(expr, chart)
            if not _is_zero_expr(expr):
                cleaned[key] = expr
        self._set(chart=chart, degree=degree, components=cleaned)

    def component(self, *key: int) -> Expression:
        return self.components.get(tuple(key), Num(0.0))

    def is_zero(self) -> bool:
        return not self.components

    def max_component_at(self, points) -> np.ndarray:
        """Largest |component| at each of the (m, N) points; NaN where one is NaN."""
        return max_abs(self.components.values(), points)


def _collect(chart: ChartSpace, degree: int, pairs: Iterable[tuple]) -> PForm:
    """The degree-``degree`` form whose component at each key, in order of first
    appearance, is the ``make_add`` of the terms of the (key, term) ``pairs``."""
    acc: dict[tuple[int, ...], list[Expression]] = {}
    for key, term in pairs:
        acc.setdefault(key, []).append(term)
    return PForm(chart, degree, {key: make_add(*terms) for key, terms in acc.items()})


def scalar_form(f: ScalarField) -> PForm:
    return PForm(f.chart, 0, {(): f.expr})


def one_form(chart: ChartSpace, components: Mapping[int, Expression] | Sequence[Expression]) -> PForm:
    if isinstance(components, Mapping):
        comp = {(int(i),): e for i, e in components.items()}
    else:
        comp = {(i,): e for i, e in enumerate(components)}
    return PForm(chart, 1, comp)


def form_add(a: PForm, b: PForm) -> PForm:
    chart = _same_chart(a, b)
    if a.degree != b.degree:
        raise ValueError(f"cannot add forms of degree {a.degree} and {b.degree}")
    return _collect(chart, a.degree, [*a.components.items(), *b.components.items()])


def form_neg(a: PForm) -> PForm:
    return PForm(a.chart, a.degree, {k: make_neg(e) for k, e in a.components.items()})


def form_sub(a: PForm, b: PForm) -> PForm:
    return form_add(a, form_neg(b))


def exterior_derivative(omega: PForm) -> PForm:
    """d(omega); satisfies d(d(omega)) = 0 up to roundoff in evaluation."""
    pairs = []
    for key, expr in omega.components.items():
        for j, deriv in gradient(expr).items():
            if j in key:
                continue
            term = deriv if sum(i < j for i in key) % 2 == 0 else make_neg(deriv)
            pairs.append((tuple(sorted(key + (j,))), term))
    return _collect(omega.chart, omega.degree + 1, pairs)


def interior_product(X: VectorField, omega: PForm) -> PForm:
    """Contraction i_X(omega) in the first slot."""
    chart = _same_chart(X, omega)
    if omega.degree == 0:
        raise ValueError("cannot contract a 0-form")
    pairs = []
    for key, expr in omega.components.items():
        for pos, idx in enumerate(key):
            comp = X.components[idx]
            if _is_zero_expr(comp):
                continue
            rest = key[:pos] + key[pos + 1:]
            term = make_mul(comp, expr)
            pairs.append((rest, term if pos % 2 == 0 else make_neg(term)))
    return _collect(chart, omega.degree - 1, pairs)


def lie_derivative_form(X: VectorField, omega: PForm) -> PForm:
    """L_X omega by the coordinate formula for a covariant tensor (Lee,
    *Introduction to Smooth Manifolds*, 2nd ed., ch. 12):

        (L_X omega)_I = X(omega_I) + sum_r sum_j omega_{I with I_r -> j} d_{I_r} X^j,

    X(f) on a 0-form.  Each stored omega_K gives, per position r and nonzero
    d_j X^{K_r}, the term omega_K d_j X^{K_r} to the component K with K_r := j,
    re-sorted with the sign of the sort (none when j repeats an index of K).
    It takes no d, so no d(d(...)) is built to cancel only when evaluated."""
    chart = _same_chart(X, omega)
    pairs = []
    for key, expr in omega.components.items():
        pairs.append((key, directional_derivative(X, expr)))
        for r, i in enumerate(key):
            rest = key[:r] + key[r + 1:]
            for j, partial in gradient(X.components[i]).items():
                if j in rest:  # a repeated index: zero in an alternating form
                    continue
                at = sum(k < j for k in rest)  # the sort moves j from position r to at
                term = make_mul(expr, partial)
                pairs.append((rest[:at] + (j,) + rest[at:],
                              term if (r - at) % 2 == 0 else make_neg(term)))
    return _collect(chart, omega.degree, pairs)


def apply_form(omega: PForm, fields: Sequence[VectorField]) -> Expression:
    """Symbolic full contraction omega(V_1, ..., V_p) = i_{V_p} ... i_{V_1} omega."""
    if len(fields) != omega.degree:
        raise ValueError(f"degree-{omega.degree} form applied to {len(fields)} fields")
    for V in fields:
        omega = interior_product(V, omega)
    return omega.component()


def two_form_matrix(omega: PForm, point) -> np.ndarray:
    """The antisymmetric coefficient matrix W with omega = sum W_ij dx^i (x) dx^j."""
    if omega.degree != 2:
        raise ValueError("expected a 2-form")
    dim = omega.chart.dimension
    W = np.zeros((dim, dim))
    row = np.asarray(point, dtype=float)[None]
    values = field_evaluator(tuple(omega.components.values()))(row)[0]
    for (i, j), value in zip(omega.components, values):
        W[i, j] += value
        W[j, i] -= value
    return W


# ---------------------------------------------------------------------------
# potentials of exact one-forms
# ---------------------------------------------------------------------------


QUADRATURE_NODES = 64


class PotentialEvaluator:
    """Scalar potential g with dg = alpha along radial segments from a base
    point, computed with ``QUADRATURE_NODES``-point Gauss-Legendre quadrature.

    g(q) = integral_0^1 alpha_{base + t (q - base)} (q - base) dt, so
    g(base) = 0 by construction.  The nodes and the component kernels are
    built on the first evaluation, so a potential that is never evaluated
    costs nothing.
    """

    def __init__(self, alpha: PForm, base_point):
        if alpha.degree != 1:
            raise ValueError("potential is defined for one-forms")
        self.alpha = alpha
        self.base_point = np.asarray(base_point, dtype=float)
        if self.base_point.shape != (alpha.chart.dimension,):
            raise ValueError("base point has wrong dimension")

    @functools.cached_property
    def _quadrature(self) -> tuple:
        """(nodes on [0, 1], their weights, component indices, their kernel)."""
        ts, ws = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
        indices = [key[0] for key in self.alpha.components]
        kernel = field_evaluator(tuple(self.alpha.components.values()))
        return 0.5 * (ts + 1.0), 0.5 * ws, indices, kernel

    def evaluate(self, points) -> np.ndarray:
        """g at each of the (m, N) points, shape (m,); one kernel run a node."""
        ts, ws, indices, kernel = self._quadrature
        delta = np.asarray(points, dtype=float) - self.base_point
        total = np.zeros(len(delta))
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite alpha gives NaN or inf
            for t, w in zip(ts, ws):
                values = kernel(self.base_point + t * delta)
                total += w * sum(values[:, j] * delta[:, idx] for j, idx in enumerate(indices))
        return total


def potential_of_exact_one_form(
    alpha: PForm, base_point, points, tolerance: float = 1e-8
) -> PotentialEvaluator:
    """Poincare-lemma potential of a closed one-form.

    Closedness of ``alpha`` is tested at the (m, N) ``points`` first; the
    maximal component of d(alpha) above ``tolerance`` (or NaN) raises
    ``ClosednessError`` with the worst offending point.
    """
    if alpha.degree != 1:
        raise ValueError("expected a one-form")
    d_alpha = exterior_derivative(alpha)
    if not d_alpha.is_zero():
        worst, at = worst_sample(d_alpha.max_component_at(points))
        if not worst <= tolerance:
            raise ClosednessError(worst, points[at])
    return PotentialEvaluator(alpha, base_point)
