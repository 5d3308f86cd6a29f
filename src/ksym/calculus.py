"""Exterior calculus in coordinates: scalar and vector fields, sparse
alternating forms, Lie brackets and derivatives, and quadrature-backed
potentials of exact one-forms.

Forms are stored sparsely as maps from strictly increasing index tuples to
coefficient expressions; evaluations expand permutation signs on demand.
Fields and potentials ``evaluate``, forms ``max_component_at``, an (m, N)
array of chart points: one row per point is the only evaluation path.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import (
    ChartSpace,
    Expression,
    Num,
    Record,
    batch_evaluator,
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
    "zero_form",
    "coordinate_vector_field",
    "zero_vector_field",
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


def max_abs(exprs: Iterable[Expression], points) -> np.ndarray:
    """Running maximum of |e| over ``exprs`` at each of the (m, N) points,
    starting from 0; NaN propagates, so no NaN ever passes a tolerance."""
    points = np.asarray(points, dtype=float)
    out = np.zeros(len(points))
    for e in exprs:
        np.maximum(out, np.abs(batch_evaluator(e)(points)), out=out)
    return out


def _same_chart(*objects) -> ChartSpace:
    chart = objects[0].chart
    for obj in objects[1:]:
        if obj.chart != chart:
            raise ChartMismatchError(
                f"chart mismatch: {obj.chart.kind}({obj.chart.n},{obj.chart.k}) vs "
                f"{chart.kind}({chart.n},{chart.k})"
            )
    return chart


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
        return batch_evaluator(self.expr)(points)


class VectorField(Record):
    """A vector field written in the coordinate frame; one component per
    chart coordinate."""

    def __init__(self, chart: ChartSpace, components: tuple[Expression, ...]):
        if len(components) != chart.dimension:
            raise ValueError(f"expected {chart.dimension} components, got {len(components)}")
        for comp in components:
            validate_on_chart(comp, chart)
        self._set(chart=chart, components=components)

    def evaluate(self, points) -> np.ndarray:
        """Component values at each of the (m, N) points, shape (m, N)."""
        return np.stack([batch_evaluator(c)(points) for c in self.components], axis=-1)

    def is_zero(self) -> bool:
        return all(isinstance(c, Num) and c.value == 0.0 for c in self.components)


def zero_vector_field(chart: ChartSpace) -> VectorField:
    return VectorField(chart, tuple(Num(0.0) for _ in range(chart.dimension)))


def coordinate_vector_field(chart: ChartSpace, coordinate: str | int) -> VectorField:
    """The frame field d/d(coordinate)."""
    if isinstance(coordinate, str):
        coordinate = chart.index_of(coordinate)
    comps = [Num(0.0)] * chart.dimension
    comps[coordinate] = Num(1.0)
    return VectorField(chart, tuple(comps))


def vector_field_from_map(chart: ChartSpace, nonzero: Mapping[str, Expression]) -> VectorField:
    comps = [Num(0.0)] * chart.dimension
    for name, expr in nonzero.items():
        comps[chart.index_of(name)] = expr
    return VectorField(chart, tuple(comps))


def directional_derivative(X: VectorField, f: Expression) -> Expression:
    terms = []
    for index, comp in enumerate(X.components):
        if isinstance(comp, Num) and comp.value == 0.0:
            continue
        terms.append(make_mul(comp, f.diff(index)))
    return make_add(*terms) if terms else Num(0.0)


def lie_bracket(X: VectorField, Y: VectorField) -> VectorField:
    """Commutator [X, Y]^j = X(Y^j) - Y(X^j)."""
    chart = _same_chart(X, Y)
    comps = tuple(
        make_add(directional_derivative(X, Y.components[j]),
                 make_neg(directional_derivative(Y, X.components[j])))
        for j in range(chart.dimension)
    )
    return VectorField(chart, comps)


# ---------------------------------------------------------------------------
# alternating forms
# ---------------------------------------------------------------------------


def _is_zero_expr(e: Expression) -> bool:
    return isinstance(e, Num) and e.value == 0.0


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


def zero_form(chart: ChartSpace, degree: int) -> PForm:
    return PForm(chart, degree, {})


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
    keys = set(a.components) | set(b.components)
    comps = {}
    for key in keys:
        comps[key] = make_add(a.components.get(key, Num(0.0)), b.components.get(key, Num(0.0)))
    return PForm(chart, a.degree, comps)


def form_neg(a: PForm) -> PForm:
    return PForm(a.chart, a.degree, {k: make_neg(e) for k, e in a.components.items()})


def form_sub(a: PForm, b: PForm) -> PForm:
    return form_add(a, form_neg(b))


def exterior_derivative(omega: PForm) -> PForm:
    """d(omega); satisfies d(d(omega)) = 0 up to roundoff in evaluation."""
    chart = omega.chart
    acc: dict[tuple[int, ...], list[Expression]] = {}
    for key, expr in omega.components.items():
        for j in range(chart.dimension):
            if j in key:
                continue
            deriv = expr.diff(j)
            if _is_zero_expr(deriv):
                continue
            smaller = sum(1 for i in key if i < j)
            new_key = tuple(sorted(key + (j,)))
            term = deriv if smaller % 2 == 0 else make_neg(deriv)
            acc.setdefault(new_key, []).append(term)
    return PForm(chart, omega.degree + 1, {k: make_add(*v) for k, v in acc.items()})


def interior_product(X: VectorField, omega: PForm) -> PForm:
    """Contraction i_X(omega) in the first slot."""
    chart = _same_chart(X, omega)
    if omega.degree == 0:
        raise ValueError("cannot contract a 0-form")
    acc: dict[tuple[int, ...], list[Expression]] = {}
    for key, expr in omega.components.items():
        for pos, idx in enumerate(key):
            comp = X.components[idx]
            if _is_zero_expr(comp):
                continue
            rest = key[:pos] + key[pos + 1:]
            term = make_mul(comp, expr)
            acc.setdefault(rest, []).append(term if pos % 2 == 0 else make_neg(term))
    return PForm(chart, omega.degree - 1, {k: make_add(*v) for k, v in acc.items()})


def lie_derivative_form(X: VectorField, omega: PForm) -> PForm:
    """Cartan's identity L_X = i_X d + d i_X; reduces to X(f) on 0-forms."""
    _same_chart(X, omega)
    if omega.degree == 0:
        f = omega.components.get((), Num(0.0))
        return PForm(omega.chart, 0, {(): directional_derivative(X, f)})
    return form_add(
        interior_product(X, exterior_derivative(omega)),
        exterior_derivative(interior_product(X, omega)),
    )


def apply_form(omega: PForm, fields: Sequence[VectorField]) -> Expression:
    """Symbolic full contraction omega(V_1, ..., V_p)."""
    if len(fields) != omega.degree:
        raise ValueError(f"degree-{omega.degree} form applied to {len(fields)} fields")
    for f in fields:
        _same_chart(f, omega)
    if omega.degree == 0:
        return omega.components.get((), Num(0.0))
    terms = []
    for key, coeff in omega.components.items():
        for perm in itertools.permutations(range(len(key))):
            sign = _permutation_sign(perm)
            factors = [coeff]
            zero = False
            for row, col in enumerate(perm):
                comp = fields[row].components[key[col]]
                if _is_zero_expr(comp):
                    zero = True
                    break
                factors.append(comp)
            if zero:
                continue
            term = make_mul(*factors)
            terms.append(term if sign > 0 else make_neg(term))
    return make_add(*terms) if terms else Num(0.0)


def _permutation_sign(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def two_form_matrix(omega: PForm, point) -> np.ndarray:
    """The antisymmetric coefficient matrix W with omega = sum W_ij dx^i (x) dx^j."""
    if omega.degree != 2:
        raise ValueError("expected a 2-form")
    dim = omega.chart.dimension
    W = np.zeros((dim, dim))
    row = np.asarray(point, dtype=float)[None]
    for (i, j), expr in omega.components.items():
        value = batch_evaluator(expr)(row)[0]
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
        """(nodes on [0, 1], their weights, (index, kernel) per component)."""
        ts, ws = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
        comps = [(key[0], batch_evaluator(expr)) for key, expr in self.alpha.components.items()]
        return 0.5 * (ts + 1.0), 0.5 * ws, comps

    def evaluate(self, points) -> np.ndarray:
        """g at each of the (m, N) points, shape (m,)."""
        ts, ws, comps = self._quadrature
        delta = np.asarray(points, dtype=float) - self.base_point
        total = np.zeros(len(delta))
        for t, w in zip(ts, ws):
            x = self.base_point + t * delta
            pairing = 0.0
            for idx, fn in comps:
                pairing = pairing + fn(x) * delta[:, idx]
            total += w * pairing
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
