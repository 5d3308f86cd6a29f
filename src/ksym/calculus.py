"""Exterior calculus in coordinates: scalar and vector fields, sparse
alternating forms, Lie brackets and derivatives, and quadrature-backed
potentials of exact one-forms.

Forms are stored sparsely as maps from strictly increasing index tuples to
coefficient expressions; wedge products and evaluations expand permutation
signs on demand.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expr import (
    ChartSpace,
    Expression,
    Num,
    batch_evaluator,
    compiled_evaluator,
    make_add,
    make_mul,
    make_neg,
    sample_points,
    to_source,
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
    "two_form",
    "zero_form",
    "coordinate_differential",
    "coordinate_vector_field",
    "zero_vector_field",
    "form_add",
    "form_neg",
    "form_sub",
    "wedge",
    "apply_form",
    "two_form_matrix",
    "directional_derivative",
    "lie_bracket",
    "exterior_derivative",
    "interior_product",
    "lie_derivative_form",
    "lie_derivative_scalar",
    "PotentialEvaluator",
    "potential_of_exact_one_form",
]


class ChartMismatchError(ValueError):
    """Operands live on different chart spaces."""


class ClosednessError(ValueError):
    """A one-form failed the exactness precondition d(alpha) = 0."""

    def __init__(self, max_residual: float, witness):
        super().__init__(
            f"one-form is not closed: max |d alpha| = {max_residual:.3e} at {list(witness)}"
        )
        self.max_residual = max_residual
        self.witness = np.asarray(witness, dtype=float)


def _one_row(point) -> np.ndarray:
    return np.asarray(point, dtype=float)[None]


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


@dataclass(frozen=True)
class ScalarField:
    """A real-valued function of the chart coordinates."""

    chart: ChartSpace
    expr: Expression

    def __post_init__(self):
        validate_on_chart(self.expr, self.chart)

    def evaluate(self, point) -> float:
        return float(self.evaluate_batch(_one_row(point))[0])

    def evaluate_batch(self, points) -> np.ndarray:
        return batch_evaluator(self.expr)(points)

    def differentiate(self, coordinate: str | int) -> "ScalarField":
        if isinstance(coordinate, str):
            coordinate = self.chart.index_of(coordinate)
        return ScalarField(self.chart, self.expr.diff(coordinate))

    def __str__(self):
        return to_source(self.expr)


@dataclass(frozen=True)
class VectorField:
    """A vector field written in the coordinate frame; one component per
    chart coordinate."""

    chart: ChartSpace
    components: tuple[Expression, ...]

    def __post_init__(self):
        if len(self.components) != self.chart.dimension:
            raise ValueError(
                f"expected {self.chart.dimension} components, got {len(self.components)}"
            )
        for comp in self.components:
            validate_on_chart(comp, self.chart)

    def evaluate(self, point) -> np.ndarray:
        return self.evaluate_batch(_one_row(point))[0]

    def evaluate_batch(self, points) -> np.ndarray:
        """Component values at each point, shape (m, N)."""
        return np.stack([batch_evaluator(c)(points) for c in self.components], axis=-1)

    def apply_to(self, f: Expression) -> Expression:
        """Directional derivative X(f) as an expression."""
        return directional_derivative(self, f)

    def is_zero(self) -> bool:
        return all(isinstance(c, Num) and c.value == 0.0 for c in self.components)

    def __str__(self):
        names = self.chart.coordinate_names
        parts = [
            f"({to_source(c)}) d/d{names[i]}"
            for i, c in enumerate(self.components)
            if not (isinstance(c, Num) and c.value == 0.0)
        ]
        return " + ".join(parts) if parts else "0"


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


def lie_derivative_scalar(X: VectorField, f: ScalarField) -> ScalarField:
    _same_chart(X, f)
    return ScalarField(f.chart, directional_derivative(X, f.expr))


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


@dataclass(frozen=True)
class PForm:
    """Sparse alternating p-form.  Components are keyed by strictly
    increasing coordinate-index tuples; degree 0 uses the empty key."""

    chart: ChartSpace
    degree: int
    components: dict

    def __post_init__(self):
        # degrees above the chart dimension are allowed but force the zero
        # form: no strictly increasing key of that length exists
        if self.degree < 0:
            raise ValueError(f"negative degree {self.degree}")
        cleaned = {}
        for key, expr in self.components.items():
            key = tuple(int(i) for i in key)
            if len(key) != self.degree:
                raise ValueError(f"key {key} has wrong length for degree {self.degree}")
            if any(not 0 <= i < self.chart.dimension for i in key):
                raise ValueError(f"key {key} out of coordinate range")
            if any(key[a] >= key[a + 1] for a in range(len(key) - 1)):
                raise ValueError(f"key {key} is not strictly increasing")
            validate_on_chart(expr, self.chart)
            if not _is_zero_expr(expr):
                cleaned[key] = expr
        object.__setattr__(self, "components", cleaned)

    def component(self, *key: int) -> Expression:
        return self.components.get(tuple(key), Num(0.0))

    def is_zero(self) -> bool:
        return not self.components

    def max_component_at(self, point) -> float:
        return float(self.max_abs(_one_row(point))[0])

    def max_abs(self, points) -> np.ndarray:
        """Largest |component| at each point; NaN wherever any component is NaN."""
        return max_abs(self.components.values(), points)

    def __add__(self, other):
        return form_add(self, other)

    def __sub__(self, other):
        return form_sub(self, other)

    def __neg__(self):
        return form_neg(self)

    def __str__(self):
        if not self.components:
            return "0"
        names = self.chart.coordinate_names
        parts = []
        for key, expr in sorted(self.components.items()):
            basis = " ^ ".join(f"d{names[i]}" for i in key)
            text = to_source(expr)
            parts.append(f"({text}) {basis}" if basis else text)
        return " + ".join(parts)


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


def two_form(chart: ChartSpace, components: Mapping[tuple[int, int], Expression]) -> PForm:
    """Build a 2-form from possibly unsorted index pairs, folding signs."""
    acc: dict[tuple[int, int], list[Expression]] = {}
    for (i, j), expr in components.items():
        if i == j:
            continue
        if i < j:
            acc.setdefault((i, j), []).append(expr)
        else:
            acc.setdefault((j, i), []).append(make_neg(expr))
    return PForm(chart, 2, {key: make_add(*exprs) for key, exprs in acc.items()})


def coordinate_differential(chart: ChartSpace, coordinate: str | int) -> PForm:
    if isinstance(coordinate, str):
        coordinate = chart.index_of(coordinate)
    return PForm(chart, 1, {(coordinate,): Num(1.0)})


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


def _merge_sign(left: tuple[int, ...], right: tuple[int, ...]):
    """Sort the concatenation of two increasing tuples; None if indices repeat."""
    merged = list(left + right)
    if len(set(merged)) != len(merged):
        return None, 0
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(merged)):
        j = i
        while j > 0 and merged[j - 1] > merged[j]:
            merged[j - 1], merged[j] = merged[j], merged[j - 1]
            sign = -sign
            j -= 1
    return tuple(merged), sign


def wedge(a: PForm, b: PForm) -> PForm:
    chart = _same_chart(a, b)
    degree = a.degree + b.degree
    acc: dict[tuple[int, ...], list[Expression]] = {}
    for ka, ea in a.components.items():
        for kb, eb in b.components.items():
            key, sign = _merge_sign(ka, kb)
            if key is None:
                continue
            term = make_mul(ea, eb)
            acc.setdefault(key, []).append(term if sign > 0 else make_neg(term))
    return PForm(chart, degree, {k: make_add(*v) for k, v in acc.items()})


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
    for (i, j), expr in omega.components.items():
        value = compiled_evaluator(expr)(point)
        W[i, j] += value
        W[j, i] -= value
    return W


# ---------------------------------------------------------------------------
# potentials of exact one-forms
# ---------------------------------------------------------------------------


class PotentialEvaluator:
    """Scalar potential g with dg = alpha along radial segments from a base
    point, computed with fixed-order Gauss-Legendre quadrature.

    g(q) = integral_0^1 alpha_{base + t (q - base)} (q - base) dt, so
    g(base) = 0 by construction.
    """

    def __init__(self, alpha: PForm, base_point, nodes: int = 64):
        if alpha.degree != 1:
            raise ValueError("potential is defined for one-forms")
        self.alpha = alpha
        self.base_point = np.asarray(base_point, dtype=float)
        if self.base_point.shape != (alpha.chart.dimension,):
            raise ValueError("base point has wrong dimension")
        ts, ws = np.polynomial.legendre.leggauss(nodes)
        self._ts = 0.5 * (ts + 1.0)
        self._ws = 0.5 * ws
        self._comps = [(key[0], batch_evaluator(expr)) for key, expr in alpha.components.items()]

    def evaluate(self, point) -> float:
        return float(self.evaluate_batch(_one_row(point))[0])

    def evaluate_batch(self, points) -> np.ndarray:
        delta = np.asarray(points, dtype=float) - self.base_point
        total = np.zeros(len(delta))
        for t, w in zip(self._ts, self._ws):
            x = self.base_point + t * delta
            pairing = 0.0
            for idx, fn in self._comps:
                pairing = pairing + fn(x) * delta[:, idx]
            total += w * pairing
        return total

    __call__ = evaluate


def potential_of_exact_one_form(
    alpha: PForm,
    base_point,
    *,
    samples: int = 64,
    seed: int = 42,
    halfwidth: float = 1.0,
    tolerance: float = 1e-8,
    nodes: int = 64,
) -> PotentialEvaluator:
    """Poincare-lemma potential of a closed one-form.

    Closedness of ``alpha`` is tested at seeded sample points first; the
    maximal component of d(alpha) above ``tolerance`` raises
    ``ClosednessError`` with the worst offending point.
    """
    if alpha.degree != 1:
        raise ValueError("expected a one-form")
    d_alpha = exterior_derivative(alpha)
    if not d_alpha.is_zero():
        pts = sample_points(
            alpha.chart,
            count=samples,
            seed=seed,
            halfwidth=halfwidth,
            require=list(alpha.components.values()) + list(d_alpha.components.values()),
        )
        worst, at = worst_sample(d_alpha.max_abs(pts))
        if not worst <= tolerance:
            raise ClosednessError(worst, pts[at])
    return PotentialEvaluator(alpha, base_point, nodes=nodes)
