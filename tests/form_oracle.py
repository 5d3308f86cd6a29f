"""Reference constructions that ``ksym.calculus`` is tested against.

* ``apply_form``: the permutation expansion of a full contraction, against
  iterated interior products.  omega(V_1, ..., V_p) = sum over keys I and
  permutations s of sign(s) omega_I V_1^{I_s(1)} ... V_p^{I_s(p)}, built
  symbolically term by term.
* ``lie_derivative_form``: Cartan's formula, L_X omega = i_X d omega +
  d(i_X omega), against the coordinate formula for a covariant tensor.
"""

from __future__ import annotations

import itertools

from ksym.calculus import exterior_derivative, form_add, interior_product
from ksym.expr import Num, make_add, make_mul, make_neg


def permutation_sign(perm) -> int:
    """+1 for an even permutation of range(len(perm)), -1 for an odd one."""
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


def apply_form(omega, fields):
    """omega(V_1, ..., V_p) as one sum over keys and permutations."""
    assert len(fields) == omega.degree
    if omega.degree == 0:
        return omega.component()
    terms = []
    for key, coeff in omega.components.items():
        for perm in itertools.permutations(range(len(key))):
            factors = [coeff] + [fields[row].components[key[col]] for row, col in enumerate(perm)]
            term = make_mul(*factors)
            terms.append(term if permutation_sign(perm) > 0 else make_neg(term))
    return make_add(*terms) if terms else Num(0.0)


def lie_derivative_form(X, omega):
    """L_X omega by Cartan's formula; i_X f = 0 on a 0-form, leaving i_X df = X(f)."""
    along = interior_product(X, exterior_derivative(omega))
    if omega.degree == 0:
        return along
    return form_add(along, exterior_derivative(interior_product(X, omega)))
