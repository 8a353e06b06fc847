"""Betti numbers against closed-form Poincaré series.

The primitive degrees come from each algebra's known type, not from
primitive_basis: su(2) and sl(2) are of type A1 with one primitive of
degree 3, su(2)⊕su(2) has two, sl(3) (type A2) has primitives of degrees 3
and 5, u(2) = u(1)⊕su(2) has one of degree 1 and one of degree 3, and the
abelian algebra of dimension n has n primitives of degree 1.  A primitive of degree p = 2m - 1 transgresses to
an invariant polynomial generator of degree 2m, so

    H((Λg*)^g)              = ∏ (1 + t^{p_i}),
    H(Cartan model of Q)    = ∏ 1 / (1 - t^{p_i + 1}).
"""

import pytest

from koszul.complexes import Truncation, cohomology
from koszul.equivariant import cartan_model, invariant_subcomplex
from koszul.lie import builtin_algebra
from koszul.modules import exterior_model, trivial_module

PRIMITIVE_DEGREES = {
    "abelian:0": (),
    "su2": (3,),
    "sl2": (3,),
    "su2xsu2": (3, 3),
    "sl3": (3, 5),
    "u2": (1, 3),
    "abelian:1": (1,),
    "abelian:2": (1, 1),
    "abelian:3": (1, 1, 1),
}


def series(factors, top):
    """Coefficients of t^0..t^top of a product of power series given as lists."""
    coeffs = [1] + [0] * top
    for f in factors:
        coeffs = [sum(f[j] * coeffs[i - j] for j in range(min(i, len(f) - 1) + 1))
                  for i in range(top + 1)]
    return coeffs


@pytest.mark.parametrize("name", sorted(PRIMITIVE_DEGREES))
def test_invariant_exterior_poincare_polynomial(name):
    g = builtin_algebra(name)
    prims = PRIMITIVE_DEGREES[name]
    top = sum(prims)
    assert top == g.dim  # the primitive degrees of a reductive algebra add up to its dimension
    inv = invariant_subcomplex(exterior_model(g))
    betti = cohomology(inv.complex, Truncation(top + 1)).betti
    expected = series([[1] + [0] * (p - 1) + [1] for p in prims], top)
    assert [betti[m] for m in range(top + 1)] == expected


@pytest.mark.parametrize("name,N", [
    ("su2", 9), ("sl2", 9), ("su2xsu2", 9), ("abelian:0", 4), ("abelian:1", 7), ("abelian:2", 7), ("abelian:3", 6),
    ("sl3", 8), ("u2", 8),
])
def test_cartan_trivial_poincare_series(name, N):
    g = builtin_algebra(name)
    A = cartan_model(trivial_module(g), Truncation(N))
    betti = cohomology(A.complex, Truncation(N)).betti
    geometric = [[1 if i % (p + 1) == 0 else 0 for i in range(N)] for p in PRIMITIVE_DEGREES[name]]
    expected = series(geometric, N - 1)
    assert [betti[m] for m in range(N)] == expected
