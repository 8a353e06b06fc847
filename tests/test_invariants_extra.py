"""Cross-module invariants that do not belong to a single component."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul.complexes import Truncation, cohomology
from koszul.duality import verify_duality
from koszul.equivariant import invariant_subcomplex
from koszul.lie import adjoint_matrices, builtin_algebra
from koszul.modules import (
    exterior_model,
    polynomial_forms_module,
    tensor_module,
    trivial_module,
    validate_kg,
    wedge_concat,
    wedge_normalize,
)
from koszul.weil import weil_model

Q = Fraction


def test_window_extension_keeps_certified_betti():
    su2 = builtin_algebra("su2")
    small = cohomology(weil_model(su2, Truncation(6)).complex, Truncation(6))
    large = cohomology(weil_model(su2, Truncation(7)).complex, Truncation(7))
    for d, b in small.betti.items():
        assert large.betti[d] == b


def test_exterior_complex_betti_su2():
    su2 = builtin_algebra("su2")
    rep = cohomology(exterior_model(su2).complex, Truncation(4))
    assert rep.betti == {0: 1, 1: 0, 2: 0, 3: 1}


def test_invariants_commute_with_cohomology_sl2():
    g = builtin_algebra("sl2")
    M = exterior_model(g)
    inv = invariant_subcomplex(M, with_actions=False)
    full = cohomology(M.complex, Truncation(4))
    sub = cohomology(inv.complex, Truncation(4))
    # L acts trivially on cohomology, so invariants-of-H equals H-of-invariants
    assert sub.betti == full.betti


# wider duality matrix, in windows sized to keep the run quick
WIDE_MATRIX = [
    ("sl2", "exterior", 8),
    ("su2xsu2", "trivial", 4),
    ("abelian1", "forms", 4),
    ("abelian2", "tensor", 5),
    ("su2", "tensor", 6),
]


@pytest.mark.parametrize("name,kind,N", WIDE_MATRIX)
def test_duality_matrix_extra(name, kind, N):
    g = builtin_algebra(name)
    if kind == "exterior":
        M = exterior_model(g)
    elif kind == "trivial":
        M = trivial_module(g)
    elif kind == "forms":
        _, coad = adjoint_matrices(g)
        M = polynomial_forms_module(g, coad, poly_degree=1)
    elif kind == "tensor":
        ext = exterior_model(g)
        M = tensor_module(ext, ext)
    report, _ = verify_duality(M, Truncation(N))
    assert report.verdict, report.describe()
    assert report.betti_match


def test_negative_control_exact_defect():
    """With the naive lift, the chain defect on ξ⊗1 is d_W(1⊗ξ) − ξ~⊗1."""
    su2 = builtin_algebra("su2")
    report, comp = verify_duality(trivial_module(su2), Truncation(5),
                                  corrupt_transgression=True)
    assert not report.psi_chain.ok
    deg, label, defect = report.psi_chain.witness
    assert deg == 3
    # map the defect back to ambient W⊗M coordinates
    inv_vectors = comp.invariants.vectors[4].columns()
    dim = comp.product.space.dim(4)
    ambient = [Q(0)] * dim
    for c, v in zip(defect, inv_vectors):
        if c:
            for i, x in enumerate(v):
                ambient[i] += c * x
    alg = comp.weil.algebra
    wm_basis = comp.product.tensor.entries
    got = {}
    for i, c in enumerate(ambient):
        if c:
            w_deg, w_idx, r, im = wm_basis[4][i]
            got[alg.basis[w_deg][w_idx]] = c
    expected = {
        ((1, 0, 0), (1, 2)): Q(1),
        ((0, 1, 0), (0, 2)): Q(-1),
        ((0, 0, 1), (0, 1)): Q(1),
        ((2, 0, 0), ()): Q(-1, 2),
        ((0, 2, 0), ()): Q(-1, 2),
        ((0, 0, 2), ()): Q(-1, 2),
    }
    assert got == expected


@given(st.integers(1, 4))
@settings(max_examples=8, deadline=None)
def test_abelian_exterior_always_valid(n):
    g = builtin_algebra(f"abelian:{n}")
    assert validate_kg(exterior_model(g)).ok


@given(
    st.lists(st.integers(0, 5), min_size=0, max_size=3),
    st.lists(st.integers(0, 5), min_size=0, max_size=3),
    st.lists(st.integers(0, 5), min_size=0, max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_wedge_concat_associative(a, b, c):
    a, b, c = tuple(a), tuple(b), tuple(c)

    def then(first, rest):
        sign, mono = first
        if not sign:
            return (0, None)
        sign2, mono2 = rest(mono)
        return (sign * sign2, mono2) if sign2 else (0, None)

    left = then(wedge_concat(a, b), lambda ab: wedge_concat(ab, c))
    right = then(wedge_concat(b, c), lambda bc: wedge_concat(a, bc))
    assert left == right


def test_wedge_concat_graded_commutative():
    for a in [(0,), (0, 1), (2,)]:
        for b in [(1,), (1, 2), (3,)]:
            s1, m1 = wedge_concat(a, b)
            s2, m2 = wedge_concat(b, a)
            if s1 and s2:
                assert m1 == m2
                assert s1 == s2 * (-1) ** (len(a) * len(b))
