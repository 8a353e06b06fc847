from fractions import Fraction

import pytest

from koszul.complexes import Truncation
from koszul.lie import builtin_algebra
from koszul.transgression import (
    TransgressionError,
    distinguished_transgression,
    exterior_invariants,
    generation_check,
    primitive_basis,
)
from koszul.weil import weil_model

Q = Fraction


@pytest.fixture(scope="module")
def su2():
    return builtin_algebra("su2")


@pytest.fixture(scope="module")
def P_su2(su2):
    return primitive_basis(su2, Truncation(8))


@pytest.fixture(scope="module")
def T_su2(su2, P_su2):
    return distinguished_transgression(su2, P_su2, Truncation(8))


def test_primitives_su2(P_su2):
    assert [p.degree for p in P_su2.primitives] == [3]
    assert P_su2.primitives[0].coeffs == (Q(1),)  # i*∧j*∧k*


def test_primitives_abelian():
    g = builtin_algebra("abelian2")
    P = primitive_basis(g, Truncation(6))
    assert [p.degree for p in P.primitives] == [1, 1]


def test_primitives_su2xsu2():
    g = builtin_algebra("su2xsu2")
    P = primitive_basis(g, Truncation(8))
    assert [p.degree for p in P.primitives] == [3, 3]
    # degree 6 invariant space is one-dimensional and purely decomposable
    assert P.invariant_dims[6] == 1


def test_su2_transgression_golden(T_su2, su2):
    """ξ~ = (i*² + j*² + k*²)/2, pinned by the book lift ω."""
    entry = T_su2.entries[0]
    from koszul.modules import sym_monomials

    monos = sym_monomials(3, 2)
    got = {m: c for m, c in zip(monos, entry.xi_tilde) if c}
    assert got == {(2, 0, 0): Q(1, 2), (0, 2, 0): Q(1, 2), (0, 0, 2): Q(1, 2)}


def test_su2_book_lift_satisfies_conditions(su2, P_su2):
    """ω = 1⊗i*∧j*∧k* + (i*⊗i* + j*⊗j* + k*⊗k*)/2 passes (a),(b),(c)."""
    from koszul.transgression import _verify_entry, _lambda_inclusion_vector
    from koszul.equivariant import invariant_multivector_basis
    from koszul.modules import lambda_monomials

    W = weil_model(su2, Truncation(8))
    omega = {((0, 0, 0), (0, 1, 2)): Q(1)}
    for m in range(3):
        e = [0, 0, 0]
        e[m] = 1
        omega[(tuple(e), (m,))] = Q(1, 2)
    xi_tilde = []
    from koszul.modules import sym_monomials

    for mono in sym_monomials(3, 2):
        xi_tilde.append(Q(1, 2) if mono in ((2, 0, 0), (0, 2, 0), (0, 0, 2)) else Q(0))
    prim = P_su2.primitives[0]
    ops = []
    for mv in invariant_multivector_basis(su2):
        ops.append((mv, W.contraction_of_multivector(mv.coeffs, lambda_monomials(3, mv.degree))))
    xi_vec = _lambda_inclusion_vector(W, prim.coeffs, 3)
    _verify_entry(W, prim, omega, tuple(xi_tilde), ops, xi_vec)


def test_abelian_transgression_forced():
    g = builtin_algebra("abelian1")
    P = primitive_basis(g, Truncation(4))
    T = distinguished_transgression(g, P, Truncation(4))
    entry = T.entries[0]
    # ω = 1⊗t*, ξ~ = the degree-2 generator: forced by d_W(1⊗t*) = t*⊗1
    assert entry.omega == {((0,), (0,)): Q(1)}
    assert entry.xi_tilde == (Q(1),)


def test_su2xsu2_block_transgression():
    g = builtin_algebra("su2xsu2")
    P = primitive_basis(g, Truncation(8))
    T = distinguished_transgression(g, P, Truncation(8))
    from koszul.modules import sym_monomials

    monos = sym_monomials(6, 2)
    first = {m: c for m, c in zip(monos, T.entries[0].xi_tilde) if c}
    second = {m: c for m, c in zip(monos, T.entries[1].xi_tilde) if c}

    def square(i):
        e = [0] * 6
        e[i] = 2
        return tuple(e)

    assert first == {square(0): Q(1, 2), square(1): Q(1, 2), square(2): Q(1, 2)}
    assert second == {square(3): Q(1, 2), square(4): Q(1, 2), square(5): Q(1, 2)}


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "su2", "sl2", "su2xsu2"])
def test_permuted_solve_same_xi_tilde(name):
    g = builtin_algebra(name)
    P = primitive_basis(g, Truncation(8))
    T1 = distinguished_transgression(g, P, Truncation(8))
    # reversal permutation of the unknowns
    perm = list(range(200))[::-1]
    T2 = distinguished_transgression(g, P, Truncation(8), weil=T1.weil,
                                     unknown_permutation=perm)
    for e1, e2 in zip(T1.entries, T2.entries):
        assert e1.xi_tilde == e2.xi_tilde


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "su2", "sl2", "su2xsu2"])
def test_degree_shift_and_nonzero(name):
    g = builtin_algebra(name)
    P = primitive_basis(g, Truncation(8))
    T = distinguished_transgression(g, P, Truncation(8))
    for entry in T.entries:
        assert any(entry.xi_tilde)
        # cohomological degree of ξ~ is deg ξ + 1
        assert 2 * ((entry.primitive.degree + 1) // 2) == entry.primitive.degree + 1


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "su2", "sl2", "su2xsu2"])
def test_generation_dimension_count(name):
    g = builtin_algebra(name)
    P = primitive_basis(g, Truncation(8))
    T = distinguished_transgression(g, P, Truncation(8))
    assert generation_check(g, T, Truncation(8))


def test_exterior_invariants_su2(su2):
    assert len(exterior_invariants(su2, 0)) == 1
    assert exterior_invariants(su2, 1) == []
    assert exterior_invariants(su2, 2) == []
    assert len(exterior_invariants(su2, 3)) == 1


def test_transgression_lifts_no_weil_operator(su2, P_su2):
    """distinguished_transgression cuts W's invariants and re-checks the
    lift's invariance on the factor rows: W's L_k stay unlifted."""
    T = distinguished_transgression(su2, P_su2, Truncation(8))
    assert T.entries and "L_ops" not in vars(T.weil)


@pytest.mark.parametrize("alg", ["su2", "su2xsu2"])
def test_is_invariant_matches_lifted_operators(alg):
    """On W(g) (a tensor product) and on Λ(g*) (not one), is_invariant of the
    invariant block and of each unit vector agrees with applying the lifted
    L_k blocks."""
    from koszul.linalg import Matrix
    from koszul.modules import exterior_model

    g = builtin_algebra(alg)
    for module in (weil_model(g, Truncation(5)), exterior_model(g)):
        for p in module.complex.usable_degrees(1):
            dim = module.space.dim(p)
            K = module.invariant_blocks([p])[p]
            assert module.is_invariant(p, K)
            for i in range(dim):
                e = Matrix._from_ints(dim, 1, {(i, 0): 1}, 1)
                want = all((L.block(p) @ e).is_zero() for L in module.L_ops)
                assert module.is_invariant(p, e) == want, (module.name, p, i)
