from fractions import Fraction

import pytest

from koszul import transgression
from koszul.complexes import Truncation
from koszul.lie import BUILTIN_NAMES, builtin_algebra
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
    return distinguished_transgression(su2, P_su2)


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


def test_primitives_cut_no_invariant_above_the_window(monkeypatch):
    """At N=4 on su2xsu2 (dim 6) no invariant of Λ^p(g*) with p > 4 is cut.
    On a fresh algebra; the same call again cuts no invariant and solves no
    primitive complement."""
    requested, cuts, solves = [], [], []
    cut = transgression.exterior_invariant_block
    monkeypatch.setattr(transgression, "exterior_invariant_block",
                        lambda g, p: requested.append(p) or cut(g, p))
    kernel, complement = transgression.block_action_kernel, transgression.complement_basis
    monkeypatch.setattr(transgression, "block_action_kernel",
                        lambda g, *rest: cuts.append(rest) or kernel(g, *rest))
    monkeypatch.setattr(transgression, "complement_basis",
                        lambda *args: solves.append(args) or complement(*args))
    builtin_algebra.cache_clear()
    P = primitive_basis(builtin_algebra("su2xsu2"), Truncation(4))
    assert [p.degree for p in P.primitives] == [3, 3]
    assert max(requested) == 4 and sorted(P.invariant_dims) == [0, 1, 2, 3, 4]
    assert len(cuts) == 5 and solves
    made = len(solves)
    again = primitive_basis(builtin_algebra("su2xsu2"), Truncation(4))
    assert (again.primitives, again.invariant_dims) == (P.primitives, P.invariant_dims)
    assert len(cuts) == 5 and len(solves) == made


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
    T = distinguished_transgression(g, P)
    entry = T.entries[0]
    # ω = 1⊗t*, ξ~ = the degree-2 generator: forced by d_W(1⊗t*) = t*⊗1
    assert entry.omega == {((0,), (0,)): Q(1)}
    assert entry.xi_tilde == (Q(1),)


def test_su2xsu2_block_transgression():
    g = builtin_algebra("su2xsu2")
    P = primitive_basis(g, Truncation(8))
    T = distinguished_transgression(g, P)
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
    T1 = distinguished_transgression(g, P)
    # reversal permutation of the unknowns
    perm = list(range(200))[::-1]
    T2 = distinguished_transgression(g, P, weil=T1.weil,
                                     unknown_permutation=perm)
    for e1, e2 in zip(T1.entries, T2.entries):
        assert e1.xi_tilde == e2.xi_tilde


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "su2", "sl2", "su2xsu2"])
def test_degree_shift_and_nonzero(name):
    g = builtin_algebra(name)
    P = primitive_basis(g, Truncation(8))
    T = distinguished_transgression(g, P)
    for entry in T.entries:
        assert any(entry.xi_tilde)
        # cohomological degree of ξ~ is deg ξ + 1
        assert 2 * ((entry.primitive.degree + 1) // 2) == entry.primitive.degree + 1


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "su2", "sl2", "su2xsu2"])
def test_generation_dimension_count(name):
    g = builtin_algebra(name)
    P = primitive_basis(g, Truncation(8))
    T = distinguished_transgression(g, P)
    assert generation_check(g, T, Truncation(8))


def test_exterior_invariants_su2(su2):
    assert len(exterior_invariants(su2, 0)) == 1
    assert exterior_invariants(su2, 1) == []
    assert exterior_invariants(su2, 2) == []
    assert len(exterior_invariants(su2, 3)) == 1


def test_transgression_lifts_no_weil_operator(su2, P_su2):
    """distinguished_transgression cuts W's invariants and re-checks the
    lift's invariance on the factor rows: W's L_k stay unlifted."""
    T = distinguished_transgression(su2, P_su2)
    assert T.entries and "L_ops" not in vars(T.weil)


@pytest.mark.parametrize("name, N", [("su2xsu2", 8), ("su2", 8), ("abelian2", 3), ("su2", 2)])
def test_own_weil_model_reaches_only_the_needed_degree(name, N):
    """Without weil=, W is built to needed = the largest primitive degree
    + 1 (0 with no primitive in the window), not to max(N, needed): the
    solve reads W only at p and p + 1."""
    g = builtin_algebra(name)
    P = primitive_basis(g, Truncation(N))
    T = distinguished_transgression(g, P)
    needed = max((p.degree + 1 for p in P.primitives), default=0)
    assert T.weil.space.hi == needed
    assert needed == {"su2xsu2": 4, "su2": 4 if N >= 3 else 0, "abelian2": 2}[name]


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


# -- generation_check: W's S(g*), negative cases and a sympy oracle ---------------


def _altered(T, entries):
    return transgression.TransgressionData(T.g, T.weil, entries)


def _with_xi_tilde(entry, xi_tilde):
    return transgression.TransgressionEntry(entry.primitive, entry.omega, tuple(xi_tilde), entry.xi_tilde_label)


@pytest.fixture(scope="module")
def T_su2xsu2():
    g = builtin_algebra("su2xsu2")
    return distinguished_transgression(g, primitive_basis(g, Truncation(8)))


def _variants(T):
    """(name, data, verdict): ξ~_2 replaced by ξ~_1, an entry dropped, each
    ξ~ rescaled by a nonzero rational."""
    first, second = T.entries
    return [
        ("xi2 := xi1", _altered(T, [first, _with_xi_tilde(second, first.xi_tilde)]), False),
        ("drop xi1", _altered(T, [second]), False),
        ("drop xi2", _altered(T, [first]), False),
        ("rescaled", _altered(T, [_with_xi_tilde(e, [c * s for c in e.xi_tilde])
                                  for e, s in zip(T.entries, (Q(-3, 2), Q(5)))]), True),
    ]


@pytest.mark.parametrize("index", range(4))
def test_generation_check_rejects_what_does_not_generate_freely(T_su2xsu2, index):
    """On su2xsu2 to N = 8, two equal ξ~ are dependent in degree 4 and a
    missing one leaves an invariant ungenerated: both are False; rescaling
    a ξ~ by a nonzero rational changes nothing."""
    name, data, verdict = _variants(T_su2xsu2)[index]
    assert generation_check(data.g, data, Truncation(8)) is verdict, name


def _sympy_generates(g, weights, xis, N):
    """generation_check's verdict from sympy alone: products of the ξ~ as
    polynomials in u^0..u^(n-1), and the invariants of S^a as the kernel of
    the coadjoint derivations u^j -> sum_i c^j_ki u^i."""
    from itertools import combinations_with_replacement
    from math import prod

    import sympy as sp
    from sympy.polys.matrices import DomainMatrix

    from koszul.modules import sym_monomials

    n = g.dim
    u = sp.symbols(f"u:{n}")

    def poly(terms):
        return sp.Poly.from_dict({m: sp.Rational(c.numerator, c.denominator) for m, c in terms if c}
                                 or {(0,) * n: 0}, *u, domain="QQ")

    def unit(m):
        return poly([(m, Q(1))])

    def rank(rows):
        return DomainMatrix.from_Matrix(sp.Matrix(rows)).to_field().rank() if rows and rows[0] else 0

    xi = [poly(zip(sym_monomials(n, w), v)) for w, v in zip(weights, xis)]
    act = [[poly([(tuple(int(t == i) for t in range(n)), Q(g.c(j, k, i))) for i in range(n)]) for j in range(n)]
           for k in range(n)]
    for a in range(N // 2 + 1):
        monos = sym_monomials(n, a)

        def coords(p):
            d = p.as_dict()
            return [d.get(m, 0) for m in monos]

        images = [[coords(sum((unit(m).diff(u[j]) * act[k][j] for j in range(n) if m[j]), poly([])))
                   for m in monos] for k in range(n)]
        dim_inv = len(monos) - rank([[img[c][r] for c in range(len(monos))]
                                     for img in images for r in range(len(monos))])
        prods = [coords(prod((xi[j] for j in seq), start=unit((0,) * n)))
                 for r in range(a + 1) for seq in combinations_with_replacement(range(len(xi)), r)
                 if sum(weights[j] for j in seq) == a]
        if len(prods) != dim_inv or (dim_inv and rank(prods) != dim_inv):
            return False
    return True


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_generation_check_matches_sympy(name, T_su2xsu2):
    """For every built-in algebra (sl3 and u2 to N = 6, the others to 8)
    generation_check gives sympy's verdict; on su2xsu2 also for each
    altered family of _variants."""
    pytest.importorskip("sympy")
    g = builtin_algebra(name)
    N = 6 if name in ("sl3", "u2") else 8
    T = T_su2xsu2 if name == "su2xsu2" else distinguished_transgression(g, primitive_basis(g, Truncation(N)))
    cases = [("built", T, True)] + (_variants(T) if name == "su2xsu2" else [])
    for label, data, verdict in cases:
        weights = [data.xi_tilde_sym_degree(j) for j in range(len(data.entries))]
        oracle = _sympy_generates(g, weights, [e.xi_tilde for e in data.entries], N)
        assert generation_check(g, data, Truncation(N)) is oracle is verdict, label


# -- the per-algebra records of primitives and lifts ------------------------------


def _fresh_copy(name):
    """A second LieAlgebra object equal to the built-in one, with records of its own."""
    import json
    from pathlib import Path

    from koszul.lie import lie_algebra_from_dict

    path = Path(transgression.__file__).parent / "data" / f"{name}.json"
    return lie_algebra_from_dict(json.loads(path.read_text("utf-8")))


def test_permuted_solve_leaves_the_record_alone():
    """A permuted solve between two default calls neither reads nor writes
    g's lifts: the default ω and ξ~ stay those of a fresh algebra."""
    builtin_algebra.cache_clear()
    g = builtin_algebra("su2xsu2")
    P = primitive_basis(g, Truncation(8))
    first = distinguished_transgression(g, P)
    recorded = dict(g._transgressions)
    permuted = distinguished_transgression(g, P, unknown_permutation=list(range(500))[::-1])
    assert not any(e is r for e in permuted.entries for r in recorded.values())
    assert g._transgressions == recorded
    second = distinguished_transgression(g, P)
    assert second.entries == first.entries == list(recorded.values())
    fresh = _fresh_copy("su2xsu2")
    expected = distinguished_transgression(fresh, primitive_basis(fresh, Truncation(8)))
    assert [(e.omega, e.xi_tilde, e.xi_tilde_label) for e in second.entries] == \
        [(e.omega, e.xi_tilde, e.xi_tilde_label) for e in expected.entries]
    assert [e.xi_tilde for e in permuted.entries] == [e.xi_tilde for e in expected.entries]


def test_failed_lift_records_nothing(monkeypatch):
    """A lift whose direct check fails raises and leaves g's record empty; the
    next honest call solves every primitive and passes."""
    g = _fresh_copy("su2xsu2")
    P = primitive_basis(g, Truncation(8))

    def refuse(*args):
        raise TransgressionError("condition (a) fails on the returned lift")

    verify = transgression._verify_entry
    monkeypatch.setattr(transgression, "_verify_entry", refuse)
    with pytest.raises(TransgressionError, match="condition"):
        distinguished_transgression(g, P)
    assert g._transgressions == {}
    checked = []
    monkeypatch.setattr(transgression, "_verify_entry",
                        lambda W, prim, *rest: checked.append(prim) or verify(W, prim, *rest))
    T = distinguished_transgression(g, P)
    assert checked == P.primitives and T.entries == list(g._transgressions.values())
    assert generation_check(g, T, Truncation(8))


def test_primitives_extend_only_the_degrees_not_seen(monkeypatch):
    """primitive_basis at a wider window builds and checks only the degrees
    above the narrower one, and agrees with a fresh algebra's."""
    g = _fresh_copy("sl3")
    narrow = primitive_basis(g, Truncation(4))
    built, checked = [], []
    build, verify = transgression._primitives_of_degree, transgression._verify_freeness
    monkeypatch.setattr(transgression, "_primitives_of_degree",
                        lambda g, inv, m: built.append(m) or build(g, inv, m))
    monkeypatch.setattr(transgression, "_verify_freeness",
                        lambda prims, inv, n, m: checked.append(m) or verify(prims, inv, n, m))
    wide = primitive_basis(g, Truncation(6))
    assert built == checked == [5, 6]
    assert wide.primitives[:len(narrow.primitives)] == narrow.primitives
    fresh = _fresh_copy("sl3")
    expected = primitive_basis(fresh, Truncation(6))
    assert [(p.degree, p.column, p.label) for p in wide.primitives] == \
        [(p.degree, p.column, p.label) for p in expected.primitives] and [
            p.degree for p in wide.primitives] == [3, 5]


def test_xi_tilde_uniqueness_gate_names_the_primitive_and_degree(monkeypatch):
    """With the contraction conditions (b) dropped, the lift system of u2's
    degree-3 primitive at N=8 has a homogeneous solution with a nonzero ξ~
    part, and the uniqueness gate refuses it, naming the primitive and its
    degree.  su2xsu2 and sl3 at N=8 still solve with (b) dropped; with (b)
    in place every lift kernel tried has dimension 0, so the permuted solve
    of acceptance criterion 7 cannot differ from the default one.  u2 is
    loaded anew, so no lift solved without (b) is recorded on the built-in
    algebra."""
    g = _fresh_copy("u2")
    monkeypatch.setattr(transgression, "invariant_multivector_basis", lambda g, top: [])
    with pytest.raises(TransgressionError) as exc:
        distinguished_transgression(g, primitive_basis(g, Truncation(8)))
    assert str(exc.value) == ("ξ~ is not unique for 1·i*∧j*∧k* at degree 3: homogeneous "
                              "solution has a nonzero polynomial part")
