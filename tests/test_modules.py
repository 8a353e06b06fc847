from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul.complexes import Complex, GradedSpace, LinMap, Truncation
from koszul.lie import BUILTIN_NAMES, adjoint_matrices, builtin_algebra, invariant_vectors
from koszul.linalg import Matrix, vec
from koszul.modules import (
    KgModule,
    ModuleValidationError,
    TensorModule,
    delete_index,
    derivation_on_sym,
    doubled_differential_identity,
    exterior_model,
    invariant_rep_module,
    kg_module_from_dict,
    lambda_monomials,
    polynomial_forms_module,
    sym_monomials,
    tensor_module,
    trivial_module,
    validate_kg,
    wedge_by_generator,
    wedge_normalize,
)
from koszul.weil import weil_model

Q = Fraction


@pytest.fixture(scope="module")
def su2():
    return builtin_algebra("su2")


@pytest.fixture(scope="module")
def ext_su2(su2):
    return exterior_model(su2)


def test_wedge_normalize():
    assert wedge_normalize((0, 1, 2)) == (1, (0, 1, 2))
    assert wedge_normalize((1, 0)) == (-1, (0, 1))
    assert wedge_normalize((2, 0, 1)) == (1, (0, 1, 2))
    assert wedge_normalize((0, 0)) == (0, None)


def test_delete_index():
    assert delete_index((0, 1, 2), 1) == (-1, (0, 2))
    assert delete_index((0, 1, 2), 0) == (1, (1, 2))
    assert delete_index((0, 2), 1) is None


def test_monomial_enumeration_deterministic():
    assert lambda_monomials(3, 2) == [(0, 1), (0, 2), (1, 2)]
    assert sym_monomials(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert sym_monomials(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


# -- exterior model ---------------------------------------------------------


def test_su2_differential_golden(ext_su2):
    """d i* = 2 j*^k* and its cyclic images, as exact coefficients."""
    d1 = ext_su2.d.block(1)
    labels2 = ext_su2.space.labels(2)
    # column 0 is i*, target monomials are (j*^k*, i*^k*, i*^j*) in lex order
    assert labels2 == ("i*∧j*", "i*∧k*", "j*∧k*")
    assert d1.column(0) == vec([0, 0, 2])   # d i* = 2 j*∧k*
    assert d1.column(1) == vec([0, -2, 0])  # d j* = 2 k*∧i* = -2 i*∧k*
    assert d1.column(2) == vec([2, 0, 0])   # d k* = 2 i*∧j*


def test_abelian_differential_zero():
    g = builtin_algebra("abelian2")
    ext = exterior_model(g)
    assert not ext.d.blocks


def test_exterior_contraction_is_minus_deletion(ext_su2):
    # i_0 on the generator i* gives -1, and strictly lowers monomial length
    i0 = ext_su2.i_ops[0]
    assert i0.block(1).column(0) == vec([-1])
    assert i0.block(1).column(1) == vec([0])
    sq = i0.compose(i0)
    assert all(sq.block(d).is_zero() for d in ext_su2.space.degrees())


def test_exterior_L_agrees_with_coadjoint(ext_su2, su2):
    _, coad = adjoint_matrices(su2)
    for k in range(3):
        assert ext_su2.L_ops[k].block(1) == coad.matrices[k]


@pytest.mark.parametrize("name", ["su2", "sl2", "abelian1", "abelian2", "su2xsu2"])
def test_validate_exterior_model(name):
    g = builtin_algebra(name)
    report = validate_kg(exterior_model(g))
    assert report.ok, report.describe()


def test_corrupted_contraction_caught(su2, ext_su2):
    blocks = dict(ext_su2.i_ops[0].blocks)
    bad = dict(blocks[1].entries)
    bad[(0, 2)] = Q(1)  # spurious i_0(k*) = 1
    blocks[1] = Matrix(1, 3, bad)
    corrupted = KgModule(
        su2,
        ext_su2.complex,
        [LinMap(ext_su2.space, ext_su2.space, -1, blocks)] + list(ext_su2.i_ops[1:]),
        name="corrupted",
    )
    report = validate_kg(corrupted)
    assert [c.describe() for c in report.checks] == [
        "d∘d = 0: ok",
        "L_k = d∘i_k + i_k∘d: ok",
        "i_j∘i_k + i_k∘i_j = 0: FAIL at degree 2 on 'i*∧k*', defect {0: '-2'}",
        "[L_j, i_k] = i_[x_j,x_k]: FAIL at degree 1 on 'j*', defect {0: '-2'}",
        "[L_j, L_k] = L_[x_j,x_k]: ok",
    ]


def test_module_without_contractions_fails_at_construction(su2, ext_su2):
    # only a TensorModule lifts its contractions later; a KgModule needs them now
    with pytest.raises(TypeError):
        KgModule(su2, ext_su2.complex, None)


def test_one_contraction_file_module_witnesses(su2):
    data = {"degrees": {"0": ["a"], "1": ["b"]},
            "d": [{"degree": 0, "row": 0, "col": 0, "c": "1"}],
            "i": {"0": [{"degree": 1, "row": 0, "col": 0, "c": "1"}]}}
    with pytest.raises(ModuleValidationError) as exc:
        kg_module_from_dict(su2, data, name="one")
    assert str(exc.value).splitlines() == [
        "validate_kg(one): FAIL",
        "  d∘d = 0: ok",
        "  L_k = d∘i_k + i_k∘d: ok",
        "  i_j∘i_k + i_k∘i_j = 0: ok",
        "  [L_j, i_k] = i_[x_j,x_k]: FAIL at degree 1 on 'b', defect {0: '-2'}",
        "  [L_j, L_k] = L_[x_j,x_k]: FAIL at degree 0 on 'a', defect {0: '-2'}",
    ]


def test_d_squared_witness(su2):
    space = GradedSpace({0: ("a",), 1: ("b",), 2: ("c",)})
    d = LinMap(space, space, 1, {0: Matrix(1, 1, {(0, 0): Q(1)}), 1: Matrix(1, 1, {(0, 0): Q(3)})})
    cx = Complex(space, d, check=False)
    assert cx.d_squared_defect() == (0, "a")
    with pytest.raises(ValueError, match="d\\^2 != 0 at degree 0 on basis vector 'a'"):
        Complex(space, d)
    report = validate_kg(KgModule(su2, cx, [LinMap.zero(space, space, -1)] * 3, name="d2"))
    assert [c.describe() for c in report.checks][0] == "d∘d = 0: FAIL at degree 0 on 'a', defect {0: '3'}"
    assert [c.ok for c in report.checks] == [False, True, True, True, True]


def test_doubled_differential_identity_all_builtins():
    for name in ("su2", "sl2", "abelian1", "abelian2", "su2xsu2"):
        assert doubled_differential_identity(exterior_model(builtin_algebra(name)))


def test_wedge_operator(ext_su2):
    w0 = wedge_by_generator(ext_su2, 0)
    assert w0.block(0).column(0) == vec([1, 0, 0])
    # y^0 ∧ y^0 = 0
    assert w0.compose(w0).block(0).is_zero()


# -- trivial and invariant-representation modules ---------------------------


def test_trivial_module_validates(su2):
    t = trivial_module(su2)
    assert validate_kg(t).ok
    assert t.space.dim(0) == 1


def test_invariant_rep_sym2_coadjoint(su2):
    _, coad = adjoint_matrices(su2)
    from koszul.lie import RepMatrices

    sym2 = RepMatrices(su2, tuple(derivation_on_sym(list(coad.matrices), 2)))
    mod = invariant_rep_module(su2, sym2, grade=0)
    # one invariant: the Killing-dual quadratic i*^2 + j*^2 + k*^2
    assert mod.space.dim(0) == 1
    v = invariant_vectors(sym2)[0]
    monos = sym_monomials(3, 2)
    nonzero = {monos[i]: c for i, c in enumerate(v) if c}
    assert set(nonzero) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
    assert len(set(nonzero.values())) == 1
    assert validate_kg(mod).ok


def test_invariant_rep_coadjoint_is_zero(su2):
    _, coad = adjoint_matrices(su2)
    mod = invariant_rep_module(su2, coad, grade=1)
    assert mod.space.total_dim() == 0


def test_invariant_rep_abelian_everything():
    g = builtin_algebra("abelian2")
    _, coad = adjoint_matrices(g)
    mod = invariant_rep_module(g, coad)
    assert mod.space.dim(0) == 2


# -- tensor products --------------------------------------------------------


def test_tensor_with_trivial_is_identity(su2, ext_su2):
    t = tensor_module(ext_su2, trivial_module(su2))
    for d in ext_su2.space.degrees():
        assert t.space.dim(d) == ext_su2.space.dim(d)
        assert t.d.block(d) == ext_su2.d.block(d)
        for k in range(3):
            assert t.i_ops[k].block(d) == ext_su2.i_ops[k].block(d)


def test_tensor_of_exterior_models_validates(su2, ext_su2):
    t = tensor_module(ext_su2, exterior_model(su2))
    assert validate_kg(t).ok
    assert t.complete


def test_tensor_degree_additivity(su2, ext_su2):
    t = tensor_module(ext_su2, ext_su2)
    for p in range(7):
        expected = sum(
            ext_su2.space.dim(q) * ext_su2.space.dim(p - q) for q in range(p + 1)
        )
        assert t.space.dim(p) == expected


def test_tensor_associativity_under_relabeling(su2):
    # (A⊗A)⊗A and A⊗(A⊗A) have the same labels per degree, possibly in a
    # different order; all operator matrices must agree under that bijection
    a = exterior_model(su2)
    left = tensor_module(tensor_module(a, a), a, max_total=4)
    right = tensor_module(a, tensor_module(a, a), max_total=4)
    perms = {}
    for d in range(5):
        ll, rl = left.space.labels(d), right.space.labels(d)
        assert sorted(ll) == sorted(rl)
        pos = {lbl: i for i, lbl in enumerate(rl)}
        perms[d] = Matrix(
            len(rl), len(ll), {(pos[lbl], i): 1 for i, lbl in enumerate(ll)}
        )

    def conjugated(op, shift, d):
        return perms[d + shift] @ op.block(d)

    for d in range(4):
        assert conjugated(left.d, 1, d) == right.d.block(d) @ perms[d]
    for k in range(3):
        for d in range(1, 5):
            assert (
                perms[d - 1] @ left.i_ops[k].block(d)
                == right.i_ops[k].block(d) @ perms[d]
            )



def assert_L_lifted_from_factors(M):
    """M.L_ops of a tensor product equal d∘i_k + i_k∘d on every degree up to
    max_usable, recomputed here from the product's own d and i_k."""
    assert isinstance(M, TensorModule)
    top = M.max_usable
    for L, ik in zip(M.L_ops, M.i_ops):
        assert all(deg <= top for deg in L.blocks)
        for deg in M.space.degrees():
            if deg <= top:
                derived = M.d.block(deg - 1) @ ik.block(deg) + ik.block(deg + 1) @ M.d.block(deg)
                assert L.block(deg) == derived, (M.name, deg)


def assert_i_lifted_from_factors(M, A, B, eager_left=None):
    """M.i_ops of the tensor product M = A⊗B, lifted on first read, equal
    block by block the eager summed lift of the factors' contractions,
    i_k⊗1 + 1⊗i_k.  eager_left replaces A's own (lazily lifted) i_k."""
    lift_sum = M.tensor.lift_sum
    for ik, iA, iB in zip(M.i_ops, eager_left or A.i_ops, B.i_ops):
        eager = lift_sum([(iA, None), (None, iB)], -1)
        assert ik.shift == -1 and set(ik.blocks) == set(eager.blocks), M.name
        for deg in M.space.degrees():
            assert ik.block(deg) == eager.block(deg), (M.name, deg)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("kind", ["trivial", "exterior"])
def test_lifted_L_on_weil_product(name, kind):
    # W⊗M as verify_duality builds it: W one degree beyond the product window
    g = builtin_algebra(name)
    M = trivial_module(g) if kind == "trivial" else exterior_model(g)
    N = 3
    W = weil_model(g, Truncation(N + 1))
    WM = tensor_module(W, M, max_total=N + 1)
    # W's own i_k = 1⊗i_k^Λ, lifted eagerly here
    eager_W = [W.tensor.lift(None, ik) for ik in W.algebra.ext.i_ops]
    assert_i_lifted_from_factors(WM, W, M, eager_left=eager_W)
    assert all(lazy.equal_on(eager, W.space.degrees()) for lazy, eager in zip(W.i_ops, eager_W))
    assert_L_lifted_from_factors(WM)
    report = validate_kg(WM)
    assert report.ok, report.describe()


def test_lifted_L_on_exterior_products(su2, ext_su2):
    full = tensor_module(ext_su2, ext_su2)
    truncated = tensor_module(ext_su2, ext_su2, max_total=3)
    left = tensor_module(full, ext_su2, max_total=4)
    right = tensor_module(ext_su2, full, max_total=4)
    for M, A, B in ((full, ext_su2, ext_su2), (truncated, ext_su2, ext_su2),
                    (left, full, ext_su2), (right, ext_su2, full)):
        assert_i_lifted_from_factors(M, A, B)
        assert_L_lifted_from_factors(M)
        assert validate_kg(M).ok, M.name
    assert full.complete and not truncated.complete


# -- polynomial forms -------------------------------------------------------


def test_forms_abelian_zero_action():
    g = builtin_algebra("abelian2")
    from koszul.lie import RepMatrices

    zero_action = RepMatrices(g, (Matrix.zero(2, 2), Matrix.zero(2, 2)))
    mod = polynomial_forms_module(g, zero_action, poly_degree=1)
    assert validate_kg(mod).ok
    for k in range(2):
        assert not mod.i_ops[k].blocks
        assert not mod.L_ops[k].blocks
    # d x = dx is an isomorphism from linear polynomials to constant 1-forms
    assert mod.d.block(0).rows == 2 and mod.d.block(0).cols == 2


def test_forms_su2_coadjoint_slice(su2):
    _, coad = adjoint_matrices(su2)
    mod = polynomial_forms_module(su2, coad, poly_degree=1, var_names=["x", "y", "z"])
    assert validate_kg(mod).ok, validate_kg(mod).describe()
    assert mod.space.dim(0) == 3 and mod.space.dim(1) == 3
    # i_0(dx_j) = coad_0 applied to x_j as a linear polynomial
    i0 = mod.i_ops[0].block(1)
    for j in range(3):
        assert i0.column(j) == coad.matrices[0].column(j)


def test_forms_require_valid_rep(su2):
    from koszul.lie import LieAlgebraError, RepMatrices

    bad = RepMatrices(su2, (Matrix.identity(2), Matrix.zero(2, 2), Matrix.zero(2, 2)))
    with pytest.raises(LieAlgebraError):
        polynomial_forms_module(su2, bad, poly_degree=1)


# -- JSON modules -----------------------------------------------------------


def test_module_from_dict_roundtrip(su2):
    data = {
        "degrees": {"0": ["a"], "1": ["b"]},
        "d": [],
        "i": {},
    }
    mod = kg_module_from_dict(su2, data)
    assert validate_kg(mod).ok


def test_module_from_dict_rejects_bad_identities(su2):
    # d != 0 with i = 0 forces L = 0 automatically, but d^2 = 0 must hold;
    # here we corrupt a contraction so the Cartan identity fails
    data = {
        "degrees": {"0": ["a"], "1": ["b"]},
        "d": [{"degree": 0, "row": 0, "col": 0, "c": "1"}],
        "i": {"0": [{"degree": 1, "row": 0, "col": 0, "c": "1"}]},
    }
    with pytest.raises(ModuleValidationError):
        kg_module_from_dict(su2, data)


# -- property tests ---------------------------------------------------------


@given(st.lists(st.integers(0, 5), min_size=0, max_size=6))
@settings(max_examples=80, deadline=None)
def test_wedge_normalize_is_sign_of_sorting(word):
    sign, mono = wedge_normalize(tuple(word))
    if len(set(word)) != len(word):
        assert sign == 0
    else:
        assert mono == tuple(sorted(word))
        assert sign in (1, -1)


@given(st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_sym_monomial_count(n, total):
    from math import comb

    assert len(sym_monomials(n, total)) == comb(n + total - 1, n - 1)
