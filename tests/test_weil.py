from fractions import Fraction

import pytest

from koszul.complexes import Complex, LinMap, Truncation, check_chain_map, cohomology, quasi_iso_check
from koszul.lie import BUILTIN_NAMES, adjoint_matrices, builtin_algebra
from koszul.linalg import Matrix, vec
from koszul.modules import (
    KgModule,
    delete_index,
    exterior_model,
    lambda_label,
    lambda_monomials,
    polynomial_forms_module,
    sym_label,
    sym_monomials,
    trivial_module,
    validate_kg,
    wedge_normalize,
)
from koszul.weil import (
    WeilAlgebra,
    embedding_s_linearity,
    horizontal_basic,
    maurer_cartan_residuals,
    twist_closed_form,
    twist_embedding,
    twist_identity_contraction,
    twist_identity_differential,
    twist_operators,
    weil_model,
    weil_structure_maps,
)

Q = Fraction


@pytest.fixture(scope="module")
def su2():
    return builtin_algebra("su2")


@pytest.fixture(scope="module")
def W_su2(su2):
    return weil_model(su2, Truncation(8))


Z3 = (0, 0, 0)


def test_weil_differential_golden_lambda_generator(W_su2):
    """d_W(1⊗i*) = 1⊗2 j*∧k* + i*⊗1."""
    alg = W_su2.algebra
    img = alg.differential_element({(Z3, (0,)): Q(1)})
    assert img == {
        (Z3, (1, 2)): Q(2),
        ((1, 0, 0), ()): Q(1),
    }


def test_weil_differential_golden_sym_generator(W_su2):
    """d_W(i*⊗1) = 2(k*⊗j* − j*⊗k*)."""
    alg = W_su2.algebra
    img = alg.differential_element({((1, 0, 0), ()): Q(1)})
    assert img == {
        ((0, 0, 1), (1,)): Q(2),
        ((0, 1, 0), (2,)): Q(-2),
    }


def test_weil_differential_golden_naive_cocycle(W_su2):
    """d_W(1⊗i*∧j*∧k*) = i*⊗j*∧k* + cyclic."""
    alg = W_su2.algebra
    img = alg.differential_element({(Z3, (0, 1, 2)): Q(1)})
    assert img == {
        ((1, 0, 0), (1, 2)): Q(1),
        ((0, 1, 0), (0, 2)): Q(-1),  # j*⊗k*∧i* in sorted-monomial form
        ((0, 0, 1), (0, 1)): Q(1),
    }


def test_maurer_cartan_all_builtins():
    for name in ("su2", "sl2", "abelian1", "abelian2", "su2xsu2"):
        W = weil_model(builtin_algebra(name), Truncation(4))
        assert all(not r for r in maurer_cartan_residuals(W))


def test_weil_is_valid_module(W_su2):
    report = validate_kg(W_su2)
    assert report.ok, report.describe()


def test_weil_L_is_diagonal_coadjoint(W_su2, su2):
    from koszul.lie import adjoint_matrices

    _, coad = adjoint_matrices(su2)
    # degree 1 part of W is the exterior generators; L there is coad
    assert W_su2.L_ops[0].block(1) == coad.matrices[0]
    # degree 2 basis lists the Λ² monomials first, then the u generators;
    # on the u block the Lie derivative is again coad, with no mixing
    blk = W_su2.L_ops[0].block(2)
    for j in range(3):
        col = blk.column(3 + j)
        assert col[3:] == coad.matrices[0].column(j)
        assert not any(col[:3])
        assert not any(blk.column(j)[3:])


def _per_key_weil(g, N):
    """d_W, i_k and L_k = d∘i_k + i_k∘d of W(g) built monomial by monomial.

    The reference formula: d_W(a⊗b) = a ⊗ d_Λ b + sum_k (u^k a) ⊗ del_k b
    + sum_k Θ_k a ⊗ y^k ∧ b with del_k plus deletion and Θ_k u^j =
    sum_m c^j_km u^m, and i_k = minus deletion on the exterior factor.
    """
    n = g.dim
    basis = {m: [(exps, lmono)
                 for a in range(m // 2 + 1) if m - 2 * a <= n
                 for exps in sym_monomials(n, a)
                 for lmono in lambda_monomials(n, m - 2 * a)]
             for m in range(N + 1)}
    index = {m: {key: i for i, key in enumerate(keys)} for m, keys in basis.items()}

    def differential_of_key(exps, lmono):
        out = {}

        def put(key, c):
            out[key] = out.get(key, 0) + c

        for t, gen in enumerate(lmono):
            for a in range(n):
                for b in range(a + 1, n):
                    c = g.c(gen, a, b)
                    sign, new = wedge_normalize(lmono[:t] + (a, b) + lmono[t + 1:])
                    if c and sign:
                        put((exps, new), (-1) ** t * sign * c)
        for k in range(n):
            hit = delete_index(lmono, k)
            if hit:
                bumped = list(exps)
                bumped[k] += 1
                put((tuple(bumped), hit[1]), hit[0])
        for k in range(n):
            sign_w, wedged = wedge_normalize((k,) + lmono)
            if not sign_w:
                continue
            for gen, e in enumerate(exps):
                for j in range(n):
                    c = g.c(gen, k, j)
                    if e and c:
                        moved = list(exps)
                        moved[gen] -= 1
                        moved[j] += 1
                        put((tuple(moved), wedged), sign_w * e * c)
        return out

    space = weil_model(g, Truncation(N)).space
    d = LinMap(space, space, 1, {
        m: Matrix(len(basis[m + 1]), len(basis[m]), {
            (index[m + 1][key2], col): c
            for col, key in enumerate(basis[m])
            for key2, c in differential_of_key(*key).items()})
        for m in range(N)})
    i_ops = []
    for k in range(n):
        blocks = {}
        for m in range(1, N + 1):
            ents = {}
            for col, (exps, lmono) in enumerate(basis[m]):
                hit = delete_index(lmono, k)
                if hit:
                    ents[(index[m - 1][(exps, hit[1])], col)] = -hit[0]
            blocks[m] = Matrix(len(basis[m - 1]), len(basis[m]), ents)
        i_ops.append(LinMap(space, space, -1, blocks))
    L_ops = [LinMap(space, space, 0, {
        m: d.block(m - 1) @ ik.block(m) + ik.block(m + 1) @ d.block(m) for m in range(N)})
        for ik in i_ops]
    return basis, d, i_ops, L_ops


@pytest.mark.parametrize("name,top", [(name, 4 if name == "sl3" else 5)
                                      for name in (*BUILTIN_NAMES, "abelian:0")]
                         + [("su2xsu2", 7)])
def test_lifted_weil_matches_per_key_formula(name, top):
    g = builtin_algebra(name)
    W = weil_model(g, Truncation(top))
    basis, d, i_ops, L_ops = _per_key_weil(g, top)
    degrees = range(top + 1)
    assert [[W.algebra.key(m, i) for i in range(W.space.dim(m))] for m in degrees] == [basis[m] for m in degrees]
    names = g.basis_labels
    for m in degrees:
        assert W.space.labels(m) == tuple(
            f"{sym_label(exps, names)}⊗{lambda_label(lmono, names)}" for exps, lmono in basis[m])
    assert W.d.equal_on(d, degrees) and set(W.d.blocks) == set(d.blocks)
    for k in range(g.dim):
        assert W.i_ops[k].equal_on(i_ops[k], degrees)
        assert W.L_ops[k].equal_on(L_ops[k], degrees)
        assert set(W.L_ops[k].blocks) == set(L_ops[k].blocks)
    report = validate_kg(W)
    assert report.ok, report.describe()


@pytest.mark.parametrize("name", [*BUILTIN_NAMES, "abelian:0"])
def test_weil_key_position_round_trip(name):
    """key(m, i) is a monomial of degree m that position sends back to i,
    on every degree of W."""
    g = builtin_algebra(name)
    alg = weil_model(g, Truncation(4 if name in ("sl3", "u2") else 6)).algebra
    for m in alg.product.degrees():
        for i in range(alg.product.dim(m)):
            key = alg.key(m, i)
            assert WeilAlgebra.degree_of(key) == m and alg.position(key) == i


@pytest.mark.parametrize("name,top", [
    ("abelian1", 8), ("abelian2", 8), ("su2", 8), ("sl2", 8), ("su2xsu2", 6),
])
def test_weil_acyclicity(name, top):
    g = builtin_algebra(name)
    W = weil_model(g, Truncation(top))
    rep = cohomology(W.complex, Truncation(top))
    assert rep.betti[0] == 1
    assert all(rep.betti[m] == 0 for m in range(1, top))


def test_structure_maps_are_chain_maps(W_su2):
    incl, restr = weil_structure_maps(W_su2)
    assert check_chain_map(incl).ok
    assert check_chain_map(restr).ok


def test_restriction_values(W_su2):
    _, restr = weil_structure_maps(W_su2)
    alg = W_su2.algebra
    # 1⊗w restricts to w; s⊗w with positive symmetric part dies
    col_pure = alg.position((Z3, (0,)))
    assert restr.map.block(1).column(col_pure) == vec([1, 0, 0])
    col_mixed = alg.position(((1, 0, 0), (0,)))
    assert not any(restr.map.block(3).column(col_mixed))


def test_restriction_commutes_with_contractions(W_su2, su2):
    _, restr = weil_structure_maps(W_su2)
    ext = exterior_model(su2)
    for k in range(3):
        lhs = restr.map.compose(W_su2.i_ops[k])
        rhs = ext.i_ops[k].compose(restr.map)
        assert lhs.equal_on(rhs, range(0, 9))


def test_inclusion_lands_on_cocycles(W_su2):
    incl, _ = weil_structure_maps(W_su2)
    # (S^2 g*)^g ⊗ 1 sits in degree 4 and is killed by d_W
    col = incl.map.block(4).column(0)
    assert any(col)
    assert not any(W_su2.d.block(4).apply(col))
    # and by every contraction
    for k in range(3):
        assert not any(W_su2.i_ops[k].block(4).apply(col))


def test_inclusion_is_quasi_iso_onto_weil(W_su2):
    # H(W) = Q in degree 0 only, matching H((S)^g-with-zero-d) in degree 0;
    # the inclusion of the degree-0 cocycles is a quasi-iso up to the cut
    incl, _ = weil_structure_maps(W_su2)
    # source complex has nonzero cohomology in degrees 0, 4, 8, so the full
    # inclusion is NOT a quasi-iso; but in degree 0 it is an isomorphism.
    rep = quasi_iso_check(incl, Truncation(4))
    assert rep.degrees[0]["ok"]


# -- twist -------------------------------------------------------------------


def test_twist_trivial_module_is_identity(su2):
    data = twist_operators(trivial_module(su2), Truncation(4))
    assert not data.generator.blocks
    assert data.twist.equal_on(data.twist_inv, data.tensor.space.degrees())


def test_twist_generator_nilpotent(su2):
    M = exterior_model(su2)
    data = twist_operators(M, Truncation(6))
    power = data.generator
    for _ in range(su2.dim):
        power = data.generator.compose(power)
    assert all(power.block(d).is_zero() for d in data.tensor.space.degrees())


def test_twist_times_inverse_is_identity(su2):
    M = exterior_model(su2)
    data = twist_operators(M, Truncation(6))
    prod = data.twist.compose(data.twist_inv)
    from koszul.complexes import LinMap

    ident = LinMap.identity(data.tensor.space)
    assert prod.equal_on(ident, data.tensor.space.degrees())


@pytest.mark.parametrize("name", ["abelian1", "abelian2", "su2", "sl2"])
@pytest.mark.parametrize("module", ["trivial", "exterior"])
def test_twist_identities(name, module):
    g = builtin_algebra(name)
    M = trivial_module(g) if module == "trivial" else exterior_model(g)
    data = twist_operators(M, Truncation(2 * g.dim))
    assert twist_identity_contraction(data)
    assert twist_identity_differential(data)


def test_twist_closed_form_matches_series(su2):
    M = exterior_model(su2)
    data = twist_operators(M, Truncation(6))
    closed = twist_closed_form(data)
    assert closed.equal_on(data.twist, data.tensor.space.degrees())


def _rescaled_exterior(g):
    """Λ(g*) in the basis s·e with s = p + j + 2 for basis vector j of degree p:
    the same module, conjugated by a rational diagonal basis change, so its
    d and i_k have non-integer entries."""
    ext = exterior_model(g)
    scale = {p: [Q(p + j + 2) for j in range(ext.space.dim(p))] for p in ext.space.degrees()}

    def conjugate(op):
        return LinMap(ext.space, ext.space, op.shift, {
            p: Matrix(m.rows, m.cols, {(r, c): v * scale[p][c] / scale[p + op.shift][r]
                                       for (r, c), v in m.entries.items()})
            for p, m in op.blocks.items()})

    return KgModule(g, Complex(ext.space, conjugate(ext.d)), [conjugate(ik) for ik in ext.i_ops],
                    name=f"{ext.name} rescaled")


def _twist_test_modules():
    for name in BUILTIN_NAMES:
        g = builtin_algebra(name)
        _, coad = adjoint_matrices(g)
        yield pytest.param(trivial_module(g), id=f"{name}-trivial")
        yield pytest.param(exterior_model(g), id=f"{name}-exterior")
        yield pytest.param(polynomial_forms_module(g, coad, poly_degree=1), id=f"{name}-forms")
    yield pytest.param(_rescaled_exterior(builtin_algebra("su2")), id="su2-exterior-rescaled")


@pytest.mark.parametrize("M", list(_twist_test_modules()))
def test_twist_on_unit_matches_series(M):
    """T built directly on the columns 1⊗m equals those columns of exp(−𝐢)."""
    data = twist_operators(M, Truncation(M.space.hi + 1))
    product = data.tensor.tensor
    assert (data.space._offsets, data.space._dims) == (product._offsets, product._dims)
    for r in M.space.degrees():
        series, unit = data.twist.block(r), data.unit.block(r)
        assert (unit.rows, unit.cols) == (series.rows, M.space.dim(r))
        for m in range(M.space.dim(r)):
            assert unit.column(m) == series.column(product.position(0, 0, r, m)), (r, m)


def test_twist_on_unit_covers_fractional_blocks(su2):
    M = _rescaled_exterior(su2)
    assert validate_kg(M).ok
    assert any(blk.den != 1 for ik in M.i_ops for blk in ik.blocks.values())
    assert any(blk.den != 1 for blk in twist_operators(M, Truncation(4)).unit.blocks.values())


# -- horizontal / basic ------------------------------------------------------


def test_trivial_module_everything_basic(su2):
    t = trivial_module(su2)
    hb = horizontal_basic(t)
    assert hb.basic.space.dim(0) == 1


def test_weil_basic_low_degrees(W_su2):
    hb = horizontal_basic(W_su2)
    assert hb.basic.space.dim(0) == 1
    assert hb.basic.space.dim(1) == 0


def test_exterior_horizontal_only_degree_zero(su2):
    ext = exterior_model(su2)
    hb = horizontal_basic(ext)
    assert {d: v.cols for d, v in hb.horizontal.items() if v.cols} == {0: 1}


def test_horizontal_basic_reads_every_contraction(monkeypatch, su2):
    """The i_k are not an action ([i_j, i_k] = 0, not i_[x_j,x_k]), so the
    horizontal and basic kernels keep the rows of every i_k (and i_k d),
    not the generators' only: the generators' i_0, i_1 alone would keep
    k* in degree 1."""
    import koszul.weil
    from koszul.linalg import joint_kernel

    widths = []

    def recorded(blocks, cols):
        widths.append(len(blocks))
        return joint_kernel(blocks, cols)

    monkeypatch.setattr(koszul.weil, "joint_kernel", recorded)
    ext = exterior_model(su2)
    hb = horizontal_basic(ext)
    assert widths and set(widths) == {su2.dim, 2 * su2.dim}
    assert hb.horizontal[1].cols == 0
    assert joint_kernel([ext.i_ops[k].block(1) for k in su2.generators], 3).cols == 1


# -- twist embedding (Cartan model -> basic subcomplex) ----------------------


@pytest.mark.parametrize("module", ["trivial", "exterior"])
def test_twist_embedding_su2(su2, module):
    M = trivial_module(su2) if module == "trivial" else exterior_model(su2)
    emb = twist_embedding(M, Truncation(10))
    assert emb.is_bijective()
    assert check_chain_map(emb.map).ok
    assert embedding_s_linearity(emb)


@pytest.mark.parametrize("module", ["trivial", "exterior"])
def test_twist_embedding_zero_lie_algebra(module):
    g = builtin_algebra("abelian:0")
    M = trivial_module(g) if module == "trivial" else exterior_model(g)
    emb = twist_embedding(M, Truncation(3))
    assert emb.is_bijective()
    assert check_chain_map(emb.map).ok


def test_twist_embedding_trivial_is_identity_on_s_invariants(su2):
    emb = twist_embedding(trivial_module(su2), Truncation(8))
    for deg, blk in emb.map.map.blocks.items():
        assert blk == Matrix.identity(blk.rows)


def test_embedding_image_is_horizontal(su2):
    M = exterior_model(su2)
    emb = twist_embedding(M, Truncation(8))
    WM = emb.product
    for deg, blk in emb.ambient_blocks.items():
        for c in range(blk.cols):
            v = blk.column(c)
            for k in range(3):
                assert not any(WM.i_ops[k].block(deg).apply(v))


def test_embedding_expansion_golden(su2):
    """T(1⊗m) = 1⊗1⊗m + sum_k y^k ⊗ i_k m − sum_{k<l} y^k∧y^l ⊗ i_k i_l m ∓ ...

    For m = j*∧k* (degree 2 in Λ(su2)*) the structural-deletion expansion
    reproduces the alternating-sign display with plus deletion.
    """
    M = exterior_model(su2)
    data = twist_operators(M, Truncation(6))
    TM = data.tensor
    basis = [TM.tensor.entry(2, i) for i in range(TM.tensor.dim(2))]
    idx = {e: i for i, e in enumerate(basis)}
    src = idx[(0, 0, 2, 2)]  # 1 ⊗ j*∧k*
    col = data.twist.block(2).column(src)
    got = {basis[i]: c for i, c in enumerate(col) if c}
    # Λ-monomial indices: deg1: 0=i*,1=j*,2=k*; deg2: 0=i*j*,1=i*k*,2=j*k*.
    # First order: -y^k ⊗ del_k m; second order: -y^k∧y^l ⊗ del_k del_l m.
    assert got == {
        (0, 0, 2, 2): Q(1),    # 1⊗(j*∧k*)
        (1, 1, 1, 2): Q(-1),   # -j*⊗k*: del_j(j*∧k*) = +k*
        (1, 2, 1, 1): Q(1),    # +k*⊗j*: del_k(j*∧k*) = -j*
        (2, 2, 0, 0): Q(1),    # -(j*∧k*)⊗ del_j del_k(j*∧k*) = -(-1) = +1
    }


@pytest.mark.parametrize("name, N, message", [
    ("su2", 5, "d^2 != 0 at degree 3 on basis vector 'k*⊗k*'"),
    ("su2xsu2", 6, "d^2 != 0 at degree 4 on basis vector 'k2*⊗j2*∧k2*'"),
])
def test_weil_d_squared_gate_catches_one_corrupted_entry(name, N, message):
    """One entry of the lifted d_W changed in the top block the d² check
    reads (d out of degree usable_top(2) + 1, the left factor at the top
    checked degree) makes the check raise, with the witness pinned."""
    import re

    W = weil_model(builtin_algebra(name), Truncation(N))
    d, top = W.d, W.complex.usable_top(2)
    assert top == N - 2
    c = max(i for i, _ in d.block(top).num)  # a basis vector of degree top + 1 that d_top reaches
    blk = d.block(top + 1)
    num = dict(blk.num)
    num[(0, c)] = num.get((0, c), 0) + blk.den
    corrupted = LinMap(d.source, d.target, 1,
                       {**d.blocks, top + 1: Matrix._from_ints(blk.rows, blk.cols, num, blk.den)})
    with pytest.raises(ValueError, match=re.escape(message)):
        Complex(W.space, corrupted, complete=False)
    assert Complex(W.space, d, complete=False).d_squared_defect() is None
