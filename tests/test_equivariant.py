from fractions import Fraction

import pytest

from koszul.cli import resolve_module
from koszul.complexes import SubcomplexError, Truncation, check_chain_map, cohomology
from koszul.equivariant import (
    SymmetricAlgebra,
    cartan_model,
    induced_action_on_cohomology,
    invariant_multivector_basis,
    invariant_multivectors,
    invariant_subcomplex,
    sym_invariant_complex,
)
from koszul.lie import BUILTIN_NAMES, builtin_algebra
from koszul.linalg import Matrix
from koszul.modules import (
    exterior_model,
    kg_module_from_dict,
    sym_monomials,
    tensor_module,
    trivial_module,
)

Q = Fraction


@pytest.fixture(scope="module")
def su2():
    return builtin_algebra("su2")


@pytest.fixture(scope="module")
def ext_su2(su2):
    return exterior_model(su2)


def test_invariant_multivectors_su2(su2):
    assert invariant_multivectors(su2, 1) == []
    assert invariant_multivectors(su2, 2) == []
    top = invariant_multivectors(su2, 3)
    assert len(top) == 1 and top[0] == (1,)


def test_sym_invariants_su2(su2):
    S = SymmetricAlgebra(su2, 4)
    assert [S.invariants(2 * a).cols for a in range(5)] == [1, 0, 1, 0, 1]
    inv2 = S.invariants(4).columns()
    monos = sym_monomials(3, 2)
    assert S.basis[4] == monos
    nonzero = {monos[i] for i, c in enumerate(inv2[0]) if c}
    assert nonzero == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}


def test_invariant_subcomplex_exterior_su2(ext_su2):
    inv = invariant_subcomplex(ext_su2)
    dims = {d: inv.complex.space.dim(d) for d in range(4)}
    assert dims == {0: 1, 1: 0, 2: 0, 3: 1}
    assert not inv.complex.d.blocks  # restricted differential vanishes
    assert check_chain_map(inv.inclusion).ok


def test_invariant_subcomplex_trivial(su2):
    t = trivial_module(su2)
    inv = invariant_subcomplex(t)
    assert inv.complex.space.dim(0) == 1


def test_multivector_action_nonzero_scalar(ext_su2, su2):
    inv = invariant_subcomplex(ext_su2)
    assert len(inv.multivectors) == 1
    act = inv.actions[0]
    blk = act.block(3)  # degree 3 -> degree 0
    assert blk.rows == 1 and blk.cols == 1
    assert blk[(0, 0)] != 0


def test_multivector_action_supercommutation():
    g = builtin_algebra("su2xsu2")
    M = exterior_model(g)
    inv = invariant_subcomplex(M)
    degs = [mv.degree for mv in inv.multivectors]
    assert degs == [3, 3, 6]
    a, b = inv.actions[0], inv.actions[1]
    lhs = a.compose(b)
    sign = (-1) ** (3 * 3)
    rhs = b.compose(a).scale(sign)
    assert lhs.equal_on(rhs, inv.complex.space.degrees())


def test_invariants_commute_with_cohomology(ext_su2):
    # dim H^m((M)^g) == dim (H^m(M))^g  for the semisimple examples
    inv = invariant_subcomplex(ext_su2)
    sub_coh = cohomology(inv.complex, Truncation(4))
    for deg in range(4):
        mats = induced_action_on_cohomology(ext_su2, deg)
        # L is null-homotopic, so it acts as zero on cohomology
        assert all(m.is_zero() for m in mats)
        full = cohomology(ext_su2.complex, Truncation(4))
        invariant_dim = full.betti.get(deg, full.uncertified.get(deg, 0))
        got = sub_coh.betti.get(deg, sub_coh.uncertified.get(deg, 0))
        assert got == invariant_dim


# -- Cartan model ------------------------------------------------------------


def test_cartan_model_trivial_su2(su2):
    model = cartan_model(trivial_module(su2), Truncation(9))
    rep = cohomology(model.complex, Truncation(9))
    expected = {d: 0 for d in range(9)}
    expected[0] = 1
    expected[4] = 1
    expected[8] = 1
    assert rep.betti == expected
    assert rep.uncertified == {9: 0}
    assert not model.complex.d.blocks  # zero differential on (S)^g


def test_cartan_model_exterior_su2(ext_su2):
    model = cartan_model(ext_su2, Truncation(8))
    rep = cohomology(model.complex, Truncation(8))
    assert rep.betti[0] == 1
    assert all(rep.betti[d] == 0 for d in range(1, 8))


def test_cartan_s_action_is_chain_map(su2, ext_su2):
    # every invariant polynomial acts as a chain map of the Cartan model
    model = cartan_model(ext_su2, Truncation(6))
    S = model.ambient.A
    for deg2a in S.basis:
        a = deg2a // 2
        if a == 0:
            continue
        for s in S.invariants(deg2a).columns():
            mult = model.s_action(a, s)
            lhs = model.complex.d.compose(mult)
            rhs = mult.compose(model.complex.d)
            degs = [d for d in model.complex.space.degrees()
                    if d + deg2a <= model.N - 1]
            assert lhs.equal_on(rhs, degs)


def test_cartan_rejects_truncated_module(su2, ext_su2):
    t = tensor_module(ext_su2, ext_su2, max_total=2)
    assert not t.complete
    with pytest.raises(ValueError):
        cartan_model(t, Truncation(4))


def test_sym_invariant_complex_su2(su2):
    cx, vecs = sym_invariant_complex(SymmetricAlgebra(su2, 4), 8)
    assert {d: cx.space.dim(d) for d in cx.space.degrees()} == {0: 1, 4: 1, 8: 1}


def test_symmetric_algebra_cut_and_widened_share_one_record(su2):
    """A cut keeps ``basis`` in step with its degrees and labels; a cut and
    a widening read the L_k blocks and invariants of the record they came
    from, so no S^a is differentiated or cut twice."""
    S = SymmetricAlgebra(su2, 2)
    for cut, hi in ((S.truncated(3), 3), (S.to(1), 2)):
        assert cut.degrees() == sorted(cut.basis) == [0, 2] and cut.hi == hi
        assert all(cut.dim(deg) == len(monos) == len(cut.labels(deg)) for deg, monos in cut.basis.items())
        assert all(sorted(L.blocks) == [2] for L in cut.action)
    wide = S.to(4)
    assert sorted(wide.basis) == wide.degrees() == [0, 2, 4, 6, 8] and wide.basis[4] == S.basis[4]
    assert S.invariants(4) is wide.invariants(4) is S.to(1).to(3).invariants(4)
    assert wide.invariants(8) is S.to(4).invariants(8) and wide.invariants(8).cols == 1
    assert wide.labels(4) == S.labels(4) and wide.action[0].block(4) == S.action[0].block(4)


@pytest.mark.parametrize("args, powers", [
    (["transgress", "--algebra", "su2xsu2", "--max-degree", "8"], [0, 1, 2, 3, 4]),
    (["weil-check", "--algebra", "su2", "--max-degree", "1"], [0, 1]),
])
def test_each_symmetric_power_is_differentiated_once(monkeypatch, capsys, args, powers):
    """The L_k on each S^a are built once per algebra.  On a fresh algebra,
    transgress's W(g) reaches S^2 and generation_check widens its record to
    S^4; weil-check at N = 1 widens W to degree 2 for d_W(1⊗y), on a wider
    record; each builds Λ(g*) once.  The same command again, on the same
    algebra, differentiates no S^a and builds no Λ(g*)."""
    from koszul import cli, equivariant, modules

    calls, built = [], []
    derivation_on_sym, build_exterior = equivariant.derivation_on_sym, modules.build_exterior
    monkeypatch.setattr(equivariant, "derivation_on_sym",
                        lambda matrices, total: calls.append(total) or derivation_on_sym(matrices, total))
    monkeypatch.setattr(modules, "build_exterior", lambda g: built.append(g) or build_exterior(g))
    builtin_algebra.cache_clear()
    for want_powers, want_builds in ((powers, 1), ([], 0)):
        calls.clear()
        built.clear()
        assert cli.main(args) == 0
        assert "pass" in capsys.readouterr().out
        assert calls == want_powers and len(built) == want_builds


def test_symmetric_multiplication_with_fraction_coefficients(su2):
    """Multiplication by 1/2·i* − 2/3·k* on S(su2*) to S^3, built on integer
    blocks, equals the blocks written out entry by entry here."""
    S = SymmetricAlgebra(su2, 3)
    coeffs = [Q(1, 2), 0, Q(-2, 3)]
    mult = S.multiplication(1, coeffs)
    assert sorted(mult.blocks) == [0, 2, 4]
    for deg in (0, 2, 4):
        source, target = sym_monomials(3, deg // 2), sym_monomials(3, deg // 2 + 1)
        want = Matrix(len(target), len(source), {
            (target.index(tuple(x + (i == k) for i, x in enumerate(e))), col): c
            for col, e in enumerate(source) for k, c in enumerate(coeffs) if c})
        assert mult.block(deg) == want and mult.block(deg).den == 6


def test_symmetric_multiplication_names_a_wrong_coefficient_count(su2):
    """A coefficient vector of the wrong length is refused with the degree,
    the length given and dim S^a, by the record and by the Cartan model."""
    S = SymmetricAlgebra(su2, 2)
    assert S.multiplication(2, [1] * 6).shift == 4 and S.generator(0).block(0).num == {(0, 0): 1}
    message = r"^an element of S\^2 needs dim S\^2 = 6 coefficients, got 5$"
    with pytest.raises(ValueError, match=message):
        S.multiplication(2, [1] * 5)
    with pytest.raises(ValueError, match=message):
        cartan_model(trivial_module(su2), Truncation(4)).s_action(2, [1] * 5)


def test_abelian_cartan_of_trivial():
    g = builtin_algebra("abelian1")
    model = cartan_model(trivial_module(g), Truncation(5))
    rep = cohomology(model.complex, Truncation(5))
    # Q[u], one generator in degree 2
    assert rep.betti == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


# -- invariants of a product are cut from the factors' L_k rows -----------------
# (the rows themselves are checked in test_complexes)


def _perfbench_survey():
    """The survey cases and their module builder, read from perfbench/."""
    import sys
    from pathlib import Path

    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    # perfbench's modules import each other by bare name; write no bytecode there
    sys.path.insert(0, perfbench)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from child import build_module
        from workloads import SURVEY
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(perfbench)
    return SURVEY, build_module


SURVEY, build_module = _perfbench_survey()


@pytest.mark.parametrize("alg, kind, N", SURVEY)
def test_product_invariants_equal_kernel_of_lifted_blocks(alg, kind, N):
    """On every survey case the invariant vectors of W⊗M and of the Cartan
    ambient S(g*)⊗M, cut from the factor rows, equal joint_kernel of the
    lifted L_k blocks (the reference)."""
    from koszul.duality import verify_duality
    from koszul.linalg import joint_kernel

    g = builtin_algebra(alg)
    M = build_module(kind, g)
    _, comp = verify_duality(M, Truncation(N))
    WM = comp.product
    for t in WM.complex.usable_degrees(1):
        assert comp.invariants.vectors[t] == joint_kernel(
            [L.block(t) for L in WM.L_ops], WM.space.dim(t)), t
    ambient = comp.cartan.ambient
    sym_action = SymmetricAlgebra(g, max(0, (N - M.space.lo) // 2)).action
    lifted = [ambient.lift_sum([(LS, None), (None, LM)], 0) for LS, LM in zip(sym_action, M.L_ops)]
    for t in ambient.degrees():
        K = joint_kernel([L.block(t) for L in lifted], ambient.dim(t))
        assert comp.cartan.vectors.get(t, K.take([])) == K, t


# -- the Cartan model read off the W⊗M invariant cut ----------------------------


def _weil_side(M, N):
    """W(g) to N + 1 and the invariants of W⊗M, as verify_duality builds them."""
    from koszul.weil import weil_model

    W = weil_model(M.g, Truncation(N + 1))
    return W, invariant_subcomplex(tensor_module(W, M, max_total=N + 1))


def _two_degree_file_module(g):
    """A module loaded from a file's data, one basis vector in degree 2 and
    one in 5, d = 0 and i = 0: the Cartan strata have gaps."""
    return kg_module_from_dict(g, {"degrees": {"2": ["a"], "5": ["b"]}, "d": [], "i": {}},
                               name="file25")


CARTAN_CASES = [(alg, kind, 3 if alg in ("sl3", "u2") else 5)
                for alg in (*BUILTIN_NAMES, "abelian:0")
                for kind in ("trivial", "exterior", "forms:coadjoint:1", "file25", "exterior⊗exterior")
                if kind != "exterior⊗exterior" or builtin_algebra(alg).dim <= 3]


def _build(kind, g):
    if kind == "file25":
        return _two_degree_file_module(g)
    if kind == "exterior⊗exterior":
        ext = exterior_model(g)
        return tensor_module(ext, ext)
    return resolve_module(kind, g)


def _assert_same_cartan(M, N, inv_WM):
    fresh = cartan_model(M, Truncation(N))
    read = cartan_model(M, Truncation(N), invariants=inv_WM)
    assert read.vectors == fresh.vectors, (M.name, N)
    assert read.ambient.A.basis == fresh.ambient.A.basis, (M.name, N)
    assert read.ambient.A == fresh.ambient.A and read.complex.space == fresh.complex.space
    assert read.complex.d.blocks == fresh.complex.d.blocks, (M.name, N)
    return fresh


@pytest.mark.parametrize("alg, kind, top", CARTAN_CASES)
def test_cartan_read_off_the_weil_side_equals_the_fresh_cut(alg, kind, top):
    """cartan_model with S(g*) from W(g) and the invariant vectors read off
    the (W⊗M)^g cut gives the same vectors, S monomials and d blocks as the
    model built on its own, at every window 0..top."""
    g = builtin_algebra(alg)
    M = _build(kind, g)
    seen = 0
    for N in range(top + 1):
        seen += sum(V.cols for V in _assert_same_cartan(M, N, _weil_side(M, N)[1]).vectors.values())
    assert seen or not M.space.degrees()


def test_cartan_read_names_a_column_that_leaves_its_stratum(su2):
    """A selected column with a row in another stratum of W⊗M is caught:
    the error names the stage, the stratum and the degree."""
    M = trivial_module(su2)
    W, inv = _weil_side(M, 4)
    V = inv.vectors[4]
    last = {j: max(i for i, _ in col) for j, col in V.int_columns().items()}
    j, row = max(last.items(), key=lambda jr: jr[1])  # a column of S^2⊗Λ^0⊗M^0, the last stratum
    assert row >= W.space.dim(4) - W.algebra.product.A.dim(4)
    inv.vectors[4] = V + Matrix(V.rows, V.cols, {(0, j): 1})  # row 0 lies in S^0⊗Λ^4
    with pytest.raises(SubcomplexError, match=r"^Cartan read of \(Q\)_g from \(W⊗M\)\^g: "
                                              rf"column {j} leaves S\^2⊗Λ\^0⊗M\^0 at degree 4$"):
        cartan_model(M, Truncation(4), invariants=inv)


def test_cartan_from_the_weil_side_rejects_invariants_that_stop_short(su2):
    """Invariants of W⊗M that stop below the Cartan window are named, with
    the degree they reach and the degree the model needs."""
    M = trivial_module(su2)
    _, inv = _weil_side(M, 2)
    with pytest.raises(ValueError, match=r"^the invariants of W\(su2\)⊗Q stop at degree 2; "
                                         r"the Cartan model needs degree 4$"):
        cartan_model(M, Truncation(4), invariants=inv)


def test_verify_duality_cuts_no_cartan_or_polynomial_invariants(monkeypatch):
    """Inside verify_duality, cartan_model makes no invariant cut of its
    own and distinguished_transgression builds no derivation on S(g*):
    both read what W(g) and the W⊗M cut already hold."""
    from koszul import duality, equivariant, lie
    from koszul.duality import verify_duality

    stage, calls = [], []

    def staged(fn):
        def wrapped(*args, **kwargs):
            stage.append(fn.__name__)
            try:
                return fn(*args, **kwargs)
            finally:
                stage.pop()
        return wrapped

    def counted_in(name, fn):
        def wrapped(*args, **kwargs):
            if name in stage:
                calls.append((name, fn.__name__))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(duality, "cartan_model", staged(duality.cartan_model))
    monkeypatch.setattr(duality, "distinguished_transgression", staged(duality.distinguished_transgression))
    # every invariant cut, of an action or of Matrix blocks, ends in lie.action_kernel
    monkeypatch.setattr(lie, "action_kernel", counted_in("cartan_model", lie.action_kernel))
    monkeypatch.setattr(equivariant, "derivation_on_sym",
                        counted_in("distinguished_transgression", equivariant.derivation_on_sym))
    report, comp = verify_duality(exterior_model(builtin_algebra("su2")), Truncation(5))
    assert report.verdict and comp.cartan.vectors and comp.transgression.entries
    assert calls == []
