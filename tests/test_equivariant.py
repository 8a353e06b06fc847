from fractions import Fraction

import pytest

from koszul.complexes import Truncation, check_chain_map, cohomology
from koszul.equivariant import (
    cartan_model,
    induced_action_on_cohomology,
    invariant_multivector_basis,
    invariant_multivectors,
    invariant_subcomplex,
    sym_invariant_complex,
    sym_invariants,
)
from koszul.lie import builtin_algebra
from koszul.modules import exterior_model, sym_monomials, trivial_module, tensor_module

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
    assert len(sym_invariants(su2, 0)) == 1
    assert sym_invariants(su2, 1) == []
    inv2 = sym_invariants(su2, 2)
    assert len(inv2) == 1
    monos = sym_monomials(3, 2)
    nonzero = {monos[i] for i, c in enumerate(inv2[0]) if c}
    assert nonzero == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
    assert sym_invariants(su2, 3) == []
    assert len(sym_invariants(su2, 4)) == 1


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
    for deg2a, invariants in sorted(model.s_invariants.items()):
        a = deg2a // 2
        if a == 0:
            continue
        for s in invariants:
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
    cx, vecs = sym_invariant_complex(su2, 8)
    assert {d: cx.space.dim(d) for d in cx.space.degrees()} == {0: 1, 4: 1, 8: 1}


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
    from koszul.equivariant import symmetric_algebra
    from koszul.linalg import joint_kernel

    g = builtin_algebra(alg)
    M = build_module(kind, g)
    _, comp = verify_duality(M, Truncation(N))
    WM = comp.product
    for t in WM.complex.usable_degrees(1):
        assert comp.invariants.vectors[t] == joint_kernel(
            [L.block(t) for L in WM.L_ops], WM.space.dim(t)), t
    ambient = comp.cartan.ambient
    _, _, sym_action = symmetric_algebra(g, max(0, (N - M.space.lo) // 2))
    lifted = [ambient.lift_sum([(LS, None), (None, LM)], 0) for LS, LM in zip(sym_action, M.L_ops)]
    for t in ambient.degrees():
        K = joint_kernel([L.block(t) for L in lifted], ambient.dim(t))
        assert comp.cartan.vectors.get(t, K.take([])) == K, t
