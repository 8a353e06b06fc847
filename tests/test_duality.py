from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul.complexes import Truncation, cohomology
from koszul.duality import (
    DualityComputation,
    DualityReport,
    h_of,
    psi_contraction_compatibility,
    verify_duality,
)
from koszul.equivariant import cartan_model
from koszul.lie import adjoint_matrices, builtin_algebra, lie_algebra_from_dict
from koszul.modules import exterior_model, polynomial_forms_module, trivial_module
from koszul.transgression import (
    TransgressionData,
    TransgressionEntry,
    distinguished_transgression,
    generation_check,
    primitive_basis,
)


# quasi-isomorphisms certified through degree 7 need the window at 8
N8 = Truncation(8)


@pytest.fixture(scope="module")
def su2():
    return builtin_algebra("su2")


@pytest.fixture(scope="module")
def su2_trivial_run(su2):
    return verify_duality(trivial_module(su2), N8)


@pytest.fixture(scope="module")
def su2_exterior_run(su2):
    return verify_duality(exterior_model(su2), N8)


def test_h_of_trivial_su2_is_koszul_complex(su2):
    A = cartan_model(trivial_module(su2), Truncation(8))
    P = primitive_basis(su2, Truncation(8))
    T = distinguished_transgression(su2, P)
    h = h_of(A, T, Truncation(8))
    rep = cohomology(h.complex, Truncation(8))
    assert rep.betti[0] == 1
    assert all(rep.betti[m] == 0 for m in range(1, 8))
    # h(A) = Λ[ξ] ⊗ Q[ξ~]: dims 1,0,0,1,1,0,0,1 in degrees 0..7
    dims = {d: h.complex.space.dim(d) for d in range(8)}
    assert dims == {0: 1, 1: 0, 2: 0, 3: 1, 4: 1, 5: 0, 6: 0, 7: 1}


def test_h_zero_action_zero_differential(su2):
    # with zero S-action and zero inner differential, d_h = 0 and the
    # cohomology is the whole exterior-factor tensor A
    A = cartan_model(trivial_module(su2), Truncation(8))
    P = primitive_basis(su2, Truncation(8))
    T = distinguished_transgression(su2, P)
    zeroed = TransgressionData(T.g, T.weil, [
        TransgressionEntry(e.primitive, e.omega, tuple(0 * c for c in e.xi_tilde), e.xi_tilde_label)
        for e in T.entries
    ])
    h = h_of(A, zeroed, Truncation(8))
    assert not h.complex.d.blocks
    rep = cohomology(h.complex, Truncation(8))
    for d in range(8):
        assert rep.betti[d] == h.complex.space.dim(d)


def test_duality_su2_trivial(su2_trivial_run):
    report, comp = su2_trivial_run
    assert report.verdict
    assert report.betti_invariants == {d: (1 if d == 0 else 0) for d in range(8)}
    assert report.betti_h == report.betti_invariants
    assert report.betti_match


def test_duality_su2_exterior(su2_exterior_run):
    report, comp = su2_exterior_run
    assert report.verdict
    expected = {d: 0 for d in range(8)}
    expected[0] = 1
    expected[3] = 1
    assert report.betti_invariants == expected
    assert report.betti_h == expected
    assert report.betti_product_invariants == expected


def test_psi_zero_stratum_is_twist_embedding(su2_exterior_run):
    # on 1 ⊗ (M)_g the map is exactly the twist embedding followed by the
    # inclusion of basic elements into the invariants
    report, comp = su2_exterior_run
    from koszul.weil import twist_embedding

    emb = twist_embedding(
        comp.module, Truncation(comp.N),
        weil=None, cartan=comp.cartan, product=None,
    )
    # compare ambient images on the degree-0 stratum
    psi_col = comp.psi.map.block(0).column(0)
    inv_vectors = comp.invariants.vectors[0].columns()
    amb = [sum((c * v[i] for c, v in zip(psi_col, inv_vectors)),
               start=psi_col[0] * 0) for i in range(comp.product.space.dim(0))]
    emb_col = emb.ambient_blocks[0].column(0)
    assert tuple(amb) == tuple(emb_col)


def test_duality_abelian1_exterior():
    g = builtin_algebra("abelian1")
    report, _ = verify_duality(exterior_model(g), N8)
    assert report.verdict
    assert report.betti_invariants[0] == 1 and report.betti_invariants[1] == 1


def test_duality_abelian2_exterior():
    g = builtin_algebra("abelian2")
    report, _ = verify_duality(exterior_model(g), N8)
    assert report.verdict
    assert [report.betti_invariants[d] for d in range(4)] == [1, 2, 1, 0]


def test_duality_su2xsu2_exterior_window_5():
    # the inclusion leg stops at the top of the truncated (W⊗M)^g window
    g = builtin_algebra("su2xsu2")
    report, _ = verify_duality(exterior_model(g), Truncation(5))
    assert report.verdict


def test_duality_builds_only_what_it_reads():
    # the verifier reads T only on the columns 1⊗m and never reads the
    # contractions of W⊗M; on a fresh algebra, S(g*)'s invariants are cut
    # only where the transgression reads them (S^2, for the two degree-3
    # primitives), and the Cartan model's S(g*) and W's read g's one record
    builtin_algebra.cache_clear()
    g = builtin_algebra("su2xsu2")
    report, comp = verify_duality(exterior_model(g), Truncation(4))
    assert report.verdict
    assert "i_ops" not in vars(comp.product)
    _, s_invariants, _ = g._symmetric
    assert sorted(s_invariants) == [2] and comp.cartan.ambient.A.g is comp.weil.algebra.product.A.g is g
    assert not {"tensor", "generator", "twist", "twist_inv"} & set(vars(comp.twist))
    assert comp.twist.exterior is comp.weil.algebra.ext


def test_product_invariants_leave_weil_contractions_unlifted(su2):
    # the i and L pairs of W⊗M are separate sources: cutting its invariants
    # reads the L_k of W, never its i_k, and reads the L_k of W from S(g*)
    # and Λ(g*) without lifting a block of them
    from koszul.equivariant import invariant_subcomplex
    from koszul.modules import tensor_module
    from koszul.weil import weil_model

    W = weil_model(su2, Truncation(5))
    invariant_subcomplex(tensor_module(W, exterior_model(su2), max_total=5))
    assert "L_ops" in vars(W) and "i_ops" not in vars(W)
    assert all(L._lifted is None for L in W.L_ops)


@pytest.mark.parametrize("module", ["trivial", "exterior⊗exterior"])
def test_verifier_lifts_no_L_block_of_a_tensor_factor(monkeypatch, module):
    """verify_duality cuts and certifies the invariants of W⊗M, and of
    S(g*)⊗M in the Cartan model, from the factors' L rows and columns: no
    block of W's L_k is built, and for M = Λ⊗Λ none of M's L_k either.
    Neither a lift_sum of degree 0 on W or on M runs nor a block of their
    L_k is read."""
    from koszul.complexes import DiagonalSum, TensorSpace
    from koszul.modules import TensorModule, tensor_module

    lifted, read = [], []
    lift_sum, blocks = TensorSpace.lift_sum, DiagonalSum.blocks

    def recorded(ts, terms, shift, top=None):
        lifted.append((ts, shift))
        return lift_sum(ts, terms, shift, top)

    monkeypatch.setattr(TensorSpace, "lift_sum", recorded)
    monkeypatch.setattr(DiagonalSum, "blocks", property(lambda L: read.append(L) or blocks.fget(L)))
    g = builtin_algebra("su2")
    ext = exterior_model(g)
    M = trivial_module(g) if module == "trivial" else tensor_module(ext, ext)
    report, comp = verify_duality(M, Truncation(6))
    assert report.verdict
    factors = [comp.weil] + [M] * isinstance(M, TensorModule)
    assert all(isinstance(L, DiagonalSum) for F in factors for L in F.L_ops)
    assert not read
    assert not [ts for ts, shift in lifted if shift == 0 and any(ts is F.tensor for F in factors)]
    # a block read still lifts it, from the same factor pairs
    L = comp.weil.L_ops[0]
    assert L.block(2) == lift_sum(L.tensor, [(L.pair[0], None), (None, L.pair[1])], 0).block(2)
    assert read == [L]


def test_certificate_builds_only_the_reached_columns_of_weil_L(monkeypatch):
    """The certificate of an invariant kernel of W⊗Q builds the columns of
    W's L_k that the kernel's support reaches, each once per certified L_k,
    and no other: su2xsu2 trivial N=8 at degree 8, where W^8 has 1287 basis
    vectors and the kernel 8 columns over 66 of them."""
    from koszul.complexes import TensorSpace
    from koszul.modules import tensor_module
    from koszul.weil import weil_model

    g = builtin_algebra("su2xsu2")
    W = weil_model(g, Truncation(9))
    WM = tensor_module(W, trivial_module(g), max_total=9)
    built = []
    image_column = TensorSpace._image_column

    def recorded(ts, t, parts, i):
        if ts is W.tensor:
            built.append((t, i))
        return image_column(ts, t, parts, i)

    monkeypatch.setattr(TensorSpace, "_image_column", recorded)
    K = WM.invariant_blocks([8])[8]
    support = {i for i, _ in K.num}  # W^8⊗Q^0 sits in W^8's order
    assert (K.cols, len(support), W.space.dim(8)) == (8, 66, 1287)
    certified = g.dim - len(g.generators)
    assert certified == 2
    assert sorted(built) == sorted((8, i) for i in support for _ in range(certified))


def test_duality_sl2_trivial():
    g = builtin_algebra("sl2")
    report, _ = verify_duality(trivial_module(g), N8)
    assert report.verdict


def test_duality_su2_polynomial_forms(su2):
    _, coad = adjoint_matrices(su2)
    M = polynomial_forms_module(su2, coad, poly_degree=1, var_names=["x", "y", "z"])
    report, _ = verify_duality(M, N8)
    assert report.verdict
    # the slice is acyclic and has no invariant part, so all tables vanish
    assert all(v == 0 for v in report.betti_invariants.values())
    assert all(v == 0 for v in report.betti_h.values())


def test_negative_control_su2(su2):
    report, comp = verify_duality(exterior_model(su2), Truncation(6),
                                  corrupt_transgression=True)
    assert not report.verdict
    assert not report.psi_chain.ok
    deg, label, defect = report.psi_chain.witness
    assert any(defect)


def test_negative_control_abelian_passes():
    g = builtin_algebra("abelian2")
    report, _ = verify_duality(exterior_model(g), Truncation(6),
                               corrupt_transgression=True)
    # the naive lift 1⊗ξ is already transgressive when the algebra is abelian
    assert report.psi_chain.ok
    assert report.verdict


def test_psi_commutes_with_contractions(su2_trivial_run):
    _, comp = su2_trivial_run
    assert psi_contraction_compatibility(comp)


def test_report_json_roundtrip(su2_trivial_run):
    report, _ = su2_trivial_run
    import json

    data = json.loads(report.to_json())
    assert data["verdict"] == "pass"
    assert data["betti"]["h_of_equivariant"]["0"] == 1
    assert "psi_chain" in data and data["psi_chain"]["ok"]


# -- the verifier's invariant bases stay integer column blocks ------------------


def test_invariant_path_builds_no_fraction(monkeypatch):
    """The invariant subcomplex of W⊗M, the inclusion and ψ run on integer
    column blocks: no Fraction is built (su2xsu2 exterior, N = 4)."""
    from fractions import Fraction

    from koszul.duality import build_psi, inclusion_map
    from koszul.equivariant import invariant_subcomplex
    from koszul.modules import tensor_module
    from koszul.weil import twist_operators, weil_model

    g = builtin_algebra("su2xsu2")
    M, N = exterior_model(g), 4
    W = weil_model(g, Truncation(N + 1))
    WM = tensor_module(W, M, max_total=N + 1, name="W⊗M")
    W.L_ops  # the factor L_k are inputs here, built before counting
    inv_M = invariant_subcomplex(M)
    A = cartan_model(M, Truncation(N))
    T = distinguished_transgression(g, primitive_basis(g, Truncation(N)), weil=W)
    twist = twist_operators(M, Truncation(N + 1))
    h = h_of(A, T, Truncation(N))
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    inv_WM = invariant_subcomplex(WM)
    incl = inclusion_map(WM, inv_WM, inv_M)
    psi = build_psi(T, A, h, WM, inv_WM, twist)
    assert built == []
    monkeypatch.undo()
    assert inv_WM.vectors[4].cols and incl.map.blocks and psi.map.blocks


@pytest.mark.parametrize("alg, module, N, corrupt", [
    ("su2", "trivial", 5, True),
    ("su2xsu2", "exterior", 4, False),
    ("u2", "exterior", 4, False),
])
def test_verifier_reads_no_dense_vectors(monkeypatch, alg, module, N, corrupt):
    """No dense vector is turned back into a sparse one anywhere in
    verify_duality: _sparse, Matrix.apply and Matrix.from_columns are not called."""
    from koszul import linalg

    g = builtin_algebra(alg)
    M = exterior_model(g) if module == "exterior" else trivial_module(g)

    def refuse(*args, **kwargs):
        raise AssertionError("dense vector read back on the verifier path")

    monkeypatch.setattr(linalg, "_sparse", refuse)
    monkeypatch.setattr(linalg.Matrix, "apply", refuse)
    monkeypatch.setattr(linalg.Matrix, "from_columns", refuse)
    report, _ = verify_duality(M, Truncation(N), corrupt_transgression=corrupt)
    assert report.verdict != corrupt


def test_verifier_reads_no_product_labels():
    """W⊗M, the Cartan ambient, the twist space and W itself are never
    labelled by the verifier: their labels are built only on first read."""
    g = builtin_algebra("su2xsu2")
    _, comp = verify_duality(exterior_model(g), Truncation(4))
    for space in (comp.product.tensor, comp.cartan.ambient, comp.twist.space, comp.weil.algebra.product):
        assert space._labels == {}


@pytest.mark.parametrize("corrupt, digest", [
    (False, "60661a7e749c06d56148196c545ea8627154fa3ea2e5f86e8a2497d9f7ce657d"),
    (True, "df26db11658f4485c18c29e680c8ae851ff6600847a91b7b435781ed85f30ee8"),
])
def test_each_chain_check_runs_once(monkeypatch, su2, corrupt, digest):
    """verify_duality checks each leg's chain map once, inside quasi_iso_check,
    and its su(2) exterior N=4 report stays byte for byte the same."""
    import hashlib
    import sys

    from koszul.complexes import check_chain_map

    checked = []

    def counted(f):
        checked.append(f)
        return check_chain_map(f)

    # every name a koszul module binds it under, so no call goes uncounted
    for name, mod in list(sys.modules.items()):
        if name.startswith("koszul") and getattr(mod, "check_chain_map", None) is check_chain_map:
            monkeypatch.setattr(mod, "check_chain_map", counted)
    report, comp = verify_duality(exterior_model(su2), Truncation(4), corrupt_transgression=corrupt)
    assert checked == [comp.psi, comp.inclusion]
    assert (report.psi_quasi_iso is None) == corrupt and report.inclusion_quasi_iso is not None
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest


def test_product_invariants_lift_no_operator(monkeypatch, su2):
    """verify_duality cuts the invariants of W⊗M from the factor rows, so the
    product's L_k stay unlifted, and cartan_model calls no lift_sum at all
    (neither the diagonal action nor the ambient differential); the su(2)
    exterior N=4 report is unchanged."""
    import hashlib

    from koszul.complexes import TensorSpace

    M = exterior_model(su2)
    report, comp = verify_duality(M, Truncation(4))
    assert "L_ops" not in vars(comp.product)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "60661a7e749c06d56148196c545ea8627154fa3ea2e5f86e8a2497d9f7ce657d")
    shifts = []
    lift_sum = TensorSpace.lift_sum

    def counted(ts, terms, shift, top=None):
        shifts.append(shift)
        return lift_sum(ts, terms, shift, top)

    monkeypatch.setattr(TensorSpace, "lift_sum", counted)
    cartan_model(M, Truncation(4))
    assert not shifts


def test_verifier_builds_no_product_differential(monkeypatch):
    """verify_duality reads the differential of W⊗M only as d·V on
    invariant columns, and every operator on the Cartan ambient S(g*)⊗M
    (its d and the S-action h(A) multiplies by) the same way, so it lifts
    no block of d on W⊗M and nothing at all on S(g*)⊗M; the multivector
    contractions of the transgression are lifted from Λ(g*), so W's i_k
    stay unlifted too.  The d of W⊗M, lifted when read, still makes the
    inclusion of its invariants a chain map and restricts to the same
    differential."""
    from koszul.complexes import TensorSpace, check_chain_map, induced_map

    lifted = []
    lift_sum = TensorSpace.lift_sum

    def recorded(ts, terms, shift, top=None):
        lifted.append((ts, shift))
        return lift_sum(ts, terms, shift, top)

    monkeypatch.setattr(TensorSpace, "lift_sum", recorded)
    report, comp = verify_duality(exterior_model(builtin_algebra("su2xsu2")), Truncation(4))
    assert report.verdict
    assert comp.product.complex.d._lifted is None
    assert "i_ops" not in vars(comp.weil)
    assert not [ts for ts, shift in lifted
                if ts is comp.cartan.ambient or shift == 1 and ts is comp.product.tensor]
    inv = comp.invariants
    assert check_chain_map(inv.inclusion).ok
    assert inv.inclusion.target.d._lifted is not None
    ambient_d = inv.inclusion.target.d
    assert induced_map(ambient_d, inv.vectors, inv.vectors, inv.complex.space, inv.complex.space).equal_on(
        inv.complex.d, inv.complex.space.degrees())


def test_su2xsu2_exterior_n8_report_golden():
    """Byte-identical su2xsu2 exterior N=8 report: W⊗M reaches degree 9 here,
    so d·V runs on more strata of the product than any bench case."""
    import hashlib

    report, _ = verify_duality(exterior_model(builtin_algebra("su2xsu2")), N8)
    assert report.verdict
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "6aa89bd4e0a001d52d31f6ce18de960e1496f9d87336dca04e8d6d362e227480")


def test_sl3_trivial_n8_report_golden():
    """Byte-identical sl3 trivial N=8 report, off the bench: W(sl3) is built
    to degree 9, where its L_k and its d² check weigh most."""
    import hashlib

    report, _ = verify_duality(trivial_module(builtin_algebra("sl3")), N8)
    assert report.verdict
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == (
        "9a4cc7ca246aa08dfea5c6d953ae7e520f879b932557c2297aa43f4f221a8c52")


def test_invariant_kernels_are_certified_and_never_fall_back(monkeypatch, capsys):
    """Every invariant kernel of the benchmark's operations (the 14 survey
    cases, heavy and the cli calls) is cut from the generators' L_k and
    certified on exactly the other indices, and no certificate fails, so no
    kernel is cut again from every L_k."""
    import sys
    from pathlib import Path

    import koszul.cli
    import koszul.lie

    perfbench = str(Path(__file__).resolve().parent.parent / "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from child import build_module
    from workloads import operations

    certified = []
    certify = koszul.lie._certify

    def recorded(g, K, kills):
        seen = []
        ok = certify(g, K, lambda k, K: seen.append(k) or kills(k, K))
        certified.append((g, seen, ok))
        return ok

    monkeypatch.setattr(koszul.lie, "_certify", recorded)
    for algebra, kind, window in operations("survey") + operations("heavy"):
        M = build_module(kind, builtin_algebra(algebra))
        assert verify_duality(M, Truncation(window))[0].verdict, (algebra, kind, window)
    for argv, _ in operations("cli"):
        koszul.cli.main(list(argv))
    capsys.readouterr()
    assert {g.name for g, _, _ in certified} == {
        "abelian1", "abelian2", "su2", "sl2", "su2xsu2"}
    for g, seen, ok in certified:
        assert ok, g.name
        assert seen == [k for k in range(g.dim) if k not in g.generators], g.name


def test_heavy_case_builds_no_multivector_above_the_primitives(monkeypatch):
    """On su2xsu2 exterior at N = 6 every primitive has degree 3: the
    verifier asks for no invariant multivector above degree 3 (the
    transgression's condition (b) reads only those) and never reads the
    multivector action of an invariant model."""
    from koszul import equivariant
    from koszul.equivariant import InvariantModel

    degrees, reads = [], []
    invariant_multivectors = equivariant.invariant_multivectors
    monkeypatch.setattr(equivariant, "invariant_multivectors",
                        lambda g, p: degrees.append(p) or invariant_multivectors(g, p))
    monkeypatch.setattr(InvariantModel, "actions", property(lambda inv: reads.append(inv) or []))
    report, comp = verify_duality(exterior_model(builtin_algebra("su2xsu2")), Truncation(6))
    assert report.verdict
    assert sorted(set(degrees)) == [1, 2, 3] and not reads
    assert [e.primitive.degree for e in comp.transgression.entries] == [3, 3]


def test_psi_contraction_compatibility_reads_the_computed_invariants(monkeypatch):
    """psi_contraction_compatibility builds no second invariant model of
    W⊗M, and builds its own ψ: it holds on a run with a corrupted
    transgression even when that run's ψ is taken away."""
    from koszul import duality

    _, comp = verify_duality(exterior_model(builtin_algebra("su2")), Truncation(6),
                             corrupt_transgression=True)

    def refused(M):
        raise AssertionError("a second invariant model was built")

    monkeypatch.setattr(duality, "invariant_subcomplex", refused)
    without_psi = DualityComputation(
        comp.g, comp.module, comp.N, comp.weil, comp.product, comp.invariants, comp.cartan,
        comp.transgression, comp.twist, comp.h, None, comp.inclusion)
    assert psi_contraction_compatibility(without_psi)
    assert len(comp.invariants.actions) == len(comp.invariants.multivectors) == 1


# -- metamorphic oracle: a change of basis of g changes no answer ---------------


def _rebased(g, perm, scales, shear=None):
    """g in the basis f_a = scales[a]·y_perm[a], where y_m = x_m except
    y_s = x_s + x_t for shear = (s, t): the brackets [f_a, f_b] written back
    in the f, through x_s = y_s − y_t."""
    n = g.dim
    s, t = shear or (None, None)

    def in_f(x: dict) -> dict:
        y = dict(x)
        if s in x:
            y[t] = y.get(t, 0) - x[s]
        return {a: Fraction(y[perm[a]], scales[a]) for a in range(n) if y.get(perm[a])}

    f = [{perm[a]: scales[a], **({t: scales[a]} if perm[a] == s else {})} for a in range(n)]
    brackets = []
    for a in range(n):
        for b in range(a + 1, n):
            x = {}
            for i, u in f[a].items():
                for j, v in f[b].items():
                    for k in range(n):
                        x[k] = x.get(k, 0) + u * v * g.c(k, i, j)
            brackets.append({"i": a, "j": b, "terms": [{"k": c, "c": str(v)} for c, v in in_f(x).items()]})
    return lie_algebra_from_dict({"name": f"{g.name}'", "dim": n,
                                  "basis": [f"{g.basis_labels[p]}'" for p in perm], "brackets": brackets})


def _duality_answers(g, kind, N):
    """The Betti tables, verdict, transgression degrees and generation
    verdict of one duality run."""
    report, comp = verify_duality((trivial_module if kind == "trivial" else exterior_model)(g),
                                  Truncation(N))
    T = comp.transgression
    return (report.betti_h, report.betti_product_invariants, report.betti_invariants,
            report.betti_match, report.verdict, [e.primitive.degree for e in T.entries],
            [T.xi_tilde_sym_degree(j) for j in range(len(T.entries))], generation_check(g, T, Truncation(N)))


_ANSWERS: dict = {}  # (algebra, module kind, N) -> the answers in the built-in basis


@st.composite
def rebasings(draw):
    """(algebra, module kind, N, permutation, nonzero rational scales, shear
    (s, t) with s != t, or None)."""
    alg = draw(st.sampled_from(["su2", "sl2", "su2xsu2", "u2", "sl3"]))
    n = builtin_algebra(alg).dim
    nonzero = st.fractions(-4, 4, max_denominator=4).filter(bool)
    index = st.integers(0, n - 1)
    return (alg, draw(st.sampled_from(["trivial", "exterior"])), draw(st.integers(1, 4)),
            tuple(draw(st.permutations(range(n)))), tuple(draw(st.lists(nonzero, min_size=n, max_size=n))),
            draw(st.none() | st.tuples(index, index).filter(lambda st_: st_[0] != st_[1])))


@settings(max_examples=25, deadline=None)
@given(case=rebasings())
@example(case=("su2xsu2", "exterior", 4, (5, 4, 3, 2, 1, 0), (1,) * 6, None))
@example(case=("sl3", "exterior", 4, tuple(range(8)), (1,) * 8, (0, 2)))  # h1 -> h1 + e12
def test_a_change_of_basis_of_g_changes_no_duality_answer(case):
    """Permuting, rationally rescaling and shearing the basis of g leaves
    the Betti tables, the verdict, the transgression degrees and the
    generation verdict of verify_duality as they are in the built-in
    basis."""
    alg, kind, N, perm, scales, shear = case
    g = builtin_algebra(alg)
    if (alg, kind, N) not in _ANSWERS:
        _ANSWERS[alg, kind, N] = _duality_answers(g, kind, N)
    assert _duality_answers(_rebased(g, perm, scales, shear), kind, N) == _ANSWERS[alg, kind, N]
