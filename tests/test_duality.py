import pytest

from koszul.complexes import Truncation, cohomology
from koszul.duality import (
    DualityReport,
    h_of,
    psi_contraction_compatibility,
    verify_duality,
)
from koszul.equivariant import cartan_model
from koszul.lie import adjoint_matrices, builtin_algebra
from koszul.modules import exterior_model, polynomial_forms_module, trivial_module
from koszul.transgression import distinguished_transgression, primitive_basis


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
    T = distinguished_transgression(su2, P, Truncation(8))
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
    T = distinguished_transgression(su2, P, Truncation(8))
    import dataclasses

    zeroed = dataclasses.replace(
        T,
        entries=[
            dataclasses.replace(e, xi_tilde=tuple(0 * c for c in e.xi_tilde))
            for e in T.entries
        ],
    )
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
    inv_vectors = comp.invariants.vectors[0]
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
