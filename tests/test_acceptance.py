"""Acceptance suite: one test per numbered criterion, exact equality throughout.

Each test prints a single PASS line with its runtime; run with `pytest -s`
to see them.  All expected values are exact rationals; no tolerances.
"""

import json
import time
from fractions import Fraction

import pytest

from koszul.cli import main as cli_main
from koszul.complexes import LinMap, Truncation, check_chain_map, cohomology
from koszul.duality import verify_duality
from koszul.equivariant import invariant_multivector_basis
from koszul.lie import adjoint_matrices, builtin_algebra
from koszul.modules import (
    delete_index,
    exterior_model,
    invariant_rep_module,
    lambda_monomials,
    polynomial_forms_module,
    sym_monomials,
    tensor_module,
    trivial_module,
    validate_kg,
)
from koszul.lie import RepMatrices
from koszul.modules import derivation_on_sym
from koszul.transgression import (
    _lambda_inclusion_vector,
    _verify_entry,
    distinguished_transgression,
    generation_check,
    primitive_basis,
)
from koszul.weil import (
    embedding_s_linearity,
    maurer_cartan_residuals,
    twist_embedding,
    twist_identity_contraction,
    twist_identity_differential,
    twist_operators,
    weil_model,
)

Q = Fraction
BUILTINS = ("abelian1", "abelian2", "su2", "sl2", "su2xsu2")


def report(n, started, text):
    dt = time.perf_counter() - started
    print(f"ACCEPTANCE {n}: PASS — {text} ({dt:.2f}s)")


def test_criterion_1_su2_golden_suite():
    """The worked su(2) example, reproduced as exact rational identities."""
    t0 = time.perf_counter()
    su2 = builtin_algebra("su2")
    ext = exterior_model(su2)
    # d i* = 2 j*∧k* and cyclic
    d1 = ext.d.block(1)
    assert d1.column(0) == (Q(0), Q(0), Q(2))
    assert d1.column(1) == (Q(0), Q(-2), Q(0))  # 2 k*∧i*
    assert d1.column(2) == (Q(2), Q(0), Q(0))

    W = weil_model(su2, Truncation(4))
    alg = W.algebra
    Z = (0, 0, 0)
    assert alg.differential_element({(Z, (0,)): Q(1)}) == {
        (Z, (1, 2)): Q(2), ((1, 0, 0), ()): Q(1)
    }
    assert alg.differential_element({((1, 0, 0), ()): Q(1)}) == {
        ((0, 0, 1), (1,)): Q(2), ((0, 1, 0), (2,)): Q(-2)
    }
    # d_W(1⊗ξ) = i*⊗j*∧k* + cyclic
    assert alg.differential_element({(Z, (0, 1, 2)): Q(1)}) == {
        ((1, 0, 0), (1, 2)): Q(1),
        ((0, 1, 0), (0, 2)): Q(-1),
        ((0, 0, 1), (0, 1)): Q(1),
    }
    # the book lift satisfies all three conditions, with the stated image
    omega = {(Z, (0, 1, 2)): Q(1)}
    for m in range(3):
        e = [0, 0, 0]
        e[m] = 1
        omega[(tuple(e), (m,))] = Q(1, 2)
    P = primitive_basis(su2, Truncation(4))
    prim = P.primitives[0]
    ops = [
        (mv, W.contraction_of_multivector(mv.coeffs, lambda_monomials(3, mv.degree)))
        for mv in invariant_multivector_basis(su2)
    ]
    xi_vec = _lambda_inclusion_vector(W, prim.coeffs, 3)
    halves = tuple(
        Q(1, 2) if mono in ((2, 0, 0), (0, 2, 0), (0, 0, 2)) else Q(0)
        for mono in sym_monomials(3, 2)
    )
    _verify_entry(W, prim, omega, halves, ops, xi_vec)
    # and the solver's unique transgression equals the book value
    T = distinguished_transgression(su2, P, weil=W)
    assert T.entries[0].xi_tilde == halves
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"criterion 1 exceeded 1s: {dt:.2f}s"
    report(1, t0, "su(2) golden identities, lift conditions, transgression value")


def test_criterion_2_weil_acyclicity():
    t0 = time.perf_counter()
    for name, top in (("abelian1", 8), ("abelian2", 8), ("su2", 8), ("sl2", 8),
                      ("su2xsu2", 6)):
        W = weil_model(builtin_algebra(name), Truncation(top))
        rep = cohomology(W.complex, Truncation(top))
        assert rep.betti[0] == 1, name
        for m in range(1, top):
            assert rep.betti[m] == 0, (name, m)
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"criterion 2 exceeded 1min: {dt:.2f}s"
    report(2, t0, "Weil acyclicity for all built-in algebras")


def test_criterion_3_maurer_cartan():
    t0 = time.perf_counter()
    for name in BUILTINS:
        W = weil_model(builtin_algebra(name), Truncation(2))
        assert all(not r for r in maurer_cartan_residuals(W)), name
    dt = time.perf_counter() - t0
    assert dt < 1.0, f"criterion 3 exceeded 1s: {dt:.2f}s"
    report(3, t0, "Maurer-Cartan identity for every dual generator, every algebra")


def test_criterion_4_operator_identity_suite():
    t0 = time.perf_counter()
    for name in BUILTINS:
        g = builtin_algebra(name)
        ext = exterior_model(g)
        _, coad = adjoint_matrices(g)
        sym2 = RepMatrices(g, tuple(derivation_on_sym(list(coad.matrices), 2)))
        mods = [
            ext,
            trivial_module(g),
            invariant_rep_module(g, sym2, grade=0),
            tensor_module(ext, ext, max_total=(4 if g.dim > 3 else None)),
            polynomial_forms_module(g, coad, poly_degree=1),
        ]
        for M in mods:
            rep = validate_kg(M)
            assert rep.ok, f"{name}/{M.name}: {rep.describe()}"
    report(4, t0, "all five identity families on every constructor, every algebra")


def test_criterion_5_twist_suite():
    t0 = time.perf_counter()
    for name in BUILTINS:
        g = builtin_algebra(name)
        for M in (trivial_module(g), exterior_model(g)):
            N = 2 * g.dim if g.dim <= 3 else g.dim + 2
            data = twist_operators(M, Truncation(N))
            # T ∘ exp(+𝐢) = identity
            prod = data.twist.compose(data.twist_inv)
            ident = LinMap.identity(data.tensor.space)
            assert prod.equal_on(ident, data.tensor.space.degrees()), (name, M.name)
            # 𝐢^(dim g + 1) = 0
            power = data.generator
            for _ in range(g.dim):
                power = data.generator.compose(power)
            assert all(power.block(d).is_zero()
                       for d in data.tensor.space.degrees()), (name, M.name)
            # interchange identities
            assert twist_identity_contraction(data), (name, M.name)
            assert twist_identity_differential(data), (name, M.name)
    report(5, t0, "twist inverse, nilpotency, and both interchange identities")


def test_criterion_6_basic_model_isomorphism():
    t0 = time.perf_counter()
    su2 = builtin_algebra("su2")
    for M in (trivial_module(su2), exterior_model(su2)):
        emb = twist_embedding(M, Truncation(10))
        # bijective onto the basic subcomplex in every total degree <= 9 >= 8
        assert emb.is_bijective(), M.name
        assert emb.basic.basic.space.hi >= 9
        # chain map (checked through degree 8) and linear over the invariants
        assert check_chain_map(emb.map).ok, M.name
        assert embedding_s_linearity(emb), M.name
    dt = time.perf_counter() - t0
    assert dt < 60.0, f"criterion 6 exceeded 1min: {dt:.2f}s"
    report(6, t0, "Cartan model ≅ basic subcomplex: bijective chain map, S-linear")


def test_criterion_7_transgression_determinism():
    t0 = time.perf_counter()
    for name in BUILTINS:
        g = builtin_algebra(name)
        P = primitive_basis(g, Truncation(8))
        T1 = distinguished_transgression(g, P)
        T2 = distinguished_transgression(g, P, weil=T1.weil,
                                         unknown_permutation=list(range(500))[::-1])
        for e1, e2 in zip(T1.entries, T2.entries):
            assert e1.xi_tilde == e2.xi_tilde, name
            assert e1.primitive.degree % 2 == 1
            assert any(e1.xi_tilde)
        assert generation_check(g, T1, Truncation(8)), name
    report(7, t0, "transgression independent of solver order; generators complete")


def test_criterion_8_duality_end_to_end():
    t0 = time.perf_counter()
    su2 = builtin_algebra("su2")
    sl2 = builtin_algebra("sl2")
    _, coad = adjoint_matrices(su2)
    cases = [
        ("abelian1", exterior_model(builtin_algebra("abelian1"))),
        ("abelian2", exterior_model(builtin_algebra("abelian2"))),
        ("su2", trivial_module(su2)),
        ("su2", exterior_model(su2)),
        ("sl2", trivial_module(sl2)),
        ("su2", polynomial_forms_module(su2, coad, poly_degree=1)),
    ]
    for name, M in cases:
        rep, _ = verify_duality(M, Truncation(8))
        assert rep.verdict, f"{name}/{M.name}: {rep.describe()}"
        assert rep.psi_chain.ok and rep.inclusion_chain.ok
        assert rep.psi_quasi_iso.ok and rep.inclusion_quasi_iso.ok
        assert rep.betti_match, f"{name}/{M.name}"
    dt = time.perf_counter() - t0
    assert dt < 300.0, f"criterion 8 exceeded 5min: {dt:.2f}s"
    report(8, t0, "both zig-zag legs are quasi-isomorphisms through degree 7")


def test_criterion_9_negative_control():
    t0 = time.perf_counter()
    su2 = builtin_algebra("su2")
    rep, _ = verify_duality(exterior_model(su2), Truncation(6),
                            corrupt_transgression=True)
    assert not rep.psi_chain.ok
    _, _, defect = rep.psi_chain.witness
    assert any(defect)
    for name in ("abelian1", "abelian2"):
        g = builtin_algebra(name)
        rep, _ = verify_duality(exterior_model(g), Truncation(6),
                                corrupt_transgression=True)
        assert rep.psi_chain.ok and rep.verdict, name
    report(9, t0, "naive lift breaks the chain property exactly when nonabelian")


def test_criterion_10_byte_identical_reports(capsys):
    t0 = time.perf_counter()
    commands = [
        ["validate", "--algebra", "su2", "--format", "json"],
        ["cohomology", "--algebra", "su2", "--module", "exterior",
         "--model", "invariant", "--max-degree", "4", "--format", "json"],
        ["weil-check", "--algebra", "sl2", "--max-degree", "6", "--format", "json"],
        ["transgress", "--algebra", "su2", "--max-degree", "8", "--format", "json"],
        ["duality", "--algebra", "su2", "--module", "trivial",
         "--max-degree", "6", "--format", "json"],
    ]
    outputs = []
    for _ in range(2):
        batch = []
        for argv in commands:
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            assert code == 0
            json.loads(captured.out)  # must be valid JSON
            batch.append(captured.out.encode("utf-8"))
        outputs.append(batch)
    assert outputs[0] == outputs[1]
    with capsys.disabled():
        report(10, t0, "two full report runs are byte-identical")
