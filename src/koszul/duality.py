"""The duality between equivariant and invariant chain-level cohomology.

Given a module M, the verification exhibits the zig-zag

    (M)^g  -->  (W(g) ⊗ M)^g  <--  h((M)_g)

where the left leg is m -> 1⊗1⊗m, the right leg multiplies transgression
lifts against the twist embedding, and both legs are checked to be chain
maps inducing isomorphisms on cohomology through the requested degree.
The functor h tensors a module over the invariant polynomials with the
exterior algebra on the primitives, with the Koszul-style differential
that trades a primitive factor for multiplication by its transgression.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import Optional

from .complexes import (
    ChainMap,
    ChainMapReport,
    Complex,
    GradedSpace,
    LinMap,
    QuasiIsoReport,
    TensorSpace,
    Truncation,
    cohomology,
    induced_map,
    quasi_iso_check,
)
from .equivariant import CartanModel, InvariantModel, cartan_model, invariant_subcomplex
from .lie import LieAlgebra
from .linalg import Matrix, _integer_row, hstack
from .modules import (
    KgModule,
    ModuleValidationError,
    TensorModule,
    lambda_monomials,
    tensor_module,
)
from .transgression import (
    TransgressionData,
    distinguished_transgression,
    primitive_basis,
    wedge_product,
)
from .weil import TwistData, WeilModule, twist_operators, twisted_cartan_image, weil_model

# ---------------------------------------------------------------------------
# The functor h
# ---------------------------------------------------------------------------


class KoszulDualComplex:
    """h(A) = (exterior algebra on the primitives) ⊗ A with the trade differential."""

    def __init__(self, complex: Complex, tensor: TensorSpace, subsets: dict,
                 primitive_degrees: list, source: CartanModel):
        self.complex = complex
        self.tensor = tensor  # Λ(P) ⊗ A; basis vector i of Λ(P) in degree q is subsets[q][i]
        self.subsets = subsets  # degree -> primitive index subsets J (increasing tuples)
        self.primitive_degrees, self.source = primitive_degrees, source


def h_of(A: CartanModel, T: TransgressionData, trunc: Truncation) -> KoszulDualComplex:
    """Build h(A) up to the truncation degree.

    Differential on (ξ_{j_1}∧...∧ξ_{j_t}) ⊗ a: delete the r-th primitive
    with sign (−1)^{r+1} and multiply a by its transgression, plus
    (−1)^t on the inner differential of a.  As lifts to Λ(P) ⊗ A this is
    sum_j delete_j ⊗ ξ~_j  +  1 ⊗ d; the Koszul sign of 1 ⊗ d is (−1)^t
    because every primitive has odd degree.
    """
    N = trunc.max_degree
    weights = [e.primitive.degree for e in T.entries]
    subsets: dict = {}
    for t in range(len(weights) + 1):
        for J in combinations(range(len(weights)), t):
            deg = sum(weights[j] for j in J)
            if deg <= N:
                subsets.setdefault(deg, []).append(J)
    lam_P = GradedSpace({deg: tuple("∧".join(f"P{j}" for j in J) or "1" for J in Js)
                         for deg, Js in subsets.items()})
    position = {J: i for Js in subsets.values() for i, J in enumerate(Js)}

    def delete(j: int) -> LinMap:
        blocks = {}
        for deg, Js in subsets.items():
            ents = {}
            for col, J in enumerate(Js):
                if j in J:
                    r = J.index(j)  # (−1)^{(r+1)+1} with 1-based position
                    ents[(position[J[:r] + J[r + 1 :]], col)] = (-1) ** r
            blocks[deg] = Matrix(lam_P.dim(deg - weights[j]), len(Js), ents)
        return LinMap(lam_P, lam_P, -weights[j], blocks)

    product = TensorSpace(lam_P, A.complex.space, N, lo=0)
    d = product.lift_sum(
        [(None, A.complex.d)]
        + [(delete(j), A.s_action(T.xi_tilde_sym_degree(j), entry.xi_tilde))
           for j, entry in enumerate(T.entries)], 1)
    cx = Complex(product, d, complete=False, check=True)
    return KoszulDualComplex(cx, product, subsets, weights, A)


# ---------------------------------------------------------------------------
# The two legs of the zig-zag
# ---------------------------------------------------------------------------


class DualityComputation:
    """All shared objects of one duality verification."""

    def __init__(self, g: LieAlgebra, module: KgModule, N: int, weil: WeilModule,
                 product: TensorModule, invariants: InvariantModel, cartan: CartanModel,
                 transgression: TransgressionData, twist: TwistData, h: KoszulDualComplex,
                 psi: ChainMap, inclusion: ChainMap):
        self.g, self.module, self.N, self.weil = g, module, N, weil
        self.product = product  # W ⊗ M
        self.invariants = invariants  # of W ⊗ M
        self.cartan, self.transgression, self.twist, self.h = cartan, transgression, twist, h
        self.psi, self.inclusion = psi, inclusion


def inclusion_map(WM: TensorModule, inv_model: InvariantModel, inv_M: InvariantModel) -> ChainMap:
    """(M)^g -> (W⊗M)^g, m -> 1⊗1⊗m."""
    blocks = {}
    src = inv_M.complex.space
    for deg in src.degrees():
        V = inv_M.vectors.get(deg)
        if V is None or not V.cols or deg > inv_model.complex.space.hi:
            continue
        blk = inv_model.span(deg).restrict(WM.tensor.embed(V, deg, left=False))
        if blk is None:
            raise ValueError(f"vector is not invariant at degree {deg}")
        blocks[deg] = blk
    return ChainMap(
        inv_M.complex, inv_model.complex,
        LinMap(src, inv_model.complex.space, 0, blocks),
    )


def build_psi(
    T: TransgressionData,
    A: CartanModel,
    h: KoszulDualComplex,
    WM: TensorModule,
    inv_model: InvariantModel,
    twist: TwistData,
    corrupt_transgression: bool = False,
) -> ChainMap:
    """The multiplicative extension of the twist embedding along h(A).

    (ξ_{j_1}∧...∧ξ_{j_t})⊗x  ->  ω(ξ_{j_1}) ... ω(ξ_{j_t}) · Ψ0(x).
    With corrupt_transgression the lifts ω(ξ) are replaced by the naive
    cocycle candidates 1⊗ξ, which breaks the chain property away from the
    abelian case.
    """
    alg = T.weil.algebra
    n = T.g.dim
    zero_exps = tuple([0] * n)

    omegas = []  # (integer element, its denominator)
    for entry in T.entries:
        if corrupt_transgression:
            elt = {
                (zero_exps, mono): c
                for mono, c in zip(
                    lambda_monomials(n, entry.primitive.degree), entry.primitive.coeffs
                )
                if c
            }
        else:
            elt = entry.omega
        omegas.append(_integer_row(elt.items()))

    products: dict = {(): ({(zero_exps, ()): 1}, 1)}

    def omega_product(J: tuple) -> tuple:
        if J not in products:
            (head, d_head), (rest, d_rest) = omegas[J[0]], omega_product(J[1:])
            products[J] = (alg.multiply(head, rest), d_head * d_rest)
        return products[J]

    image, unit_den = twisted_cartan_image(A, T.weil, WM, twist)
    a_columns = {adeg: (V.int_columns(), V.den * unit_den) for adeg, V in A.vectors.items()}
    blocks = {}
    for deg in h.tensor.degrees():
        if deg > inv_model.complex.space.hi:
            continue
        images = []
        for q, ji, adeg, ai in (h.tensor.entry(deg, i) for i in range(h.tensor.dim(deg))):
            cols, den = a_columns[adeg]
            omega, d_omega = omega_product(h.subsets[q][ji])
            images.append((image(adeg, cols[ai], omega, deg), den * d_omega))
        blk = inv_model.span(deg).restrict(Matrix._from_int_columns(WM.space.dim(deg), images))
        if blk is None:
            raise ValueError(f"vector is not invariant at degree {deg}")
        blocks[deg] = blk
    return ChainMap(
        h.complex, inv_model.complex,
        LinMap(h.complex.space, inv_model.complex.space, 0, blocks),
    )


# ---------------------------------------------------------------------------
# Report and the end-to-end verdict
# ---------------------------------------------------------------------------


class DualityReport:
    def __init__(self, algebra: str, module: str, max_degree: int, psi_chain: ChainMapReport,
                 inclusion_chain: ChainMapReport, psi_quasi_iso: Optional[QuasiIsoReport],
                 inclusion_quasi_iso: Optional[QuasiIsoReport], betti_h: dict,
                 betti_product_invariants: dict, betti_invariants: dict, betti_match: bool,
                 verdict: bool):
        self.algebra, self.module, self.max_degree = algebra, module, max_degree
        self.psi_chain, self.inclusion_chain = psi_chain, inclusion_chain
        self.psi_quasi_iso, self.inclusion_quasi_iso = psi_quasi_iso, inclusion_quasi_iso
        self.betti_h, self.betti_product_invariants = betti_h, betti_product_invariants
        self.betti_invariants, self.betti_match, self.verdict = betti_invariants, betti_match, verdict

    def to_dict(self) -> dict:
        def chain_dict(rep: ChainMapReport):
            out = {"ok": rep.ok}
            if rep.witness:
                deg, lbl, defect = rep.witness
                out["witness"] = {
                    "degree": deg,
                    "basis": lbl,
                    "defect": {str(i): str(v) for i, v in enumerate(defect) if v},
                }
            return out

        def qi_dict(rep: Optional[QuasiIsoReport]):
            if rep is None:
                return None
            return {
                "ok": rep.ok,
                "degrees": {
                    str(d): info for d, info in sorted(rep.degrees.items())
                },
            }

        return {
            "algebra": self.algebra,
            "module": self.module,
            "max_degree": self.max_degree,
            "psi_chain": chain_dict(self.psi_chain),
            "inclusion_chain": chain_dict(self.inclusion_chain),
            "psi_quasi_iso": qi_dict(self.psi_quasi_iso),
            "inclusion_quasi_iso": qi_dict(self.inclusion_quasi_iso),
            "betti": {
                "h_of_equivariant": {str(k): v for k, v in sorted(self.betti_h.items())},
                "product_invariants": {
                    str(k): v for k, v in sorted(self.betti_product_invariants.items())
                },
                "invariants": {str(k): v for k, v in sorted(self.betti_invariants.items())},
            },
            "betti_match": self.betti_match,
            "verdict": "pass" if self.verdict else "fail",
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def describe(self) -> str:
        rows = [
            f"duality check: {self.algebra}, module {self.module}, degrees < {self.max_degree}",
            f"  zig-zag leg (M)^g -> (W⊗M)^g : chain {'ok' if self.inclusion_chain.ok else 'FAIL'},"
            f" quasi-iso {'ok' if self.inclusion_quasi_iso and self.inclusion_quasi_iso.ok else 'FAIL'}",
            f"  zig-zag leg h((M)_g) -> (W⊗M)^g : chain {'ok' if self.psi_chain.ok else 'FAIL'},"
            f" quasi-iso {'ok' if self.psi_quasi_iso and self.psi_quasi_iso.ok else 'FAIL'}",
        ]
        if not self.psi_chain.ok:
            rows.append("    " + self.psi_chain.describe())
        degs = sorted(set(self.betti_h) | set(self.betti_invariants))
        rows.append("  deg | betti h((M)_g) | betti (W⊗M)^g | betti (M)^g")
        for d in degs:
            rows.append(
                f"  {d:3d} | {self.betti_h.get(d, 0):14d} | "
                f"{self.betti_product_invariants.get(d, 0):13d} | {self.betti_invariants.get(d, 0):11d}"
            )
        rows.append(f"  betti tables agree: {self.betti_match}")
        rows.append(f"  verdict: {'pass' if self.verdict else 'FAIL'}")
        return "\n".join(rows)


def verify_duality(
    M: KgModule,
    trunc: Truncation,
    corrupt_transgression: bool = False,
) -> "tuple[DualityReport, DualityComputation]":
    """Run the full zig-zag verification for one module.

    Quasi-isomorphisms are certified for degrees <= trunc.max_degree - 1;
    all internal objects are materialized one degree beyond.  M must live
    in degrees >= 0 (ModuleValidationError otherwise): the zig-zag is
    built on windows that start at degree 0.  Λ(g*) and S(g*) are g's
    own records, which W(g) is built on, and (S(g*)⊗M)^g is read off the
    (W(g)⊗M)^g cut (exact: see cartan_model).
    """
    g = M.g
    N = trunc.max_degree
    if M.space.lo < 0:
        raise ModuleValidationError(
            f"duality needs a module in degrees >= 0; {M.name} starts in degree {M.space.lo}"
        )
    W = weil_model(g, Truncation(N + 1))
    WM = tensor_module(W, M, max_total=N + 1, name=f"W⊗{M.name}")
    inv_WM = invariant_subcomplex(WM)
    inv_M = invariant_subcomplex(M)
    A = cartan_model(M, Truncation(N), invariants=inv_WM)
    P = primitive_basis(g, Truncation(N))
    T = distinguished_transgression(g, P, weil=W)
    twist = twist_operators(M, Truncation(N + 1))
    h = h_of(A, T, Truncation(N))
    psi = build_psi(T, A, h, WM, inv_WM, twist, corrupt_transgression=corrupt_transgression)
    incl = inclusion_map(WM, inv_WM, inv_M)

    psi_qi = quasi_iso_check(psi, trunc)
    incl_qi = quasi_iso_check(incl, trunc)

    betti_h = cohomology(h.complex, trunc).betti
    betti_prod = cohomology(inv_WM.complex, trunc).betti
    betti_inv = cohomology(inv_M.complex, trunc).betti
    degs = range(0, N)
    betti_match = all(
        betti_h.get(d, 0) == betti_inv.get(d, 0) for d in degs
    )

    report = DualityReport(
        algebra=g.name,
        module=M.name,
        max_degree=N,
        psi_chain=psi_qi.chain,
        inclusion_chain=incl_qi.chain,
        # a failed chain check leaves no quasi-isomorphism to report
        psi_quasi_iso=psi_qi if psi_qi.chain.ok else None,
        inclusion_quasi_iso=incl_qi if incl_qi.chain.ok else None,
        betti_h={d: betti_h.get(d, 0) for d in degs},
        betti_product_invariants={d: betti_prod.get(d, 0) for d in degs},
        betti_invariants={d: betti_inv.get(d, 0) for d in degs},
        betti_match=betti_match,
        verdict=psi_qi.ok and incl_qi.ok,
    )
    comp = DualityComputation(
        g=g, module=M, N=N, weil=W, product=WM, invariants=inv_WM,
        cartan=A, transgression=T, twist=twist, h=h, psi=psi, inclusion=incl,
    )
    return report, comp


def psi_contraction_compatibility(comp: DualityComputation) -> bool:
    """ψ intertwines the invariant-multivector contractions on both sides:
    their action on (W⊗M)^g, and on h the contraction of the
    primitive-product forms of its exterior factor.

    ψ is built afresh against comp.invariants, not read from comp.psi,
    which is the corrupted map when comp asked for a corrupted
    transgression."""
    ext, h, n = comp.weil.algebra.ext, comp.h, comp.g.dim
    inv_WM = comp.invariants
    psi = build_psi(comp.transgression, comp.cartan, h, comp.product, inv_WM, comp.twist)
    prims = [e.primitive for e in comp.transgression.entries]
    # each primitive subset expanded into an exterior form
    forms = {deg: hstack([wedge_product([prims[j] for j in J], n) for J in Js], ext.space.dim(deg))
             for deg, Js in h.subsets.items()}
    lam_P = h.tensor.A
    for mv, act in zip(inv_WM.multivectors, inv_WM.actions):
        op = ext.contraction_of_multivector(mv.coeffs, lambda_monomials(n, mv.degree))
        # i_mv restricted to the forms: coordinates of i_mv(form_J) over lower ones
        h_side = h.tensor.lift(induced_map(op, forms, forms, lam_P, lam_P), None)
        for deg in h.complex.space.degrees():
            if deg > inv_WM.complex.space.hi:
                continue
            lhs = act.block(deg) @ psi.map.block(deg)
            rhs_blk = psi.map.block(deg - mv.degree) @ h_side.block(deg)
            if lhs != rhs_blk:
                return False
    return True
