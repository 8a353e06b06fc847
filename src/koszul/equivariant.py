"""Invariant and equivariant (Cartan model) chain-level cohomology.

The invariant subcomplex of a module M is the simultaneous kernel of the
Lie derivatives, with the restricted differential and an action of the
invariant multivectors by composite contractions.  The Cartan model is
the invariant part of S(g*) ⊗ M with differential

    a ⊗ m  |->  a ⊗ dm + sum_k (u^k a) ⊗ i_k m,

where the contraction term carries structural-deletion flavor (plus sign
relative to the module's own i); this is the variant under which the
twist embedding into the basic Weil subcomplex is a chain map.
"""

from __future__ import annotations

from functools import cached_property
from typing import Optional, Sequence

from .complexes import (
    ChainMap,
    Complex,
    DiagonalSum,
    GradedSpace,
    LiftedSum,
    LinMap,
    SubcomplexError,
    TensorComplex,
    TensorSpace,
    Truncation,
    cohomology_classes,
    cohomology_representatives,
    induced_map,
    subcomplex,
)
from .lie import LieAlgebra, adjoint_matrices, block_action_kernel, invariants
from .linalg import Frozen, Matrix, Subspace
from .modules import (
    KgModule,
    derivation_on_lambda,
    derivation_on_sym,
    lambda_label,
    lambda_monomials,
    sym_label,
    sym_monomials,
    sym_multiply,
)


# ---------------------------------------------------------------------------
# Invariants of the standard auxiliary representations
# ---------------------------------------------------------------------------


def invariant_multivectors(g: LieAlgebra, p: int) -> list:
    """Basis of the adjoint invariants of the p-th exterior power of g."""
    ad, _ = adjoint_matrices(g)
    return block_action_kernel(g, derivation_on_lambda(list(ad.matrices), p),
                               len(lambda_monomials(g.dim, p))).columns()


def sym_invariant_block(g: LieAlgebra, a: int) -> Matrix:
    """Coadjoint invariants of S^a(g*) as the columns of a Matrix."""
    _, coad = adjoint_matrices(g)
    return block_action_kernel(g, derivation_on_sym(list(coad.matrices), a),
                               len(sym_monomials(g.dim, a)))


def sym_invariants(g: LieAlgebra, a: int) -> list:
    """Basis of coadjoint invariants of S^a(g*), read out as dense vectors."""
    return sym_invariant_block(g, a).columns()


class MultivectorElement(Frozen):
    """An invariant multivector: degree, coefficients over the monomial basis."""

    def __init__(self, degree: int, coeffs: tuple, label: str):
        vars(self).update(degree=degree, coeffs=coeffs, label=label)


def invariant_multivector_basis(g: LieAlgebra, top: Optional[int] = None) -> list:
    """The invariant multivectors of degree 1 to top (dim g by default), by
    degree then index."""
    out = []
    for p in range(1, min(g.dim, top if top is not None else g.dim) + 1):
        monos = lambda_monomials(g.dim, p)
        for i, v in enumerate(invariant_multivectors(g, p)):
            terms = " + ".join(
                f"{c}·{lambda_label(m, g.basis_labels).replace('*', '')}"
                for c, m in zip(v, monos) if c
            )
            out.append(MultivectorElement(p, tuple(v), terms or "0"))
    return out


def sym_invariant_complex(g: LieAlgebra, N: int):
    """(S(g*))^g as a complex with zero differential, degrees 0..N.

    Returns (Complex, vectors) where vectors[2a] lists coordinate vectors
    over the degree-a symmetric monomial basis.
    """
    labels = {}
    vectors = {}
    for a in range(0, N // 2 + 1):
        inv = sym_invariants(g, a)
        if inv:
            vectors[2 * a] = inv
            labels[2 * a] = tuple(f"S^g[{2*a},{i}]" for i in range(len(inv)))
    space = GradedSpace(labels, lo=0, hi=N)
    cx = Complex(space, LinMap.zero(space, space, 1), complete=False, check=False)
    return cx, vectors


# ---------------------------------------------------------------------------
# Invariant subcomplex with its multivector action
# ---------------------------------------------------------------------------


class InvariantModel:
    """(M)^g with its restricted differential; its contraction action is
    built on first read."""

    def __init__(self, module: KgModule, complex: Complex, inclusion: ChainMap, vectors: dict,
                 spans: Optional[dict] = None):
        self.module, self.complex, self.inclusion = module, complex, inclusion
        self.vectors = vectors  # degree -> Matrix whose columns are the invariant vectors
        # degree -> Subspace of `vectors`, factored on first use
        self.spans = {} if spans is None else spans

    @cached_property
    def multivectors(self) -> list:
        """The invariant multivectors of every positive degree."""
        return invariant_multivector_basis(self.module.g)

    @cached_property
    def actions(self) -> list:
        """The composite contraction of each multivector on the subcomplex,
        verified to commute with the restricted differential in the graded
        sense d∘a = (-1)^p a∘d (p the multivector degree)."""
        M, sub, vectors = self.module, self.complex, self.vectors
        actions = []
        for mv in self.multivectors:
            ambient_op = M.contraction_of_multivector(mv.coeffs, lambda_monomials(M.g.dim, mv.degree))
            act = induced_map(ambient_op, vectors, vectors, sub.space, sub.space)
            sign = -1 if mv.degree % 2 else 1
            lhs = sub.d.compose(act)
            rhs = act.compose(sub.d).scale(sign)
            if not lhs.equal_on(rhs, M.complex.usable_degrees(2)):
                raise SubcomplexError(
                    f"invariant multivector action fails graded commutation with d "
                    f"for {mv.label}"
                )
            actions.append(act)
        return actions

    def span(self, deg: int) -> Subspace:
        """The invariant vectors of degree deg, for restricting maps into (M)^g."""
        if deg not in self.spans:
            empty = Matrix.zero(self.module.space.dim(deg), 0)
            self.spans[deg] = Subspace(self.vectors.get(deg, empty))
        return self.spans[deg]


def invariant_subcomplex(M: KgModule) -> InvariantModel:
    """Restrict M to the simultaneous kernel of all Lie derivatives.

    The restricted differential is verified to exist.  The multivector
    action (InvariantModel.actions) is built, and checked, on first read.
    """
    vectors = M.invariant_blocks(M.complex.usable_degrees(1))
    sub, incl = subcomplex(M.complex.truncated(M.max_usable), vectors, label_prefix=f"({M.name})^g")
    return InvariantModel(M, sub, incl, vectors)


# ---------------------------------------------------------------------------
# Cartan model
# ---------------------------------------------------------------------------


class CartanModel:
    """(S(g*) ⊗ M)^g with the equivariant differential and S-module structure."""

    def __init__(self, module: KgModule, g: LieAlgebra, N: int, complex: Complex,
                 ambient: TensorSpace, sym_basis: dict, vectors: dict, s_invariants: dict):
        self.module, self.g, self.N, self.complex = module, g, N, complex
        self.ambient = ambient  # S(g*) ⊗ M cut at degree N
        self.sym_basis = sym_basis  # degree 2a -> the S^a monomials, basis of ambient.A
        self.vectors = vectors  # degree -> Matrix of the invariant vectors in ambient coordinates
        self.s_invariants = s_invariants  # cohomological degree 2a -> list of S^a coefficient vectors

    def s_action(self, sym_degree: int, coeffs: Sequence) -> LinMap:
        """Multiplication by an S^sym_degree element on the model (shift 2a)."""
        if len(coeffs) != len(sym_monomials(self.g.dim, sym_degree)):
            raise ValueError("coefficient vector does not match the monomial basis")
        factor = dict(zip(sym_monomials(self.g.dim, sym_degree), coeffs))
        mult = sym_multiplication(self.ambient.A, self.sym_basis, sym_degree, factor)
        shift, space = 2 * sym_degree, self.complex.space
        return induced_map(LiftedSum(self.ambient, [(mult, None)], shift),
                           self.vectors, self.vectors, space, space)


def symmetric_algebra(g: LieAlgebra, max_a: int):
    """S(g*) with generators in degree 2, up to S^max_a.

    Returns (S, sym_basis, action): the graded space labelled by monomials,
    degree 2a -> the S^a monomials, and the coadjoint action L_k on S as
    derivations (shift 0), one LinMap per basis vector of g.
    """
    n = g.dim
    _, coad = adjoint_matrices(g)
    sym_basis = {2 * a: sym_monomials(n, a) for a in range(max_a + 1)}
    S = GradedSpace({deg: tuple(sym_label(e, g.basis_labels) for e in monos)
                     for deg, monos in sym_basis.items()})
    per_a = [derivation_on_sym(list(coad.matrices), a) for a in range(max_a + 1)]
    action = [LinMap(S, S, 0, {2 * a: per_a[a][k] for a in range(max_a + 1)})
              for k in range(n)]
    return S, sym_basis, action


def sym_generator(n: int, k: int) -> dict:
    """The generator u^k of S(g*) as {monomial: coefficient}."""
    return {tuple(int(i == k) for i in range(n)): 1}


def sym_multiplication(S: GradedSpace, sym_basis: dict, a: int, factor: dict) -> LinMap:
    """Multiplication by the S^a element {monomial: coefficient} on S(g*) (shift 2a)."""
    blocks = {}
    for deg, monos in sym_basis.items():
        target = sym_basis.get(deg + 2 * a)
        if target is None:
            continue
        row_of = {m: i for i, m in enumerate(target)}
        blocks[deg] = Matrix(len(target), len(monos), {
            (row_of[sym_multiply(exps, smono)], col): c
            for col, exps in enumerate(monos) for smono, c in factor.items() if c
        })
    return LinMap(S, S, 2 * a, blocks)


def cartan_model(M: KgModule, trunc: Truncation) -> CartanModel:
    """Build the equivariant model of M up to total degree trunc.max_degree."""
    g = M.g
    n = g.dim
    N = trunc.max_degree
    if not M.complete:
        raise ValueError("the equivariant model needs a complete (untruncated) module")
    max_a = max(0, (N - M.space.lo) // 2)
    S, sym_basis, sym_action = symmetric_algebra(g, max_a)
    ambient = TensorSpace(S, M.space, N)

    # invariants of the diagonal action per total degree
    L = [DiagonalSum(ambient, A, B) for A, B in zip(sym_action, M.L_ops)]
    vectors = {deg: V for deg in ambient.entries if (V := invariants(g, L, deg, ambient.space.dim(deg))).cols}

    # ambient equivariant differential d + sum_k u^k · i_k (S is even: no signs),
    # read only as its images of the invariant columns: none of it is lifted
    amb_complex = TensorComplex(ambient, [(None, M.d)] + [
        (sym_multiplication(S, sym_basis, 1, sym_generator(n, k)), M.i_ops[k])
        for k in range(n)], complete=False)
    sub, _ = subcomplex(amb_complex, vectors, label_prefix=f"({M.name})_g")
    bad = sub.d_squared_defect()
    if bad is not None:
        raise SubcomplexError(f"equivariant differential fails d^2 = 0 at {bad}")

    s_inv = {2 * a: inv for a in range(max_a + 1) if (inv := sym_invariants(g, a))}
    return CartanModel(module=M, g=g, N=N, complex=sub, ambient=ambient, sym_basis=sym_basis,
                       vectors=vectors, s_invariants=s_inv)


def induced_action_on_cohomology(M: KgModule, deg: int):
    """Matrices of the Lie derivatives on H^deg(M) (they vanish: L = [d, i])."""
    reps, boundaries = cohomology_representatives(M.complex, deg)
    out = []
    for L in M.L_ops:
        m = cohomology_classes(reps, boundaries, L.block(deg) @ reps)
        if m is None:
            raise ValueError("Lie derivative does not preserve cocycles")
        out.append(m)
    return out
