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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .complexes import (
    ChainMap,
    Complex,
    GradedSpace,
    LinMap,
    SubcomplexError,
    TensorSpace,
    Truncation,
    induced_map,
    subcomplex,
)
from .lie import LieAlgebra, adjoint_matrices
from .linalg import Matrix, kernel_basis, vec, vstack
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

Q0 = Fraction(0)


# ---------------------------------------------------------------------------
# Invariants of the standard auxiliary representations
# ---------------------------------------------------------------------------


def invariant_multivectors(g: LieAlgebra, p: int) -> list:
    """Basis of the adjoint invariants of the p-th exterior power of g."""
    ad, _ = adjoint_matrices(g)
    mats = derivation_on_lambda(list(ad.matrices), p)
    monos = lambda_monomials(g.dim, p)
    if not monos:
        return []
    if not mats or all(m.is_zero() for m in mats):
        return [tuple(Q0 if i != j else Fraction(1) for i in range(len(monos)))
                for j in range(len(monos))]
    return kernel_basis(vstack(mats))


def sym_invariants(g: LieAlgebra, a: int) -> list:
    """Basis of coadjoint invariants of S^a(g*)."""
    _, coad = adjoint_matrices(g)
    mats = derivation_on_sym(list(coad.matrices), a)
    monos = sym_monomials(g.dim, a)
    if not monos:
        return []
    if not mats or all(m.is_zero() for m in mats):
        return [tuple(Q0 if i != j else Fraction(1) for i in range(len(monos)))
                for j in range(len(monos))]
    return kernel_basis(vstack(mats))


@dataclass(frozen=True)
class MultivectorElement:
    """An invariant multivector: degree, coefficients over the monomial basis."""

    degree: int
    coeffs: tuple
    label: str


def invariant_multivector_basis(g: LieAlgebra, min_degree: int = 1) -> list:
    """All invariant multivectors of degree >= min_degree, by degree then index."""
    out = []
    for p in range(min_degree, g.dim + 1):
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


@dataclass
class InvariantModel:
    """(M)^g with its restricted differential and contraction action."""

    module: KgModule
    complex: Complex
    inclusion: ChainMap
    vectors: dict  # degree -> ambient coordinate vectors
    multivectors: list  # MultivectorElement, positive degrees
    actions: list  # LinMap on the subcomplex, one per multivector

    def action_of(self, idx: int) -> LinMap:
        return self.actions[idx]


def invariant_subcomplex(M: KgModule, with_actions: bool = True) -> InvariantModel:
    """Restrict M to the simultaneous kernel of all Lie derivatives.

    The restricted differential is verified to exist; each invariant
    multivector acts by the composite contraction, verified to commute
    with the restricted differential in the graded sense
    d∘a = (-1)^p a∘d (p the multivector degree).  Pass with_actions=False
    to skip building the contraction action (cheaper for large modules).
    """
    g = M.g
    vectors: dict = {}
    top = M.max_usable
    for deg in M.space.degrees():
        if deg > top:
            continue
        n_dim = M.space.dim(deg)
        stacked = vstack([op.block(deg) for op in M.L_ops])
        vectors[deg] = kernel_basis(stacked) if n_dim else []
    sub, incl = subcomplex(
        M.complex.truncated(top), {d: v for d, v in vectors.items() if v},
        label_prefix=f"({M.name})^g",
    )
    multis = invariant_multivector_basis(g) if with_actions else []
    actions = []
    for mv in multis:
        monos = lambda_monomials(g.dim, mv.degree)
        ambient_op = M.contraction_of_multivector(mv.coeffs, monos)
        act = induced_map(ambient_op, vectors, vectors, sub.space, sub.space)
        sign = -1 if mv.degree % 2 else 1
        lhs = sub.d.compose(act)
        rhs = act.compose(sub.d).scale(sign)
        check_degs = [d for d in sub.space.degrees()
                      if M.complete or d <= top - 1]
        if not lhs.equal_on(rhs, check_degs):
            raise SubcomplexError(
                f"invariant multivector action fails graded commutation with d "
                f"for {mv.label}"
            )
        actions.append(act)
    return InvariantModel(M, sub, incl, vectors, multis, actions)


# ---------------------------------------------------------------------------
# Cartan model
# ---------------------------------------------------------------------------


@dataclass
class CartanModel:
    """(S(g*) ⊗ M)^g with the equivariant differential and S-module structure."""

    module: KgModule
    g: LieAlgebra
    N: int
    complex: Complex
    ambient: TensorSpace  # S(g*) ⊗ M cut at degree N
    sym_basis: dict  # degree 2a -> the S^a monomials, basis of ambient.A
    vectors: dict  # degree -> invariant vectors in ambient coordinates
    s_invariants: dict  # cohomological degree 2a -> list of S^a coefficient vectors

    def s_action(self, sym_degree: int, coeffs: Sequence) -> LinMap:
        """Multiplication by an S^sym_degree element on the model (shift 2a)."""
        if len(coeffs) != len(sym_monomials(self.g.dim, sym_degree)):
            raise ValueError("coefficient vector does not match the monomial basis")
        factor = dict(zip(sym_monomials(self.g.dim, sym_degree), coeffs))
        mult = _sym_multiplication(self.ambient.A, self.sym_basis, sym_degree, factor)
        space = self.complex.space
        return induced_map(self.ambient.lift(mult, None), self.vectors, self.vectors,
                           space, space)


def _sym_multiplication(S: GradedSpace, sym_basis: dict, a: int, factor: dict) -> LinMap:
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
    _, coad = adjoint_matrices(g)
    max_a = max(0, (N - M.space.lo) // 2)
    sym_basis = {2 * a: sym_monomials(n, a) for a in range(max_a + 1)}
    S = GradedSpace({deg: tuple(sym_label(e, g.basis_labels) for e in monos)
                     for deg, monos in sym_basis.items()})
    ambient = TensorSpace(S, M.space, N)

    # invariants of the diagonal action per total degree
    coad_sym = [derivation_on_sym(list(coad.matrices), a) for a in range(max_a + 1)]
    diagonal = [
        ambient.lift(LinMap(S, S, 0, {2 * a: coad_sym[a][k] for a in range(max_a + 1)}), None)
        .add(ambient.lift(None, M.L_ops[k]))
        for k in range(n)
    ]
    vectors = {deg: kernel_basis(vstack([L.block(deg) for L in diagonal]))
               for deg in ambient.entries}

    # ambient equivariant differential d + sum_k u^k · i_k (S is even: no signs)
    amb_d = ambient.lift(None, M.d)
    for k in range(n):
        u_k = {tuple(int(i == k) for i in range(n)): 1}
        amb_d = amb_d.add(ambient.lift(_sym_multiplication(S, sym_basis, 1, u_k), M.i_ops[k]))
    amb_complex = Complex(ambient.space, amb_d, complete=False, check=False)

    sub, _ = subcomplex(amb_complex, {d: v for d, v in vectors.items() if v},
                        label_prefix=f"({M.name})_g")
    bad = sub.d_squared_defect()
    if bad is not None:
        raise SubcomplexError(f"equivariant differential fails d^2 = 0 at {bad}")

    s_inv = {}
    for a in range(max_a + 1):
        inv = sym_invariants(g, a)
        if inv:
            s_inv[2 * a] = inv

    return CartanModel(
        module=M,
        g=g,
        N=N,
        complex=sub,
        ambient=ambient,
        sym_basis=sym_basis,
        vectors={d: v for d, v in vectors.items() if v},
        s_invariants=s_inv,
    )


def induced_action_on_cohomology(M: KgModule, deg: int):
    """Matrices of the Lie derivatives on H^deg(M) (they vanish: L = [d, i])."""
    from .complexes import cohomology_representatives
    from .linalg import express_in_span

    reps, boundaries = cohomology_representatives(M.complex, deg)
    span = list(reps) + list(boundaries)
    out = []
    for L in M.L_ops:
        cols = []
        for r in reps:
            img = L.apply(deg, r)
            co = express_in_span(span, img, dim=M.space.dim(deg))
            if co is None:
                raise ValueError("Lie derivative does not preserve cocycles")
            cols.append(vec(co[: len(reps)]))
        out.append(Matrix.from_columns(cols, nrows=len(reps)))
    return out
