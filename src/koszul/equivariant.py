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
from math import lcm
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
from .lie import LieAlgebra, adjoint_matrices, block_action_kernel, invariants as action_invariants
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


class MultivectorElement(Frozen):
    """An invariant multivector: degree, coefficients over the monomial basis."""

    def __init__(self, degree: int, coeffs: tuple, label: str):
        vars(self).update(degree=degree, coeffs=coeffs, label=label)


def invariant_multivector_basis(g: LieAlgebra, top: Optional[int] = None) -> list:
    """The invariant multivectors of degree 1 to top (dim g by default), by
    degree then index; those of each degree are cut once per algebra
    (LieAlgebra._multivector_invariants)."""
    cut = g._multivector_invariants
    out = []
    for p in range(1, min(g.dim, top if top is not None else g.dim) + 1):
        if p not in cut:
            monos = lambda_monomials(g.dim, p)
            cut[p] = tuple(MultivectorElement(p, tuple(v), " + ".join(
                f"{c}·{lambda_label(m, g.basis_labels).replace('*', '')}"
                for c, m in zip(v, monos) if c) or "0") for v in invariant_multivectors(g, p))
        out.extend(cut[p])
    return out


class SymmetricAlgebra(GradedSpace):
    """S(g*) with generators u^k in degree 2, up to S^max_a: the graded
    space labelled by the monomials of ``basis`` (degree 2a -> the S^a
    monomials), its coadjoint action and invariants, and multiplication.

    The L_k blocks, the invariants and the u^k· blocks of each S^a are
    built on first read and kept on g (LieAlgebra._symmetric), so every
    record on g, and every cut (truncated) or widening (to) of one, reads
    them.
    """

    __slots__ = ("g", "basis")

    def __init__(self, g: LieAlgebra, max_a: int):
        self.g = g
        self.basis = {2 * a: sym_monomials(g.dim, a) for a in range(max_a + 1)}
        super().__init__({deg: tuple(sym_label(e, g.basis_labels) for e in monos)
                          for deg, monos in self.basis.items()})

    def truncated(self, top: int) -> "SymmetricAlgebra":
        """The degrees up to top, with ``basis`` cut to match."""
        cut = super().truncated(top)
        cut.basis = {deg: monos for deg, monos in self.basis.items() if deg <= top}
        return cut

    def to(self, max_a: int) -> "SymmetricAlgebra":
        """S up to S^max_a: this record cut, or a wider one."""
        if 2 * max_a in self.basis:
            return self.truncated(2 * max_a)
        return SymmetricAlgebra(self.g, max_a)

    def _blocks(self, a: int) -> list:
        blocks, _, _ = self.g._symmetric
        if a not in blocks:
            _, coad = adjoint_matrices(self.g)
            blocks[a] = derivation_on_sym(list(coad.matrices), a)
        return blocks[a]

    @property
    def action(self) -> list:
        """The coadjoint L_k on S as derivations (shift 0), one LinMap per basis vector of g."""
        return [LinMap(self, self, 0, {deg: self._blocks(deg // 2)[k] for deg in self.basis})
                for k in range(self.g.dim)]

    def invariants(self, deg: int) -> Matrix:
        """The coadjoint invariants of S^(deg/2) as the columns of a Matrix."""
        _, kernels, _ = self.g._symmetric
        a = deg // 2
        if a not in kernels:
            kernels[a] = block_action_kernel(self.g, self._blocks(a), len(self.basis[deg]))
        return kernels[a]

    def _product(self, factor: list, den: int, deg: int, shift: int) -> Matrix:
        """The block at deg of multiplication by sum (c/den)·m over the
        (monomial m, integer c) of factor, which lands at deg + shift."""
        source, target = self.basis[deg], self.basis[deg + shift]
        row_of = {m: i for i, m in enumerate(target)}
        # distinct factor monomials give distinct products: nothing accumulates
        return Matrix._from_ints(len(target), len(source), {
            (row_of[sym_multiply(e, m)], col): c for col, e in enumerate(source) for m, c in factor}, den)

    def multiplication(self, a: int, coeffs: Sequence) -> LinMap:
        """Multiplication by the S^a element with (integer or Fraction)
        coefficients coeffs over the S^a monomials (shift 2a), on integer
        blocks over the lcm of their denominators."""
        monos = sym_monomials(self.g.dim, a)
        if len(coeffs) != len(monos):
            raise ValueError(f"an element of S^{a} needs dim S^{a} = {len(monos)} coefficients, "
                             f"got {len(coeffs)}")
        den = lcm(*(c.denominator for c in coeffs if c))
        factor = [(m, c.numerator * (den // c.denominator)) for m, c in zip(monos, coeffs) if c]
        return LinMap(self, self, 2 * a, {deg: self._product(factor, den, deg, 2 * a)
                                          for deg in self.basis if deg + 2 * a in self.basis})

    def generator(self, k: int) -> LinMap:
        """Multiplication by the generator u^k (shift 2)."""
        _, _, blocks = self.g._symmetric
        unit = [(tuple(int(i == k) for i in range(self.g.dim)), 1)]
        for deg in self.basis:
            if deg + 2 in self.basis and (k, deg) not in blocks:
                blocks[(k, deg)] = self._product(unit, 1, deg, 2)
        return LinMap(self, self, 2, {deg: blocks[(k, deg)] for deg in self.basis if deg + 2 in self.basis})


def sym_invariant_complex(S: SymmetricAlgebra, N: int):
    """(S(g*))^g as a complex with zero differential, degrees 0..N, cut
    from S, which reaches N.

    Returns (Complex, vectors) where vectors[2a] is the Matrix
    S.invariants(2a), for every S^a with an invariant.
    """
    vectors = {deg: V for deg in S.basis if (V := S.invariants(deg)).cols}
    space = GradedSpace({deg: tuple(f"S^g[{deg},{i}]" for i in range(V.cols)) for deg, V in vectors.items()},
                        lo=0, hi=N)
    return Complex(space, LinMap.zero(space, space, 1), complete=False, check=False), vectors


# ---------------------------------------------------------------------------
# Invariant subcomplex with its multivector action
# ---------------------------------------------------------------------------


class InvariantModel:
    """(M)^g with its restricted differential; its contraction action is
    built on first read."""

    def __init__(self, module: KgModule, complex: Complex, inclusion: ChainMap, vectors: dict):
        self.module, self.complex, self.inclusion = module, complex, inclusion
        self.vectors = vectors  # degree -> Matrix whose columns are the invariant vectors
        self.spans: dict = {}  # degree -> Subspace of `vectors`, factored on first use

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
    """(S(g*) ⊗ M)^g with the equivariant differential and S-module
    structure; ``ambient.A`` is S(g*), a SymmetricAlgebra cut at degree N."""

    def __init__(self, module: KgModule, g: LieAlgebra, N: int, complex: Complex,
                 ambient: TensorSpace, vectors: dict):
        self.module, self.g, self.N, self.complex = module, g, N, complex
        self.ambient = ambient  # S(g*) ⊗ M cut at degree N
        self.vectors = vectors  # degree -> Matrix of the invariant vectors in ambient coordinates

    def s_action(self, sym_degree: int, coeffs: Sequence) -> LinMap:
        """Multiplication by an S^sym_degree element on the model (shift 2a)."""
        mult, space = self.ambient.A.multiplication(sym_degree, coeffs), self.complex.space
        return induced_map(LiftedSum(self.ambient, [(mult, None)], mult.shift),
                           self.vectors, self.vectors, space, space)


def cartan_model(M: KgModule, trunc: Truncation,
                 invariants: Optional[InvariantModel] = None) -> CartanModel:
    """Build the equivariant model of M up to total degree trunc.max_degree.

    Without ``invariants``, S(g*) is a SymmetricAlgebra on g (reading g's
    S(g*) state) and the invariant vectors are cut from its L_k and M's.
    With ``invariants``, those of W(g)⊗M to degree N, S(g*) is W(g)'s
    record cut (or widened) to S^max_a and no kernel is cut:
    each L_k keeps the S-, Λ- and M-degrees, so each reduced kernel vector
    lies in the stratum of its free column; on S^a⊗Λ^0⊗M^r L_k is the
    ambient's (L^Λ kills Λ^0) and
    s⊗m -> (s⊗1)⊗m keeps the index order, so the columns there, shifted,
    are the ambient's reduced kernel basis, and the W⊗M certificate (or its
    fallback) shows every L_k kills them.
    """
    g = M.g
    N = trunc.max_degree
    if not M.complete:
        raise ValueError("the equivariant model needs a complete (untruncated) module")
    max_a = max(0, (N - M.space.lo) // 2)
    if invariants is None:
        S = SymmetricAlgebra(g, max_a)
        ambient = TensorSpace(S, M.space, N)
        L = [DiagonalSum(ambient, A, B) for A, B in zip(S.action, M.L_ops)]
        vectors = {deg: V for deg in ambient.degrees()
                   if (V := action_invariants(g, L, deg, ambient.dim(deg))).cols}
    else:
        WM = invariants.module
        if WM.max_usable < N:
            raise ValueError(f"the invariants of {WM.name} stop at degree {WM.max_usable}; "
                             f"the Cartan model needs degree {N}")
        S = WM.tensor.A.A.to(max_a)
        ambient = TensorSpace(S, M.space, N)
        vectors = _lambda_zero_columns(ambient, invariants, f"({M.name})_g")

    # ambient equivariant differential d + sum_k u^k · i_k (S is even: no signs),
    # read only as its images of the invariant columns: none of it is lifted
    amb_complex = TensorComplex(ambient, [(None, M.d)] + [
        (S.generator(k), M.i_ops[k]) for k in range(g.dim)], complete=False)
    sub, _ = subcomplex(amb_complex, vectors, label_prefix=f"({M.name})_g")
    bad = sub.d_squared_defect()
    if bad is not None:
        raise SubcomplexError(f"equivariant differential fails d^2 = 0 at {bad}")

    return CartanModel(module=M, g=g, N=N, complex=sub, ambient=ambient, vectors=vectors)


def _lambda_zero_columns(ambient: TensorSpace, inv: InvariantModel, name: str) -> dict:
    """degree -> the columns of inv.vectors in a stratum S^a⊗Λ^0⊗M^r, placed by their last
    row and shifted to S^a⊗M^r in ambient; a row before the stratum raises SubcomplexError."""
    WM, S, B = inv.module.tensor, ambient.A, ambient.B
    vectors = {}
    for t in ambient.degrees():
        # (first row in W⊗M, its shift to ambient, end row, q) of S^(q/2)⊗Λ^0⊗M^(t-q)
        strata = [(start, start - ambient.position(q, 0, t - q, 0), start + S.dim(q) * B.dim(t - q), q)
                  for q in S.degrees() if B.dim(t - q)
                  for start in [WM.position(q, WM.A.position(q, 0, 0, 0), t - q, 0)]]
        V, picked = inv.vectors[t], []
        for j, col in sorted(V.int_columns().items()):
            rows = [i for i, _ in col]
            for start, shift, end, q in strata:
                if start <= max(rows) < end:
                    if min(rows) < start:
                        raise SubcomplexError(f"Cartan read of {name} from (W⊗M)^g: column {j} "
                                              f"leaves S^{q // 2}⊗Λ^0⊗M^{t - q} at degree {t}")
                    picked.append(({i - shift: v for i, v in col}, V.den))
        if picked:
            vectors[t] = Matrix._from_int_columns(ambient.dim(t), picked)
    return vectors


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
