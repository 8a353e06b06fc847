"""Primitive invariant forms and the distinguished transgression.

The invariant exterior algebra of a reductive algebra is free on its
primitive part; each primitive form ξ lifts to an invariant Weil element
ω with

    (a) ω restricted to the exterior factor equals ξ,
    (b) i_x ω = i_x (1⊗ξ) for every positive invariant multivector x,
    (c) d_W ω = ξ~ ⊗ 1 for a unique invariant polynomial ξ~.

Conditions (a)-(c) are affine-linear in the coefficients of ω and ξ~, so
the lift is found by one exact solve; ω is not unique but ξ~ is, which
the solver certifies by checking that the homogeneous solution space has
vanishing ξ~ part.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .complexes import Truncation
from .equivariant import invariant_multivector_basis
from .lie import LieAlgebra, adjoint_matrices, block_action_kernel
from .linalg import (
    Frozen,
    Matrix,
    Subspace,
    complement_basis,
    hstack,
    image_rank,
    joint_kernel,
    rank,
    vstack,
)
from .modules import derivation_on_lambda, lambda_label, lambda_monomials, sym_label, wedge_concat
from .weil import WeilModule, weil_model


class TransgressionError(ValueError):
    pass


def exterior_invariant_block(g: LieAlgebra, p: int) -> Matrix:
    """Coadjoint invariants of Λ^p(g*) as the columns of a Matrix, cut once
    per algebra (LieAlgebra._lambda_invariants)."""
    cut = g._lambda_invariants
    if p not in cut:
        _, coad = adjoint_matrices(g)
        cut[p] = block_action_kernel(g, derivation_on_lambda(list(coad.matrices), p),
                                     len(lambda_monomials(g.dim, p)))
    return cut[p]


def exterior_invariants(g: LieAlgebra, p: int) -> list:
    """Coadjoint invariants of Λ^p(g*), read out as dense vectors."""
    return exterior_invariant_block(g, p).columns()


def wedge_columns(U: Matrix, p: int, V: Matrix, q: int, n: int) -> Matrix:
    """u∧v for every column u of U (over the Λ^p monomials) and v of V (over
    the Λ^q monomials), u-major, as the columns of one Matrix over the
    Λ^{p+q} monomials."""
    mp = lambda_monomials(n, p)
    mq = lambda_monomials(n, q)
    index = {m: i for i, m in enumerate(lambda_monomials(n, p + q))}
    ucols, vcols = U.int_columns(), V.int_columns()
    num: dict = {}
    for a, ucol in ucols.items():
        for b, vcol in vcols.items():
            j = a * V.cols + b
            for i, x in ucol:
                for k, y in vcol:
                    sign, mono = wedge_concat(mp[i], mq[k])
                    if sign:
                        rc = (index[mono], j)
                        num[rc] = num.get(rc, 0) + sign * x * y
    return Matrix._from_ints(len(index), U.cols * V.cols, num, U.den * V.den)


def _coefficient_column(coeffs: Sequence) -> Matrix:
    """A coefficient tuple read back as a one-column Matrix."""
    return Matrix(len(coeffs), 1, {(i, 0): c for i, c in enumerate(coeffs) if c})


def wedge_product(prims: Sequence, n: int) -> Matrix:
    """The wedge product of primitives, left to right, as one column (1 for
    the empty product)."""
    v, deg = Matrix.identity(1), 0
    for prim in prims:
        v = wedge_columns(v, deg, prim.column, prim.degree, n)
        deg += prim.degree
    return v


class Primitive(Frozen):
    def __init__(self, degree: int, column: Matrix, label: str):
        # column: one column over the degree-p exterior monomial basis
        vars(self).update(degree=degree, column=column, label=label)

    @property
    def coeffs(self) -> tuple:
        """The coefficients, read out as a dense tuple."""
        return self.column.columns()[0]


class PrimitiveSpace:
    """Primitives: a complement of the decomposables in the invariant algebra."""

    def __init__(self, g: LieAlgebra, invariant_dims: dict, primitives: list):
        self.g = g
        self.invariant_dims = invariant_dims  # degree <= min(dim g, N) -> dim of the invariant forms
        self.primitives = primitives  # Primitive, ordered by (degree, greedy index)


def primitive_basis(g: LieAlgebra, trunc: Truncation) -> PrimitiveSpace:
    """Primitives of the invariant exterior algebra, with a free-ness check.

    Decomposables in degree m are spanned by products of positive-degree
    invariants; the primitive complement is chosen greedily over the
    invariant basis. The exterior algebra generated by the result must
    reproduce the invariant dimensions in every searched degree, up to
    min(dim g, N); no invariant above that degree is cut.

    The primitives of degree m, and whether freeness was checked at m,
    depend only on the invariants of degree <= m and the primitives below
    m, so both are kept per algebra (LieAlgebra._primitives): a call builds
    and checks only the degrees no earlier call reached.  A failed check
    records nothing, so it raises on every call.
    """
    n = g.dim
    top = min(n, trunc.max_degree)
    inv = {p: exterior_invariant_block(g, p) for p in range(0, top + 1)}
    record = g._primitives
    for m in range(top + 1):
        if m not in record:
            record[m] = (_primitives_of_degree(g, inv, m), False)
    space = PrimitiveSpace(g, {p: block.cols for p, block in inv.items()},
                           [prim for m in range(top + 1) for prim in record[m][0]])
    if any(p.degree % 2 == 0 for p in space.primitives):
        raise TransgressionError("even-degree primitive found; not reductive input?")
    for m in range(top + 1):
        prims, checked = record[m]
        if not checked:
            _verify_freeness(space.primitives, inv[m], n, m)
            record[m] = (prims, True)
    return space


def _primitives_of_degree(g: LieAlgebra, inv: dict, m: int) -> tuple:
    """A complement of the decomposables in the invariants of degree m,
    chosen greedily over the invariant basis."""
    n = g.dim
    if not m or not inv[m].cols:
        return ()
    decomp = hstack([wedge_columns(inv[a], a, inv[m - a], m - a, n)
                     for a in range(1, m // 2 + 1)], inv[m].rows)
    prims = complement_basis(image_rank(decomp)[1], inv[m])
    monos = lambda_monomials(n, m)
    return tuple(Primitive(m, prims.take([j]), " + ".join(
        f"{c}·{lambda_label(mono, g.basis_labels)}" for c, mono in zip(v, monos) if c))
        for j, v in enumerate(prims.columns()))


def _verify_freeness(prims: list, inv: Matrix, n: int, m: int) -> None:
    """Products of the primitives of degree m must form a basis of the
    invariants inv of degree m (only primitives of degree <= m, at most m of
    them, can take part)."""
    prims = [p for p in prims if p.degree <= m]
    got = [wedge_product(subset, n) for r in range(min(len(prims), m) + 1)
           for subset in combinations(prims, r) if sum(p.degree for p in subset) == m]
    if len(got) != inv.cols:
        raise TransgressionError(
            f"primitive count mismatch in degree {m}: {len(got)} products, "
            f"invariants have dimension {inv.cols}"
        )
    if inv.cols and rank(hstack(got, inv.rows)) != inv.cols:
        raise TransgressionError(f"products of primitives are dependent in degree {m}")


# ---------------------------------------------------------------------------
# The transgression solve
# ---------------------------------------------------------------------------


class TransgressionEntry(Frozen):
    def __init__(self, primitive: Primitive, omega: dict, xi_tilde: tuple, xi_tilde_label: str):
        # omega: Weil element, keys (sym exponents, lambda monomial);
        # xi_tilde: coefficients over the symmetric monomials of degree (p+1)/2
        vars(self).update(primitive=primitive, omega=omega, xi_tilde=xi_tilde,
                          xi_tilde_label=xi_tilde_label)


class TransgressionData:
    def __init__(self, g: LieAlgebra, weil: WeilModule, entries: list):
        self.g, self.weil, self.entries = g, weil, entries

    def xi_tilde_sym_degree(self, idx: int) -> int:
        return (self.entries[idx].primitive.degree + 1) // 2


def _lambda_inclusion(W: WeilModule, p: int) -> Matrix:
    """ξ -> 1 ⊗ ξ from Λ^p(g*) into W at degree p; its transpose restricts
    W to the exterior factor."""
    return W.tensor.embed(Matrix.identity(W.tensor.B.dim(p)), p, left=False)


def _sym_inclusion(W: WeilModule, a: int) -> Matrix:
    """s -> s ⊗ 1 from S^a(g*) into W at degree 2a."""
    return W.tensor.embed(Matrix.identity(W.tensor.A.dim(2 * a)), 2 * a, left=True)


def _lambda_inclusion_vector(W: WeilModule, coeffs: Sequence, p: int) -> Matrix:
    """1 ⊗ ξ as a column of W at degree p."""
    return _lambda_inclusion(W, p) @ _coefficient_column(coeffs)


def distinguished_transgression(
    g: LieAlgebra,
    P: PrimitiveSpace,
    weil: Optional[WeilModule] = None,
    unknown_permutation: Optional[Sequence[int]] = None,
) -> TransgressionData:
    """Solve the three lift conditions for every primitive.

    The solve for a primitive of degree p reads W only at p and p + 1, so
    without `weil` W is built to needed = the largest primitive degree + 1
    (0 with no primitive); a given `weil` must reach needed.  (S^a)^g, a =
    (p + 1)/2, is read from W's S(g*) record (SymmetricAlgebra.invariants):
    no S^a is built anew.

    A lift depends on g and the primitive alone, so each verified entry is
    kept per algebra (LieAlgebra._transgressions) and only the primitives
    no earlier call solved are solved here; a lift that fails its check
    records nothing.

    `unknown_permutation` reorders the solver's unknowns (used to certify
    that ξ~ does not depend on free-variable choices); it permutes the
    combined (ω, ξ~) coefficient vector.  One sequence serves every
    primitive, whose systems have different sizes n, so a sequence that is
    not a permutation of range(n) is reduced to one: each entry is taken
    mod n, repeats are dropped keeping the first, and the missing indices
    follow in increasing order.  A reversed range(500) thus gives every
    system of up to 500 unknowns a rotation of its reversed order.  A
    permuted ω is another valid lift, so such a solve neither reads nor
    writes the per-algebra record.
    """
    needed = max((p.degree + 1 for p in P.primitives), default=0)
    W = weil or weil_model(g, Truncation(needed))
    if W.space.hi < needed:
        raise TransgressionError(
            f"Weil algebra materialized to degree {W.space.hi}, need {needed}"
        )
    record = {} if unknown_permutation else g._transgressions
    keys = [(prim.degree, prim.column, prim.label) for prim in P.primitives]
    missing = [(key, prim) for key, prim in zip(keys, P.primitives) if key not in record]
    if missing:
        # the contraction operators do not depend on the primitive: build them
        # once.  W's i_k is 1⊗i_k^Λ and S(g*) is even, so a composite of them
        # is the lift of the composite on Λ(g*), with no sign.  A multivector
        # of degree q > p has no rows at degree p, so none above the largest p
        # is built
        contraction_ops = [(mv, W.tensor.lift(None, W.algebra.ext.contraction_of_multivector(
            mv.coeffs, lambda_monomials(g.dim, mv.degree)))) for mv in invariant_multivector_basis(g, needed - 1)]
        for key, prim in missing:
            record[key] = _solve_entry(W, prim, contraction_ops, unknown_permutation)
    return TransgressionData(g, W, [record[key] for key in keys])


def _solve_entry(W: WeilModule, prim: Primitive, contraction_ops: list,
                 unknown_permutation: Optional[Sequence[int]]) -> TransgressionEntry:
    """The lift of one primitive, by one exact solve of (a)-(c), with the
    uniqueness of ξ~ certified and the lift checked by direct application."""
    alg, S, g = W.algebra, W.algebra.product.A, W.algebra.g
    p = prim.degree
    if p % 2 == 0:
        raise TransgressionError("primitive of even degree cannot transgress")
    w_inv = W.invariant_blocks([p])[p]
    s_deg = (p + 1) // 2
    s_monos, s_inv = S.basis[p + 1], S.invariants(p + 1)
    if not s_inv.cols:
        raise TransgressionError(
            f"no invariant polynomials of degree {s_deg} to transgress into"
        )
    n_alpha, n_beta = w_inv.cols, s_inv.cols

    # unknowns (ω over w_inv, ξ~ over s_inv); equations (a), (b), (c) stacked
    incl = _lambda_inclusion(W, p)
    xi_vec = incl @ prim.column
    top = [incl.transpose()] + [op.block(p) for _, op in contraction_ops]
    rows_top = sum(m.rows for m in top)
    omega_part = vstack([m @ w_inv for m in top] + [W.d.block(p) @ w_inv], n_alpha)
    xi_part = vstack([Matrix.zero(rows_top, n_beta), (_sym_inclusion(W, s_deg) @ s_inv).scale(-1)],
                     n_beta)
    rhs = vstack([m @ xi_vec for m in top] + [Matrix.zero(W.space.dim(p + 1), 1)], 1)

    total_unknowns = n_alpha + n_beta
    perm = list(unknown_permutation) if unknown_permutation else list(range(total_unknowns))
    if sorted(perm) != list(range(total_unknowns)):
        perm = [i % total_unknowns for i in perm]
        seen = []
        perm = [x for x in perm if not (x in seen or seen.append(x))]
        perm += [i for i in range(total_unknowns) if i not in perm]
    A = hstack([omega_part, xi_part], rhs.rows).take(perm)
    # coordinates of rhs over the columns of A: free unknowns are 0
    sol = Subspace(A).restrict(rhs)
    if sol is None:
        raise TransgressionError(
            f"transgression system inconsistent for {prim.label}; "
            "this indicates a sign-convention defect"
        )
    if any(perm[pos] >= n_alpha for pos, _ in joint_kernel([A], A.cols).num):
        raise TransgressionError(
            f"ξ~ is not unique for {prim.label} at degree {p}: homogeneous "
            "solution has a nonzero polynomial part"
        )
    alpha, beta = {}, {}
    for (pos, _), v in sol.num.items():
        j = perm[pos]
        if j < n_alpha:
            alpha[(j, 0)] = v
        else:
            beta[(j - n_alpha, 0)] = v
    omega_col = w_inv @ Matrix._from_ints(n_alpha, 1, alpha, sol.den)
    omega = {alg.key(p, i): Fraction(v, omega_col.den) for (i, _), v in sorted(omega_col.num.items())}
    xi_tilde = (s_inv @ Matrix._from_ints(n_beta, 1, beta, sol.den)).columns()[0]

    _verify_entry(W, prim, omega, xi_tilde, contraction_ops, xi_vec)
    label = " + ".join(
        f"{c}·{sym_label(mono, g.basis_labels)}"
        for mono, c in zip(s_monos, xi_tilde) if c
    )
    return TransgressionEntry(prim, omega, xi_tilde, label or "0")


def _verify_entry(W, prim, omega, xi_tilde, contraction_ops, xi_vec) -> None:
    """Re-check the three conditions on the returned lift by direct application."""
    alg = W.algebra
    p = prim.degree
    ov = Matrix(W.space.dim(p), 1, {(alg.position(key), 0): c for key, c in omega.items()})
    if _lambda_inclusion(W, p).transpose() @ ov != prim.column:
        raise TransgressionError("condition (a) fails on the returned lift")
    for mv, op in contraction_ops:
        if op.block(p) @ ov != op.block(p) @ xi_vec:
            raise TransgressionError(
                f"condition (b) fails against multivector {mv.label}"
            )
    if W.d.block(p) @ ov != _sym_inclusion(W, (p + 1) // 2) @ _coefficient_column(xi_tilde):
        raise TransgressionError("condition (c) fails on the returned lift")
    # invariance of the lift itself
    if not W.is_invariant(p, ov):
        raise TransgressionError("returned lift is not invariant")
    # the polynomial part must be nonzero of the right degree
    if not any(xi_tilde):
        raise TransgressionError("transgressed polynomial is zero")


def generation_check(g: LieAlgebra, data: TransgressionData, trunc: Truncation) -> bool:
    """The ξ~ generate the invariant polynomials freely, by dimension count.

    For every symmetric degree a with 2a <= max_degree, the monomials in
    the ξ~ of weighted degree a must be as many as dim (S^a g*)^g and
    independent; being invariant, they then span it.  They are built on
    W's S(g*), cut or widened to S^(max_degree/2), degree by degree: those
    of degree a are ξ~_j times each monomial of degree a − w_j whose last
    factor index is ≤ j, so each multiset of factors is built once.
    """
    max_a = trunc.max_degree // 2
    S = data.weil.algebra.product.A.to(max_a)
    weights = [data.xi_tilde_sym_degree(j) for j in range(len(data.entries))]
    mults = [S.multiplication(w, e.xi_tilde) for w, e in zip(weights, data.entries)]
    # a -> (the monomials of degree a as columns over S^a, the last factor index of each)
    products = {0: (Matrix.identity(1), [-1])}
    for a in range(max_a + 1):
        if a:
            parts, last = [], []
            for j, (w, mult) in enumerate(zip(weights, mults)):
                if w <= a:
                    V, ends = products[a - w]
                    cols = [i for i, end in enumerate(ends) if end <= j]
                    parts.append(mult.block(2 * (a - w)) @ V.take(cols))
                    last += [j] * len(cols)
            products[a] = hstack(parts, S.dim(2 * a)), last
        V, want = products[a][0], S.invariants(2 * a).cols
        if V.cols != want or (want and rank(V) != want):
            return False
    return True
