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
from .equivariant import invariant_multivector_basis, sym_invariant_block, sym_invariants
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
    vec,
    vstack,
)
from .modules import (
    derivation_on_lambda,
    lambda_label,
    lambda_monomials,
    sym_label,
    sym_monomials,
    sym_multiply,
    wedge_concat,
)
from .weil import WeilModule, weil_model

Q0 = Fraction(0)
Q1 = Fraction(1)


class TransgressionError(ValueError):
    pass


def exterior_invariant_block(g: LieAlgebra, p: int) -> Matrix:
    """Coadjoint invariants of Λ^p(g*) as the columns of a Matrix."""
    _, coad = adjoint_matrices(g)
    return block_action_kernel(g, derivation_on_lambda(list(coad.matrices), p),
                               len(lambda_monomials(g.dim, p)))


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
        self.invariant_dims = invariant_dims  # degree -> dim of the invariant forms
        self.primitives = primitives  # Primitive, ordered by (degree, greedy index)


def primitive_basis(g: LieAlgebra, trunc: Truncation) -> PrimitiveSpace:
    """Primitives of the invariant exterior algebra, with a free-ness check.

    Decomposables in degree m are spanned by products of positive-degree
    invariants; the primitive complement is chosen greedily over the
    invariant basis. The exterior algebra generated by the result must
    reproduce the invariant dimensions in every searched degree, up to
    min(dim g, N).
    """
    n = g.dim
    top = min(n, trunc.max_degree)
    inv = {p: exterior_invariant_block(g, p) for p in range(0, n + 1)}
    primitives: list = []
    for m in range(1, top + 1):
        if not inv[m].cols:
            continue
        decomp = hstack([wedge_columns(inv[a], a, inv[m - a], m - a, n)
                         for a in range(1, m // 2 + 1)], inv[m].rows)
        prims = complement_basis(image_rank(decomp)[1], inv[m])
        monos = lambda_monomials(n, m)
        for j, v in enumerate(prims.columns()):
            terms = " + ".join(
                f"{c}·{lambda_label(mono, g.basis_labels)}"
                for c, mono in zip(v, monos) if c
            )
            primitives.append(Primitive(m, prims.take([j]), terms))

    space = PrimitiveSpace(
        g, {p: inv[p].cols for p in range(n + 1)}, primitives
    )
    _verify_freeness(space, inv, n, top)
    return space


def _verify_freeness(space: PrimitiveSpace, inv: dict, n: int, top: int) -> None:
    """Products of the primitives must form a basis of the invariants up to `top`."""
    prims = space.primitives
    if any(p.degree % 2 == 0 for p in prims):
        raise TransgressionError("even-degree primitive found; not reductive input?")
    products: dict = {m: [] for m in range(top + 1)}
    for r in range(len(prims) + 1):
        for subset in combinations(range(len(prims)), r):
            deg = sum(prims[i].degree for i in subset)
            if deg > top:
                continue
            products[deg].append(wedge_product([prims[i] for i in subset], n))
    for m in range(top + 1):
        want = inv[m].cols
        got = products[m]
        if len(got) != want:
            raise TransgressionError(
                f"primitive count mismatch in degree {m}: {len(got)} products, "
                f"invariants have dimension {want}"
            )
        if want and rank(hstack(got, inv[m].rows)) != want:
            raise TransgressionError(f"products of primitives are dependent in degree {m}")


# ---------------------------------------------------------------------------
# The transgression solve
# ---------------------------------------------------------------------------


class TransgressionEntry:
    def __init__(self, primitive: Primitive, omega: dict, xi_tilde: tuple, xi_tilde_label: str):
        self.primitive = primitive
        self.omega = omega  # Weil element, keys (sym exponents, lambda monomial)
        self.xi_tilde = xi_tilde  # coefficients over the symmetric monomials of degree (p+1)/2
        self.xi_tilde_label = xi_tilde_label


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
    trunc: Truncation,
    weil: Optional[WeilModule] = None,
    unknown_permutation: Optional[Sequence[int]] = None,
) -> TransgressionData:
    """Solve the three lift conditions for every primitive.

    The solve for a primitive of degree p reads W only at p and p + 1, so
    without `weil` W is built to needed = the largest primitive degree + 1
    (0 with no primitive), whatever window `trunc` gives; a given `weil`
    must reach needed.

    `unknown_permutation` reorders the solver's unknowns (used to certify
    that ξ~ does not depend on free-variable choices); it permutes the
    combined (ω, ξ~) coefficient vector.  One sequence serves every
    primitive, whose systems have different sizes n, so a sequence that is
    not a permutation of range(n) is reduced to one: each entry is taken
    mod n, repeats are dropped keeping the first, and the missing indices
    follow in increasing order.  A reversed range(500) thus gives every
    system of up to 500 unknowns a rotation of its reversed order.
    """
    needed = max((p.degree + 1 for p in P.primitives), default=0)
    W = weil or weil_model(g, Truncation(needed))
    if W.space.hi < needed:
        raise TransgressionError(
            f"Weil algebra materialized to degree {W.space.hi}, need {needed}"
        )
    alg = W.algebra
    n = g.dim
    # the contraction operators do not depend on the primitive: build them once.
    # W's i_k is 1⊗i_k^Λ and S(g*) is even, so a composite of them is the
    # lift of the composite on Λ(g*), with no sign.  A multivector of degree
    # q > p has no rows at degree p, so none above the largest p is built
    contraction_ops = [(mv, W.tensor.lift(None, alg.ext.contraction_of_multivector(
        mv.coeffs, lambda_monomials(n, mv.degree)))) for mv in invariant_multivector_basis(g, needed - 1)]
    entries = []
    for prim in P.primitives:
        p = prim.degree
        if p % 2 == 0:
            raise TransgressionError("primitive of even degree cannot transgress")
        w_inv = W.invariant_blocks([p])[p]
        s_deg = (p + 1) // 2
        s_inv = sym_invariant_block(g, s_deg)
        if not s_inv.cols:
            raise TransgressionError(
                f"no invariant polynomials of degree {s_deg} to transgress into"
            )
        s_monos = sym_monomials(n, s_deg)
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
                f"ξ~ is not unique for {prim.label}: homogeneous solution "
                "has a nonzero polynomial part"
            )
        alpha, beta = {}, {}
        for (pos, _), v in sol.num.items():
            j = perm[pos]
            if j < n_alpha:
                alpha[(j, 0)] = v
            else:
                beta[(j - n_alpha, 0)] = v
        omega_col = w_inv @ Matrix._from_ints(n_alpha, 1, alpha, sol.den)
        omega = {alg.basis[p][i]: Fraction(v, omega_col.den) for (i, _), v in sorted(omega_col.num.items())}
        xi_tilde = (s_inv @ Matrix._from_ints(n_beta, 1, beta, sol.den)).columns()[0]

        _verify_entry(W, prim, omega, xi_tilde, contraction_ops, xi_vec)
        label = " + ".join(
            f"{c}·{sym_label(mono, g.basis_labels)}"
            for mono, c in zip(s_monos, xi_tilde) if c
        )
        entries.append(TransgressionEntry(prim, omega, xi_tilde, label or "0"))
    return TransgressionData(g, W, entries)


def _verify_entry(W, prim, omega, xi_tilde, contraction_ops, xi_vec) -> None:
    """Re-check the three conditions on the returned lift by direct application."""
    alg = W.algebra
    p = prim.degree
    ov = Matrix(W.space.dim(p), 1, {(alg.index[p][key], 0): c for key, c in omega.items()})
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

    For every symmetric degree a with 2a <= max_degree, monomials in the
    ξ~ of weighted degree a must span (S^a g*)^g and be independent.
    """
    n = g.dim
    weights = [data.xi_tilde_sym_degree(i) for i in range(len(data.entries))]
    max_a = trunc.max_degree // 2
    for a in range(0, max_a + 1):
        target = sym_invariants(g, a)
        dim_target = len(target)
        exps_list = _weighted_exponents(weights, a)
        prods = []
        for exps in exps_list:
            v = {tuple([0] * n): Q1}
            for idx, e in enumerate(exps):
                for _ in range(e):
                    v = _sym_elt_multiply(
                        v,
                        {m: c for m, c in zip(
                            sym_monomials(n, weights[idx]),
                            data.entries[idx].xi_tilde) if c},
                    )
            monos = sym_monomials(n, a)
            prods.append(vec([v.get(m, Q0) for m in monos]))
        if len(prods) != dim_target:
            return False
        if dim_target and rank(Matrix.from_columns(prods)) != dim_target:
            return False
    return True


def _weighted_exponents(weights, total):
    if total == 0:
        return [tuple([0] * len(weights))]
    if not weights:
        return []
    out = []

    def rec(prefix, remaining, idx):
        if idx == len(weights) - 1:
            w = weights[idx]
            if w and remaining % w == 0:
                out.append(prefix + (remaining // w,))
            elif remaining == 0:
                out.append(prefix + (0,))
            return
        w = weights[idx]
        maxe = remaining // w if w else 0
        for e in range(maxe + 1):
            rec(prefix + (e,), remaining - e * w, idx + 1)

    rec((), total, 0)
    return out


def _sym_elt_multiply(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            key = sym_multiply(m1, m2)
            s = out.get(key, Q0) + c1 * c2
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out
