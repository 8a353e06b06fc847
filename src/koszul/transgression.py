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

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .complexes import Truncation
from .equivariant import invariant_multivector_basis, sym_invariants
from .lie import LieAlgebra, adjoint_matrices
from .linalg import (
    Matrix,
    RowReduction,
    complement_basis,
    independent_subset,
    kernel_basis,
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


def exterior_invariants(g: LieAlgebra, p: int) -> list:
    """Coadjoint invariants of Λ^p(g*)."""
    _, coad = adjoint_matrices(g)
    mats = derivation_on_lambda(list(coad.matrices), p)
    monos = lambda_monomials(g.dim, p)
    if not monos:
        return []
    if not mats or all(m.is_zero() for m in mats):
        return [tuple(Q1 if i == j else Q0 for i in range(len(monos)))
                for j in range(len(monos))]
    return kernel_basis(vstack(mats))


def wedge_vectors(u: Sequence, p: int, v: Sequence, q: int, n: int) -> tuple:
    """Wedge product of coefficient vectors over monomial bases."""
    mp = lambda_monomials(n, p)
    mq = lambda_monomials(n, q)
    target = lambda_monomials(n, p + q)
    index = {m: i for i, m in enumerate(target)}
    out = [Q0] * len(target)
    for a, ca in zip(mp, u):
        if not ca:
            continue
        for b, cb in zip(mq, v):
            if not cb:
                continue
            sign, mono = wedge_concat(a, b)
            if sign:
                out[index[mono]] += sign * ca * cb
    return tuple(out)


@dataclass(frozen=True)
class Primitive:
    degree: int
    coeffs: tuple  # over the degree-p exterior monomial basis
    label: str


@dataclass
class PrimitiveSpace:
    """Primitives: a complement of the decomposables in the invariant algebra."""

    g: LieAlgebra
    invariant_dims: dict  # degree -> dim of the invariant forms
    primitives: list  # Primitive, ordered by (degree, greedy index)

    def by_degree(self, p: int) -> list:
        return [x for x in self.primitives if x.degree == p]


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
    inv = {p: exterior_invariants(g, p) for p in range(0, n + 1)}
    primitives: list = []
    for m in range(1, top + 1):
        if not inv[m]:
            continue
        dim_m = len(lambda_monomials(n, m))
        decomp = []
        for a in range(1, m):
            b = m - a
            if a > b:
                break
            for u in inv[a]:
                for v in inv[b]:
                    w = wedge_vectors(u, a, v, b, n)
                    if any(w):
                        decomp.append(w)
        decomp_basis = independent_subset(decomp, dim=dim_m)
        prim_vectors = complement_basis(decomp_basis, inv[m], dim=dim_m)
        monos = lambda_monomials(n, m)
        for v in prim_vectors:
            terms = " + ".join(
                f"{c}·{lambda_label(mono, g.basis_labels)}"
                for c, mono in zip(v, monos) if c
            )
            primitives.append(Primitive(m, tuple(v), terms))

    space = PrimitiveSpace(
        g, {p: len(inv[p]) for p in range(n + 1)}, primitives
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
            v = (Q1,)
            d_so_far = 0
            for i in subset:
                v = wedge_vectors(v, d_so_far, prims[i].coeffs, prims[i].degree, n)
                d_so_far += prims[i].degree
            products[deg].append(v)
    for m in range(top + 1):
        want = len(inv[m])
        got = products[m]
        if len(got) != want:
            raise TransgressionError(
                f"primitive count mismatch in degree {m}: {len(got)} products, "
                f"invariants have dimension {want}"
            )
        if want:
            dim_m = len(lambda_monomials(n, m))
            if len(independent_subset(got, dim=dim_m)) != want:
                raise TransgressionError(
                    f"products of primitives are dependent in degree {m}"
                )


# ---------------------------------------------------------------------------
# The transgression solve
# ---------------------------------------------------------------------------


@dataclass
class TransgressionEntry:
    primitive: Primitive
    omega: dict  # Weil element, keys (sym exponents, lambda monomial)
    xi_tilde: tuple  # coefficients over the symmetric monomials of degree (p+1)/2
    xi_tilde_label: str


@dataclass
class TransgressionData:
    g: LieAlgebra
    weil: WeilModule
    entries: list

    def xi_tilde_sym_degree(self, idx: int) -> int:
        return (self.entries[idx].primitive.degree + 1) // 2


def _weil_invariant_basis(W: WeilModule, degree: int) -> list:
    stacked = vstack([op.block(degree) for op in W.L_ops])
    return kernel_basis(stacked)


def _lambda_inclusion_vector(W: WeilModule, coeffs: Sequence, p: int) -> tuple:
    """1 ⊗ ξ as a coordinate vector of W at degree p."""
    alg = W.algebra
    n = W.g.dim
    zero = tuple([0] * n)
    out = [Q0] * W.space.dim(p)
    for mono, c in zip(lambda_monomials(n, p), coeffs):
        if c:
            out[alg.index[p][(zero, mono)]] = c
    return tuple(out)


def distinguished_transgression(
    g: LieAlgebra,
    P: PrimitiveSpace,
    trunc: Truncation,
    weil: Optional[WeilModule] = None,
    unknown_permutation: Optional[Sequence[int]] = None,
) -> TransgressionData:
    """Solve the three lift conditions for every primitive.

    `unknown_permutation` reorders the solver's unknowns (used to certify
    that ξ~ does not depend on free-variable choices); it permutes the
    combined (ω, ξ~) coefficient vector.
    """
    needed = max((p.degree + 1 for p in P.primitives), default=0)
    W = weil or weil_model(g, Truncation(max(trunc.max_degree, needed)))
    if W.space.hi < needed:
        raise TransgressionError(
            f"Weil algebra materialized to degree {W.space.hi}, need {needed}"
        )
    alg = W.algebra
    n = g.dim
    multis = invariant_multivector_basis(g)
    entries = []
    for prim in P.primitives:
        p = prim.degree
        if p % 2 == 0:
            raise TransgressionError("primitive of even degree cannot transgress")
        w_inv = _weil_invariant_basis(W, p)
        s_deg = (p + 1) // 2
        s_inv = sym_invariants(g, s_deg)
        if not s_inv:
            raise TransgressionError(
                f"no invariant polynomials of degree {s_deg} to transgress into"
            )
        s_monos = sym_monomials(n, s_deg)
        n_alpha, n_beta = len(w_inv), len(s_inv)

        xi_vec = _lambda_inclusion_vector(W, prim.coeffs, p)

        rows_restrict = len(lambda_monomials(n, p))
        contraction_ops = []
        for mv in multis:
            monos = lambda_monomials(n, mv.degree)
            contraction_ops.append(
                (mv, W.contraction_of_multivector(mv.coeffs, monos))
            )
        rows_contr = [W.space.dim(p - mv.degree) for mv, _ in contraction_ops]
        rows_d = W.space.dim(p + 1)

        restr_of = lambda v: _restrict_vector(W, v, p)

        cols = []
        for v in w_inv:
            col = list(restr_of(v))
            for (mv, op) in contraction_ops:
                col.extend(op.apply(p, v))
            col.extend(W.d.apply(p, v))
            cols.append(vec(col))
        for sv in s_inv:
            col = [Q0] * (rows_restrict + sum(rows_contr))
            incl = [Q0] * rows_d
            for mono, c in zip(s_monos, sv):
                if c:
                    incl[alg.index[p + 1][(mono, ())]] = -c
            col.extend(incl)
            cols.append(vec(col))

        rhs = list(prim.coeffs)
        for (mv, op) in contraction_ops:
            rhs.extend(op.apply(p, xi_vec))
        rhs.extend([Q0] * rows_d)
        rhs = vec(rhs)

        total_unknowns = n_alpha + n_beta
        perm = list(unknown_permutation) if unknown_permutation else list(range(total_unknowns))
        if sorted(perm) != list(range(total_unknowns)):
            perm = [i % total_unknowns for i in perm]
            seen = []
            perm = [x for x in perm if not (x in seen or seen.append(x))]
            perm += [i for i in range(total_unknowns) if i not in perm]
        A = Matrix.from_columns([cols[j] for j in perm], nrows=len(rhs))
        red = RowReduction(A)
        sol_perm = red.solve(rhs)
        if sol_perm is None:
            raise TransgressionError(
                f"transgression system inconsistent for {prim.label}; "
                "this indicates a sign-convention defect"
            )
        sol = [Q0] * total_unknowns
        for pos, j in enumerate(perm):
            sol[j] = sol_perm[pos]
        alpha, beta = sol[:n_alpha], sol[n_alpha:]

        for kvec in red.kernel():
            hom = [Q0] * total_unknowns
            for pos, j in enumerate(perm):
                hom[j] = kvec[pos]
            if any(hom[n_alpha:]):
                raise TransgressionError(
                    f"ξ~ is not unique for {prim.label}: homogeneous solution "
                    "has a nonzero polynomial part"
                )

        omega_vec = [Q0] * W.space.dim(p)
        for c, v in zip(alpha, w_inv):
            if c:
                for i, x in enumerate(v):
                    omega_vec[i] += c * x
        omega = alg.vector_to_element(tuple(omega_vec), p)
        xi_tilde = [Q0] * len(s_monos)
        for c, sv in zip(beta, s_inv):
            if c:
                for i, x in enumerate(sv):
                    xi_tilde[i] += c * x
        xi_tilde = tuple(xi_tilde)

        _verify_entry(W, prim, omega, xi_tilde, contraction_ops, xi_vec)
        label = " + ".join(
            f"{c}·{sym_label(mono, g.basis_labels)}"
            for mono, c in zip(s_monos, xi_tilde) if c
        )
        entries.append(TransgressionEntry(prim, omega, xi_tilde, label or "0"))
    return TransgressionData(g, W, entries)


def _restrict_vector(W: WeilModule, v: Sequence, degree: int) -> tuple:
    n = W.g.dim
    monos = lambda_monomials(n, degree)
    index = {m: i for i, m in enumerate(monos)}
    out = [Q0] * len(monos)
    for i, c in enumerate(v):
        if not c:
            continue
        exps, lmono = W.algebra.basis[degree][i]
        if not any(exps):
            out[index[lmono]] += c
    return tuple(out)


def _verify_entry(W, prim, omega, xi_tilde, contraction_ops, xi_vec) -> None:
    """Re-check the three conditions by direct application."""
    alg = W.algebra
    n = W.g.dim
    p = prim.degree
    ov = alg.element_to_vector(omega, p)
    if _restrict_vector(W, ov, p) != tuple(prim.coeffs):
        raise TransgressionError("condition (a) fails on the returned lift")
    for mv, op in contraction_ops:
        if op.apply(p, ov) != op.apply(p, xi_vec):
            raise TransgressionError(
                f"condition (b) fails against multivector {mv.label}"
            )
    d_omega = W.d.apply(p, ov)
    expected = [Q0] * W.space.dim(p + 1)
    for mono, c in zip(sym_monomials(n, (p + 1) // 2), xi_tilde):
        if c:
            expected[alg.index[p + 1][(mono, ())]] = c
    if tuple(d_omega) != tuple(expected):
        raise TransgressionError("condition (c) fails on the returned lift")
    # invariance of the lift itself
    for L in W.L_ops:
        if any(L.apply(p, ov)):
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
        if dim_target:
            dim_amb = len(sym_monomials(n, a))
            if len(independent_subset(prods, dim=dim_amb)) != dim_target:
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
