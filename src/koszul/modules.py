"""Differential graded modules with contraction operators.

A module carries a differential d (degree +1) and one contraction i_k
(degree -1) per Lie algebra basis vector, subject to the contraction
calculus: d^2 = 0, i_j i_k = -i_k i_j, [L_j, i_k] = i_[x_j,x_k] and
[L_j, L_k] = L_[x_j,x_k], where L_k := d i_k + i_k d.

Sign conventions (fixed here once, used by every other module):

* d on the exterior algebra sends a degree-1 generator y^m to
  sum_{i<j} c^m_ij y^i^y^j -- the positive-sign variant, pinned by the
  su(2) regression values.
* With that differential the contraction calculus forces the exterior
  contraction to be MINUS index deletion: i_k(y^I) = -(-1)^(pos-1) y^(I\\k).
  (Plus deletion makes L an anti-representation; the validator suite is
  the arbiter and rejects it.)
* "Structural deletion" -- plus deletion, i.e. minus the module's own
  contraction -- is what enters cross-module formulas: the middle Weil
  term, the Cartan differential term, and the twist generator.

Everything is exact over Q and deterministic.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import combinations
from math import lcm
from typing import Callable, Iterable, Optional, Sequence

from .complexes import (
    Complex,
    DiagonalSum,
    GradedSpace,
    LinMap,
    TensorComplex,
    TensorSpace,
    first_defect,
)
from .lie import (
    LieAlgebra,
    RepMatrices,
    certify_reductive,
    invariant_vectors,
    invariants,
)
from .linalg import Matrix, iparse, lparse, qparse, qstr


# ---------------------------------------------------------------------------
# Monomial combinatorics
# ---------------------------------------------------------------------------


def wedge_normalize(indices: Sequence[int]):
    """Sort a wedge word; returns (sign, tuple) or (0, None) on a repeat."""
    idx = list(indices)
    sign = 1
    # insertion sort, counting transpositions
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
        if b > 0 and idx[b - 1] == idx[b]:
            return 0, None
    return sign, tuple(idx)


def wedge_concat(a: Sequence[int], b: Sequence[int]):
    return wedge_normalize(tuple(a) + tuple(b))


def delete_index(mono: tuple, k: int):
    """Plus deletion: (sign, smaller monomial) or None when k is absent."""
    try:
        pos = mono.index(k)
    except ValueError:
        return None
    return (-1) ** pos, mono[:pos] + mono[pos + 1 :]


def lambda_monomials(n: int, p: int) -> list:
    return list(combinations(range(n), p))


def sym_monomials(n: int, total: int) -> list:
    """Exponent vectors with given total degree, graded-lex (x1 > x2 > ...)."""
    if n == 0:
        return [()] if total == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + (e,), remaining - e, slots - 1)

    rec((), total, n)
    return out


def lambda_label(mono: tuple, names: Sequence[str]) -> str:
    if not mono:
        return "1"
    return "∧".join(f"{names[i]}*" for i in mono)


def sym_label(exps: tuple, names: Sequence[str]) -> str:
    parts = []
    for i, e in enumerate(exps):
        if e == 1:
            parts.append(f"{names[i]}*")
        elif e > 1:
            parts.append(f"{names[i]}*^{e}")
    return "·".join(parts) if parts else "1"


def sym_multiply(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


# Derivation extensions of a generator action ------------------------------


def derivation_on_lambda(matrices: Sequence[Matrix], p: int) -> list:
    """Extend generator actions to Lambda^p as even derivations."""
    if not matrices:
        return []
    n = matrices[0].rows
    monos = lambda_monomials(n, p)
    index = {m: i for i, m in enumerate(monos)}
    out = []
    for A in matrices:
        gens = A.int_columns()
        ents: dict = {}
        for col, mono in enumerate(monos):
            for t, gen in enumerate(mono):
                for row_gen, coeff in gens.get(gen, ()):
                    sign, new = wedge_normalize(mono[:t] + (row_gen,) + mono[t + 1 :])
                    if sign:
                        rc = (index[new], col)
                        ents[rc] = ents.get(rc, 0) + sign * coeff
        out.append(Matrix._from_ints(len(monos), len(monos), ents, A.den))
    return out


def derivation_on_sym(matrices: Sequence[Matrix], total: int) -> list:
    """Extend generator actions to S^total as derivations."""
    if not matrices:
        return []
    n = matrices[0].rows
    monos = sym_monomials(n, total)
    index = {m: i for i, m in enumerate(monos)}
    out = []
    for A in matrices:
        gens = A.int_columns()
        ents: dict = {}
        for col, mono in enumerate(monos):
            for gen, e in enumerate(mono):
                if not e:
                    continue
                for row_gen, coeff in gens.get(gen, ()):
                    new = list(mono)
                    new[gen] -= 1
                    new[row_gen] += 1
                    rc = (index[tuple(new)], col)
                    ents[rc] = ents.get(rc, 0) + e * coeff
        out.append(Matrix._from_ints(len(monos), len(monos), ents, A.den))
    return out


# ---------------------------------------------------------------------------
# KgModule and its validator
# ---------------------------------------------------------------------------


class KgModule:
    """A complex with contractions i_k, checked here for count and shift;
    the Lie derivatives follow (see L_ops)."""

    def __init__(self, g: LieAlgebra, complex_: Complex, i_ops: Sequence[LinMap],
                 name: str = "module"):
        i_ops = tuple(i_ops)
        if len(i_ops) != g.dim:
            raise ValueError(f"need {g.dim} contraction operators, got {len(i_ops)}")
        for op in i_ops:
            if op.shift != -1:
                raise ValueError("contractions must have shift -1")
        self.g = g
        self.complex = complex_
        self.i_ops = i_ops
        self.name = name

    @property
    def space(self) -> GradedSpace:
        return self.complex.space

    @property
    def d(self) -> LinMap:
        return self.complex.d

    @property
    def complete(self) -> bool:
        return self.complex.complete

    @property
    def max_usable(self) -> int:
        return self.complex.max_usable

    @cached_property
    def L_ops(self) -> tuple:
        """The Lie derivatives L_k = d i_k + i_k d, built on first read;
        blocks only on degrees <= max_usable."""
        d, degrees = self.d, self.complex.usable_degrees(1)
        return tuple(LinMap(self.space, self.space, 0, {
            deg: d.block(deg - 1) @ ik.block(deg) + ik.block(deg + 1) @ d.block(deg)
            for deg in degrees
        }) for ik in self.i_ops)

    def _action(self) -> tuple:
        """The L_k that invariants are cut from: L_ops, here."""
        return self.L_ops

    def invariant_blocks(self, degrees) -> dict:
        """deg -> the common kernel of the L_k at deg, as the columns of a
        Matrix, for the given degrees (each <= max_usable): cut from the
        generators' rows and certified on the rest (lie.invariants)."""
        L = self._action()
        return {deg: invariants(self.g, L, deg, self.space.dim(deg)) for deg in degrees}

    def is_invariant(self, deg: int, X: Matrix) -> bool:
        """Whether every L_k kills each column of X, a block of degree-deg
        vectors, by direct application."""
        return all(op.image(deg, X).is_zero() for op in self._action())

    def contractions(self, monos: Iterable[tuple]) -> dict:
        """{I: i_I} for the increasing tuples I of monos, in their order, where
        i_I = i_{I[0]} o ... o i_{I[-1]} (the identity for I = ()); an I whose
        i_I vanishes is left out.  Each i_I is one compose of i_{I[0]} after
        i_{I[1:]}, and the tails are kept for this call only."""
        built: dict = {}  # I -> i_I, or None where it vanishes

        def composite(I: tuple) -> Optional[LinMap]:
            if I not in built:
                if len(I) < 2:
                    op = self.i_ops[I[0]] if I else LinMap.identity(self.space)
                else:
                    rest = composite(I[1:])
                    op = None if rest is None else self.i_ops[I[0]].compose(rest)
                built[I] = op if op is not None and op.blocks else None
            return built[I]

        return {I: op for I in monos if (op := composite(tuple(I))) is not None}

    def contraction_of_multivector(self, coeffs: Sequence, monos: Sequence[tuple]) -> LinMap:
        """Composite contraction for a multivector given in a monomial basis:
        the sum of c·i_I over its monomials I (see contractions)."""
        ops = self.contractions(mono for c, mono in zip(coeffs, monos) if c)
        terms = [(c, ops[mono]) for c, mono in zip(coeffs, monos) if mono in ops]
        if not terms:
            p = len(monos[0]) if monos else 0
            return LinMap.zero(self.space, self.space, -p)
        return LinMap.combination(terms)

    def __repr__(self):
        return f"KgModule({self.name}, dims={self.complex.dims()})"


class TensorModule(KgModule):
    """A module on a TensorSpace whose i_k and L_k are Leibniz lifts of
    factor operator pairs: i_k = iA_k⊗1 + 1⊗iB_k with the Koszul sign, and
    L_k = LA_k⊗1 + 1⊗LB_k (degree 0, so no sign).

    i_pairs() and L_pairs() yield the (A-side, B-side) pairs, one per k.
    They are separate sources so that reading one builds nothing the other
    needs.  i_ops is one summed lift per k on first read, which the duality
    verifier never makes on W⊗M.  The L_k are DiagonalSums of the L pairs,
    whose blocks are lifted only where read: as the factors of a further
    product (the L of W in W⊗M) they hand over rows, as a view or as their
    own stream where one degree reads them, and columns straight from their
    own factors.  Invariants are cut from their rows and certified by
    applying them to columns (KgModule.invariant_blocks), so no L block is
    lifted for them, nor any block of d (a TensorComplex, see
    tensor_module).  Those DiagonalSums are fresh per call, so the factor
    views they build go with the call; L_ops are kept.
    """

    def __init__(self, g: LieAlgebra, complex_: Complex, tensor: TensorSpace,
                 i_pairs: Callable[[], Iterable], L_pairs: Callable[[], Iterable], name: str):
        # not KgModule.__init__: the contractions are lifted on first read
        self.g = g
        self.complex = complex_
        self.tensor = tensor
        self.name = name
        self._i_pairs = i_pairs
        self._L_pairs = L_pairs

    @cached_property
    def i_ops(self) -> tuple:
        return tuple(self.tensor.lift_sum([(A, None), (None, B)], -1) for A, B in self._i_pairs())

    def _action(self) -> tuple:
        """DiagonalSums of the L pairs, with no block above max_usable: a
        factor holds L only up to its own max_usable (see tensor_module)."""
        return tuple(DiagonalSum(self.tensor, A, B, self.max_usable) for A, B in self._L_pairs())

    @cached_property
    def L_ops(self) -> tuple:
        return self._action()


class IdentityCheck:
    def __init__(self, identity: str, ok: bool, witness: Optional[tuple] = None):
        self.identity, self.ok = identity, ok
        self.witness = witness  # (degree, basis label, defect vector)

    def describe(self) -> str:
        if self.ok:
            return f"{self.identity}: ok"
        deg, lbl, defect = self.witness
        nz = {i: qstr(c) for i, c in enumerate(defect) if c}
        return f"{self.identity}: FAIL at degree {deg} on {lbl!r}, defect {nz}"


class KgValidationReport:
    def __init__(self, module: str, checks: list):
        self.module, self.checks = module, checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def describe(self) -> str:
        head = f"validate_kg({self.module}): {'pass' if self.ok else 'FAIL'}"
        return "\n".join([head] + ["  " + c.describe() for c in self.checks])


def validate_kg(M: KgModule) -> KgValidationReport:
    """Check all five operator identity families on every basis vector.

    Each family is a lazily built sequence of difference maps, checked on
    the degrees where its composites apply k differentials inside the
    window; it fails at the first map with a nonzero block.
    """
    g = M.g
    n = g.dim
    d, i = M.d, M.i_ops

    def bracket_defect(A, B, j, k):
        """[A_j, B_k] - B_[x_j,x_k]."""
        return LinMap.combination([(1, A[j].compose(B[k])), (-1, B[k].compose(A[j]))]
                                  + [(-c, B[m]) for m, c in enumerate(g.bracket(j, k)) if c])

    families = [
        ("d∘d = 0", 2, [d.compose(d)]),
        ("L_k = d∘i_k + i_k∘d", 1,
         (LinMap.combination([(1, d.compose(i[k])), (1, i[k].compose(d)), (-1, M.L_ops[k])])
          for k in range(n))),
        ("i_j∘i_k + i_k∘i_j = 0", 0,
         (i[j].compose(i[k]).add(i[k].compose(i[j])) for j in range(n) for k in range(j, n))),
        ("[L_j, i_k] = i_[x_j,x_k]", 1,
         (bracket_defect(M.L_ops, i, j, k) for j in range(n) for k in range(n))),
        ("[L_j, L_k] = L_[x_j,x_k]", 2,
         (bracket_defect(M.L_ops, M.L_ops, j, k) for j in range(n) for k in range(j + 1, n))),
    ]

    def blocks(diff: LinMap) -> Callable:
        """diff's nonzero blocks as the products 1·blk for first_defect."""
        def at(deg: int) -> list:
            blk = diff.block(deg)
            return [(1, Matrix.identity(blk.rows), blk)] if blk.num else []
        return at

    checks = []
    for identity, k, diffs in families:
        degrees = M.complex.usable_degrees(k)
        defect = next(filter(None, (first_defect(M.space, degrees, blocks(diff)) for diff in diffs)), None)
        checks.append(IdentityCheck(identity, defect is None, defect))
    return KgValidationReport(M.name, checks)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def exterior_model(g: LieAlgebra) -> KgModule:
    """The exterior algebra of g* with the bracket-induced differential.

    Generators sit in degree 1.  d y^m = sum_{i<j} c^m_ij y^i^y^j extended
    as an odd derivation; contraction is minus index deletion (see module
    docstring for why the sign is forced).  One module per algebra, built
    (and g certified reductive) on the first call and shared by every
    caller; a failed certification raises on every call and caches nothing.
    """
    return g._exterior


def build_exterior(g: LieAlgebra) -> KgModule:
    """Λ(g*) as exterior_model describes it, built anew (LieAlgebra._exterior
    keeps it); d and the i_k are integer blocks, d over the lcm of the
    denominators of the structure constants."""
    certify_reductive(g)
    n = g.dim
    names = g.basis_labels
    monos = {p: lambda_monomials(n, p) for p in range(n + 1)}
    index = {p: {m: i for i, m in enumerate(monos[p])} for p in monos}
    labels = {p: tuple(lambda_label(m, names) for m in monos[p]) for p in range(n + 1)}
    space = GradedSpace(labels)

    # the nonzero c^m_ab of each generator m, a < b in order, read once as
    # integers over their common denominator
    brackets = [[(a, b, c) for a in range(n) for b in range(a + 1, n) if (c := g.c(m, a, b))]
                for m in range(n)]
    den = lcm(*(c.denominator for terms in brackets for _, _, c in terms))
    brackets = [[(a, b, c.numerator * (den // c.denominator)) for a, b, c in terms] for terms in brackets]
    d_blocks = {}
    for p in range(n):
        ents: dict = {}
        for col, mono in enumerate(monos[p]):
            for t in range(p):
                for a, b, c in brackets[mono[t]]:
                    sign, new = wedge_normalize(mono[:t] + (a, b) + mono[t + 1 :])
                    if sign:
                        rc = (index[p + 1][new], col)
                        ents[rc] = ents.get(rc, 0) + (-1) ** t * sign * c
        d_blocks[p] = Matrix._from_ints(len(monos[p + 1]), len(monos[p]), ents, den)
    d = LinMap(space, space, 1, d_blocks)

    i_ops = []
    for k in range(n):
        blocks = {}
        for p in range(1, n + 1):
            ents = {}
            for col, mono in enumerate(monos[p]):
                hit = delete_index(mono, k)
                if hit:
                    sign, new = hit
                    ents[(index[p - 1][new], col)] = -sign
            blocks[p] = Matrix._from_ints(len(monos[p - 1]), len(monos[p]), ents, 1)
        i_ops.append(LinMap(space, space, -1, blocks))

    return KgModule(g, Complex(space, d), i_ops, name=f"Λ({g.name})")


def trivial_module(g: LieAlgebra) -> KgModule:
    """The ground field in degree 0 with zero differential and contractions."""
    space = GradedSpace({0: ("1",)})
    d = LinMap.zero(space, space, 1)
    i_ops = [LinMap.zero(space, space, -1) for _ in range(g.dim)]
    return KgModule(g, Complex(space, d), i_ops, name="Q")


def invariant_rep_module(g: LieAlgebra, rep: RepMatrices, grade: int = 0) -> KgModule:
    """Invariants of a representation, placed in one degree, d = 0, i = 0."""
    inv = invariant_vectors(rep)
    labels = {grade: tuple(f"inv{i}" for i in range(len(inv)))}
    space = GradedSpace(labels) if inv else GradedSpace({}, lo=grade, hi=grade)
    d = LinMap.zero(space, space, 1)
    i_ops = [LinMap.zero(space, space, -1) for _ in range(g.dim)]
    return KgModule(g, Complex(space, d), i_ops, name=f"({rep_name(rep)})^g")


def rep_name(rep: RepMatrices) -> str:
    return f"rep{rep.space_dim}"


def tensor_module(M: KgModule, N: KgModule, max_total: Optional[int] = None,
                  name: Optional[str] = None) -> TensorModule:
    """Tensor product with Koszul-sign Leibniz differential and contractions.

    d(m⊗n) = dm⊗n + (-1)^|m| m⊗dn and likewise for each i_k, each one
    summed lift of the two factor operators, lifted on first read: d (a
    TensorComplex, applied to columns d·V from the factor blocks), the i_k
    and the Lie derivatives L_k = L_k⊗1 + 1⊗L_k (see TensorModule).  A
    factor holds L only up to its own max_usable, so the lift equals
    d∘i_k + i_k∘d on every product degree up to the product's max_usable P
    as long as every factor degree met there is usable: P - N.space.lo <=
    M.max_usable and P - M.space.lo <= N.max_usable.  Complete factors
    satisfy this at any max_total, and so does W(g) built to degree N+1
    tensored with a module of degrees >= 0 at max_total=N+1, which is how
    verify_duality builds W⊗M.
    """
    if M.g is not N.g and M.g != N.g:
        raise ValueError("tensor factors live over different Lie algebras")
    g = M.g
    natural_top = M.space.hi + N.space.hi
    top = natural_top if max_total is None else min(max_total, natural_top)
    complete = M.complete and N.complete and top == natural_top
    product = TensorSpace(M.space, N.space, top)
    return TensorModule(g, TensorComplex(product, [(M.d, None), (None, N.d)], complete), product,
                        lambda: zip(M.i_ops, N.i_ops), lambda: zip(M.L_ops, N.L_ops),
                        name or f"{M.name}⊗{N.name}")


def polynomial_forms_module(
    g: LieAlgebra,
    action: RepMatrices,
    poly_degree: int,
    var_names: Optional[Sequence[str]] = None,
) -> KgModule:
    """Polynomial differential forms in one homogeneity slice.

    The algebra acts on the linear span of the variables; forms of p-form
    degree p carry polynomial coefficients of degree poly_degree - p, so
    the slice is finite dimensional and closed under d, i and L.  On
    generators: i_k(x) = 0, i_k(dx) = k·x, L_k(x) = k·x, L_k(dx) = d(k·x).
    """
    action.check()
    r = action.space_dim
    names = list(var_names) if var_names else [f"x{i+1}" for i in range(r)]
    if len(names) != r:
        raise ValueError("need one name per variable")
    D = poly_degree
    if D < 0:
        raise ValueError("poly_degree must be >= 0")

    def form_label(exps, J):
        poly = sym_label(exps, names).replace("*", "")
        dx = "∧".join(f"d{names[j]}" for j in J)
        if not J:
            return poly
        return dx if poly == "1" else f"{poly}·{dx}"

    basis: dict = {}
    labels: dict = {}
    for p in range(0, min(r, D) + 1):
        ents = []
        labs = []
        for J in combinations(range(r), p):
            for exps in sym_monomials(r, D - p):
                ents.append((exps, J))
                labs.append(form_label(exps, J))
        if ents:
            basis[p] = ents
            labels[p] = tuple(labs)
    hi = min(r, D)
    space = GradedSpace(labels, lo=0, hi=hi)
    index = {p: {e: i for i, e in enumerate(ents)} for p, ents in basis.items()}

    def bump(ents_dict, row_key, col, coeff, p_target):
        row = index[p_target].get(row_key)
        if row is None:
            return
        ents_dict[(row, col)] = ents_dict.get((row, col), 0) + coeff

    d_blocks = {}
    for p in sorted(basis):
        if p + 1 not in index and space.dim(p + 1) == 0:
            continue
        mat: dict = {}
        for col, (exps, J) in enumerate(basis[p]):
            for v in range(r):
                e = exps[v]
                if not e:
                    continue
                sign, newJ = wedge_normalize((v,) + J)
                if not sign:
                    continue
                newexps = list(exps)
                newexps[v] -= 1
                bump(mat, (tuple(newexps), newJ), col, sign * e, p + 1)
        d_blocks[p] = Matrix(space.dim(p + 1), space.dim(p), mat)
    d = LinMap(space, space, 1, d_blocks)

    i_ops = []
    for k in range(g.dim):
        x_k = action.matrices[k].by_column()
        blocks = {}
        for p in sorted(basis):
            if p == 0:
                continue
            mat = {}
            for col, (exps, J) in enumerate(basis[p]):
                for t, jvar in enumerate(J):
                    subJ = J[:t] + J[t + 1 :]
                    # i_k(dx_j) = action of x_k on x_j, a linear polynomial
                    for ivar, coeff in x_k.get(jvar, ()):
                        newexps = list(exps)
                        newexps[ivar] += 1
                        bump(mat, (tuple(newexps), subJ), col, (-1) ** t * coeff, p - 1)
            blocks[p] = Matrix(space.dim(p - 1), space.dim(p), mat)
        i_ops.append(LinMap(space, space, -1, blocks))

    return KgModule(
        g,
        Complex(space, d, check=False),
        i_ops,
        name=f"Ω({g.name};deg {D})",
    )


def wedge_by_generator(ext: KgModule, k: int) -> LinMap:
    """Left wedge multiplication y^k ∧ (·) on Λ(g*) = exterior_model(g),
    built once per algebra."""
    return ext.g._wedges[k]


def build_wedges(ext: KgModule) -> tuple:
    """y^k ∧ (·) on the exterior_model module ext for every k, built anew
    (LieAlgebra._wedges keeps them)."""
    space = ext.space
    monos = {p: lambda_monomials(ext.g.dim, p) for p in space.degrees()}
    index = {p: {m: i for i, m in enumerate(monos[p])} for p in monos}

    def wedge(k: int) -> LinMap:
        blocks = {}
        for p, plist in monos.items():
            if p + 1 not in monos:
                continue
            ents = {}
            for col, mono in enumerate(plist):
                sign, new = wedge_normalize((k,) + mono)
                if sign:
                    ents[(index[p + 1][new], col)] = sign
            blocks[p] = Matrix._from_ints(space.dim(p + 1), space.dim(p), ents, 1)
        return LinMap(space, space, 1, blocks)

    return tuple(wedge(k) for k in range(ext.g.dim))


def doubled_differential_identity(ext: KgModule) -> bool:
    """Check sum_k y^k ∧ (-L_k x) = 2 d x on the exterior model.

    This is the wedge-against-the-action identity used when untwisting the
    graded pieces of the duality map; with the sign conventions pinned by
    the su(2) regression data the action enters through -L (the transpose
    of ad), not through L itself.
    """
    defect = LinMap.combination(
        [(-1, wedge_by_generator(ext, k).compose(ext.L_ops[k])) for k in range(ext.g.dim)]
        + [(-2, ext.d)])
    return defect.is_zero_on(ext.space.degrees())


# ---------------------------------------------------------------------------
# User-supplied modules from JSON
# ---------------------------------------------------------------------------


class ModuleValidationError(ValueError):
    pass


def kg_module_from_dict(g: LieAlgebra, data: dict, name: str = "file-module") -> KgModule:
    """Build a module from its JSON description and validate it.

    Schema: {"degrees": {"0": [labels], ...},
             "d": [{"degree": d, "row": r, "col": c, "c": "p/q"}, ...],
             "i": {"k": [entries like d], ...}}
    Rows index the basis of the target degree, columns the source degree.
    """

    def build(entries, shift, name):
        blocks: dict = {}
        for ent in entries:
            deg = iparse(ent["degree"])
            r_, c_ = iparse(ent["row"]), iparse(ent["col"])
            val = qparse(ent["c"])
            if not (0 <= c_ < space.dim(deg) and 0 <= r_ < space.dim(deg + shift)):
                raise ModuleValidationError(
                    f"operator entry out of range at degree {deg}: ({r_},{c_})"
                )
            ents = blocks.setdefault(deg, {})
            if ents.get((r_, c_), val) != val:
                raise ModuleValidationError(
                    f"{name} is given twice at degree {deg}, position ({r_},{c_}), "
                    f"with different values {qstr(ents[(r_, c_)])} and {qstr(val)}")
            ents[(r_, c_)] = val
        return LinMap(
            space, space, shift,
            {deg: Matrix(space.dim(deg + shift), space.dim(deg), ents)
             for deg, ents in blocks.items()},
        )

    try:
        labels = {iparse(k): tuple(map(str, lparse(v))) for k, v in data["degrees"].items()}
        if len(labels) != len(data["degrees"]):
            raise ModuleValidationError(f"two degree keys name one degree: {sorted(data['degrees'])}")
        space = GradedSpace(labels)
        d = build(data.get("d", []), 1, "d")
        i_entries = data.get("i", {})
        if set(i_entries) - {str(k) for k in range(g.dim)}:
            raise ModuleValidationError(
                f"contraction keys must be among '0'..'{g.dim - 1}', got {sorted(i_entries)}")
        i_ops = [build(i_entries.get(str(k), []), -1, f"i_{k}") for k in range(g.dim)]
    except ModuleValidationError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ModuleValidationError(f"malformed module description: {exc}") from exc
    try:
        module = KgModule(g, Complex(space, d), i_ops, name=name)
    except ValueError as exc:
        raise ModuleValidationError(str(exc)) from exc
    report = validate_kg(module)
    if not report.ok:
        raise ModuleValidationError(report.describe())
    return module


def load_kg_module(path: str, g: LieAlgebra) -> KgModule:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModuleValidationError(
                f"invalid JSON in {path} at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    return kg_module_from_dict(g, data, name=path)
