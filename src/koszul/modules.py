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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .complexes import Complex, GradedSpace, LinMap, TensorSpace
from .lie import LieAlgebra, RepMatrices, certify_reductive, invariant_vectors
from .linalg import Matrix, qparse, qstr

Q0 = Fraction(0)
Q1 = Fraction(1)


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
        ents: dict = {}
        for col, mono in enumerate(monos):
            for t, gen in enumerate(mono):
                for row_gen in range(n):
                    coeff = A[(row_gen, gen)]
                    if not coeff:
                        continue
                    sign, new = wedge_normalize(mono[:t] + (row_gen,) + mono[t + 1 :])
                    if sign:
                        rc = (index[new], col)
                        s = ents.get(rc, Q0) + sign * coeff
                        if s:
                            ents[rc] = s
                        else:
                            ents.pop(rc, None)
        out.append(Matrix(len(monos), len(monos), ents))
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
        ents: dict = {}
        for col, mono in enumerate(monos):
            for gen, e in enumerate(mono):
                if not e:
                    continue
                for row_gen in range(n):
                    coeff = A[(row_gen, gen)]
                    if not coeff:
                        continue
                    new = list(mono)
                    new[gen] -= 1
                    new[row_gen] += 1
                    rc = (index[tuple(new)], col)
                    s = ents.get(rc, Q0) + e * coeff
                    if s:
                        ents[rc] = s
                    else:
                        ents.pop(rc, None)
        out.append(Matrix(len(monos), len(monos), ents))
    return out


# ---------------------------------------------------------------------------
# KgModule and its validator
# ---------------------------------------------------------------------------


class KgModule:
    """A complex with contractions i_k; Lie derivatives are always derived."""

    def __init__(self, g: LieAlgebra, complex_: Complex, i_ops: Sequence[LinMap],
                 name: str = "module", meta: Optional[dict] = None):
        if len(i_ops) != g.dim:
            raise ValueError(f"need {g.dim} contraction operators, got {len(i_ops)}")
        for op in i_ops:
            if op.shift != -1:
                raise ValueError("contractions must have shift -1")
        self.g = g
        self.complex = complex_
        self.i_ops = tuple(i_ops)
        self.name = name
        self.meta = meta or {}
        self._L_ops = None

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

    @property
    def L_ops(self) -> tuple:
        """L_k = d i_k + i_k d, cached; blocks only on trustworthy degrees."""
        if self._L_ops is None:
            ops = []
            top = self.max_usable
            for ik in self.i_ops:
                blocks = {}
                for deg in self.space.degrees():
                    if deg > top:
                        continue
                    m = self.d.block(deg - 1) @ ik.block(deg) + ik.block(deg + 1) @ self.d.block(deg)
                    if not m.is_zero():
                        blocks[deg] = m
                ops.append(LinMap(self.space, self.space, 0, blocks))
            self._L_ops = tuple(ops)
        return self._L_ops

    def contraction_of_vector(self, coeffs: Sequence) -> LinMap:
        """i_x for x = sum coeffs_k x_k in g."""
        op = LinMap.zero(self.space, self.space, -1)
        for k, c in enumerate(coeffs):
            if c:
                op = op.add(self.i_ops[k].scale(c))
        return op

    def contraction_of_multivector(self, coeffs: Sequence, monos: Sequence[tuple]) -> LinMap:
        """Composite contraction for a multivector given in a monomial basis.

        A monomial (k_1 < ... < k_p) acts by i_{k_1} o ... o i_{k_p},
        left-to-right composition (i_{k_p} is applied first).
        """
        p = len(monos[0]) if monos else 0
        op = LinMap.zero(self.space, self.space, -p)
        for c, mono in zip(coeffs, monos):
            if not c:
                continue
            term = LinMap.identity(self.space)
            for k in mono:
                term = term.compose(self.i_ops[k])

            # `term` is i_{k_1} ... i_{k_p} applied right-to-left over the tuple
            op = op.add(term.scale(c))
        return op

    def __repr__(self):
        return f"KgModule({self.name}, dims={self.complex.dims()})"


@dataclass
class IdentityCheck:
    identity: str
    ok: bool
    witness: Optional[tuple] = None  # (degree, basis label, defect vector)

    def describe(self) -> str:
        if self.ok:
            return f"{self.identity}: ok"
        deg, lbl, defect = self.witness
        nz = {i: qstr(c) for i, c in enumerate(defect) if c}
        return f"{self.identity}: FAIL at degree {deg} on {lbl!r}, defect {nz}"


@dataclass
class KgValidationReport:
    module: str
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def describe(self) -> str:
        head = f"validate_kg({self.module}): {'pass' if self.ok else 'FAIL'}"
        return "\n".join([head] + ["  " + c.describe() for c in self.checks])


def _first_defect(diff: LinMap, degrees, space: GradedSpace):
    for deg in degrees:
        m = diff.block(deg)
        if not m.is_zero():
            col = min(j for (_, j) in m.entries)
            return deg, space.labels(deg)[col], m.column(col)
    return None


def validate_kg(M: KgModule) -> KgValidationReport:
    """Check all five operator identity families on every basis vector."""
    g = M.g
    n = g.dim
    space = M.space
    degs = space.degrees()
    top = space.hi if M.complete else M.max_usable
    safe = [d for d in degs if d <= top]
    safe_d2 = [d for d in degs if d <= (space.hi if M.complete else space.hi - 2)]
    checks = []

    defect = _first_defect(M.d.compose(M.d), safe_d2, space)
    checks.append(IdentityCheck("d∘d = 0", defect is None, defect))

    L = M.L_ops
    ok = True
    wit = None
    for k in range(n):
        derived = M.d.compose(M.i_ops[k]).add(M.i_ops[k].compose(M.d))
        defect = _first_defect(derived.sub(L[k]), safe, space)
        if defect is not None:
            ok, wit = False, defect
            break
    checks.append(IdentityCheck("L_k = d∘i_k + i_k∘d", ok, wit))

    ok, wit = True, None
    for j in range(n):
        for k in range(j, n):
            anti = M.i_ops[j].compose(M.i_ops[k]).add(M.i_ops[k].compose(M.i_ops[j]))
            defect = _first_defect(anti, degs, space)
            if defect is not None:
                ok, wit = False, defect
                break
        if not ok:
            break
    checks.append(IdentityCheck("i_j∘i_k + i_k∘i_j = 0", ok, wit))

    ok, wit = True, None
    for j in range(n):
        for k in range(n):
            comm = L[j].compose(M.i_ops[k]).sub(M.i_ops[k].compose(L[j]))
            expected = LinMap.zero(space, space, -1)
            for m_idx, c in enumerate(g.bracket(j, k)):
                if c:
                    expected = expected.add(M.i_ops[m_idx].scale(c))
            defect = _first_defect(comm.sub(expected), safe, space)
            if defect is not None:
                ok, wit = False, defect
                break
        if not ok:
            break
    checks.append(IdentityCheck("[L_j, i_k] = i_[x_j,x_k]", ok, wit))

    ok, wit = True, None
    for j in range(n):
        for k in range(j + 1, n):
            comm = L[j].compose(L[k]).sub(L[k].compose(L[j]))
            expected = LinMap.zero(space, space, 0)
            for m_idx, c in enumerate(g.bracket(j, k)):
                if c:
                    expected = expected.add(L[m_idx].scale(c))
            safe_LL = [d for d in safe if M.complete or d <= top - 1]
            defect = _first_defect(comm.sub(expected), safe_LL, space)
            if defect is not None:
                ok, wit = False, defect
                break
        if not ok:
            break
    checks.append(IdentityCheck("[L_j, L_k] = L_[x_j,x_k]", ok, wit))

    return KgValidationReport(M.name, checks)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def exterior_model(g: LieAlgebra) -> KgModule:
    """The exterior algebra of g* with the bracket-induced differential.

    Generators sit in degree 1.  d y^m = sum_{i<j} c^m_ij y^i^y^j extended
    as an odd derivation; contraction is minus index deletion (see module
    docstring for why the sign is forced).
    """
    certify_reductive(g)
    n = g.dim
    names = g.basis_labels
    monos = {p: lambda_monomials(n, p) for p in range(n + 1)}
    index = {p: {m: i for i, m in enumerate(monos[p])} for p in monos}
    labels = {p: tuple(lambda_label(m, names) for m in monos[p]) for p in range(n + 1)}
    space = GradedSpace(labels)

    d_blocks = {}
    for p in range(n):
        ents: dict = {}
        for col, mono in enumerate(monos[p]):
            for t in range(p):
                gen = mono[t]
                for a in range(n):
                    for b in range(a + 1, n):
                        c = g.c(gen, a, b)
                        if not c:
                            continue
                        sign, new = wedge_normalize(mono[:t] + (a, b) + mono[t + 1 :])
                        if sign:
                            rc = (index[p + 1][new], col)
                            s = ents.get(rc, Q0) + ((-1) ** t) * sign * c
                            if s:
                                ents[rc] = s
                            else:
                                ents.pop(rc, None)
        m = Matrix(len(monos[p + 1]), len(monos[p]), ents)
        if not m.is_zero():
            d_blocks[p] = m
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
                    ents[(index[p - 1][new], col)] = -Fraction(sign)
            m = Matrix(len(monos[p - 1]), len(monos[p]), ents)
            if not m.is_zero():
                blocks[p] = m
        i_ops.append(LinMap(space, space, -1, blocks))

    return KgModule(g, Complex(space, d), i_ops, name=f"Λ({g.name})",
                    meta={"monomials": monos})


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
    return KgModule(g, Complex(space, d), i_ops, name=f"({rep_name(rep)})^g",
                    meta={"vectors": inv, "grade": grade})


def rep_name(rep: RepMatrices) -> str:
    return f"rep{rep.space_dim}"


def tensor_module(M: KgModule, N: KgModule, max_total: Optional[int] = None,
                  name: Optional[str] = None) -> KgModule:
    """Tensor product with Koszul-sign Leibniz differential and contractions.

    d(m⊗n) = dm⊗n + (-1)^|m| m⊗dn and likewise for each i_k.
    """
    if M.g is not N.g and M.g != N.g:
        raise ValueError("tensor factors live over different Lie algebras")
    g = M.g
    natural_top = M.space.hi + N.space.hi
    top = natural_top if max_total is None else min(max_total, natural_top)
    complete = M.complete and N.complete and top == natural_top
    product = TensorSpace(M.space, N.space, top)

    def leibniz(opM: LinMap, opN: LinMap) -> LinMap:
        return product.lift(opM, None).add(product.lift(None, opN))

    d = leibniz(M.d, N.d)
    i_ops = [leibniz(M.i_ops[k], N.i_ops[k]) for k in range(g.dim)]
    label = name or f"{M.name}⊗{N.name}"
    return KgModule(
        g,
        Complex(product.space, d, complete=complete, check=False),
        i_ops,
        name=label,
        meta={"tensor": product, "basis": product.entries, "factors": (M, N)},
    )


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
        s = ents_dict.get((row, col), Q0) + coeff
        if s:
            ents_dict[(row, col)] = s
        else:
            ents_dict.pop((row, col), None)

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
                bump(mat, (tuple(newexps), newJ), col, Fraction(sign * e), p + 1)
        m = Matrix(space.dim(p + 1), space.dim(p), mat)
        if not m.is_zero():
            d_blocks[p] = m
    d = LinMap(space, space, 1, d_blocks)

    i_ops = []
    for k in range(g.dim):
        A = action.matrices[k]
        blocks = {}
        for p in sorted(basis):
            if p == 0:
                continue
            mat = {}
            for col, (exps, J) in enumerate(basis[p]):
                for t, jvar in enumerate(J):
                    subJ = J[:t] + J[t + 1 :]
                    # i_k(dx_j) = action of x_k on x_j, a linear polynomial
                    for ivar in range(r):
                        coeff = A[(ivar, jvar)]
                        if not coeff:
                            continue
                        newexps = list(exps)
                        newexps[ivar] += 1
                        bump(mat, (tuple(newexps), subJ), col,
                             Fraction((-1) ** t) * coeff, p - 1)
            m = Matrix(space.dim(p - 1), space.dim(p), mat)
            if not m.is_zero():
                blocks[p] = m
        i_ops.append(LinMap(space, space, -1, blocks))

    return KgModule(
        g,
        Complex(space, d, check=False),
        i_ops,
        name=f"Ω({g.name};deg {D})",
        meta={"basis": basis, "variables": tuple(names)},
    )


def wedge_by_generator(ext: KgModule, k: int) -> LinMap:
    """Left wedge multiplication y^k ∧ (·) on an exterior_model module."""
    monos = ext.meta["monomials"]
    space = ext.space
    index = {p: {m: i for i, m in enumerate(monos[p])} for p in monos}
    blocks = {}
    for p, plist in monos.items():
        if p + 1 not in monos:
            continue
        ents = {}
        for col, mono in enumerate(plist):
            sign, new = wedge_normalize((k,) + mono)
            if sign:
                ents[(index[p + 1][new], col)] = Fraction(sign)
        m = Matrix(space.dim(p + 1), space.dim(p), ents)
        if not m.is_zero():
            blocks[p] = m
    return LinMap(space, space, 1, blocks)


def doubled_differential_identity(ext: KgModule) -> bool:
    """Check sum_k y^k ∧ (-L_k x) = 2 d x on the exterior model.

    This is the wedge-against-the-action identity used when untwisting the
    graded pieces of the duality map; with the sign conventions pinned by
    the su(2) regression data the action enters through -L (the transpose
    of ad), not through L itself.
    """
    total = LinMap.zero(ext.space, ext.space, 1)
    for k in range(ext.g.dim):
        total = total.add(wedge_by_generator(ext, k).compose(ext.L_ops[k].scale(-1)))
    return total.equal_on(ext.d.scale(2), ext.space.degrees())


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
    try:
        degree_labels = {int(k): tuple(v) for k, v in data["degrees"].items()}
    except (KeyError, TypeError, ValueError) as exc:
        raise ModuleValidationError(f"malformed degrees table: {exc}") from exc
    space = GradedSpace(degree_labels)

    def build(entries, shift):
        blocks: dict = {}
        for ent in entries:
            deg = int(ent["degree"])
            r_, c_ = int(ent["row"]), int(ent["col"])
            val = qparse(ent["c"])
            if not (0 <= c_ < space.dim(deg) and 0 <= r_ < space.dim(deg + shift)):
                raise ModuleValidationError(
                    f"operator entry out of range at degree {deg}: ({r_},{c_})"
                )
            blocks.setdefault(deg, {})[(r_, c_)] = val
        return LinMap(
            space, space, shift,
            {deg: Matrix(space.dim(deg + shift), space.dim(deg), ents)
             for deg, ents in blocks.items()},
        )

    d = build(data.get("d", []), 1)
    i_entries = data.get("i", {})
    i_ops = []
    for k in range(g.dim):
        i_ops.append(build(i_entries.get(str(k), []), -1))
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
