"""Lie algebra data: loading, validation, reductivity certification.

Structure constants follow [x_i, x_j] = sum_k c^k_ij x_k with c^k_ij
antisymmetric in (i, j).  Indices are 0-based everywhere, including the
JSON file format.  A loaded algebra is always Jacobi-checked; downstream
constructions additionally require `certify_reductive` to pass, since the
duality theorems need g = center + [g,g] with a nondegenerate Killing
form on the derived part.
"""

from __future__ import annotations

import json
import os
from functools import cache, cached_property
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable, Sequence

from .linalg import (
    Frozen,
    Matrix,
    closure_rank,
    hstack,
    image_rank,
    iparse,
    joint_kernel,
    lparse,
    qparse,
    qstr,
    rank,
    row_kernel,
)

Q0 = Fraction(0)


class LieAlgebraError(ValueError):
    pass


class BadIndex(LieAlgebraError):
    pass


class AntisymmetryViolation(LieAlgebraError):
    pass


class JacobiViolation(LieAlgebraError):
    pass


class NotReductive(LieAlgebraError):
    pass


class LieAlgebra(Frozen):
    """Finite-dimensional Lie algebra over Q in a fixed basis."""

    def __init__(self, name: str, dim: int, basis_labels: tuple, structure: dict):
        # structure: (i, j) with i < j  ->  tuple of (k, coefficient)
        vars(self).update(name=name, dim=dim, basis_labels=basis_labels, structure=structure)

    def __hash__(self) -> int:
        return hash((self.name, self.dim, self.basis_labels))

    def __eq__(self, other) -> bool:
        """Same name, dim and labels, which are what the hash reads, and the
        same nonzero structure constants."""
        return isinstance(other, LieAlgebra) and (
            (self.name, self.dim, self.basis_labels, self._constants)
            == (other.name, other.dim, other.basis_labels, other._constants))

    def bracket(self, i: int, j: int) -> tuple:
        """[x_i, x_j] as a coordinate vector."""
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise BadIndex(f"basis index out of range: ({i},{j})")
        out = [Q0] * self.dim
        if i == j:
            return tuple(out)
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for k, c in self.structure.get((i, j), ()):
            out[k] += sign * c
        return tuple(out)

    @cached_property
    def _constants(self) -> dict:
        """(k, i, j) -> c^k_ij over the nonzero constants, both orders of (i, j)."""
        out: dict = {}
        for (i, j), terms in self.structure.items():
            for k, c in terms:
                if c:
                    out[(k, i, j)] = out.get((k, i, j), Q0) + c
                    out[(k, j, i)] = out.get((k, j, i), Q0) - c
        return {kij: c for kij, c in out.items() if c}

    @cached_property
    def _adjoint(self) -> tuple:
        """(ad, coad), built once; see adjoint_matrices."""
        n = self.dim
        ad = []
        for k in range(n):
            ents = {}
            for j in range(n):
                w = self.bracket(k, j)
                for m in range(n):
                    if w[m]:
                        ents[(m, j)] = w[m]
            ad.append(Matrix(n, n, ents))
        coad = [m.transpose().scale(-1) for m in ad]
        return RepMatrices(self, tuple(ad)), RepMatrices(self, tuple(coad))

    @cached_property
    def _reductive(self) -> ReductiveDecomposition:
        """The decomposition, certified once; see certify_reductive.  A
        failed certification raises and leaves nothing cached."""
        n = self.dim
        ad, _ = adjoint_matrices(self)
        center = block_action_kernel(self, ad.matrices, n)
        # the brackets [i, j], i < j, are the columns j > i of ad_i
        brackets = hstack([m.take(range(i + 1, n)) for i, m in enumerate(ad.matrices)], n)
        derived = image_rank(brackets)[1]
        if center.cols + derived.cols != n:
            raise NotReductive(
                f"dim z(g) + dim [g,g] = {center.cols} + {derived.cols} != {n}"
            )
        killing = killing_form(self)
        if derived.cols:
            K_restricted = derived.transpose() @ killing @ derived
            if rank(K_restricted) != derived.cols:
                raise NotReductive("Killing form is degenerate on the derived subalgebra")
        if center.cols and derived.cols:
            if rank(hstack([center, derived], n)) != n:
                raise NotReductive("center and derived subalgebra do not span g directly")
        return ReductiveDecomposition(tuple(center.columns()), tuple(derived.columns()), killing)

    # The structures on g alone are built once per algebra, on first read,
    # like the decomposition: Λ(g*) and S(g*) are the same for every module
    # and window.  Their builders live downstream and are imported here
    # lazily, as those modules import this one.

    @cached_property
    def _exterior(self):
        """Λ(g*) with its d and i_k; see modules.exterior_model.  A failed
        certification raises and leaves nothing cached."""
        from .modules import build_exterior
        return build_exterior(self)

    @cached_property
    def _wedges(self) -> tuple:
        """y^k∧ on Λ(g*), one LinMap per k; see modules.wedge_by_generator."""
        from .modules import build_wedges
        return build_wedges(self._exterior)

    @cached_property
    def _lambda_invariants(self) -> dict:
        """p -> the coadjoint invariants of Λ^p(g*), each cut on first read;
        see transgression.exterior_invariant_block."""
        return {}

    @cached_property
    def _symmetric(self) -> tuple:
        """(a -> the coadjoint L_k blocks on S^a, a -> the invariants of S^a,
        (k, 2a) -> the block of u^k· on S^a), each built on first read: the
        state of S(g*) that every equivariant.SymmetricAlgebra on g reads."""
        return {}, {}, {}

    @cached_property
    def generators(self) -> tuple:
        """Basis indices that generate g as a Lie algebra, in increasing order.

        Every k whose ad_k is diagonal in the basis is kept: on the monomial
        bases built from the basis of g its L_k is diagonal too, and the
        one-entry rows cost almost nothing in an invariant kernel, as the
        presolve of row_kernel turns them into dead columns (on a tensor
        product, with no such row built; see invariants).  They are
        joined by the lexicographically first smallest set of the other
        indices that generates g together with them.  Built once, on the
        integer echelon engine (closure_rank)."""
        n = self.dim
        ad = self._adjoint[0].matrices
        diagonal = [k for k in range(n) if all(i == j for i, j in ad[k].num)]
        others = [k for k in range(n) if k not in diagonal]
        candidates = (sorted(diagonal + list(extra))
                      for size in range(len(others) + 1) for extra in combinations(others, size))
        return next(tuple(ks) for ks in candidates
                    if closure_rank([{k: 1} for k in ks], [ad[k] for k in ks]) == n)

    def c(self, k: int, i: int, j: int) -> Fraction:
        """Structure constant c^k_ij."""
        if not (0 <= i < self.dim and 0 <= j < self.dim and 0 <= k < self.dim):
            raise BadIndex(f"basis index out of range: c^{k}_({i},{j})")
        return self._constants.get((k, i, j), Q0)


def _check_jacobi(g: LieAlgebra) -> None:
    n = g.dim
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                acc = [Q0] * n
                for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                    inner = g.bracket(y, z)
                    for k in range(n):
                        if inner[k]:
                            outer = g.bracket(x, k)
                            for m in range(n):
                                acc[m] += inner[k] * outer[m]
                if any(acc):
                    raise JacobiViolation(
                        f"Jacobi identity fails on basis triple ({a},{b},{c}): "
                        f"residual {[qstr(v) for v in acc]}"
                    )


def lie_algebra_from_dict(data: dict) -> LieAlgebra:
    """Build and validate a LieAlgebra from the JSON-shaped description.

    Only i < j entries are required; a (j, i) entry, if present, must be
    consistent with antisymmetry.
    """
    try:
        return _lie_algebra_from_dict(data)
    except LieAlgebraError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise LieAlgebraError(f"malformed algebra description: {exc}") from exc


def _lie_algebra_from_dict(data: dict) -> LieAlgebra:
    name = str(data["name"])
    n = iparse(data["dim"])
    labels = tuple(str(x) for x in lparse(data["basis"]))
    bracket_list = data.get("brackets", [])
    if n < 0 or len(labels) != n or len(set(labels)) != n:
        raise LieAlgebraError(f"dim {n} does not match {len(labels)} basis labels, {len(set(labels))} distinct")
    structure: dict = {}
    for ent in bracket_list:
        i, j = iparse(ent["i"]), iparse(ent["j"])
        if not (0 <= i < n and 0 <= j < n):
            raise BadIndex(f"bracket index ({i},{j}) outside 0..{n - 1}")
        if i == j:
            if any(qparse(t["c"]) for t in ent["terms"]):
                raise AntisymmetryViolation(f"nonzero bracket [x_{i}, x_{i}]")
            continue
        terms = []
        for t in ent["terms"]:
            k = iparse(t["k"])
            if not (0 <= k < n):
                raise BadIndex(f"bracket target index {k} outside 0..{n - 1}")
            c = qparse(t["c"])
            if c:
                terms.append((k, c))
        key, sign = ((i, j), 1) if i < j else ((j, i), -1)
        terms = tuple((k, sign * c) for k, c in terms)
        if key in structure:
            if dict(structure[key]) != dict(terms):
                raise AntisymmetryViolation(
                    f"brackets for ({key[0]},{key[1]}) given twice with inconsistent values"
                )
        else:
            structure[key] = terms
    g = LieAlgebra(name=name, dim=n, basis_labels=labels, structure=structure)
    _check_jacobi(g)
    return g


def load_lie_algebra(path_or_name: str) -> LieAlgebra:
    """Load an algebra from a JSON file path or a built-in name."""
    if path_or_name in BUILTIN_NAMES:
        return builtin_algebra(path_or_name)
    with open(path_or_name, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LieAlgebraError(
                f"invalid JSON in {path_or_name} at line {exc.lineno} column {exc.colno}: {exc.msg}"
            ) from exc
    return lie_algebra_from_dict(data)


BUILTIN_NAMES = ("su2", "sl2", "abelian1", "abelian2", "su2xsu2", "sl3", "u2")


@cache
def builtin_algebra(name: str) -> LieAlgebra:
    """The built-in algebra of a name in BUILTIN_NAMES or of an abelian:n
    spec, one per name for the life of the process, so that its cached
    constants, adjoint matrices and generators are built once.  The algebra
    is shared by every caller and never mutated; a bad name raises, and is
    not cached."""
    base = name.split(":", 1)
    if base[0] == "abelian" and len(base) == 2:
        try:
            n = int(base[1])
        except ValueError:
            n = -1
        if n < 0:
            raise LieAlgebraError(f"bad algebra spec {name!r}: use abelian:n with an integer n >= 0")
        return lie_algebra_from_dict(
            {"name": f"abelian{n}", "dim": n, "basis": [f"t{i+1}" for i in range(n)], "brackets": []}
        )
    if name not in BUILTIN_NAMES:
        raise LieAlgebraError(f"unknown builtin algebra {name!r}; have {BUILTIN_NAMES}")
    path = os.path.join(os.path.dirname(__file__), "data", f"{name}.json")
    return lie_algebra_from_dict(json.loads(__loader__.get_data(path)))


# ---------------------------------------------------------------------------
# Representations
# ---------------------------------------------------------------------------


class RepMatrices(Frozen):
    """A representation of g: one square matrix per basis vector."""

    def __init__(self, g: LieAlgebra, matrices: tuple):
        # matrices: n matrices, all dim x dim on the representation space
        vars(self).update(g=g, matrices=matrices)

    @property
    def space_dim(self) -> int:
        return self.matrices[0].rows if self.matrices else 0

    def check(self) -> None:
        n = self.g.dim
        if len(self.matrices) != n:
            raise LieAlgebraError(f"expected {n} action matrices, got {len(self.matrices)}")
        d = self.space_dim
        for m in self.matrices:
            if (m.rows, m.cols) != (d, d):
                raise LieAlgebraError("action matrices must be square and equal-sized")
        for i in range(n):
            for j in range(i + 1, n):
                lhs = self.matrices[i] @ self.matrices[j] - self.matrices[j] @ self.matrices[i]
                rhs = Matrix.zero(d, d)
                for k, c in enumerate(self.g.bracket(i, j)):
                    if c:
                        rhs = rhs + self.matrices[k].scale(c)
                if lhs != rhs:
                    raise LieAlgebraError(
                        f"bracket compatibility fails: [rho_{i}, rho_{j}] != rho([x_{i},x_{j}])"
                    )


def adjoint_matrices(g: LieAlgebra):
    """(ad, coad): the adjoint action on g and the coadjoint action on g*.

    coad_k = -(ad_k)^T, the convention under which the Lie derivative
    induced on degree-1 exterior generators coincides with coad.  Built
    once per algebra and shared by every caller.
    """
    return g._adjoint


def _certify(g: LieAlgebra, K: Matrix, kills: Callable[[int, Matrix], bool]) -> bool:
    """Whether kills(k, K) holds for every k outside g.generators."""
    gens = set(g.generators)
    return all(kills(k, K) for k in range(g.dim) if k not in gens)


def action_kernel(g: LieAlgebra, kernel: Callable[[Sequence[int]], Matrix],
                  kills: Callable[[int, Matrix], bool]) -> Matrix:
    """The common kernel of an action L_0, ..., L_{n-1} of g, one operator
    per basis vector, with [L_j, L_k] = L_[x_j,x_k].

    kernel(ks) is the common kernel of the L_k for k in ks, as the columns
    of a Matrix in reduced form, and kills(k, K) says whether L_k kills
    every column of K.  On an action the kernel of the generators' L_k is
    the common kernel of all of them, so K is cut from g.generators only.
    The certificate then checks that every other L_k kills K; only when it
    fails (the L_k are not an action) is K cut again from every index.  K
    contains the full kernel and a passed certificate proves equality, so
    the reduced basis is the same either way.  Contractions are not an
    action: their kernels keep every operator (see horizontal_basic)."""
    K = kernel(g.generators)
    return K if _certify(g, K, kills) else kernel(range(g.dim))


def block_action_kernel(g: LieAlgebra, blocks: Sequence[Matrix], cols: int) -> Matrix:
    """action_kernel of the action L_k = blocks[k] on Q^cols: joint_kernel
    of the blocks, certified by blocks[k] @ K."""
    return action_kernel(g, lambda ks: joint_kernel([blocks[k] for k in ks], cols),
                         lambda k, K: (blocks[k] @ K).is_zero())


def invariants(g: LieAlgebra, L: Sequence, deg: int, dim: int) -> Matrix:
    """action_kernel of the action L_k = L[k] at degree deg, of dimension
    dim, for graded operators that hand over their rows (L[k].rows) and
    their images of columns (L[k].image): a LinMap reads its block, a
    DiagonalSum its factors.  Plain Matrix families go through
    block_action_kernel.

    Every L[k] of a cut is asked for its row stream before any row is
    read, with one dead-column set: each stream seeds it with the columns
    its one-entry rows kill as it is created, with no such row built (a
    DiagonalSum from its factors' row lengths, and so from S and Λ where
    W⊗M streams W's own rows), and row_kernel starts its presolve there."""
    def kernel(ks: Sequence[int]) -> Matrix:
        dead: set = set()
        streams = [L[k].rows(deg, dead) for k in ks]
        return row_kernel(chain.from_iterable(streams), dim, dead)

    return action_kernel(g, kernel, lambda k, K: L[k].image(deg, K).is_zero())


def invariant_vectors(rep: RepMatrices) -> list:
    """Basis of the simultaneous kernel of all action matrices."""
    rep.check()
    return block_action_kernel(rep.g, rep.matrices, rep.space_dim).columns()


def killing_form(g: LieAlgebra) -> Matrix:
    """K(x,y) = trace(ad_x ad_y), computed directly."""
    ad, _ = adjoint_matrices(g)
    n = g.dim
    ents = {}
    for i in range(n):
        for j in range(i, n):
            prod = ad.matrices[i] @ ad.matrices[j]
            tr = sum((prod[(t, t)] for t in range(n)), Q0)
            if tr:
                ents[(i, j)] = tr
                if i != j:
                    ents[(j, i)] = tr
    return Matrix(n, n, ents)


class ReductiveDecomposition(Frozen):
    def __init__(self, center: tuple, derived: tuple, killing: Matrix):
        # the basis vectors of z(g) and of [g, g]
        vars(self).update(center=center, derived=derived, killing=killing)


def certify_reductive(g: LieAlgebra) -> ReductiveDecomposition:
    """Certify g = z(g) + [g,g] with Killing nondegenerate on [g,g].

    Raises NotReductive with the failed condition otherwise, on every call.
    The decomposition is certified once per algebra and shared by every
    caller.
    """
    return g._reductive
