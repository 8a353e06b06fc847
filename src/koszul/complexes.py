"""Graded vector spaces, cochain complexes, cohomology, chain maps.

Degrees live in a finite window; everything outside is zero by convention.
A complex may be `complete` (the window genuinely contains all nonzero
degrees, e.g. an exterior algebra) or truncated (e.g. a Weil algebra cut
at some total degree).  For a truncated complex the differential out of
the top window degree is missing, so cohomology there is reported as
uncertified and operator identities are only checked on degrees where all
composites stay inside the window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import (
    Q1,
    Matrix,
    RowReduction,
    ShapeError,
    complement_basis,
    express_in_span,
    image_rank,
    kernel_basis,
    qstr,
    vec,
)


class WindowError(ValueError):
    """Requested degrees fall outside the materialized window."""


@dataclass(frozen=True)
class Truncation:
    """Degree bound: cohomology is certified for degrees <= max_degree - 1."""

    max_degree: int

    def __post_init__(self):
        if self.max_degree < 0:
            raise ValueError("max_degree must be >= 0")


class GradedSpace:
    """Finitely supported graded vector space with labelled bases."""

    __slots__ = ("_labels", "lo", "hi")

    def __init__(self, labels: dict, lo: Optional[int] = None, hi: Optional[int] = None):
        cleaned = {}
        for d, names in labels.items():
            names = tuple(names)
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate basis labels in degree {d}")
            if names:
                cleaned[int(d)] = names
        if cleaned:
            keys = sorted(cleaned)
            self.lo = keys[0] if lo is None else min(lo, keys[0])
            self.hi = keys[-1] if hi is None else max(hi, keys[-1])
        else:
            self.lo = 0 if lo is None else lo
            self.hi = 0 if hi is None else hi
        self._labels = cleaned

    def dim(self, d: int) -> int:
        return len(self._labels.get(d, ()))

    def labels(self, d: int) -> tuple:
        return self._labels.get(d, ())

    def degrees(self):
        return sorted(self._labels)

    def total_dim(self) -> int:
        return sum(len(v) for v in self._labels.values())

    def __eq__(self, other):
        return isinstance(other, GradedSpace) and self._labels == other._labels

    def __repr__(self):
        dims = {d: self.dim(d) for d in self.degrees()}
        return f"GradedSpace({dims})"


class LinMap:
    """Degree-homogeneous linear map between graded spaces (per-degree blocks)."""

    __slots__ = ("source", "target", "shift", "blocks")

    def __init__(self, source: GradedSpace, target: GradedSpace, shift: int, blocks: dict):
        self.source = source
        self.target = target
        self.shift = shift
        self.blocks = {}
        for d, m in blocks.items():
            if (m.rows, m.cols) != (target.dim(d + shift), source.dim(d)):
                raise ShapeError(
                    f"block at degree {d}: {m.rows}x{m.cols} does not map "
                    f"dim {source.dim(d)} -> dim {target.dim(d + shift)}"
                )
            if not m.is_zero():
                self.blocks[d] = m

    @classmethod
    def zero(cls, source: GradedSpace, target: GradedSpace, shift: int) -> "LinMap":
        return cls(source, target, shift, {})

    @classmethod
    def identity(cls, space: GradedSpace) -> "LinMap":
        return cls(space, space, 0,
                   {d: Matrix.identity(space.dim(d)) for d in space.degrees()})

    def block(self, d: int) -> Matrix:
        m = self.blocks.get(d)
        if m is None:
            return Matrix.zero(self.target.dim(d + self.shift), self.source.dim(d))
        return m

    def apply(self, d: int, v: Sequence) -> tuple:
        return self.block(d).apply(v)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ShapeError("composition space mismatch")
        blocks = {}
        for d in other.source.degrees():
            b = self.block(d + other.shift) @ other.block(d)
            if not b.is_zero():
                blocks[d] = b
        return LinMap(other.source, self.target, self.shift + other.shift, blocks)

    def add(self, other: "LinMap") -> "LinMap":
        if self.shift != other.shift:
            raise ShapeError("adding maps of different shifts")
        degrees = set(self.blocks) | set(other.blocks)
        blocks = {}
        for d in degrees:
            b = self.block(d) + other.block(d)
            if not b.is_zero():
                blocks[d] = b
        return LinMap(self.source, self.target, self.shift, blocks)

    def sub(self, other: "LinMap") -> "LinMap":
        return self.add(other.scale(-1))

    def scale(self, c) -> "LinMap":
        return LinMap(self.source, self.target, self.shift,
                      {d: m.scale(c) for d, m in self.blocks.items()})

    def is_zero_on(self, degrees) -> bool:
        return all(self.block(d).is_zero() for d in degrees)

    def equal_on(self, other: "LinMap", degrees) -> bool:
        return all(self.block(d) == other.block(d) for d in degrees)

    def __repr__(self):
        return f"LinMap(shift={self.shift}, blocks at {sorted(self.blocks)})"


class TensorSpace:
    """Graded tensor product A ⊗ B, cut to total degrees lo..top.

    ``entries[t]`` lists the basis of total degree t as tuples (q, a, r, b):
    basis vector a of A in degree q times basis vector b of B in degree
    r = t - q, ordered by q, then a, then b.  ``index[t]`` maps each tuple to
    its position and ``space`` is the product, labelled "a⊗b".  ``lo``
    defaults to A.lo + B.lo.
    """

    __slots__ = ("A", "B", "space", "entries", "index")

    def __init__(self, A: GradedSpace, B: GradedSpace, top: int, lo: Optional[int] = None):
        lo = A.lo + B.lo if lo is None else lo
        self.A, self.B = A, B
        self.entries: dict = {}
        labels: dict = {}
        for t in range(lo, top + 1):
            ents = [(q, a, t - q, b) for q in A.degrees()
                    for a in range(A.dim(q)) for b in range(B.dim(t - q))]
            if ents:
                self.entries[t] = ents
                labels[t] = tuple(f"{A.labels(q)[a]}⊗{B.labels(r)[b]}" for q, a, r, b in ents)
        self.space = GradedSpace(labels, lo=lo, hi=top)
        self.index = {t: {e: i for i, e in enumerate(ents)} for t, ents in self.entries.items()}

    def lift(self, opA: Optional[LinMap], opB: Optional[LinMap]) -> LinMap:
        """opA ⊗ opB on the product; None stands for the identity.

        Koszul sign rule: (f⊗g)(x⊗y) = (-1)^{|g|·|x|} f(x)⊗g(y), with |g| the
        parity of opB's shift.  Images outside the window are dropped.
        """
        shiftA = 0 if opA is None else opA.shift
        shiftB = 0 if opB is None else opB.shift
        colsA = None if opA is None else {q: m.by_column() for q, m in opA.blocks.items()}
        colsB = None if opB is None else {r: m.by_column() for r, m in opB.blocks.items()}
        blocks = {}
        for t, ents in self.entries.items():
            tgt = self.index.get(t + shiftA + shiftB)
            if tgt is None:
                continue
            mat: dict = {}
            for col, (q, a, r, b) in enumerate(ents):
                imA = ((a, Q1),) if colsA is None else colsA.get(q, {}).get(a, ())
                imB = ((b, Q1),) if colsB is None else colsB.get(r, {}).get(b, ())
                negate = shiftB % 2 and q % 2
                for rowA, vA in imA:
                    for rowB, vB in imB:
                        row = tgt.get((q + shiftA, rowA, r + shiftB, rowB))
                        if row is not None:
                            # an identity factor contributes Q1 itself: skip the product
                            v = vB if vA is Q1 else vA if vB is Q1 else vA * vB
                            mat[(row, col)] = -v if negate else v
            if mat:
                blocks[t] = Matrix(len(tgt), len(ents), mat)
        return LinMap(self.space, self.space, shiftA + shiftB, blocks)


class Complex:
    """Cochain complex: graded space plus a degree +1 differential with d^2 = 0."""

    def __init__(self, space: GradedSpace, d: LinMap, complete: bool = True, check: bool = True):
        if d.shift != 1:
            raise ShapeError("differential must have shift +1")
        self.space = space
        self.d = d
        self.complete = complete
        if check:
            bad = self.d_squared_defect()
            if bad is not None:
                deg, lbl = bad
                raise ValueError(f"d^2 != 0 at degree {deg} on basis vector {lbl!r}")

    @property
    def max_usable(self) -> int:
        """Top degree at which the outgoing differential is trustworthy."""
        return self.space.hi if self.complete else self.space.hi - 1

    def d_squared_defect(self):
        top = self.space.hi if self.complete else self.space.hi - 2
        for deg in self.space.degrees():
            if deg > top:
                continue
            prod = self.d.block(deg + 1) @ self.d.block(deg)
            if not prod.is_zero():
                col = min(j for (_, j) in prod.entries)
                return deg, self.space.labels(deg)[col]
        return None

    def dims(self) -> dict:
        return {d: self.space.dim(d) for d in self.space.degrees()}

    def truncated(self, top: int) -> "Complex":
        """The complex cut at degree top (itself when top reaches the window's end)."""
        if top >= self.space.hi:
            return self
        labels = {d: self.space.labels(d) for d in self.space.degrees() if d <= top}
        space = GradedSpace(labels, lo=self.space.lo, hi=top)
        blocks = {d: m for d, m in self.d.blocks.items() if d <= top - 1}
        return Complex(space, LinMap(space, space, 1, blocks), complete=False, check=False)


@dataclass
class ChainMap:
    """Degree-0 map between complexes, intended to commute with differentials."""

    source: Complex
    target: Complex
    map: LinMap

    def __post_init__(self):
        if self.map.shift != 0:
            raise ShapeError("chain maps have shift 0")


@dataclass
class ChainMapReport:
    ok: bool
    witness: Optional[tuple] = None  # (degree, basis label, defect vector)

    def describe(self) -> str:
        if self.ok:
            return "chain map: commutes with the differentials"
        deg, lbl, defect = self.witness
        nz = {i: qstr(v) for i, v in enumerate(defect) if v}
        return f"chain-map defect at degree {deg} on {lbl!r}: {nz}"


def check_chain_map(f: ChainMap) -> ChainMapReport:
    """Verify d_target . f = f . d_source degreewise; report first defect.

    Degrees whose outgoing differential is lost to truncation (on either
    side) are skipped: there is nothing exact to compare there.
    """
    C, D = f.source, f.target
    top = None
    if not C.complete:
        top = C.max_usable
    if not D.complete:
        top = D.max_usable if top is None else min(top, D.max_usable)
    for deg in C.space.degrees():
        if top is not None and deg > top:
            continue
        lhs = D.d.block(deg) @ f.map.block(deg)
        rhs = f.map.block(deg + 1) @ C.d.block(deg)
        if lhs != rhs:
            diff = lhs - rhs
            col = min(j for (_, j) in diff.entries)
            return ChainMapReport(False, (deg, C.space.labels(deg)[col], diff.column(col)))
    return ChainMapReport(True)


# ---------------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------------


@dataclass
class CohomologyReport:
    """Betti numbers and representative cocycles, certified below the cut."""

    betti: dict  # degree -> int, certified degrees only
    representatives: dict  # degree -> list of {label: Fraction}
    uncertified: dict  # degree -> int, degrees at the truncation edge

    def to_dict(self) -> dict:
        return {
            "betti": {str(d): b for d, b in sorted(self.betti.items())},
            "representatives": {
                str(d): [{k: qstr(c) for k, c in sorted(r.items())} for r in reps]
                for d, reps in sorted(self.representatives.items())
            },
            "uncertified": {str(d): b for d, b in sorted(self.uncertified.items())},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CohomologyReport":
        return cls(
            betti={int(d): int(b) for d, b in data["betti"].items()},
            representatives={
                int(d): [{k: Fraction(v) for k, v in r.items()} for r in reps]
                for d, reps in data["representatives"].items()
            },
            uncertified={int(d): int(b) for d, b in data.get("uncertified", {}).items()},
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _cocycle_and_boundary_bases(C: Complex, deg: int):
    n = C.space.dim(deg)
    cocycles = kernel_basis(C.d.block(deg)) if n else []
    prev = C.d.block(deg - 1)
    _, boundaries = image_rank(prev)
    return cocycles, boundaries


def cohomology_representatives(C: Complex, deg: int):
    """(representative vectors, boundary basis) for H^deg, deterministically."""
    cocycles, boundaries = _cocycle_and_boundary_bases(C, deg)
    reps = complement_basis(boundaries, cocycles, dim=C.space.dim(deg))
    return reps, boundaries


def cohomology(C: Complex, trunc: Truncation) -> CohomologyReport:
    """H^m = ker(d_m) / im(d_{m-1}) for m <= N, certified for m <= N - 1."""
    N = trunc.max_degree
    if not C.complete and C.space.hi < N:
        raise WindowError(f"window tops out at {C.space.hi}, need degree {N}")
    betti: dict = {}
    reps_out: dict = {}
    uncertified: dict = {}
    lo = C.space.lo
    for deg in range(lo, N + 1):
        if deg > C.space.hi:
            b, reps = 0, []
            trustworthy = True
        else:
            reps, _ = cohomology_representatives(C, deg)
            b = len(reps)
            trustworthy = C.complete or deg <= C.max_usable
        labels = C.space.labels(deg)
        rep_dicts = [
            {labels[i]: v for i, v in enumerate(r) if v} for r in reps
        ]
        if trustworthy and deg <= N - 1:
            betti[deg] = b
            reps_out[deg] = rep_dicts
        else:
            uncertified[deg] = b
    return CohomologyReport(betti=betti, representatives=reps_out, uncertified=uncertified)


@dataclass
class QuasiIsoReport:
    ok: bool
    chain: ChainMapReport
    degrees: dict  # degree -> {"source_betti", "target_betti", "induced_rank", "ok"}

    def describe(self) -> str:
        if not self.chain.ok:
            return "not a chain map: " + self.chain.describe()
        lines = []
        for d, info in sorted(self.degrees.items()):
            lines.append(
                f"H^{d}: {info['source_betti']} -> {info['target_betti']}"
                f" rank {info['induced_rank']} {'ok' if info['ok'] else 'FAIL'}"
            )
        return ("quasi-isomorphism" if self.ok else "NOT a quasi-isomorphism") + "; " + "; ".join(lines)


def quasi_iso_check(f: ChainMap, trunc: Truncation) -> QuasiIsoReport:
    """Check that f induces isomorphisms on H^m for m <= N - 1."""
    chain = check_chain_map(f)
    if not chain.ok:
        return QuasiIsoReport(False, chain, {})
    N = trunc.max_degree
    C, D = f.source, f.target
    degrees = {}
    ok_all = True
    lo = min(C.space.lo, D.space.lo)
    for deg in range(lo, N):
        reps_C, _ = cohomology_representatives(C, deg)
        reps_D, bdry_D = cohomology_representatives(D, deg)
        span = list(reps_D) + list(bdry_D)
        induced_cols = []
        solvable = True
        for r in reps_C:
            img = f.map.apply(deg, r)
            coeffs = express_in_span(span, img, dim=D.space.dim(deg))
            if coeffs is None:
                solvable = False
                break
            induced_cols.append(vec(coeffs[: len(reps_D)]))
        if not solvable:
            ok_here = False
            rank_ind = -1
        else:
            if induced_cols:
                M = Matrix.from_columns(induced_cols, nrows=len(reps_D))
                rank_ind = RowReduction(M).rank
            else:
                rank_ind = 0
            ok_here = len(reps_C) == len(reps_D) == rank_ind
        degrees[deg] = {
            "source_betti": len(reps_C),
            "target_betti": len(reps_D),
            "induced_rank": rank_ind,
            "ok": ok_here,
        }
        ok_all = ok_all and ok_here
    return QuasiIsoReport(ok_all, chain, degrees)


# ---------------------------------------------------------------------------
# Subcomplexes spanned by explicit vectors
# ---------------------------------------------------------------------------


class SubcomplexError(ValueError):
    """The differential does not preserve the chosen subspaces."""


def induced_map(
    op: LinMap,
    src_vectors: dict,
    tgt_vectors: dict,
    src_space: GradedSpace,
    tgt_space: GradedSpace,
) -> LinMap:
    """Restrict `op` to subspaces given by per-degree coordinate vectors.

    src_vectors / tgt_vectors: degree -> list of vectors in the ambient
    coordinates of op.source / op.target.  Raises SubcomplexError when the
    image of a sub-basis vector leaves the target subspace.
    """
    blocks = {}
    for d in src_space.degrees():
        vecs = src_vectors.get(d, [])
        if not vecs or not op.target.dim(d + op.shift):
            continue
        tgt = tgt_vectors.get(d + op.shift, [])
        cols = []
        for v in vecs:
            img = op.apply(d, v)
            coeffs = express_in_span(tgt, img, dim=op.target.dim(d + op.shift))
            if coeffs is None:
                raise SubcomplexError(
                    f"operator image leaves the subspace at degree {d}"
                )
            cols.append(coeffs)
        m = Matrix.from_columns(cols, nrows=len(tgt))
        if not m.is_zero():
            blocks[d] = m
    return LinMap(src_space, tgt_space, op.shift, blocks)


def subcomplex(
    C: Complex,
    vectors: dict,
    label_prefix: str = "v",
) -> "tuple[Complex, ChainMap]":
    """Complex structure on per-degree subspaces, plus the inclusion map.

    `vectors`: degree -> list of independent coordinate vectors in C.
    """
    labels = {
        d: tuple(f"{label_prefix}[{d},{i}]" for i in range(len(vs)))
        for d, vs in vectors.items()
        if vs
    }
    space = GradedSpace(labels, lo=C.space.lo, hi=C.space.hi)
    d_map = induced_map(C.d, vectors, vectors, space, space)
    sub = Complex(space, d_map, complete=C.complete, check=False)
    incl_blocks = {}
    for d, vs in vectors.items():
        if vs:
            incl_blocks[d] = Matrix.from_columns(list(vs), nrows=C.space.dim(d))
    incl = ChainMap(sub, C, LinMap(space, C.space, 0, incl_blocks))
    return sub, incl
