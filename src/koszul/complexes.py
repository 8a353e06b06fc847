"""Graded vector spaces, cochain complexes, cohomology, chain maps.

Degrees live in a finite window; everything outside is zero by convention.
A complex may be `complete` (the window genuinely contains all nonzero
degrees, e.g. an exterior algebra) or truncated (e.g. a Weil algebra cut
at some total degree).  For a truncated complex the differential out of
the top window degree is missing, so cohomology there is reported as
uncertified.

The window rule: an identity whose composites apply k differentials in
succession is exact at degree deg when deg <= Complex.usable_top(k),
which is space.hi on a complete complex and space.hi - k on a truncated
one; max_usable is the case k = 1.  Every operator-identity check reads
its degrees from this rule and reports its witness through first_defect.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from copy import copy
from functools import cache, partial
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Optional, Sequence

from .linalg import (
    Frozen,
    Matrix,
    Q0,
    ShapeError,
    SpanError,
    Subspace,
    _column_rows,
    _insert,
    _matrix_rows,
    _ratio,
    complement_basis,
    hstack,
    joint_kernel,
    qstr,
    rank,
)


class WindowError(ValueError):
    """Requested degrees fall outside the materialized window."""


class Truncation(Frozen):
    """Degree bound: cohomology is certified for degrees <= max_degree - 1."""

    def __init__(self, max_degree: int):
        if max_degree < 0:
            raise ValueError("max_degree must be >= 0")
        vars(self).update(max_degree=max_degree)

    def __eq__(self, other) -> bool:
        return isinstance(other, Truncation) and self.max_degree == other.max_degree

    def __hash__(self) -> int:
        return hash(self.max_degree)


class GradedSpace:
    """Finitely supported graded vector space with labelled bases."""

    __slots__ = ("_dims", "_labels", "lo", "hi")

    def __init__(self, labels: dict, lo: Optional[int] = None, hi: Optional[int] = None):
        cleaned = {}
        for d, names in labels.items():
            names = tuple(names)
            _check_distinct(names, d)
            if names:
                cleaned[int(d)] = names
        self._labels = cleaned
        self._window({d: len(names) for d, names in cleaned.items()}, lo, hi)

    def _window(self, dims: dict, lo: Optional[int], hi: Optional[int]) -> None:
        self._dims = dims
        if dims:
            keys = sorted(dims)
            self.lo = keys[0] if lo is None else min(lo, keys[0])
            self.hi = keys[-1] if hi is None else max(hi, keys[-1])
        else:
            self.lo = 0 if lo is None else lo
            self.hi = 0 if hi is None else hi

    def dim(self, d: int) -> int:
        return self._dims.get(d, 0)

    def labels(self, d: int) -> tuple:
        return self._labels.get(d, ())

    def degrees(self):
        return sorted(self._dims)

    def total_dim(self) -> int:
        return sum(self._dims.values())

    def truncated(self, top: int) -> "GradedSpace":
        """The degrees up to top, on the window lo..top; labels not read yet
        stay unread."""
        cut = copy(self)
        cut._dims = {d: n for d, n in self._dims.items() if d <= top}
        cut._labels = {d: names for d, names in self._labels.items() if d <= top}
        cut.hi = top
        return cut

    def __eq__(self, other):
        return (isinstance(other, GradedSpace) and self._dims == other._dims
                and all(self.labels(d) == other.labels(d) for d in self._dims))

    def __repr__(self):
        dims = {d: self.dim(d) for d in self.degrees()}
        return f"GradedSpace({dims})"


def _check_distinct(names: tuple, d: int) -> None:
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate basis labels in degree {d}")


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

    def image(self, d: int, V: Matrix) -> Matrix:
        """The images of the columns of V, a block of degree-d vectors."""
        return self.block(d) @ V

    def rows(self, d: int, dead: Optional[set] = None) -> Iterator[dict]:
        """The nonzero rows of the block at d, in order, as integer rows
        (dicts col -> numerator) over the block's denominator.  Given the
        dead-column set of a kernel's presolve (see linalg.row_kernel), the
        column of each one-entry row is added to it at once."""
        m = self.blocks.get(d)
        rows = [] if m is None else [row for _, row in sorted(_matrix_rows(m).items())]
        if dead is not None:
            dead.update(c for row in rows if len(row) == 1 for c in row)
        return iter(rows)

    def row_view(self, d: int) -> Optional[tuple]:
        """({row: [(col, numerator)]}, den) of the block at d, or None
        without one: how a factor hands its rows to DiagonalSum.rows."""
        m = self.blocks.get(d)
        if m is None:
            return None
        rows: dict = {}
        for (i, j), v in m.num.items():
            rows.setdefault(i, []).append((j, v))
        return rows, m.den

    def column_view(self, d: int) -> Optional[tuple]:
        """(integer column view col -> [(row, numerator)], den) of the block
        at d, or None without one: how a factor hands its columns to the
        lifts of a TensorSpace (see TensorSpace._parts)."""
        m = self.blocks.get(d)
        return None if m is None else (m.int_columns(), m.den)

    def compose(self, other: "LinMap") -> "LinMap":
        """self after other."""
        if other.target is not self.source and other.target != self.source:
            raise ShapeError("composition space mismatch")
        blocks = {d: self.block(d + other.shift) @ other.block(d) for d in other.source.degrees()}
        return LinMap(other.source, self.target, self.shift + other.shift, blocks)

    def add(self, other: "LinMap") -> "LinMap":
        return LinMap.combination([(1, self), (1, other)])

    def sub(self, other: "LinMap") -> "LinMap":
        return LinMap.combination([(1, self), (-1, other)])

    @staticmethod
    def combination(terms: Sequence) -> "LinMap":
        """Sum of c·op over terms [(c, op), ...], maps of one shift between the same spaces.

        All terms accumulate into one entry dict per degree, so each block
        is built once; entries that cancel and empty blocks are not stored.
        Maps whose dimensions differ at a degree where any term has a block
        raise ShapeError.
        """
        first = terms[0][1]
        if any(op.shift != first.shift for _, op in terms):
            raise ShapeError("adding maps of different shifts")
        degrees = sorted({d for _, op in terms for d in op.blocks})
        for d in degrees:
            shape = (first.target.dim(d + first.shift), first.source.dim(d))
            for _, op in terms:
                if (op.target.dim(d + op.shift), op.source.dim(d)) != shape:
                    raise ShapeError(f"adding maps of different shapes at degree {d}")
        scaled = [(_ratio(c), op) for c, op in terms]
        blocks = {}
        for d in degrees:
            # c·m = (p/q)·(m.num / m.den): accumulate p·(D/(q·m.den))·m.num over D = lcm(q·m.den)
            parts = []
            for (p, q), op in scaled:
                m = op.blocks.get(d)
                if m is not None:
                    parts.append((p, q * m.den, m.num))
            den = lcm(*[q for _, q, _ in parts])
            acc: dict = {}
            get = acc.get
            for p, q, ents in parts:
                k = p * (den // q)
                for rc, v in ents.items():
                    acc[rc] = get(rc, 0) + k * v
            blocks[d] = Matrix._from_ints(first.target.dim(d + first.shift), first.source.dim(d), acc, den)
        return LinMap(first.source, first.target, first.shift, blocks)

    def scale(self, c) -> "LinMap":
        return LinMap(self.source, self.target, self.shift,
                      {d: m.scale(c) for d, m in self.blocks.items()})

    def is_zero_on(self, degrees) -> bool:
        return all(self.block(d).is_zero() for d in degrees)

    def equal_on(self, other: "LinMap", degrees) -> bool:
        return all(self.block(d) == other.block(d) for d in degrees)

    def __repr__(self):
        return f"LinMap(shift={self.shift}, blocks at {sorted(self.blocks)})"


class _Columns(Mapping):
    """An integer column view {i: ((row, numerator), ...)} of a block with
    dim columns, as Matrix.int_columns gives it, whose column i is
    column(i), built on first read and kept: the identity's, and the lifted
    columns of a LiftedSum.  A lookup builds only its column (image reads
    the columns in the support of V only); items() builds them all once, as
    lift_sum walks them once per column of the other factor."""

    __slots__ = ("dim", "_column", "_built", "_items")

    def __init__(self, dim: int, column: Callable[[int], Sequence]):
        self.dim, self._column, self._built, self._items = dim, column, {}, None

    def __getitem__(self, i) -> Sequence:
        col = self._built.get(i)
        if col is None:
            if not 0 <= i < self.dim:
                raise KeyError(i)
            col = self._built[i] = self._column(i)
        return col

    def __contains__(self, i) -> bool:
        return 0 <= i < self.dim

    def __iter__(self):
        return iter(range(self.dim))

    def __len__(self) -> int:
        return self.dim

    def items(self) -> tuple:
        if self._items is None:
            self._items = tuple((i, self[i]) for i in range(self.dim))
        return self._items


def _unit_column(i: int) -> tuple:
    return ((i, 1),)


class TensorSpace(GradedSpace):
    """Graded tensor product A ⊗ B, cut to total degrees lo..top, and the
    graded space of that product: its dims at construction, the labels
    "a⊗b" of a degree (checked for duplicates) on first read.

    The basis of total degree t is basis vector a of A in degree q times
    basis vector b of B in degree r = t - q, ordered by q, then a, then b.
    Only the start of each stratum A^q ⊗ B^r is stored; position(q, a, r, b)
    and entry(t, i) are the only map between a⊗b and its index, and
    embed(X, deg, left) gives the columns x⊗1 or 1⊗x.  ``lo`` defaults to
    A.lo + B.lo.
    """

    __slots__ = ("A", "B", "_offsets")

    def __init__(self, A: GradedSpace, B: GradedSpace, top: int, lo: Optional[int] = None):
        lo = A.lo + B.lo if lo is None else lo
        self.A, self.B = A, B
        self._offsets: dict = {}  # t -> {q: start of the stratum A^q ⊗ B^(t-q)}
        dims = {}
        for t in range(lo, top + 1):
            n, starts = 0, {}
            for q in A.degrees():
                if B.dim(t - q):
                    starts[q] = n
                    n += A.dim(q) * B.dim(t - q)
            if n:
                dims[t] = n
                self._offsets[t] = starts
        self._labels = {}
        self._window(dims, lo, top)

    def labels(self, d: int) -> tuple:
        names = self._labels.get(d)
        if names is None:
            if d not in self._dims:
                return ()
            A, B = self.A, self.B
            names = tuple(f"{A.labels(q)[a]}⊗{B.labels(r)[b]}"
                          for q, a, r, b in map(partial(self.entry, d), range(self._dims[d])))
            _check_distinct(names, d)
            self._labels[d] = names
        return names

    def truncated(self, top: int) -> "TensorSpace":
        """The product cut at degree top, sharing the bases it keeps."""
        cut = super().truncated(top)
        cut._offsets = {t: starts for t, starts in self._offsets.items() if t <= top}
        return cut

    def entry(self, t: int, i: int) -> tuple:
        """(q, a, r, b) of basis vector i of degree t, the inverse of
        position: the last stratum that starts at or before i holds it."""
        if not 0 <= i < self.dim(t):
            raise IndexError(f"no basis vector {i} in degree {t} of dim {self.dim(t)}")
        for q, start in reversed(self._offsets[t].items()):
            if start <= i:
                a, b = divmod(i - start, self.B.dim(t - q))
                return q, a, t - q, b

    def position(self, q: int, a: int, r: int, b: int) -> int:
        """The index of a⊗b, basis vector a of A^q times b of B^r, in degree
        q + r: in the stratum of q, (a, b) sits at a·dim B^r + b."""
        start = self._offsets.get(q + r, {}).get(q)
        if start is None:
            raise WindowError(f"A^{q}⊗B^{r} is not in the window {self.lo}..{self.hi}")
        return start + a * self.B.dim(r) + b

    def embed(self, X: Matrix, deg: int, left: bool) -> Matrix:
        """The columns x⊗1 (left) or 1⊗x for a block X of degree-deg columns
        of A (left) or of B, where 1 is basis vector 0 of the other
        factor's degree 0."""
        at = (lambda i: self.position(deg, i, 0, 0)) if left else (lambda i: self.position(0, 0, deg, i))
        return Matrix._from_ints(self.dim(deg), X.cols,
                                 {(at(i), j): v for (i, j), v in X.num.items()}, X.den)

    def lift(self, opA: Optional[LinMap], opB: Optional[LinMap]) -> LinMap:
        """opA ⊗ opB on the product: the one-term case of lift_sum."""
        shift = (0 if opA is None else opA.shift) + (0 if opB is None else opB.shift)
        return self.lift_sum([(opA, opB)], shift)

    def _parts(self, terms: Sequence, shift: int) -> Callable[[int], Optional[tuple]]:
        """The sign, window and denominator rule of lift_sum and LiftedSum:
        parts_at(t) is None when no term maps degree t into the window, else
        (parts, den), a part (imA, imB, row0, col0, n_src, n_tgt, k) per term
        and stratum q with both factor blocks: their column views (built once
        for all t), the stratum's first target row and column, dim B^(t-q),
        dim B^(t-q+|opB|), k = (-1)^(|opB|·q)·den/(dA·dB); den = lcm of dA·dB."""
        A, B = self.A, self.B

        def columns(op, deg, dim):
            # (integer column view, its denominator), or None without a block
            return (_Columns(dim, _unit_column), 1) if op is None else op.column_view(deg)

        prepared = []  # (opA, opB, shift of opA, shift of opB, column views of each)
        for opA, opB in terms:
            sA = 0 if opA is None else opA.shift
            sB = 0 if opB is None else opB.shift
            if sA + sB != shift:
                raise ShapeError(f"lifted term of shift {sA + sB} in a sum of shift {shift}")
            prepared.append((opA, opB, sA, sB, {}, {}))

        def parts_at(t: int) -> Optional[tuple]:
            starts, tgt = self._offsets.get(t), self._offsets.get(t + shift)
            found = []
            for opA, opB, sA, sB, colsA, colsB in prepared if starts and tgt else ():
                for q, col0 in starts.items():
                    row0 = tgt.get(q + sA)
                    if row0 is None:
                        continue
                    r = t - q
                    if q not in colsA:
                        colsA[q] = columns(opA, q, A.dim(q))
                    if r not in colsB:
                        colsB[r] = columns(opB, r, B.dim(r))
                    fA, fB = colsA[q], colsB[r]
                    if fA and fB:
                        found.append((fA, fB, row0, col0, B.dim(r), B.dim(r + sB),
                                      -1 if sB % 2 and q % 2 else 1))
            if not found:
                return None
            den = lcm(*[dA * dB for (_, dA), (_, dB), *_ in found])
            return [(imA, imB, row0, col0, n_src, n_tgt, sign * (den // (dA * dB)))
                    for (imA, dA), (imB, dB), row0, col0, n_src, n_tgt, sign in found], den

        return parts_at

    def lift_sum(self, terms: Sequence, shift: int, top: Optional[int] = None) -> LinMap:
        """Sum of opA ⊗ opB over terms [(opA, opB), ...]; None stands for the identity.

        Every term must have total shift ``shift``.  Koszul sign rule:
        (f⊗g)(x⊗y) = (-1)^{|g|·|x|} f(x)⊗g(y), with |g| the parity of opB's
        shift.  All terms accumulate into one entry dict per degree, so each
        block is built once; entries that cancel and empty blocks are not
        stored.  Images outside the window are dropped, and so are source
        degrees above ``top`` when it is given.
        """
        parts_at = self._parts(terms, shift)
        # one int object per position, shared by all the keys that hold it;
        # fresh ints in every key raise peak memory on large products by 5-10%
        pos = list(range(max(self._dims.values(), default=0)))
        blocks = {}
        for t in self._offsets:
            found = None if top is not None and t > top else parts_at(t)
            if found is None:
                continue
            parts, den = found
            ents: dict = {}
            get = ents.get
            for imA, imB, row0, col0, n_src, n_tgt, k in parts:
                for a, colA in imA.items():
                    for b, colB in imB.items():
                        col = pos[col0 + a * n_src + b]
                        for rowA, vA in colA:
                            base = row0 + rowA * n_tgt
                            kA = k * vA
                            for rowB, vB in colB:
                                key = (pos[base + rowB], col)
                                ents[key] = get(key, 0) + kA * vB
            blocks[t] = Matrix._from_ints(self.dim(t + shift), self.dim(t), ents, den)
        return LinMap(self, self, shift, blocks)

    def _image_column(self, t: int, parts: Sequence, i: int) -> list:
        """[(row, numerator)]: the image of basis vector i of degree t under
        a sum prepared as parts_at(t) = (parts, den) (see _parts), over den."""
        q, a, _, b = self.entry(t, i)
        col0, acc = self._offsets[t][q], {}
        for imA, imB, row0, start, _, n_tgt, k in parts:
            if start == col0 and a in imA and b in imB:
                for rowA, vA in imA[a]:
                    base = row0 + rowA * n_tgt
                    for rowB, vB in imB[b]:
                        acc[base + rowB] = acc.get(base + rowB, 0) + k * vA * vB
        return [(row, v) for row, v in acc.items() if v]


class LiftedSum(LinMap):
    """The sum of opA ⊗ opB over terms [(opA, opB), ...] of one shift on a
    TensorSpace (see TensorSpace.lift_sum), with no block at degrees above
    top when top is given, between copies of ``space`` (the tensor itself
    by default; a TensorComplex cut at top + 1 passes its cut).

    Nothing of it is built until it is read.  Its blocks are lifted all at
    once on first read, so every LinMap reader works.  image(t, V) applies
    it to a block of columns with no block lifted: each basis vector in the
    support of V is lifted once to its image column, straight from the
    factor blocks.  As a factor of a further TensorSpace, column_view hands
    over columns that are each built from the factors' columns when first
    read.  One preparation (TensorSpace._parts) serves image and
    column_view at every degree, so each factor block's column view is
    built once, and goes with the sum.
    """

    __slots__ = ("tensor", "terms", "top", "_parts_at", "_lifted")

    def __init__(self, tensor: TensorSpace, terms: Sequence, shift: int, top: Optional[int] = None,
                 space: Optional[GradedSpace] = None):
        self.source = self.target = tensor if space is None else space
        self.shift = shift
        self.tensor, self.terms, self.top = tensor, terms, top
        self._parts_at = tensor._parts(terms, shift)
        self._lifted = None

    @property
    def blocks(self) -> dict:
        if self._lifted is None:
            self._lifted = self.tensor.lift_sum(self.terms, self.shift, self.top).blocks
        return self._lifted

    def _prepared(self, t: int) -> Optional[tuple]:
        return None if self.top is not None and t > self.top else self._parts_at(t)

    def image(self, t: int, V: Matrix) -> Matrix:
        """block(t) @ V, its entries in the same order, with no block built."""
        if V.rows != self.source.dim(t):
            raise ShapeError(f"{V.rows} rows applied at degree {t} of dim {self.source.dim(t)}")
        parts, den = self._prepared(t) or ((), 1)
        lifted, ents = {}, {}  # source position -> its image column; the product
        get = ents.get
        for (i, j), w in V.num.items():
            col = lifted.get(i)
            if col is None:
                col = lifted[i] = self.tensor._image_column(t, parts, i)
            for row, v in col:
                rc = (row, j)
                ents[rc] = get(rc, 0) + v * w
        return Matrix._from_ints(self.target.dim(t + self.shift), V.cols, ents, den * V.den)

    def column_view(self, d: int) -> Optional[tuple]:
        found = self._prepared(d)
        if found is None:
            return None
        parts, den = found
        return _Columns(self.source.dim(d), partial(self.tensor._image_column, d, parts)), den

    def __repr__(self):
        return f"{type(self).__name__}(shift={self.shift}, top={self.top}, lifted={self._lifted is not None})"


class DiagonalSum(LiftedSum):
    """opA⊗1 + 1⊗opB for degree-0 factors (no Koszul sign): the L_k of a
    tensor product.  Besides what a LiftedSum reads without lifting, its
    rows come from the factors' rows (rows(t, dead) for a kernel, row_view
    as a factor): from a view of each, built once per degree and kept, or
    from opA's own stream on a stratum that only one degree reads (_rows).

    Given a dead-column set, rows(t, dead) is the kernel's presolve seeded
    from the factors (see _rows): no row whose one entry the factors' row
    lengths already decide is built, and the other rows are built on the
    live columns only."""

    __slots__ = ("pair", "_views")

    def __init__(self, tensor: TensorSpace, opA: LinMap, opB: LinMap, top: Optional[int] = None):
        super().__init__(tensor, [(opA, None), (None, opB)], 0, top)
        self.pair = (opA, opB)
        self._views = cache(lambda op, deg: op.row_view(deg))

    def rows(self, t: int, dead: Optional[set] = None) -> Iterator[dict]:
        return self._rows(t, dead)[1]

    def row_view(self, d: int) -> Optional[tuple]:
        den, rows = self._rows(d, indexed=True)
        view = {i: list(row.items()) for i, row in rows}
        return (view, den) if view else None

    def _rows(self, t: int, dead: Optional[set] = None, indexed: bool = False, offset: int = 0) -> tuple:
        """(den, rows): the nonzero rows at total degree t in index order, as
        integer rows (dicts col -> int) over den, or as (target index, row)
        pairs when indexed, from the factors' row views; none above top.

        Row (a', b') of stratum q holds opA[a', a] at column (a, b') and
        opB[b', b] at column (a', b); den is the lcm of the factor views'
        denominators, entries that cancel are dropped, and a missing factor
        block counts as zero, as in lift_sum.

        A stratum A^q⊗B^r with no row of opB that alone in the cut reads A^q
        (B is 0 in every degree from lo-q to top-q but r, where it is one-
        dimensional) holds opA's rows at q.  If opA is a DiagonalSum (W's L
        in W⊗M), they are its own stream shifted by the stratum's start
        (offset) on the same dead set, and no view of opA at q is built.

        With no dead set every such row is yielded whole.  Given one (the
        dead columns of a kernel's presolve, see linalg.row_kernel), a row
        with len(row a' of opA) + len(row b' of opB) == 1 is the unit row of
        (a, b') or (a', b): that column is added to dead here, before any
        row is built, and the row is skipped.  Every other row is built on
        the columns live when it is reached; one left with a single entry
        adds its column to dead and is not yielded, so each yielded row has
        two or more live entries.
        """
        (opA, opB), tensor = self.pair, self.tensor
        A, B = tensor.A, tensor.B
        top = tensor.hi if self.top is None else self.top
        cut, strata = dead is not None, []
        for q, col0 in tensor._offsets.get(t, {}).items() if t <= top else ():
            r, col0 = t - q, col0 + offset
            fB = self._views(opB, r)
            if (fB is None and isinstance(opA, DiagonalSum)
                    and sum(map(B.dim, range(tensor.lo - q, top - q + 1))) == 1):
                dA, stream = opA._rows(q, dead, indexed, col0)
                strata.append((q, col0, (stream, dA), (None, 1)))
            elif (fA := self._views(opA, q)) is not None or fB is not None:
                fA, fB = fA or ({}, 1), fB or ({}, 1)
                strata.append((q, col0, fA, fB))
                if cut:
                    (rowsA, _), (rowsB, _), n = fA, fB, B.dim(r)
                    unitB = [row[0][0] for row in rowsB.values() if len(row) == 1]
                    zeroB = [b2 for b2 in range(n) if b2 not in rowsB]
                    dead.update([col0 + a2 * n + b for a2 in range(A.dim(q)) if a2 not in rowsA
                                 for b in unitB])
                    dead.update([col0 + row[0][0] * n + b2 for row in rowsA.values() if len(row) == 1
                                 for b2 in zeroB])
        den = lcm(*[lcm(dA, dB) for _, _, (_, dA), (_, dB) in strata])
        dead = dead if cut else frozenset()

        def rows() -> Iterator[tuple]:
            for q, col0, (rowsA, dA), (rowsB, dB) in strata:
                kA, kB = den // dA, den // dB
                if rowsB is None:  # opA's own stream, over its dA
                    for i, row in rowsA if indexed else ((None, row) for row in rowsA):
                        row = row if kA == 1 else {c: kA * v for c, v in row.items()}
                        yield (i, row) if indexed else row
                    continue
                n, keysB = B.dim(t - q), sorted(rowsB)
                # partners[m]: the b' paired with a row a' of m entries (2 for
                # two or more); with a dead set, the pairs of one entry in all
                # were seeded above and are skipped
                partners = (([b2 for b2 in keysB if len(rowsB[b2]) > 1], keysB, range(n)) if cut
                            else (keysB, range(n), range(n)))
                for a2 in range(A.dim(q)):
                    base = col0 + a2 * n
                    partA = [(col0 + a * n, kA * v) for a, v in rowsA.get(a2, ())]
                    for b2 in partners[min(len(partA), 2)]:
                        row = {}
                        for c, v in partA:
                            c += b2
                            if c not in dead:
                                row[c] = v
                        for b, w in rowsB.get(b2, ()):
                            c = base + b
                            if c in dead:
                                continue
                            v = row.get(c, 0) + kB * w
                            if v:
                                row[c] = v
                            else:
                                del row[c]
                        if len(row) == 1 and cut:
                            dead.update(row)
                        elif row:
                            yield (base + b2, row) if indexed else row

        return den, rows()


class Complex:
    """Cochain complex: graded space plus a degree +1 differential with d^2 = 0.

    With check (the default) d² = 0 is verified on construction, at every
    degree up to usable_top(2), and checked_top records that degree; a
    complex built unchecked (every subcomplex and TensorComplex) has
    checked_top None."""

    checked_top: Optional[int] = None

    def __init__(self, space: GradedSpace, d: LinMap, complete: bool = True, check: bool = True):
        if d.shift != 1:
            raise ShapeError("differential must have shift +1")
        self.space = space
        self.d = d
        self.complete = complete
        self._cohomology_bases: dict = {}  # degree -> (representatives, boundaries)
        self._d_pivots: dict = {}  # degree -> (basis-of-image columns of d_degree, leading rows)
        if check:
            bad = self.d_squared_defect()
            if bad is not None:
                deg, lbl = bad
                raise ValueError(f"d^2 != 0 at degree {deg} on basis vector {lbl!r}")
            self.checked_top = self.usable_top(2)

    def usable_top(self, k: int) -> int:
        """Top degree from which k successive differentials stay inside the window."""
        return self.space.hi if self.complete else self.space.hi - k

    @property
    def max_usable(self) -> int:
        """Top degree at which the outgoing differential is trustworthy."""
        return self.usable_top(1)

    def usable_degrees(self, k: int) -> list:
        """The nonzero degrees up to usable_top(k)."""
        top = self.usable_top(k)
        return [deg for deg in self.space.degrees() if deg <= top]

    def d_squared_defect(self):
        """(degree, label) of the first basis vector with d(d v) != 0, or None."""
        bad = first_defect(self.space, self.usable_degrees(2),
                           lambda deg: [(1, self.d.block(deg + 1), self.d.block(deg))])
        return None if bad is None else bad[:2]

    def dims(self) -> dict:
        return {d: self.space.dim(d) for d in self.space.degrees()}

    def truncated(self, top: int) -> "Complex":
        """The complex cut at degree top (itself when top reaches the window's end)."""
        if top >= self.space.hi:
            return self
        space = self.space.truncated(top)
        blocks = {d: m for d, m in self.d.blocks.items() if d <= top - 1}
        return Complex(space, LinMap(space, space, 1, blocks), complete=False, check=False)


class TensorComplex(Complex):
    """A complex on a TensorSpace, cut at degree top + 1 when top is given,
    whose d is the LiftedSum of terms with no block above top: read as
    images d·V, or through truncated, it lifts no block.  d² is not checked."""

    def __init__(self, tensor: TensorSpace, terms: Sequence, complete: bool, top: Optional[int] = None):
        self.complete = complete
        self.space = tensor if top is None else tensor.truncated(top + 1)
        self.d = LiftedSum(tensor, terms, 1, top, self.space)
        self._cohomology_bases, self._d_pivots = {}, {}

    def truncated(self, top: int) -> "Complex":
        return self if top >= self.space.hi else TensorComplex(self.d.tensor, self.d.terms, False, top - 1)


class ChainMap:
    """Degree-0 map between complexes, intended to commute with differentials."""

    def __init__(self, source: Complex, target: Complex, map: LinMap):
        if map.shift != 0:
            raise ShapeError("chain maps have shift 0")
        self.source, self.target, self.map = source, target, map


class ChainMapReport:
    def __init__(self, ok: bool, witness: Optional[tuple] = None):
        self.ok = ok
        self.witness = witness  # (degree, basis label, defect vector)

    def describe(self) -> str:
        if self.ok:
            return "chain map: commutes with the differentials"
        deg, lbl, defect = self.witness
        nz = {i: qstr(v) for i, v in enumerate(defect) if v}
        return f"chain-map defect at degree {deg} on {lbl!r}: {nz}"


def first_defect(space: GradedSpace, degrees, products: Callable[[int], Sequence]) -> Optional[tuple]:
    """(degree, basis label, defect column) of the first nonzero column of
    the sum of c·L·R over products(deg) = [(c, L, R), ...] (integers c,
    blocks L and R) at the first listed degree where that sum is nonzero;
    None when it vanishes at every degree.

    No product block is built: the columns that some R reaches are walked
    in increasing order, each product column is formed alone, and the walk
    stops at the first nonzero one.  A block's integer column view is built
    once and dropped at the first degree that does not read it, so a block
    read as L at one degree and as R at the next (d in d², f in a chain
    map) is viewed once for both roles.
    """
    views: dict = {}  # id(block) -> (block, its integer column view)
    for deg in degrees:
        terms, kept = products(deg), {}
        if not terms:
            continue
        for _, L, R in terms:
            for m in (L, R):
                kept[id(m)] = kept.get(id(m)) or views.get(id(m)) or (m, m.int_columns())
        views = kept
        den = lcm(*[L.den * R.den for _, L, R in terms])
        parts = [(c * den // (L.den * R.den), views[id(L)][1], views[id(R)][1]) for c, L, R in terms]
        for j in sorted({j for _, _, right in parts for j in right}):
            acc: dict = {}
            for k, left, right in parts:
                for i, w in right.get(j, ()):
                    for row, v in left.get(i, ()):
                        acc[row] = acc.get(row, 0) + k * v * w
            if any(acc.values()):
                column = [Q0] * terms[0][1].rows
                for row, v in acc.items():
                    column[row] = Fraction(v, den) if v else Q0
                return deg, space.labels(deg)[j], tuple(column)
    return None


def check_chain_map(f: ChainMap) -> ChainMapReport:
    """Verify d_target . f = f . d_source degreewise; report first defect.

    Degrees whose outgoing differential is lost to truncation (on either
    side) are skipped: there is nothing exact to compare there.  Past a
    complete side's window both sides' blocks have no rows.
    """
    C, D = f.source, f.target
    top = min(C.max_usable, D.max_usable)
    defect = first_defect(
        C.space, [deg for deg in C.space.degrees() if deg <= top],
        lambda deg: [(1, D.d.block(deg), f.map.block(deg)), (-1, f.map.block(deg + 1), C.d.block(deg))])
    return ChainMapReport(defect is None, defect)


# ---------------------------------------------------------------------------
# Cohomology
# ---------------------------------------------------------------------------


class CohomologyReport:
    """Betti numbers and representative cocycles, certified below the cut."""

    def __init__(self, betti: dict, representatives: dict, uncertified: dict):
        self.betti = betti  # degree -> int, certified degrees only
        self.representatives = representatives  # degree -> list of {label: Fraction}
        self.uncertified = uncertified  # degree -> int, degrees at the truncation edge

    def __eq__(self, other) -> bool:
        return isinstance(other, CohomologyReport) and (
            (self.betti, self.representatives, self.uncertified)
            == (other.betti, other.representatives, other.uncertified))

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


def _basis_columns(A: Matrix, skip: frozenset) -> tuple:
    """(kept, leads): the columns of A outside skip that enlarge the span
    when inserted one at a time, in increasing order, into one echelon
    table (see linalg.pivot_columns), and the table's leading rows.  With
    nothing skipped, kept is the pivot set of the RREF of A."""
    table: dict = {}
    kept = [j for j, col in enumerate(_column_rows(A)) if j not in skip and _insert(table, col, None)]
    return kept, frozenset(table)


def _d_pivots(C: Complex, deg: int, squared_zero: bool = False) -> list:
    """Columns of d_deg whose images are a basis of im d_deg, rank d_deg
    of them: one insertion (_basis_columns) per complex and degree.

    Where d_deg·d_{deg-1} = 0 is known (deg - 1 <= C.checked_top, or
    squared_zero, which _cocycle_boundaries passes once it has checked
    d_deg·B = 0), the columns at d_{deg-1}'s leading rows are not inserted.
    The rows of d_{deg-1}'s table span im d_{deg-1} and are triangular on
    their leading rows, so the other unit vectors span a complement of it,
    which d_deg maps onto im d_deg.  A column that then reduces to zero
    marks a class of H^deg: in an exact degree none does.  Elsewhere every
    column is inserted."""
    found = C._d_pivots.get(deg)
    if found is None:
        block, skip = C.d.block(deg), frozenset()
        known = squared_zero or (C.checked_top is not None and deg - 1 <= C.checked_top)
        if known and not block.is_zero():
            _d_pivots(C, deg - 1)
            skip = C._d_pivots[deg - 1][1]
        found = C._d_pivots[deg] = ([], frozenset()) if block.is_zero() else _basis_columns(block, skip)
    return found[0]


def _betti_by_rank(C: Complex, deg: int) -> int:
    """dim H^deg as dim - rank d_deg - rank d_{deg-1}, with no representatives."""
    return C.space.dim(deg) - len(_d_pivots(C, deg)) - len(_d_pivots(C, deg - 1))


def _cocycle_boundaries(C: Complex, deg: int) -> Matrix:
    """A basis B of im d_{deg-1}, the images of the columns _d_pivots
    finds for d_{deg-1}, checked to be cocycles: SpanError, as
    complement_basis raises it, when one is not, i.e. when d² != 0 at deg
    on a complex built unchecked.  Where the complex's own check covered
    deg - 1 (see Complex.checked_top), d_deg·B is not formed.

    With d_deg·d_{deg-1} = 0 so known, d_deg's columns are found here,
    off d_{deg-1}'s leading rows: every caller reads rank d_deg next."""
    boundaries = C.d.block(deg - 1).take(_d_pivots(C, deg - 1))
    checked = C.checked_top is not None and deg - 1 <= C.checked_top
    if not checked and not (C.d.block(deg) @ boundaries).is_zero():
        raise SpanError("U is not contained in span(V)")
    _d_pivots(C, deg, squared_zero=True)
    return boundaries


def cohomology_representatives(C: Complex, deg: int) -> tuple:
    """(representatives, boundary basis) for H^deg as column blocks,
    deterministically; computed once per complex and degree.

    The boundaries are checked to be cocycles, and dim H^deg is read from
    the ranks.  Only where it is positive is the cocycle kernel cut and a
    complement of the boundaries taken in it; elsewhere the representatives
    are empty."""
    bases = C._cohomology_bases.get(deg)
    if bases is None:
        boundaries = _cocycle_boundaries(C, deg)
        if _betti_by_rank(C, deg) > 0:
            reps = complement_basis(boundaries, joint_kernel([C.d.block(deg)], C.space.dim(deg)))
        else:
            reps = Matrix.zero(C.space.dim(deg), 0)
        bases = C._cohomology_bases[deg] = (reps, boundaries)
    return bases


def cohomology_classes(reps: Matrix, boundaries: Matrix, images: Matrix) -> Optional[Matrix]:
    """Classes of the cocycles `images` (columns) over the representatives
    `reps`, as columns.

    Each image is written in reps + boundaries and its boundary part is
    dropped.  None as soon as an image is not a cocycle.
    """
    m = Subspace(hstack([reps, boundaries], reps.rows)).restrict(images)
    if m is None:
        return None
    return Matrix._from_ints(reps.cols, m.cols,
                             {rc: v for rc, v in m.num.items() if rc[0] < reps.cols}, m.den)


def cohomology(C: Complex, trunc: Truncation) -> CohomologyReport:
    """H^m = ker(d_m) / im(d_{m-1}) for m <= N, certified for m <= N - 1.

    Each block d_m is eliminated once, for its rank and a set of columns
    whose images are a basis of im d_m, found off d_{m-1}'s leading rows
    wherever d_m·d_{m-1} = 0 is known (see _d_pivots); every Betti number
    is dim - rank d_m - rank d_{m-1}.  Representatives are computed, and
    their basis labels read, only at certified degrees where H^m != 0 (see
    cohomology_representatives); an uncertified degree reports just its
    count.
    """
    N = trunc.max_degree
    if not C.complete and C.space.hi < N:
        raise WindowError(f"window tops out at {C.space.hi}, need degree {N}")
    betti: dict = {}
    reps_out: dict = {}
    uncertified: dict = {}
    for deg in range(C.space.lo, N + 1):
        inside = deg <= C.space.hi
        if deg > N - 1 or C.max_usable < deg <= C.space.hi:
            uncertified[deg] = _betti_by_rank(C, deg)
            continue
        reps = cohomology_representatives(C, deg)[0] if inside else Matrix.zero(0, 0)
        labels = C.space.labels(deg) if reps.cols else ()
        betti[deg] = reps.cols
        reps_out[deg] = [{labels[i]: v for i, v in enumerate(r) if v} for r in reps.columns()]
    return CohomologyReport(betti=betti, representatives=reps_out, uncertified=uncertified)


class QuasiIsoReport:
    def __init__(self, ok: bool, chain: ChainMapReport, degrees: dict):
        self.ok, self.chain = ok, chain
        self.degrees = degrees  # degree -> {"source_betti", "target_betti", "induced_rank", "ok"}

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
    """Check that f induces isomorphisms on H^m for m <= N - 1.

    The Betti numbers on both sides come from the ranks of the
    differentials (see cohomology).  Where the source has a class, f is
    applied to its representatives and their classes are read in the
    target's; where it has none, the induced rank is 0, the target's count
    stands alone and no representative is computed on either side."""
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
        if reps_C.cols:
            reps_D, bdry_D = cohomology_representatives(D, deg)
            induced = cohomology_classes(reps_D, bdry_D, f.map.block(deg) @ reps_C)
            betti_D, rank_ind = reps_D.cols, -1 if induced is None else rank(induced)
        else:
            _cocycle_boundaries(D, deg)  # the check of the target's representatives
            betti_D, rank_ind = _betti_by_rank(D, deg), 0
        ok_here = reps_C.cols == betti_D == rank_ind
        degrees[deg] = {
            "source_betti": reps_C.cols,
            "target_betti": betti_D,
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
    target_name: str = "the subspace",
) -> LinMap:
    """Restrict `op` to subspaces given per degree by column blocks.

    src_vectors / tgt_vectors: degree -> Matrix whose columns span the
    subspace in the ambient coordinates of op.source / op.target.  Raises
    SubcomplexError, naming target_name and the degree, when the image of a
    sub-basis vector leaves the target.  op is read only as its images op.image(d, V).
    """
    blocks = {}
    for d in src_space.degrees():
        V = src_vectors.get(d)
        if V is None or not V.cols:
            continue
        X = op.image(d, V)
        if not X.rows:
            continue
        m = Subspace(tgt_vectors.get(d + op.shift, Matrix.zero(X.rows, 0))).restrict(X)
        if m is None:
            raise SubcomplexError(f"operator image leaves {target_name} at degree {d}")
        blocks[d] = m
    return LinMap(src_space, tgt_space, op.shift, blocks)


def subcomplex(
    C: Complex,
    vectors: dict,
    label_prefix: str = "v",
) -> "tuple[Complex, ChainMap]":
    """Complex structure on per-degree subspaces, plus the inclusion map.

    `vectors`: degree -> Matrix of independent columns in the coordinates
    of C; each block is also the inclusion at its degree.  The restricted
    differential reads d only as its images d·V (see induced_map).
    """
    vectors = {d: V for d, V in vectors.items() if V.cols}
    labels = {d: tuple(f"{label_prefix}[{d},{i}]" for i in range(V.cols)) for d, V in vectors.items()}
    space = GradedSpace(labels, lo=C.space.lo, hi=C.space.hi)
    d_map = induced_map(C.d, vectors, vectors, space, space, f"the subcomplex {label_prefix}")
    sub = Complex(space, d_map, complete=C.complete, check=False)
    incl = ChainMap(sub, C, LinMap(space, C.space, 0, vectors))
    return sub, incl
