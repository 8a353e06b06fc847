"""Exact rational linear algebra on sparse matrices.

Results are exact rationals (``fractions.Fraction``) and every computation
is bit-for-bit reproducible.  One echelon engine inserts sparse rows one at
a time; ``RowReduction`` back-substitutes them to the reduced row echelon
form, and ``IncrementalSpan`` and ``Subspace`` keep them as they are.
One integer kernel serves elimination and the operator calculus alike:
every operand (an echelon row, a matrix block) is scaled once to integers
over the lcm of its denominators, all arithmetic is on plain ints, and a
``Fraction`` is built only for each nonzero value read out.  Elimination
updates rows by cross-multiplication (``row <- a*row - b*pivot``, as in
Bareiss elimination) and reads out R, E, kernels, solutions, coordinates
and complements; products (``Matrix.__matmul__``), lifts onto a tensor
basis and scalar combinations of operators (in ``complexes``) multiply and
accumulate over one common denominator per output block.  The RREF of a
matrix is unique, so kernel bases, solutions with free variables zero and
complements do not depend on the elimination order and are stable across
runs -- which is what makes golden-file tests possible downstream.

Subspaces enter in two ways, each through one call: ``joint_kernel``
cuts one out as the common kernel of a family of operator blocks, and
``Subspace.restrict`` writes images in the coordinates of a spanning
family, which is how every restricted operator is built.

Vectors are plain tuples of Fractions (column vectors).  Matrices store a
dict of (row, col) -> nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Q0 = Fraction(0)
Q1 = Fraction(1)


class ShapeError(ValueError):
    """Incompatible dimensions in a matrix or vector operation."""


class SpanError(ValueError):
    """complement_basis precondition failure (dependent U, or U not in span V)."""


def qstr(x: Fraction) -> str:
    """Render a rational as ``p/q``, or just ``p`` when the denominator is 1."""
    return str(Fraction(x))


def qparse(text) -> Fraction:
    """Parse the ``p/q`` wire format (also accepts plain integers)."""
    return Fraction(text)


def vec(values: Iterable) -> tuple:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


class Matrix:
    """Sparse rational matrix.  Immutable by convention once constructed."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        ents: dict = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (r, c), v in items:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ShapeError(f"entry ({r},{c}) outside {rows}x{cols} matrix")
                if v:
                    ents[(r, c)] = v if type(v) is Fraction else Fraction(v)
        self.entries = ents

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        nr = len(rows)
        nc = len(rows[0]) if nr else 0
        ents = {}
        for i, row in enumerate(rows):
            if len(row) != nc:
                raise ShapeError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    ents[(i, j)] = v if type(v) is Fraction else Fraction(v)
        return cls(nr, nc, ents)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], nrows: Optional[int] = None) -> "Matrix":
        nc = len(cols)
        if nrows is None:
            if nc == 0:
                raise ShapeError("from_columns needs nrows for an empty column list")
            nrows = len(cols[0])
        ents = {}
        for j, col in enumerate(cols):
            if len(col) != nrows:
                raise ShapeError("ragged columns")
            for i, v in enumerate(col):
                if v:
                    ents[(i, j)] = v if type(v) is Fraction else Fraction(v)
        return cls(nrows, nc, ents)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, {(i, i): Q1 for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    # -- accessors ---------------------------------------------------------

    def __getitem__(self, rc) -> Fraction:
        return self.entries.get(rc, Q0)

    def column(self, j: int) -> tuple:
        return tuple(self.entries.get((i, j), Q0) for i in range(self.rows))

    def row(self, i: int) -> tuple:
        return tuple(self.entries.get((i, j), Q0) for j in range(self.cols))

    def columns(self) -> list:
        return [self.column(j) for j in range(self.cols)]

    def by_column(self) -> dict:
        """Sparse column view: col -> [(row, value), ...] over the nonzero entries."""
        view: dict = {}
        for (i, j), v in self.entries.items():
            view.setdefault(j, []).append((i, v))
        return view

    def dense(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        ents = dict(self.entries)
        for rc, v in other.entries.items():
            w = ents.get(rc, Q0) + v
            if w:
                ents[rc] = w
            else:
                ents.pop(rc, None)
        return Matrix(self.rows, self.cols, ents)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c) -> "Matrix":
        c = Fraction(c)
        if not c:
            return Matrix(self.rows, self.cols)
        return Matrix(self.rows, self.cols, {rc: c * v for rc, v in self.entries.items()})

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            left, dA = _integer_columns(self)
            right, dB = _integer_row(other.entries.items())
            ents: dict = {}
            get = ents.get
            for (k, j), w in right.items():
                for i, v in left.get(k, ()):
                    rc = (i, j)
                    ents[rc] = get(rc, 0) + v * w
            return Matrix(self.rows, other.cols, _over(ents, dA * dB))
        return self.apply(other)

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ShapeError(f"vector length {len(v)} != cols {self.cols}")
        out = [Q0] * self.rows
        for (i, j), a in self.entries.items():
            if v[j]:
                out[i] += a * v[j]
        return tuple(out)

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()})


# ---------------------------------------------------------------------------
# The integer kernel.  A rational operand -- an echelon row, or the entries
# of a matrix block -- enters once, scaled by the lcm of its denominators
# (`_integer_row`, `_integer_columns`); sums of products over several
# operands take one common denominator per output block, and `_over` reads
# the nonzero results out as Fractions.
#
# The echelon engine on top of it: rows are sparse dicts col -> int.  A
# pivot table maps each pivot column to its primitive integer row (positive
# entry there, nothing to its left) and the row's tracked combination, or
# None when untracked.  A tracked row equals the combination of the input
# rows, so the two share one content gcd.
# ---------------------------------------------------------------------------


def _integer_row(items) -> tuple:
    """(row, d): the nonzero (index, rational) pairs scaled by the lcm d of
    their denominators, as an integer row."""
    items = list(items)
    d = lcm(*[x.denominator for _, x in items])
    if d == 1:
        return {j: x.numerator for j, x in items}, 1
    return {j: x.numerator * (d // x.denominator) for j, x in items}, d


def _integer_columns(m: Matrix) -> tuple:
    """(view, d): the sparse column view col -> [(row, int), ...] of m scaled
    by the lcm d of its denominators."""
    ents, d = _integer_row(m.entries.items())
    view: dict = {}
    for (i, j), v in ents.items():
        view.setdefault(j, []).append((i, v))
    return view, d


def _sparse(v: Sequence) -> tuple:
    # `is not Q0` first: dense vectors are mostly the shared zero, and the
    # identity test skips a Python-level Fraction.__bool__ call per entry
    return _integer_row((i, x) for i, x in enumerate(v) if x is not Q0 and x)


def _rows_as_dicts(A: Matrix) -> list:
    rows: list = [dict() for _ in range(A.rows)]
    for (i, j), v in A.entries.items():
        rows[i][j] = v
    return rows


def _over(row: dict, den: int) -> dict:
    """The rational row row / den, without its zero entries.  Equal entries
    share one Fraction: operator blocks hold few distinct values."""
    value = {v: Fraction(v, den) for v in set(row.values()) if v}
    return {j: value[v] for j, v in row.items() if v}


def _axpby(dst: dict, a: int, b: int, src: dict) -> None:
    # dst <- a * dst - b * src, dropping zeros
    if a != 1:
        for j in dst:
            dst[j] *= a
    get = dst.get
    for j, v in src.items():
        w = get(j, 0) - b * v
        if w:
            dst[j] = w
        else:
            del dst[j]


def _eliminate(row: dict, comb: Optional[dict], col: int, piv: tuple) -> None:
    """Clear row[col] against the pivot row piv = (prow, pcomb) leading there:
    row <- (a/g) row - (b/g) prow, with a = prow[col], b = row[col] and
    g = gcd(a, b); comb follows."""
    prow, pcomb = piv
    a, b = prow[col], row[col]
    if a != 1:
        g = gcd(a, b)
        a //= g
        b //= g
    _axpby(row, a, b, prow)
    if comb is not None:
        _axpby(comb, a, b, pcomb)


def _primitive(row: dict, comb: Optional[dict], lead: int) -> tuple:
    """row and comb divided by their joint content gcd, signed so that
    row[lead] is positive."""
    g = gcd(*row.values(), *comb.values()) if comb is not None else gcd(*row.values())
    if row[lead] < 0:
        g = -g
    if g != 1:
        row = {j: x // g for j, x in row.items()}
        if comb is not None:
            comb = {j: x // g for j, x in comb.items()}
    return row, comb


def _reduce(pivots: dict, row: dict, comb: Optional[dict]) -> None:
    """Clear the leading entry of the integer `row` against `pivots`, in
    place, until `row` is zero or leads in a non-pivot column.  Each step
    scales `row` by a nonzero integer and subtracts a multiple of a pivot
    row; `comb` follows each step."""
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            return
        _eliminate(row, comb, lead, piv)


def _insert(pivots: dict, row: dict, comb: Optional[dict]) -> bool:
    """Reduce `row` and store it, primitive with a positive lead, under its
    leading column.

    False when it reduces to zero, i.e. it lies in the span already; `comb`
    is then the vanishing combination."""
    _reduce(pivots, row, comb)
    if not row:
        return False
    lead = min(row)
    pivots[lead] = _primitive(row, comb, lead)
    return True


class RowReduction:
    """Reduced row echelon factorization R = E @ A, computed once.

    ``pivots`` lists the pivot columns in order; row i of R (i < rank) has a
    unit pivot in column pivots[i] and zeros in every other pivot column,
    and the rows after the rank are empty.  With track=True, E is kept so
    that consistency of A x = b can be read off from E @ b: its rows after
    the rank combine the rows of A to zero.  kernel/rank queries skip that
    extra work.
    """

    def __init__(self, A: Matrix, track: bool = True):
        self.rows = A.rows
        self.cols = A.cols
        table: dict = {}
        null: list = []
        for i, row in enumerate(_rows_as_dicts(A)):
            row, d = _integer_row(row.items())
            comb = {i: d} if track else None
            if not _insert(table, row, comb) and track:
                # the vanishing combination, scaled to coefficient 1 at row i
                null.append(_over(comb, comb[i]))
        order = sorted(table)
        # back-substitution, highest pivot first: the rows used are reduced already
        for c in reversed(order):
            row, comb = table[c]
            hits = [j for j in row if j != c and j in table]
            for p in hits:
                _eliminate(row, comb, p, table[p])
            if hits:
                table[c] = _primitive(row, comb, c)
        self.pivots = order
        self.rank = len(order)
        leads = [table[c][0][c] for c in order]
        self.R = [_over(table[c][0], a) for c, a in zip(order, leads)]
        self.R += [{} for _ in range(A.rows - self.rank)]
        self.E = [_over(table[c][1], a) for c, a in zip(order, leads)] + null if track else None

    def transform(self, b: Sequence) -> list:
        if self.E is None:
            raise ValueError("RowReduction built with track=False cannot solve")
        if len(b) != self.rows:
            raise ShapeError(f"rhs length {len(b)} != rows {self.rows}")
        out = []
        for i in range(self.rows):
            s = Q0
            for j, v in self.E[i].items():
                if b[j]:
                    s += v * b[j]
            out.append(s)
        return out

    def solve(self, b: Sequence) -> Optional[tuple]:
        """One solution of A x = b with free variables set to 0, else None."""
        c = self.transform(b)
        for i in range(self.rank, self.rows):
            if c[i]:
                return None
        x = [Q0] * self.cols
        for i, pc in enumerate(self.pivots):
            x[pc] = c[i]
        return tuple(x)

    def kernel(self) -> list:
        """Basis of the null space, one vector per free column, in reduced form."""
        pivset = set(self.pivots)
        free = {c: [Q0] * self.cols for c in range(self.cols) if c not in pivset}
        for f, v in free.items():
            v[f] = Q1
        for i, pc in enumerate(self.pivots):
            for f, coeff in self.R[i].items():
                if f != pc:
                    free[f][pc] = -coeff
        return [tuple(v) for v in free.values()]


def kernel_basis(A: Matrix) -> list:
    """Basis of {v : A v = 0} in reduced echelon form (deterministic)."""
    return RowReduction(A, track=False).kernel()


def joint_kernel(mats: Sequence[Matrix], cols: int) -> list:
    """Common kernel of blocks of width cols: ``kernel_basis`` of their stack.

    An empty family leaves all of Q^cols, as the unit basis."""
    ents: dict = {}
    off = 0
    for m in mats:
        if m.cols != cols:
            raise ShapeError(f"block of width {m.cols} in a joint kernel of width {cols}")
        for (i, j), v in m.entries.items():
            ents[(i + off, j)] = v
        off += m.rows
    stacked = Matrix(off, cols, ents)
    del ents  # the stack holds its own copy; do not keep both through the elimination
    return kernel_basis(stacked)


def image_rank(A: Matrix):
    """(rank, basis of the column space).  The basis is the pivot columns of A."""
    red = RowReduction(A, track=False)
    cols = {j: [Q0] * A.rows for j in red.pivots}
    for (i, j), v in A.entries.items():
        if j in cols:
            cols[j][i] = v
    return red.rank, [tuple(cols[j]) for j in red.pivots]


def rank(A: Matrix) -> int:
    return RowReduction(A, track=False).rank


def solve_affine(A: Matrix, b: Sequence) -> Optional[tuple]:
    """Some x with A x = b (free variables 0), or None when inconsistent."""
    return RowReduction(A).solve(b)


class IncrementalSpan:
    """Growing echelonized span of vectors, for cheap membership/rank queries."""

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, v: Sequence) -> bool:
        """Insert v; True when it enlarges the span."""
        return _insert(self.pivots, _sparse(v)[0], None)

    def contains(self, v: Sequence) -> bool:
        row = _sparse(v)[0]
        _reduce(self.pivots, row, None)
        return not row


class Subspace:
    """The span of a fixed family of vectors, factored once for coordinate queries.

    Each echelon row tracks its combination of the family, so ``coords`` is
    one reduction of the target, with no elimination of the family.
    """

    def __init__(self, vectors: Sequence[Sequence]):
        self.size = len(vectors)
        self.dim = len(vectors[0]) if vectors else None
        self.pivots: dict = {}
        for i, v in enumerate(vectors):
            if len(v) != self.dim:
                raise ShapeError("ragged spanning family")
            row, d = _sparse(v)
            _insert(self.pivots, row, {i: d})

    def coords(self, target: Sequence) -> Optional[tuple]:
        """Coordinates of target in the family, or None when it lies outside.

        Members that depend on earlier members get coordinate 0, as the
        free variables of ``solve_affine`` on the columns do.  The target
        is reduced as member ``size`` of the family: once it reduces to
        zero, its coefficient is the common denominator of the coordinates.
        """
        if self.dim is not None and len(target) != self.dim:
            raise ShapeError(f"vector length {len(target)} != {self.dim}")
        row, d = _sparse(target)
        comb = {self.size: d}
        _reduce(self.pivots, row, comb)
        if row:
            return None
        den = -comb.pop(self.size)
        x = [Q0] * self.size
        for i, c in comb.items():
            x[i] = Fraction(c, den)
        return tuple(x)

    def restrict(self, images: Iterable[Sequence]) -> Optional[Matrix]:
        """Coordinates of each image as the columns of one Matrix, or None
        as soon as an image lies outside; images are read one at a time."""
        cols = []
        for img in images:
            x = self.coords(img)
            if x is None:
                return None
            cols.append(x)
        return Matrix.from_columns(cols, nrows=self.size)


def complement_basis(U: Sequence[Sequence], V: Sequence[Sequence]) -> list:
    """Extend the independent family U to a basis of span(V), greedily over V.

    Raises SpanError when U is dependent or escapes span(V).
    """
    rows_V = [_sparse(v)[0] for v in V]
    span_V: dict = {}
    for row in rows_V:
        _insert(span_V, dict(row), None)
    span: dict = {}
    for u in U:
        row = _sparse(u)[0]
        left = dict(row)
        _reduce(span_V, left, None)
        if left:
            raise SpanError("U is not contained in span(V)")
        if not _insert(span, row, None):
            raise SpanError("U is linearly dependent")
    chosen: list = []
    for v, row in zip(V, rows_V):
        if len(span) == len(span_V):
            break
        if _insert(span, row, None):
            chosen.append(vec(v))
    return chosen


def independent_subset(vectors: Sequence[Sequence]) -> list:
    """Greedy maximal independent subfamily, preserving input order."""
    span = IncrementalSpan()
    out: list = []
    for v in vectors:
        v = vec(v)
        if span.add(v):
            out.append(v)
    return out


def express_in_span(basis: Sequence[Sequence], target: Sequence) -> Optional[tuple]:
    """Coordinates of target in the given spanning family, or None.

    For many targets against one family, build the ``Subspace`` once."""
    return Subspace(basis).coords(target)
