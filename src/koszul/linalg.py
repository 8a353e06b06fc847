"""Exact rational linear algebra on sparse matrices.

Results are exact rationals and every computation is bit-for-bit
reproducible.  A ``Matrix`` stores integer numerators over one positive
denominator, in lowest terms, and all arithmetic runs on plain ints:
products, sums, lifts onto a tensor basis and scalar combinations of
operators (in ``complexes``) accumulate numerators over one denominator
per output block.  A ``Fraction`` is built only where a value is read out.

One echelon engine inserts sparse integer rows one at a time, updating
them by cross-multiplication (``row <- a*row - b*pivot``, as in Bareiss
elimination).  ``_echelon`` feeds it a stream of rows and back-substitutes
the result to the reduced row echelon form: ``RowReduction`` splits a
Matrix into that stream, and ``row_kernel`` takes rows built elsewhere.
``rank`` and ``image_rank`` need only the pivot columns, which
``pivot_columns`` reads from the presolve of ``row_kernel`` and a forward
elimination, with no back-substitution.
``Subspace`` keeps the inserted rows as they are, each with its
combination of the spanning columns, and so answers coordinate queries
(``restrict``, ``coords`` and ``solve_affine``) with no further
elimination.  ``IncrementalSpan`` keeps its rows too; no code in this
package calls it, nor ``express_in_span``, and both stay only because the
benchmark's tracer (``perfbench/spans.py``) binds them by name.
The RREF of a matrix is unique, so kernel bases, solutions with free
variables zero and complements do not depend on the elimination order and
are stable across runs -- which is what makes golden-file tests possible.

A family of vectors is one ``Matrix`` whose columns are the vectors, so
it stays integer numerators over one denominator from the kernel that cuts
it out to the restriction that reads coordinates in it.  Subspaces enter
in two ways.  Every kernel is cut out by ``row_kernel`` from a stream of
integer rows: ``joint_kernel`` streams the rows of a family of blocks, and
``lie.invariants`` those of graded operators, which on a tensor product
(a ``DiagonalSum`` in ``complexes``, L⊗1 + 1⊗L) come straight from the
factor blocks, with no block of the product built.
The kernel of an action L_k of g (invariants) goes through
``lie.action_kernel``: since [L_x, L_y] = L_[x,y], it is the kernel of
the L_k for k in ``LieAlgebra.generators``, so only their rows are
streamed.  A certificate then checks that every other L_k kills that
kernel (``block @ K``, or on a product ``LiftedSum.image`` from the
factor blocks); if one does not, the L_k are not an action and the kernel
is cut again from the rows of every L_k.  The kernels of the contractions
(horizontal and basic subspaces) are not kernels of an action and keep
the rows of every i_k.  ``closure_rank`` runs the generation search.
``row_kernel`` first drops each column that a one-entry row forces to zero
(a pivot column of the full RREF, so the reduced kernel basis is the same)
and eliminates the rest; its rows must hold nonzero entries only.  The set
of dropped columns may come seeded by the stream's builder: a
``DiagonalSum`` reads its one-entry rows off its factors' row lengths and
never builds them.
``Subspace.restrict`` writes a block of images in the coordinates of a
spanning family, which is how every restricted operator is built.

Dense vectors, tuples of Fractions, are read-outs: ``Matrix.columns``,
``kernel_basis``, ``Subspace.coords`` and ``express_in_span`` produce
them, and ``solve_affine`` (and the unused ``IncrementalSpan``) take them.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

Q0 = Fraction(0)


class ShapeError(ValueError):
    """Incompatible dimensions in a matrix or vector operation."""


class SpanError(ValueError):
    """complement_basis precondition failure (dependent U, or U not in span V)."""


class Frozen:
    """A value whose fields are written once, by its __init__ through
    vars(self), and refuse assignment and deletion after that."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def qstr(x: Fraction) -> str:
    """Render a rational as ``p/q``, or just ``p`` when the denominator is 1."""
    return str(Fraction(x))


def qparse(text) -> Fraction:
    """Parse the ``p/q`` wire format (also accepts plain integers)."""
    return Fraction(text)


def iparse(x) -> int:
    """Parse an integer field of the wire format: an int (not a bool) or a
    decimal integer string.  Anything else, a float included, is rejected."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise TypeError(f"expected an integer, got {x!r}")
    return int(x)


def lparse(x) -> tuple:
    """Parse a list field of the wire format; a string is rejected, not
    split into one-character labels."""
    if not isinstance(x, list):
        raise TypeError(f"expected a list, got {x!r}")
    return tuple(x)


def vec(values: Iterable) -> tuple:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in values)


def _ratio(c) -> tuple:
    """(numerator, positive denominator) of a rational scalar."""
    c = c if isinstance(c, (int, Fraction)) else Fraction(c)
    return c.numerator, c.denominator


class _Entries(Mapping):
    """The nonzero entries of a Matrix as a read-only (row, col) -> Fraction map."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: dict, den: int):
        self._num, self._den = num, den

    def __getitem__(self, rc) -> Fraction:
        return Fraction(self._num[rc], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)


class Matrix:
    """Sparse rational matrix.  Immutable by convention once constructed.

    ``num`` maps (row, col) to the nonzero integer numerators over the one
    positive denominator ``den``, in lowest terms: gcd(den, *num) == 1, so
    den == 1 for an integer (or zero) matrix.  The form is canonical, so
    equal matrices store equal data.  ``entries``, indexing, ``column``,
    ``row`` and ``by_column`` read the values out as Fractions.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ShapeError("negative matrix shape")
        self.rows = rows
        self.cols = cols
        vals: dict = {}
        if entries:
            for (r, c), v in entries.items() if isinstance(entries, dict) else entries:
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ShapeError(f"entry ({r},{c}) outside {rows}x{cols} matrix")
                if v:
                    vals[(r, c)] = v if isinstance(v, (int, Fraction)) else Fraction(v)
        # over the lcm of the reduced denominators, no prime divides every numerator
        self.num, self.den = _integer_row(vals.items())

    @classmethod
    def _from_ints(cls, rows: int, cols: int, num: dict, den: int) -> "Matrix":
        """The matrix num / den from integer numerators (in range, not
        checked) over a positive den: zeros are dropped and the common
        factor gcd(den, *num) is divided out."""
        m = object.__new__(cls)
        m.rows, m.cols = rows, cols
        if 0 in num.values():
            num = {rc: v for rc, v in num.items() if v}
        g = gcd(den, *num.values())
        m.num = {rc: v // g for rc, v in num.items()} if g != 1 else num
        m.den = den // g
        return m

    @classmethod
    def _from_int_columns(cls, rows: int, cols: Sequence) -> "Matrix":
        """The matrix whose column j is the sparse integer column
        {row: numerator} over the positive denominator d, for cols[j] = (column, d)."""
        den = lcm(*[d for _, d in cols])
        return cls._from_ints(rows, len(cols), {
            (i, j): v * (den // d) for j, (col, d) in enumerate(cols) for i, v in col.items()}, den)

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
                if v is not Q0 and v:
                    ents[(i, j)] = v
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
                if v is not Q0 and v:  # as in _sparse
                    ents[(i, j)] = v
        return cls(nrows, nc, ents)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls._from_ints(n, n, {(i, i): 1 for i in range(n)}, 1)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols)

    # -- read-outs ---------------------------------------------------------

    @property
    def entries(self) -> Mapping:
        """The nonzero entries, read out as a (row, col) -> Fraction map."""
        return _Entries(self.num, self.den)

    def __getitem__(self, rc) -> Fraction:
        v = self.num.get(rc)
        return Fraction(v, self.den) if v else Q0

    def column(self, j: int) -> tuple:
        return self.take([j]).columns()[0]

    def row(self, i: int) -> tuple:
        return tuple(self[i, j] for j in range(self.cols))

    def columns(self) -> list:
        """The columns as dense tuples of Fractions, filled from ``num`` into
        lists of the shared zero; equal values share one Fraction."""
        cols = [[Q0] * self.rows for _ in range(self.cols)]
        den, vals = self.den, {}
        for (i, j), v in self.num.items():
            f = vals.get(v)
            if f is None:
                f = vals[v] = Fraction(v, den)
            cols[j][i] = f
        return [tuple(c) for c in cols]

    def take(self, cols: Sequence[int]) -> "Matrix":
        """The matrix of the given columns, in that order."""
        slot = {j: k for k, j in enumerate(cols)}
        return Matrix._from_ints(self.rows, len(slot), {
            (i, slot[j]): v for (i, j), v in self.num.items() if j in slot}, self.den)

    def int_columns(self) -> dict:
        """Sparse integer column view: col -> [(row, numerator), ...]."""
        view: dict = {}
        for (i, j), v in self.num.items():
            view.setdefault(j, []).append((i, v))
        return view

    def by_column(self) -> dict:
        """Sparse column view: col -> [(row, value), ...] over the nonzero entries."""
        den = self.den
        return {j: [(i, Fraction(v, den)) for i, v in col] for j, col in self.int_columns().items()}

    def dense(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.den, frozenset(self.num.items())))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {len(self.num)} entries)"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("matrix addition shape mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        ents = {rc: a * v for rc, v in self.num.items()}
        get = ents.get
        for rc, v in other.num.items():
            ents[rc] = get(rc, 0) + b * v
        return Matrix._from_ints(self.rows, self.cols, ents, den)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, c) -> "Matrix":
        p, q = _ratio(c)
        return Matrix._from_ints(self.rows, self.cols,
                                 {rc: p * v for rc, v in self.num.items()}, q * self.den)

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            left = self.int_columns()
            ents: dict = {}
            get = ents.get
            for (k, j), w in other.num.items():
                for i, v in left.get(k, ()):
                    rc = (i, j)
                    ents[rc] = get(rc, 0) + v * w
            return Matrix._from_ints(self.rows, other.cols, ents, self.den * other.den)
        return self.apply(other)

    def apply(self, v: Sequence) -> tuple:
        if len(v) != self.cols:
            raise ShapeError(f"vector length {len(v)} != cols {self.cols}")
        x, d = _sparse(v)
        out = [0] * self.rows
        get = x.get
        for (i, j), a in self.num.items():
            b = get(j)
            if b:
                out[i] += a * b
        d *= self.den
        return tuple(Fraction(s, d) if s else Q0 for s in out)

    def transpose(self) -> "Matrix":
        return Matrix._from_ints(self.cols, self.rows,
                                 {(j, i): v for (i, j), v in self.num.items()}, self.den)


# ---------------------------------------------------------------------------
# The echelon engine.  A vector enters once, scaled by the lcm of its
# denominators (`_integer_row`); a matrix hands over its numerators as
# they are.  Rows are sparse dicts col -> int.  A pivot table maps each
# pivot column to its primitive integer row (positive entry there, nothing
# to its left) and the row's tracked combination, or None when untracked.
# A tracked row equals the combination of the input rows, so the two share
# one content gcd.  `_over` reads a row out as Fractions.
# ---------------------------------------------------------------------------


def _integer_row(items) -> tuple:
    """(row, d): the nonzero (index, rational) pairs scaled by the lcm d of
    their denominators, as an integer row."""
    items = list(items)
    d = lcm(*[x.denominator for _, x in items])
    if d == 1:
        return {j: x.numerator for j, x in items}, 1
    return {j: x.numerator * (d // x.denominator) for j, x in items}, d


def _sparse(v: Sequence) -> tuple:
    # `is not Q0` first: dense vectors are mostly the shared zero, and the
    # identity test skips a Python-level Fraction.__bool__ call per entry
    return _integer_row((i, x) for i, x in enumerate(v) if x is not Q0 and x)


def _over(row: dict, den: int) -> dict:
    """The rational row row / den."""
    return {j: Fraction(v, den) for j, v in row.items()}


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


def _echelon(rows: Iterable[dict]) -> dict:
    """The one elimination: the reduced pivot table of a stream of integer
    rows.

    Each row is inserted in turn; the table is then back-substituted,
    highest pivot first, so that each pivot row is zero in every other pivot
    column.
    """
    table: dict = {}
    for row in rows:
        _insert(table, row, None)
    # highest pivot first: the rows used are reduced already
    for c in sorted(table, reverse=True):
        row, _ = table[c]
        hits = [j for j in row if j != c and j in table]
        for p in hits:
            _eliminate(row, None, p, table[p])
        if hits:
            table[c] = _primitive(row, None, c)
    return table


def _kernel(table: dict, cols: int, dead=()) -> Matrix:
    """The null space of a reduced pivot table of width cols, one column per
    free column in increasing order with entry 1 there, built over the lcm
    of the pivot leads.  Columns in `dead` (in no row of the table) are
    zero in every kernel vector."""
    free = {c: k for k, c in enumerate(c for c in range(cols) if c not in table and c not in dead)}
    den = lcm(*[row[c] for c, (row, _) in table.items()])
    num = {(f, k): den for f, k in free.items()}
    for c, (row, _) in table.items():
        s = den // row[c]
        for f, x in row.items():
            if f != c:
                num[(c, free[f])] = -x * s
    return Matrix._from_ints(cols, len(free), num, den)


def _matrix_rows(A: Matrix) -> dict:
    """The nonzero integer rows of A (numerators over A.den): row -> {col: int}."""
    rows: dict = {}
    for (i, j), v in A.num.items():
        rows.setdefault(i, {})[j] = v
    return rows




class RowReduction:
    """The reduced row echelon form R of a Matrix A, computed once.

    ``pivots`` lists the pivot columns in order; row i of R (i < rank) has a
    unit pivot in column pivots[i] and zeros in every other pivot column,
    and the rows after the rank are empty.  The form is held as primitive
    integer rows; R is read out as Fractions on access.
    """

    def __init__(self, A: Matrix):
        self.rows, self.cols = A.rows, A.cols
        rows = _matrix_rows(A)
        # the integer row i is den times row i of A; popped, so that a row
        # reduced to zero is freed at once
        table = _echelon(rows.pop(i, {}) for i in range(A.rows))
        self.pivots = sorted(table)
        self.rank = len(table)
        self._table = table

    @property
    def R(self) -> list:
        """Rows of the reduced echelon form, as dicts col -> Fraction."""
        table = self._table
        return ([_over(table[c][0], table[c][0][c]) for c in self.pivots]
                + [{} for _ in range(self.rows - self.rank)])

    def kernel(self) -> Matrix:
        """Basis of the null space in reduced form, as the columns of a
        Matrix: one per free column, in increasing order, with entry 1 there."""
        return _kernel(self._table, self.cols)


def kernel_basis(A: Matrix) -> list:
    """Basis of {v : A v = 0} in reduced echelon form (deterministic), read
    out as dense vectors."""
    return joint_kernel([A], A.cols).columns()


def _stack(mats: Sequence[Matrix], width: int, vertical: bool) -> Matrix:
    """The blocks over one another (vertical, all `width` columns wide) or
    side by side (all `width` rows high), over the lcm of their denominators."""
    den = lcm(*[m.den for m in mats])
    num: dict = {}
    off = 0
    for m in mats:
        side, length = (m.cols, m.rows) if vertical else (m.rows, m.cols)
        if side != width:
            raise ShapeError(f"block of side {side} in a stack of side {width}")
        di, dj = (off, 0) if vertical else (0, off)
        k = den // m.den
        for (i, j), v in m.num.items():
            num[(i + di, j + dj)] = k * v
        off += length
    rows, cols = (off, width) if vertical else (width, off)
    return Matrix._from_ints(rows, cols, num, den)


def hstack(mats: Sequence[Matrix], rows: int) -> Matrix:
    """The columns of the blocks, all of height rows, side by side in order."""
    return _stack(mats, rows, vertical=False)


def vstack(mats: Sequence[Matrix], cols: int) -> Matrix:
    """The rows of the blocks, all of width cols, over one another in order."""
    return _stack(mats, cols, vertical=True)


def _prune(rows: Iterable[dict], dead: set) -> Iterator[dict]:
    """The rows cut to their live columns that keep two or more entries; a
    row left with one entry adds its column to `dead` at once."""
    for row in rows:
        if len(row) > 1 and not dead.isdisjoint(row):
            row = {c: v for c, v in row.items() if c not in dead}
        if len(row) == 1:
            dead.update(row)
        elif row:
            yield row


def _presolve(rows: Iterable[dict], dead: set) -> list:
    """The singleton presolve of a stream of integer rows (dicts col -> int,
    nonzero entries only: a stored zero {c: 0} would wrongly kill column c):
    the surviving rows, cut to the columns left live, with every killed
    column added to `dead`.

    A one-entry row kills its column, which is dropped from the other rows,
    and that can leave new one-entry rows.  The stream is read once, each
    row cut against the columns dead so far; re-cuts of the kept rows repeat
    until no column dies.  A dead column is a unit vector of the row space,
    so it is a pivot column of the full RREF, and the survivors span the
    rest of the row space on the live columns."""
    live, n = rows, None
    while n != len(dead):
        n = len(dead)
        live = list(_prune(live, dead))
    return live


def row_kernel(rows: Iterable[dict], cols: int, dead: Optional[set] = None) -> Matrix:
    """Common kernel of a stream of integer rows of width cols, as the
    columns of a Matrix (see ``RowReduction.kernel``): only the survivors
    of the presolve (``_presolve``) are eliminated, so the free columns and
    the reduced basis are those of the whole stream.

    ``dead`` may come seeded: columns that one-entry rows of the stream
    kill, put in by whoever builds the stream (``lie.invariants`` asks
    every operator for its stream, and so for its seeds, first).  Such a
    stream may then skip those rows and yield the others cut to the columns
    live as each is built (``DiagonalSum.rows``); the presolve reads them
    as they come and re-cuts only the rows it kept.  The dead closure is
    monotone, so its fixpoint, and with it the survivors' span and the
    kernel, does not depend on the order in which columns die."""
    dead = set() if dead is None else dead
    return _kernel(_echelon(_presolve(rows, dead)), cols, dead)


def pivot_columns(A: Matrix) -> list:
    """The pivot columns of the RREF of A, in increasing order: the columns
    whose images form a basis of A's column space, and as many as its rank.

    The rows of A go through the presolve of ``row_kernel`` and the
    survivors through forward elimination only, with no back-substitution:
    the set of leading columns depends only on the row space, and the row
    space is the span of the dead unit vectors plus that of the survivors,
    which live off the dead columns.  So the pivots are the dead columns
    and the survivors' leads."""
    dead: set = set()
    table: dict = {}
    for row in _presolve((row for _, row in sorted(_matrix_rows(A).items())), dead):
        _insert(table, row, None)
    return sorted(dead.union(table))


def joint_kernel(mats: Sequence[Matrix], cols: int) -> Matrix:
    """Common kernel of blocks of width cols: ``row_kernel`` of their rows,
    block by block, each in order.

    An empty family leaves all of Q^cols, as the unit basis."""
    for m in mats:
        if m.cols != cols:
            raise ShapeError(f"block of width {m.cols} in a family of width {cols}")
    return row_kernel((row for m in mats for _, row in sorted(_matrix_rows(m).items())), cols)


def closure_rank(seeds: Iterable[dict], ops: Sequence[Matrix]) -> int:
    """Dimension of the smallest subspace that holds the sparse integer
    vectors ``seeds`` (dicts index -> int) and is mapped into itself by
    every square block in ``ops``: each vector that enlarges the span is
    sent through every block in turn (numerators only, as the scale of a
    vector does not change its span)."""
    table: dict = {}
    queue = [dict(v) for v in seeds]
    while queue:
        v = queue.pop()
        if not _insert(table, dict(v), None):
            continue
        for op in ops:
            w: dict = {}
            for (i, j), a in op.num.items():
                x = v.get(j)
                if x:
                    w[i] = w.get(i, 0) + a * x
            w = {i: x for i, x in w.items() if x}
            if w:
                queue.append(w)
    return len(table)


def image_rank(A: Matrix) -> tuple:
    """(rank, basis of the column space): the basis is the pivot columns of A."""
    pivots = pivot_columns(A)
    return len(pivots), A.take(pivots)


def rank(A: Matrix) -> int:
    return len(pivot_columns(A))


def solve_affine(A: Matrix, b: Sequence) -> Optional[tuple]:
    """Some x with A x = b (free variables 0), or None when inconsistent:
    the coordinates of b over the columns of A."""
    return Subspace(A).coords(b)


class IncrementalSpan:
    """Growing echelonized span of vectors, for cheap independence/rank queries."""

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, v: Sequence) -> bool:
        """Insert v; True when it enlarges the span."""
        return _insert(self.pivots, _sparse(v)[0], None)


def _column_rows(A: Matrix) -> list:
    """The integer columns of A (numerators over A.den) as sparse rows, in order."""
    rows: list = [{} for _ in range(A.cols)]
    for (i, j), v in A.num.items():
        rows[j][i] = v
    return rows


class Subspace:
    """The span of the columns of a Matrix V, factored once for coordinate queries.

    Each echelon row tracks its combination of the columns, so ``restrict``
    is one reduction per image, with no elimination of the family.
    """

    def __init__(self, V: Matrix):
        self.size, self.dim, self.den = V.cols, V.rows, V.den
        self.pivots: dict = {}
        for j, row in enumerate(_column_rows(V)):
            if row:
                _insert(self.pivots, row, {j: 1})

    def coords(self, target: Sequence) -> Optional[tuple]:
        """Coordinates of a dense target over the columns, or None when it
        lies outside: a read-out of ``restrict``.

        Members that depend on earlier members get coordinate 0: they are
        the free variables of the RREF of the columns.
        """
        if len(target) != self.dim:
            raise ShapeError(f"vector length {len(target)} != {self.dim}")
        m = self.restrict(Matrix(self.dim, 1, {(i, 0): x for i, x in enumerate(target) if x}))
        return None if m is None else m.columns()[0]

    def restrict(self, X: Matrix) -> Optional[Matrix]:
        """Coordinates of each column of X as the columns of one Matrix, or
        None as soon as a column lies outside.

        A column is reduced as member ``size`` of the family: once it
        reduces to zero, its coefficient is the common denominator of its
        coordinates over the integer columns of V.
        """
        if X.rows != self.dim:
            raise ShapeError(f"images of length {X.rows} in a subspace of Q^{self.dim}")
        size = self.size
        cols = []
        for row in _column_rows(X):
            comb = {size: 1}
            _reduce(self.pivots, row, comb)
            if row:
                return None
            e = comb.pop(size)
            cols.append((comb, e))
        # X[:, j] = -sum_i c_i/(e·X.den) V.num[:, i] and V.num = V.den·V
        den = lcm(*[e for _, e in cols])
        k = -self.den
        num = {(i, j): k * c * (den // e) for j, (comb, e) in enumerate(cols) for i, c in comb.items()}
        return Matrix._from_ints(size, X.cols, num, den * X.den)


def complement_basis(U: Matrix, V: Matrix) -> Matrix:
    """Extend the independent columns of U to a basis of the column span of
    V, greedily over the columns of V: the chosen columns, in order.

    Raises SpanError when U is dependent or escapes span(V).
    """
    if U.rows != V.rows:
        raise ShapeError(f"columns of length {U.rows} and {V.rows}")
    rows_V = _column_rows(V)
    span_V: dict = {}
    for row in rows_V:
        _insert(span_V, dict(row), None)
    span: dict = {}
    for row in _column_rows(U):
        left = dict(row)
        _reduce(span_V, left, None)
        if left:
            raise SpanError("U is not contained in span(V)")
        if not _insert(span, row, None):
            raise SpanError("U is linearly dependent")
    chosen: list = []
    for j, row in enumerate(rows_V):
        if len(span) == len(span_V):
            break
        if _insert(span, row, None):
            chosen.append(j)
    return V.take(chosen)


def express_in_span(basis: Sequence[Sequence], target: Sequence) -> Optional[tuple]:
    """Coordinates of target in the given spanning family, or None.

    No code in this package calls it; use ``Subspace``, built once per
    family.  It stays because the benchmark's tracer
    (``perfbench/spans.py``) looks it up by name, so deleting it breaks
    every traced pass."""
    return Subspace(Matrix.from_columns(basis, nrows=len(target))).coords(target)
