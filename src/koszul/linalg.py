"""Exact rational linear algebra on sparse matrices.

Everything runs over ``fractions.Fraction``: results are exact and every
computation is bit-for-bit reproducible.  Pivoting is deterministic
(leftmost nonzero column, first usable row), so kernel bases, solutions
and complements are stable across runs -- which is what makes golden-file
tests possible downstream.

Vectors are plain tuples of Fractions (column vectors).  Matrices store a
dict of (row, col) -> nonzero entry.
"""

from __future__ import annotations

from fractions import Fraction
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
    return tuple(Fraction(v) for v in values)


def zero_vec(n: int) -> tuple:
    return (Q0,) * n


def is_zero_vec(v: Sequence) -> bool:
    return all(a == 0 for a in v)


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
                v = Fraction(v)
                if v:
                    ents[(r, c)] = v
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
                v = Fraction(v)
                if v:
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
                v = Fraction(v)
                if v:
                    ents[(i, j)] = v
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
            by_col = self.by_column()
            ents: dict = {}
            for (k, j), w in other.entries.items():
                for i, v in by_col.get(k, ()):
                    rc = (i, j)
                    s = ents.get(rc, Q0) + v * w
                    if s:
                        ents[rc] = s
                    else:
                        ents.pop(rc, None)
            return Matrix(self.rows, other.cols, ents)
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


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ShapeError("vstack of nothing")
    cols = mats[0].cols
    ents = {}
    off = 0
    for m in mats:
        if m.cols != cols:
            raise ShapeError("vstack column mismatch")
        for (i, j), v in m.entries.items():
            ents[(i + off, j)] = v
        off += m.rows
    return Matrix(off, cols, ents)


# ---------------------------------------------------------------------------
# Row reduction.  Rows are kept as sparse dicts col -> value.
# ---------------------------------------------------------------------------


def _rows_as_dicts(A: Matrix) -> list:
    rows: list = [dict() for _ in range(A.rows)]
    for (i, j), v in A.entries.items():
        rows[i][j] = v
    return rows


def _axpy(dst: dict, c: Fraction, src: dict) -> None:
    # dst += c * src, dropping zeros
    for j, v in src.items():
        w = dst.get(j, Q0) + c * v
        if w:
            dst[j] = w
        else:
            dst.pop(j, None)


class RowReduction:
    """Reduced row echelon factorization R = E @ A, computed once.

    ``pivots`` lists the pivot columns in order; row i of R (i < rank) has a
    unit pivot in column pivots[i] and zeros in every other pivot column.
    With track=True, E is maintained so that consistency of A x = b can be
    read off from E @ b; kernel/rank queries skip that extra work.
    """

    def __init__(self, A: Matrix, track: bool = True):
        self.rows = A.rows
        self.cols = A.cols
        R = _rows_as_dicts(A)
        E: Optional[list] = [{i: Q1} for i in range(A.rows)] if track else None
        pivots: list = []
        r = 0
        for c in range(A.cols):
            piv = None
            for i in range(r, A.rows):
                if c in R[i]:
                    piv = i
                    break
            if piv is None:
                continue
            if piv != r:
                R[r], R[piv] = R[piv], R[r]
                if E is not None:
                    E[r], E[piv] = E[piv], E[r]
            f = R[r][c]
            if f != 1:
                inv = Q1 / f
                R[r] = {j: inv * v for j, v in R[r].items()}
                if E is not None:
                    E[r] = {j: inv * v for j, v in E[r].items()}
            for i in range(A.rows):
                if i != r and c in R[i]:
                    g = -R[i][c]
                    _axpy(R[i], g, R[r])
                    if E is not None:
                        _axpy(E[i], g, E[r])
            pivots.append(c)
            r += 1
            if r == A.rows:
                break
        self.R = R
        self.E = E
        self.pivots = pivots
        self.rank = len(pivots)

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
        free = [c for c in range(self.cols) if c not in pivset]
        basis = []
        for f in free:
            v = [Q0] * self.cols
            v[f] = Q1
            for i, pc in enumerate(self.pivots):
                coeff = self.R[i].get(f)
                if coeff:
                    v[pc] = -coeff
            basis.append(tuple(v))
        return basis


def kernel_basis(A: Matrix) -> list:
    """Basis of {v : A v = 0} in reduced echelon form (deterministic)."""
    return RowReduction(A, track=False).kernel()


def image_rank(A: Matrix):
    """(rank, basis of the column space).  The basis is the pivot columns of A."""
    red = RowReduction(A, track=False)
    return red.rank, [A.column(j) for j in red.pivots]


def rank(A: Matrix) -> int:
    return RowReduction(A, track=False).rank


def solve_affine(A: Matrix, b: Sequence) -> Optional[tuple]:
    """Some x with A x = b (free variables 0), or None when inconsistent."""
    return RowReduction(A).solve(b)


class IncrementalSpan:
    """Growing echelonized span of vectors, for cheap membership/rank queries."""

    def __init__(self):
        self.rows: dict = {}  # pivot column -> normalized sparse row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def residual(self, v: Sequence) -> dict:
        work = {i: Fraction(x) for i, x in enumerate(v) if x}
        while work:
            lead = min(work)
            row = self.rows.get(lead)
            if row is None:
                return work
            _axpy(work, -work[lead], row)
        return work

    def add(self, v: Sequence) -> bool:
        """Insert v; True when it enlarges the span."""
        res = self.residual(v)
        if not res:
            return False
        lead = min(res)
        f = res[lead]
        if f != 1:
            inv = Q1 / f
            res = {j: inv * x for j, x in res.items()}
        self.rows[lead] = res
        return True

    def contains(self, v: Sequence) -> bool:
        return not self.residual(v)


def complement_basis(U: Sequence[Sequence], V: Sequence[Sequence], dim: Optional[int] = None) -> list:
    """Extend the independent family U to a basis of span(V), greedily over V.

    Raises SpanError when U is dependent or escapes span(V).
    """
    U = [vec(u) for u in U]
    V = [vec(v) for v in V]
    span_V = IncrementalSpan()
    for v in V:
        span_V.add(v)
    span = IncrementalSpan()
    for u in U:
        if not span_V.contains(u):
            raise SpanError("U is not contained in span(V)")
        if not span.add(u):
            raise SpanError("U is linearly dependent")
    chosen: list = []
    target = span_V.rank
    for v in V:
        if span.rank == target:
            break
        if span.add(v):
            chosen.append(v)
    return chosen


def independent_subset(vectors: Sequence[Sequence], dim: Optional[int] = None) -> list:
    """Greedy maximal independent subfamily, preserving input order."""
    span = IncrementalSpan()
    out: list = []
    for v in vectors:
        v = vec(v)
        if span.add(v):
            out.append(v)
    return out


def express_in_span(basis: Sequence[Sequence], target: Sequence, dim: Optional[int] = None) -> Optional[tuple]:
    """Coordinates of target in the given spanning family, or None."""
    if not basis:
        return () if is_zero_vec(target) else None
    return solve_affine(Matrix.from_columns(list(basis), nrows=dim), target)
