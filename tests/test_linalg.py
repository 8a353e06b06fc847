import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul import linalg
from koszul.complexes import GradedSpace, LinMap, TensorSpace
from koszul.linalg import (
    Matrix,
    RowReduction,
    ShapeError,
    SpanError,
    Subspace,
    complement_basis,
    express_in_span,
    image_rank,
    joint_kernel,
    kernel_basis,
    pivot_columns,
    qparse,
    qstr,
    rank,
    row_kernel,
    solve_affine,
    vec,
)

Q = Fraction


def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(2)) == []


def test_kernel_of_zero_map():
    assert kernel_basis(Matrix.zero(1, 2)) == [vec([1, 0]), vec([0, 1])]


def test_kernel_rank_one_matrix():
    # hand row-reduction: [[1,2],[2,4]] ~ [[1,2],[0,0]], null space (-2, 1)
    A = Matrix.from_rows([[1, 2], [2, 4]])
    assert kernel_basis(A) == [vec([-2, 1])]


def test_image_rank_examples():
    assert image_rank(Matrix.identity(3))[0] == 3
    assert image_rank(Matrix.zero(3, 3)) == (0, Matrix.zero(3, 0))
    r, basis = image_rank(Matrix.from_rows([[1, 2], [2, 4]]))
    assert r == 1
    assert basis.columns() == [vec([1, 2])]


def test_solve_identity():
    b = vec([3, Q(-1, 2), 7])
    assert solve_affine(Matrix.identity(3), b) == b


def test_solve_inconsistent():
    assert solve_affine(Matrix.zero(2, 2), vec([1, 0])) is None


def test_solve_free_variable_convention():
    # x + y = 2 with y free -> (2, 0)
    assert solve_affine(Matrix.from_rows([[1, 1]]), vec([2])) == vec([2, 0])


def test_solve_shape_mismatch():
    with pytest.raises(ShapeError):
        solve_affine(Matrix.identity(2), vec([1, 2, 3]))


def test_complement_trivial_cases():
    e = Matrix.identity(2)
    assert complement_basis(Matrix.zero(2, 0), e) == e
    assert complement_basis(e, e) == Matrix.zero(2, 0)


def test_complement_greedy_choice():
    got = complement_basis(Matrix.from_columns([vec([1, 1])]), Matrix.identity(2))
    assert got.columns() == [vec([1, 0])]


def test_complement_rejects_bad_U():
    e = Matrix.from_columns([vec([1, 0, 0]), vec([0, 1, 0])])
    with pytest.raises(SpanError):
        complement_basis(Matrix.from_columns([vec([1, 0, 0]), vec([2, 0, 0])]), e)
    with pytest.raises(SpanError):
        complement_basis(Matrix.from_columns([vec([0, 0, 1])]), e)


def test_qstr_roundtrip():
    assert qstr(Q(3, 2)) == "3/2"
    assert qstr(Q(5)) == "5"
    assert qparse("3/2") == Q(3, 2)
    assert qparse("-7") == Q(-7)


def test_matrix_product_and_apply():
    A = Matrix.from_rows([[1, 2], [0, 1]])
    B = Matrix.from_rows([[1, 0], [3, 1]])
    assert (A @ B).dense() == [[7, 2], [3, 1]]
    assert A @ vec([1, 1]) == vec([3, 1])


def test_express_in_span():
    basis = [vec([1, 0, 1]), vec([0, 1, 0])]
    assert express_in_span(basis, vec([2, 3, 2])) == vec([2, 3])
    assert express_in_span(basis, vec([0, 0, 1])) is None
    assert express_in_span([], vec([0, 0])) == ()
    assert express_in_span([], vec([1, 0])) is None


small_fracs = st.builds(Q, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def small_matrix(draw, max_dim=5):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(st.lists(small_fracs, min_size=c, max_size=c), min_size=r, max_size=r)
    )
    return Matrix.from_rows(rows)


@given(small_matrix())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(A):
    assert rank(A) + len(kernel_basis(A)) == A.cols


@given(small_matrix(), st.lists(small_fracs, min_size=5, max_size=5))
@settings(max_examples=60, deadline=None)
def test_solve_of_consistent_system(A, xs):
    x = vec(xs[: A.cols])
    b = A @ x
    y = solve_affine(A, b)
    assert y is not None
    assert A @ y == b


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilated(A):
    for v in kernel_basis(A):
        assert all(e == 0 for e in A @ v)


@given(small_matrix())
@settings(max_examples=40, deadline=None)
def test_reduction_deterministic(A):
    r1 = RowReduction(A)
    r2 = RowReduction(A)
    assert r1.pivots == r2.pivots
    assert r1.R == r2.R


# -- oracles: sympy's exact rref / nullspace / rank ---------------------------

sparse_fracs = st.one_of(st.just(Q(0)), small_fracs)


@st.composite
def deficient_matrix(draw, max_dim=6):
    """A random r x c matrix, or a product of r x k and k x c (rank <= k)."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    entries = st.lists(sparse_fracs, min_size=c, max_size=c)
    if draw(st.booleans()):
        return Matrix.from_rows(draw(st.lists(entries, min_size=r, max_size=r)))
    k = draw(st.integers(0, min(r, c)))
    left = Matrix.from_rows(
        draw(st.lists(st.lists(sparse_fracs, min_size=k, max_size=k), min_size=r, max_size=r))
    ) if k else Matrix.zero(r, 0)
    right = Matrix.from_rows(
        draw(st.lists(entries, min_size=k, max_size=k))
    ) if k else Matrix.zero(0, c)
    return left @ right


def _to_sympy(sp, A: Matrix):
    return sp.Matrix(A.rows, A.cols, lambda i, j: sp.Rational(A[i, j].numerator, A[i, j].denominator))


def _from_sympy(x) -> Fraction:
    return Q(int(x.p), int(x.q))


def _sympy_nullspace(sp, A: Matrix) -> list:
    """sympy's nullspace, read off its own rref: one vector per free column
    with a 1 there, the same reduced form the kernel's columns must have."""
    return [tuple(_from_sympy(x) for x in v) for v in _to_sympy(sp, A).nullspace()]


@given(deficient_matrix())
@settings(max_examples=80, deadline=None)
def test_rref_matches_sympy(A):
    sp = pytest.importorskip("sympy")
    red = RowReduction(A)
    want, pivots = _to_sympy(sp, A).rref()
    assert red.pivots == list(pivots) == pivot_columns(A)
    assert red.rank == len(pivots) == rank(A)
    assert image_rank(A) == (len(pivots), A.take(pivots))
    for i in range(A.rows):
        got = [red.R[i].get(j, Q(0)) for j in range(A.cols)]
        assert got == [_from_sympy(x) for x in want.row(i)]


@given(deficient_matrix())
@settings(max_examples=80, deadline=None)
def test_kernel_spans_sympy_nullspace(A):
    sp = pytest.importorskip("sympy")
    K = kernel_basis(A)
    assert K == _sympy_nullspace(sp, A)
    null = _to_sympy(sp, A).nullspace()
    assert len(K) == len(null)
    if K:
        ours = _to_sympy(sp, Matrix.from_columns(K))
        assert ours.rank() == len(K)
        assert ours.row_join(sp.Matrix.hstack(*null)).rank() == len(K)


@given(deficient_matrix(), st.lists(sparse_fracs, min_size=6, max_size=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_subspace_coords_match_solve(B, xs, in_span):
    """Columns of B form a (possibly dependent) family; the target lies in
    their span or is arbitrary.  Coordinates are zero at members that depend
    on earlier ones, and the others solve the pivot-column system exactly."""
    sp = pytest.importorskip("sympy")
    family = B.columns()
    target = B @ vec(xs[: B.cols]) if in_span else vec(xs[: B.rows])
    got = Subspace(B).coords(target)
    assert got == solve_affine(Matrix.from_columns(family), target)
    assert got == express_in_span(family, target)
    SB = _to_sympy(sp, B)
    St = sp.Matrix([[sp.Rational(t.numerator, t.denominator)] for t in target])
    if SB.row_join(St).rank() > SB.rank():
        assert got is None
        return
    _, pivots = SB.rref()
    assert all(got[j] == 0 for j in range(B.cols) if j not in pivots)
    x = SB.extract(list(range(B.rows)), list(pivots)).solve(St) if pivots else []
    assert [got[j] for j in pivots] == [_from_sympy(v) for v in x]


def test_subspace_rejects_length_mismatch():
    span = Subspace(Matrix.from_columns([vec([1, 0, 0])]))
    with pytest.raises(ShapeError):
        span.coords(vec([1, 0]))
    with pytest.raises(ShapeError):
        span.restrict(Matrix.zero(2, 1))


@st.composite
def block_family(draw):
    """A random matrix and its rows cut into consecutive blocks, empty ones included."""
    A = draw(deficient_matrix())
    cuts = sorted(draw(st.lists(st.integers(0, A.rows), max_size=3)))
    bounds = [0] + cuts + [A.rows]
    blocks = [
        Matrix(hi - lo, A.cols, {(i - lo, j): v for (i, j), v in A.entries.items() if lo <= i < hi})
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return A, blocks


@given(block_family())
@settings(max_examples=80, deadline=None)
def test_joint_kernel_is_kernel_of_stack(family):
    sp = pytest.importorskip("sympy")
    A, blocks = family
    K = joint_kernel(blocks, A.cols)
    assert K.columns() == kernel_basis(A) == _sympy_nullspace(sp, A)
    null = _to_sympy(sp, A).nullspace()
    assert K.cols == len(null)
    if K.cols:
        ours = _to_sympy(sp, K)
        assert ours.row_join(sp.Matrix.hstack(*null)).rank() == K.cols


def test_joint_kernel_empty_family_and_width_mismatch():
    assert joint_kernel([], 3) == Matrix.identity(3)
    assert joint_kernel([], 0) == Matrix.zero(0, 0)
    with pytest.raises(ShapeError):
        joint_kernel([Matrix.identity(2), Matrix.identity(1)], 2)


class _OnePass:
    """A stream of copies of integer rows that counts how often it is iterated."""

    def __init__(self, rows):
        self.rows, self.passes = rows, 0

    def __iter__(self):
        self.passes += 1
        return (dict(row) for row in self.rows)


def _rows_matrix(rows: list, cols: int) -> Matrix:
    return Matrix(len(rows), cols, {(i, j): v for i, row in enumerate(rows) for j, v in row.items()})


def _check_row_kernel(rows: list, cols: int, sp=None) -> Matrix:
    """row_kernel of the rows, read once, equals the kernel of their stack
    (and sympy's nullspace when sp is given)."""
    stream = _OnePass(rows)
    K = row_kernel(stream, cols)
    A = _rows_matrix(rows, cols)
    assert stream.passes == 1
    assert K == RowReduction(A).kernel()
    assert (K.rows, K.cols) == (cols, cols - rank(A))
    if sp is not None and rows:
        assert K.columns() == _sympy_nullspace(sp, A)
    return K


@pytest.mark.parametrize("rows, cols, kernel", [
    # a cascade four levels deep: {4: 7} kills 4, then 3, 2 and 1 die in turn
    ([{1: 1, 2: 1}, {2: 5, 3: -1}, {0: 1, 1: 1, 5: 1}, {3: 2, 4: 3}, {4: 7}], 6,
     [(-1, 0, 0, 0, 0, 1)]),
    # negative and repeated singletons
    ([{1: -3}, {2: 5, 1: 4}, {1: -3}, {1: 7}, {0: 2, 1: 1, 2: 2}], 3, []),
    ([{3: -1}, {3: -1}, {0: 1, 2: -2, 3: 4}], 4, [(0, 1, 0, 0), (2, 0, 1, 0)]),
    # rows emptied by the cut, a singleton after the row it empties
    ([{0: 1, 1: 4}, {0: 2}, {1: -1}, {0: 3, 1: 1}, {2: 1, 3: -1}], 4, [(0, 0, 1, 1)]),
    # every column dead: a cols x 0 kernel
    ([{0: 1, 2: 1}, {2: -2}, {1: 3, 0: 1}], 3, []),
    # an empty stream leaves the unit basis; no columns at all
    ([], 3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
    ([], 0, []),
])
def test_row_kernel_presolve_cases(rows, cols, kernel):
    sp = pytest.importorskip("sympy")
    K = _check_row_kernel(rows, cols, sp)
    assert K.columns() == [vec(v) for v in kernel]
    assert K.rows == cols


sparse_int_row = st.dictionaries(st.integers(0, 6), st.integers(-4, 4).filter(bool), max_size=3)


@given(st.integers(1, 7).flatmap(
    lambda c: st.tuples(st.lists(sparse_int_row.map(lambda r: {j % c: v for j, v in r.items()}),
                                 max_size=9), st.just(c))))
@settings(max_examples=150, deadline=None)
def test_row_kernel_random_sparse_streams(case):
    """Sparse integer rows, many with one entry, so that cascades, repeated
    singletons and rows emptied by the cut come up often."""
    sp = pytest.importorskip("sympy")
    rows, cols = case
    _check_row_kernel(rows, cols, sp)


def test_row_kernel_on_the_tensor_stream():
    """The L rows of W⊗M for su2xsu2 exterior N=4, at every degree: the
    presolved kernel is the kernel of the whole stacked stream."""
    from koszul.complexes import Truncation
    from koszul.lie import builtin_algebra
    from koszul.modules import exterior_model, tensor_module
    from koszul.weil import weil_model

    M = exterior_model(builtin_algebra("su2xsu2"))
    W = weil_model(M.g, Truncation(5))
    WM = tensor_module(W, M, max_total=5)
    degrees = WM.complex.usable_degrees(1)
    assert list(degrees) == [0, 1, 2, 3, 4]
    for deg in degrees:
        _check_row_kernel([row for L in WM.L_ops for row in L.rows(deg)], WM.space.dim(deg))


@given(deficient_matrix(), st.lists(st.lists(sparse_fracs, min_size=6, max_size=6), max_size=4),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_subspace_restrict_matches_coords(B, coefficients, in_span):
    span = Subspace(B)
    images = [B @ vec(xs[: B.cols]) if in_span else vec(xs[: B.rows]) for xs in coefficients]
    coords = [span.coords(v) for v in images]
    got = span.restrict(Matrix.from_columns(images, nrows=B.rows))
    if any(c is None for c in coords):
        assert got is None
    else:
        assert got == Matrix.from_columns(coords, nrows=B.cols)


def test_subspace_restrict_stops_at_first_escape(monkeypatch):
    span = Subspace(Matrix.from_columns([vec([1, 0, 0]), vec([0, 1, 0])]))
    reduced = []
    reduce = linalg._reduce

    def counting_reduce(pivots, row, comb):
        reduced.append(dict(row))
        return reduce(pivots, row, comb)

    monkeypatch.setattr(linalg, "_reduce", counting_reduce)
    images = Matrix.from_columns([vec([2, 3, 0]), vec([0, 0, 1]), vec([0, 1, 0])])
    assert span.restrict(images) is None
    assert len(reduced) == 2  # the column after the escaping one is not reduced
    monkeypatch.undo()
    inside = Matrix.from_columns([vec([2, 3, 0]), vec([0, 1, 0])])
    assert span.restrict(inside) == Matrix.from_rows([[2, 0], [3, 1]])
    assert Subspace(Matrix.zero(0, 0)).restrict(Matrix.zero(0, 0)) == Matrix.zero(0, 0)


# -- the same oracles on entries with large coprime denominators ---------------
# The engine keeps integer rows scaled by the lcm of their denominators; these
# entries make that lcm, and every cross-multiplication, large.

LARGE_DENOMINATORS = (10007, 65537, 2**61 - 1)

large_fracs = st.one_of(
    st.just(Q(0)),
    st.builds(Q, st.integers(-(10**6), 10**6), st.sampled_from((1,) + LARGE_DENOMINATORS)),
)


@st.composite
def large_denominator_matrix(draw, max_dim=6):
    """A random r x c matrix of large_fracs, or a product of r x k and k x c."""
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))

    def block(rows, cols):
        return Matrix.from_rows(draw(st.lists(
            st.lists(large_fracs, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))

    if draw(st.booleans()):
        return block(r, c)
    k = draw(st.integers(1, min(r, c)))
    return block(r, k) @ block(k, c)


@given(large_denominator_matrix())
@settings(max_examples=60, deadline=None)
def test_rref_matches_sympy_large_denominators(A):
    test_rref_matches_sympy.hypothesis.inner_test(A)


@given(large_denominator_matrix())
@settings(max_examples=60, deadline=None)
def test_kernel_spans_sympy_nullspace_large_denominators(A):
    test_kernel_spans_sympy_nullspace.hypothesis.inner_test(A)


@given(large_denominator_matrix(), st.lists(large_fracs, min_size=6, max_size=6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_subspace_coords_match_solve_large_denominators(B, xs, in_span):
    test_subspace_coords_match_solve.hypothesis.inner_test(B, xs, in_span)


@given(large_denominator_matrix(),
       st.lists(st.lists(large_fracs, min_size=6, max_size=6), max_size=4), st.booleans())
@settings(max_examples=40, deadline=None)
def test_subspace_restrict_matches_coords_large_denominators(B, coefficients, in_span):
    test_subspace_restrict_matches_coords.hypothesis.inner_test(B, coefficients, in_span)


def test_dense_rational_rref_matches_sympy():
    """A dense 30 x 35 matrix of p/q entries: coefficient growth over a
    full elimination, against sympy's rref."""
    rng = random.Random(30)
    A = Matrix.from_rows(
        [[Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(35)] for _ in range(30)]
    )
    test_rref_matches_sympy.hypothesis.inner_test(A)
    test_kernel_spans_sympy_nullspace.hypothesis.inner_test(A)


# -- read-out type: every rational the engine hands out is a Fraction ----------

def _all_fractions(values) -> bool:
    return all(type(x) is Fraction for x in values)


int_rows = st.integers(1, 5).flatmap(lambda c: st.lists(
    st.lists(st.integers(-3, 3), min_size=c, max_size=c), min_size=1, max_size=5))


@given(int_rows, st.lists(st.integers(-3, 3), min_size=5, max_size=5))
@settings(max_examples=40, deadline=None)
def test_read_out_values_are_fractions(rows, xs):
    """Integer inputs come back as Fractions, never ints: qstr, the JSON
    reports and the golden values downstream rely on the type."""
    A = Matrix.from_rows(rows)
    assert all(_all_fractions(row.values()) for row in RowReduction(A).R)
    assert all(_all_fractions(v) for v in kernel_basis(A))
    b = [sum(a * x for a, x in zip(row, xs)) for row in rows]
    assert _all_fractions(solve_affine(A, b))
    family = [list(col) for col in zip(*rows)]
    assert _all_fractions(Subspace(A).coords(b))
    assert _all_fractions(express_in_span(family, b))
    assert all(_all_fractions(v) for v in complement_basis(Matrix.zero(A.rows, 0), A).columns())


# -- integer-native blocks: dense Fraction references as the oracle -------------
# A Matrix stores integer numerators over one positive denominator in lowest
# terms; every operation accumulates numerators over one denominator per
# output block.  Integral and large-denominator blocks mix.

integral_entries = st.integers(-9, 9).map(Q)


def _stored_canonically(m: Matrix) -> bool:
    """Every stored numerator a nonzero int, the denominator a positive int,
    and gcd(den, *num) == 1: the lowest-terms form that == and hash rely on."""
    return (type(m.den) is int and m.den > 0
            and all(type(v) is int and v for v in m.num.values())
            and gcd(m.den, *m.num.values()) == 1)


@st.composite
def mixed_block(draw, rows, cols):
    entry = draw(st.sampled_from((integral_entries, large_fracs)))
    values = draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, {(i, j): values[i * cols + j]
                               for i in range(rows) for j in range(cols)})


def _dense_product(A: Matrix, B: Matrix) -> list:
    return [[sum((A[i, k] * B[k, j] for k in range(A.cols)), Q(0)) for j in range(B.cols)]
            for i in range(A.rows)]


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_matmul_matches_dense_product(data):
    r, k, c = (data.draw(st.integers(0, 6)) for _ in range(3))
    A, B = data.draw(mixed_block(r, k)), data.draw(mixed_block(k, c))
    P = A @ B
    assert (P.rows, P.cols) == (r, c)
    assert P.dense() == _dense_product(A, B)
    assert _stored_canonically(P)
    # the product of three, either way round: read-outs feed the next product
    C = data.draw(mixed_block(c, 3))
    assert (P @ C) == A @ (B @ C)


def test_matmul_exact_cancellation_reads_out_nothing():
    p, q = LARGE_DENOMINATORS[0], LARGE_DENOMINATORS[2]
    A = Matrix.from_rows([[Q(1, p), Q(1, q)], [Q(3), Q(5, q)]])
    B = Matrix.from_rows([[Q(1, q)], [Q(-1, p)]])
    P = A @ B
    assert P.entries.keys() == {(1, 0)}
    assert P[1, 0] == Q(3, q) - Q(5, p * q)
    assert _stored_canonically(P)
    zero = Matrix.from_rows([[Q(1, p), Q(1, q)]]) @ B
    assert zero.is_zero() and zero.den == 1 and _stored_canonically(zero)


def test_matmul_of_integer_matrices_reads_out_fractions():
    P = Matrix.from_rows([[1, 2], [0, -1]]) @ Matrix.from_rows([[2, 0], [1, 0]])
    assert P.entries == {(0, 0): Q(4), (1, 0): Q(-1)}
    assert all(type(v) is Fraction for v in P.entries.values())
    assert (P.num, P.den) == ({(0, 0): 4, (1, 0): -1}, 1)
    assert _stored_canonically(P)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_sum_scale_transpose_apply_match_dense_references(data):
    r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    A, B = data.draw(mixed_block(r, c)), data.draw(mixed_block(r, c))
    k = data.draw(st.one_of(integral_entries, large_fracs))
    v = data.draw(st.lists(st.one_of(integral_entries, large_fracs), min_size=c, max_size=c))
    dA, dB = A.dense(), B.dense()
    assert _stored_canonically(A) and _stored_canonically(B)
    S, D, K, T = A + B, A - B, A.scale(k), A.transpose()
    assert S.dense() == [[x + y for x, y in zip(a, b)] for a, b in zip(dA, dB)]
    assert D.dense() == [[x - y for x, y in zip(a, b)] for a, b in zip(dA, dB)]
    assert K.dense() == [[k * x for x in a] for a in dA]
    assert T.dense() == [[dA[i][j] for i in range(r)] for j in range(c)]
    assert all(_stored_canonically(m) for m in (S, D, K, T))
    assert A.apply(v) == tuple(sum((x * y for x, y in zip(a, v)), Q(0)) for a in dA)
    assert all(type(x) is Fraction for x in A.apply(v))


def test_public_constructor_stores_lowest_terms():
    p, q = LARGE_DENOMINATORS[0], LARGE_DENOMINATORS[1]
    A = Matrix(2, 2, {(0, 0): Q(1, p), (0, 1): 2, (1, 1): Q(3, p * q), (1, 0): 0})
    assert A.den == p * q and A.num == {(0, 0): q, (0, 1): 2 * p * q, (1, 1): 3}
    assert _stored_canonically(A)
    assert Matrix(1, 2, [((0, 0), "1/2"), ((0, 1), 0.25)]).num == {(0, 0): 2, (0, 1): 1}
    assert (Matrix.identity(3).den, Matrix.zero(2, 3).den) == (1, 1)
    with pytest.raises(ShapeError):
        Matrix(2, 2, {(2, 0): Q(1, p)})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_equal_blocks_by_different_routes_compare_and_hash_equal(data):
    """The lowest-terms form is canonical: one rational block reached by the
    public constructor, a scaling there and back, a product with the identity
    and a lift against the identity factor stores the same (den, num)."""
    r, c = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    A = data.draw(mixed_block(r, c))
    S = GradedSpace({0: tuple(f"s{i}" for i in range(c)), 1: tuple(f"t{i}" for i in range(r))})
    one = GradedSpace({0: ("1",)})
    lifted = TensorSpace(S, one, 1).lift(LinMap(S, S, 1, {0: A}), None).block(0)
    routes = [Matrix(r, c, dict(A.entries)), A.scale(3).scale(Q(1, 3)),
              Matrix.identity(r) @ A, A @ Matrix.identity(c), lifted,
              A.scale(Q(7, LARGE_DENOMINATORS[2])).scale(Q(LARGE_DENOMINATORS[2], 7))]
    for m in routes:
        assert _stored_canonically(m)
        assert (m.rows, m.cols, m.den, m.num) == (A.rows, A.cols, A.den, A.num)
        assert m == A and hash(m) == hash(A)


def test_operations_build_no_fraction(monkeypatch):
    """@, +, scale, transpose, lift_sum, combination, joint_kernel and the
    elimination run on ints: no Fraction is built before a read-out."""
    p, q = LARGE_DENOMINATORS[:2]
    A = Matrix.from_rows([[Q(1, p), 2, 0], [0, Q(3, q), Q(-1, 7)], [1, 1, Q(5, 3)]])
    S = GradedSpace({0: ("a", "b", "c")})
    op, half = LinMap(S, S, 0, {0: A}), Q(1, 2)
    ts = TensorSpace(S, S, 0)
    built = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(RowReduction, "kernel", lambda red: [])  # the read-out
    P = A @ A + A.scale(half) - A.transpose()
    ts.lift_sum([(op, op), (op, None)], 0)
    LinMap.combination([(half, op), (3, op)])
    joint_kernel([A, P], 3)
    RowReduction(P)
    assert built == []
    monkeypatch.undo()
    assert P[0, 0] == Q(1, p * p) + Q(1, 2 * p) - Q(1, p)
