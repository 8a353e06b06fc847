import random
import re
import tracemalloc
from fractions import Fraction
from itertools import chain
from math import factorial, gcd
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from koszul import linalg
from koszul.complexes import (
    ChainMap,
    CohomologyReport,
    Complex,
    DiagonalSum,
    GradedSpace,
    LiftedSum,
    LinMap,
    SubcomplexError,
    TensorSpace,
    Truncation,
    WindowError,
    check_chain_map,
    cohomology,
    cohomology_classes,
    cohomology_representatives,
    first_defect,
    induced_map,
    quasi_iso_check,
    subcomplex,
)
from koszul.cli import resolve_algebra, resolve_module
from koszul.equivariant import cartan_model, invariant_subcomplex
from koszul.lie import BUILTIN_NAMES
from koszul.linalg import Matrix, ShapeError, joint_kernel, kernel_basis, row_kernel, solve_affine, vec, vstack
from koszul.modules import exterior_model, lambda_monomials, tensor_module, trivial_module
from koszul.weil import weil_model


def two_term_complex():
    """0 -> Q -> Q -> 0 with identity differential."""
    space = GradedSpace({0: ("a",), 1: ("b",)})
    d = LinMap(space, space, 1, {0: Matrix.identity(1)})
    return Complex(space, d)


def test_cohomology_of_acyclic_two_term():
    rep = cohomology(two_term_complex(), Truncation(3))
    assert rep.betti == {0: 0, 1: 0, 2: 0}
    assert rep.representatives[0] == []


def test_d_squared_enforced():
    space = GradedSpace({0: ("a",), 1: ("b",), 2: ("c",)})
    d = LinMap(space, space, 1, {0: Matrix.identity(1), 1: Matrix.identity(1)})
    with pytest.raises(ValueError):
        Complex(space, d)


def test_identity_chain_map_passes():
    C = two_term_complex()
    f = ChainMap(C, C, LinMap.identity(C.space))
    assert check_chain_map(f).ok


def test_zero_chain_map_passes():
    C = two_term_complex()
    f = ChainMap(C, C, LinMap.zero(C.space, C.space, 0))
    assert check_chain_map(f).ok


def test_chain_map_defect_witnessed():
    space = GradedSpace({0: ("a",), 1: ("b",)})
    C = Complex(space, LinMap(space, space, 1, {0: Matrix.identity(1)}))
    D = Complex(space, LinMap.zero(space, space, 1))
    bad = ChainMap(C, D, LinMap.identity(space))
    rep = check_chain_map(bad)
    assert not rep.ok
    deg, label, defect = rep.witness
    assert (deg, label) == (0, "a")
    assert any(defect)


def test_quasi_iso_identity():
    C = two_term_complex()
    f = ChainMap(C, C, LinMap.identity(C.space))
    assert quasi_iso_check(f, Truncation(2)).ok


def test_quasi_iso_detects_failure_in_degree_zero():
    # Q (in degree 0, d = 0) -> 0 has nonzero H^0 on the source only
    src_space = GradedSpace({0: ("x",)})
    src = Complex(src_space, LinMap.zero(src_space, src_space, 1))
    tgt_space = GradedSpace({}, lo=0, hi=1)
    tgt = Complex(tgt_space, LinMap.zero(tgt_space, tgt_space, 1))
    f = ChainMap(src, tgt, LinMap.zero(src_space, tgt_space, 0))
    rep = quasi_iso_check(f, Truncation(1))
    assert not rep.ok
    assert rep.degrees[0]["source_betti"] == 1
    assert rep.degrees[0]["target_betti"] == 0


def test_betti_invariant_under_basis_permutation():
    # three-term complex with a rank-1 differential, shuffled basis
    rng = random.Random(7)
    space = GradedSpace({0: ("a", "b"), 1: ("c", "d"), 2: ("e",)})
    d0 = Matrix.from_rows([[1, 1], [0, 0]])
    d1 = Matrix.from_rows([[0, 1]])
    C = Complex(space, LinMap(space, space, 1, {0: d0, 1: d1}))
    base = cohomology(C, Truncation(3)).betti

    perm0 = [1, 0]
    P0 = Matrix(2, 2, {(i, perm0[i]): 1 for i in range(2)})
    space_p = GradedSpace({0: ("b", "a"), 1: ("c", "d"), 2: ("e",)})
    Cp = Complex(space_p, LinMap(space_p, space_p, 1, {0: d0 @ P0, 1: d1}))
    assert cohomology(Cp, Truncation(3)).betti == base


def test_cohomology_report_roundtrip():
    rep = cohomology(two_term_complex(), Truncation(2))
    again = CohomologyReport.from_dict(rep.to_dict())
    assert again.to_dict() == rep.to_dict()
    assert rep.to_json() == again.to_json()


def test_truncated_top_degree_uncertified():
    space = GradedSpace({0: ("a",), 1: ("b",), 2: ("c",)})
    C = Complex(space, LinMap.zero(space, space, 1), complete=False)
    rep = cohomology(C, Truncation(2))
    assert rep.betti == {0: 1, 1: 1}
    assert rep.uncertified == {2: 1}


def test_window_too_small_rejected():
    space = GradedSpace({0: ("a",)}, hi=1)
    C = Complex(space, LinMap.zero(space, space, 1), complete=False)
    from koszul.complexes import WindowError

    with pytest.raises(WindowError):
        cohomology(C, Truncation(5))


def test_subcomplex_induced_differential():
    space = GradedSpace({0: ("a", "b"), 1: ("c", "d")})
    d = LinMap(space, space, 1, {0: Matrix.from_rows([[1, 0], [0, 0]])})
    C = Complex(space, d)
    sub, incl = subcomplex(C, {0: Matrix.from_columns([vec([1, 0])]),
                               1: Matrix.from_columns([vec([1, 0]), vec([0, 1])])})
    assert sub.space.dim(0) == 1 and sub.space.dim(1) == 2
    assert check_chain_map(incl).ok
    assert sub.d.block(0).column(0) == vec([1, 0])


def test_subcomplex_rejects_unclosed_subspace():
    space = GradedSpace({0: ("a",), 1: ("c", "d")})
    d = LinMap(space, space, 1, {0: Matrix.from_rows([[1], [0]])})
    C = Complex(space, d)
    with pytest.raises(SubcomplexError, match=r"^operator image leaves the subcomplex v at degree 0$"):
        subcomplex(C, {0: Matrix.from_columns([vec([1])]), 1: Matrix.from_columns([vec([0, 1])])})


def test_combination_rejects_mismatched_shapes():
    small = GradedSpace({0: ("a",), 1: ("b",)})
    large = GradedSpace({0: ("a",), 1: ("b", "c")})
    f = LinMap(small, small, 1, {0: Matrix.identity(1)})
    g = LinMap(large, large, 1, {0: Matrix.from_rows([[1], [0]])})
    zero = LinMap.zero(large, large, 1)
    for bad in ((f, g), (g, f), (f, zero), (zero, f)):
        with pytest.raises(ShapeError):
            bad[0].add(bad[1])
    with pytest.raises(ShapeError):
        LinMap.combination([(1, f), (2, f), (-1, g)])
    with pytest.raises(ShapeError):
        f.sub(LinMap.zero(small, small, 0))
    assert f.sub(f).blocks == {}


# ---------------------------------------------------------------------------
# TensorSpace.lift against a dense Kronecker product
# ---------------------------------------------------------------------------


def _draw_space(data, name):
    dims = data.draw(st.dictionaries(st.integers(-1, 3), st.integers(0, 2), max_size=4))
    return GradedSpace({d: tuple(f"{name}{d}_{i}" for i in range(k)) for d, k in dims.items()})


def _draw_full_space(data, name):
    """A space with 1 or 2 basis vectors in each of 2 or 3 consecutive
    degrees from -1, 0 or 1 on: the lifted sums on it are rarely empty."""
    lo = data.draw(st.integers(-1, 1))
    dims = data.draw(st.lists(st.integers(1, 2), min_size=2, max_size=3))
    return GradedSpace({lo + i: tuple(f"{name}{lo + i}_{k}" for k in range(n)) for i, n in enumerate(dims)})


SMALL_ENTRIES = (st.fractions(min_value=-3, max_value=3, max_denominator=3),)
# integral blocks beside blocks with large coprime denominators, whose lcm and
# every product of numerators grow large in the integer kernel
LARGE_DENOMINATORS = (10007, 65537, 2**61 - 1)
MIXED_ENTRIES = (
    st.integers(-9, 9).map(Fraction),
    st.one_of(st.just(Fraction(0)), st.builds(
        Fraction, st.integers(-(10**6), 10**6), st.sampled_from((1,) + LARGE_DENOMINATORS))),
)


def _draw_op(data, space, shift=None, entries=SMALL_ENTRIES):
    """A random rational map of the given shift (random when None), or None (the
    identity) when the shift allows it.  Each block draws its entries from one
    of the `entries` strategies."""
    if not shift and data.draw(st.booleans()):
        return None
    if shift is None:
        shift = data.draw(st.integers(-2, 2))
    blocks = {}
    for d in space.degrees():
        rows, cols = space.dim(d + shift), space.dim(d)
        if rows:
            entry = data.draw(st.sampled_from(entries))
            values = data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
            blocks[d] = Matrix(rows, cols, {(i, j): values[i * cols + j]
                                            for i in range(rows) for j in range(cols)})
    return LinMap(space, space, shift, blocks)


def _dense_factor(op, space, d):
    """Dense block of op at degree d, the identity standing in for None."""
    if op is None:
        return Matrix.identity(space.dim(d)).dense()
    return op.block(d).dense()


def _offset(A, B, t, q):
    """Where the (A^q ⊗ B^(t-q)) stratum starts: after all strata of lower A-degree."""
    return sum(A.dim(p) * B.dim(t - p) for p in range(A.lo, q))


def _kronecker_sum(A, B, top, terms, shift):
    """Dense blocks {t: rows} of the sum of signed Kronecker products opA ⊗ opB."""
    lo = A.lo + B.lo

    def size(t):
        return sum(A.dim(q) * B.dim(t - q) for q in range(A.lo, A.hi + 1)) if lo <= t <= top else 0

    blocks = {}
    for t in range(lo, top + 1):
        u = t + shift
        expected = [[Fraction(0)] * size(t) for _ in range(size(u))]
        for opA, opB in terms:
            sA = 0 if opA is None else opA.shift
            sB = 0 if opB is None else opB.shift
            for q in range(A.lo, A.hi + 1):
                r = t - q
                if not A.dim(q) * B.dim(r) or not size(u):
                    continue
                FA, FB = _dense_factor(opA, A, q), _dense_factor(opB, B, r)
                sign = -1 if sB * q % 2 else 1
                row0, col0 = _offset(A, B, u, q + sA), _offset(A, B, t, q)
                nB_src, nB_tgt = B.dim(r), B.dim(r + sB)
                for ra, fa in enumerate(FA):
                    for a, va in enumerate(fa):
                        for rb, fb in enumerate(FB):
                            for b, vb in enumerate(fb):
                                expected[row0 + ra * nB_tgt + rb][col0 + a * nB_src + b] += sign * va * vb
        blocks[t] = expected
    return blocks


def _negated(op, space):
    return (LinMap.identity(space) if op is None else op).scale(-1)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_lift_matches_signed_kronecker_product(data):
    A, B = _draw_full_space(data, "a"), _draw_full_space(data, "b")
    opA, opB = _draw_op(data, A), _draw_op(data, B)
    lo = A.lo + B.lo
    top = data.draw(st.integers(lo, A.hi + B.hi))
    ts = TensorSpace(A, B, top)
    lifted = ts.lift(opA, opB)
    sA = 0 if opA is None else opA.shift
    sB = 0 if opB is None else opB.shift
    assert lifted.shift == sA + sB
    for t, expected in _kronecker_sum(A, B, top, [(opA, opB)], sA + sB).items():
        assert ts.dim(t) == sum(A.dim(q) * B.dim(t - q) for q in A.degrees())
        assert lifted.block(t).dense() == expected

    # a random list of terms of one total shift, summed in one pass
    shift = data.draw(st.integers(-2, 2))
    terms = []
    for _ in range(data.draw(st.integers(0, 3))):
        sA = data.draw(st.integers(-2, 2))
        terms.append((_draw_op(data, A, sA), _draw_op(data, B, shift - sA)))
    summed = ts.lift_sum(terms, shift)
    assert summed.shift == shift
    for t, expected in _kronecker_sum(A, B, top, terms, shift).items():
        assert summed.block(t).dense() == expected
    if not terms:
        assert not summed.blocks

    # an exactly cancelling pair changes nothing: no stored zero, no empty block
    if terms:
        fA, fB = terms[0]
        cancelled = ts.lift_sum([(fA, fB), (fA, _negated(fB, B))], shift)
        assert not cancelled.blocks
        padded = ts.lift_sum(terms + [(fA, _negated(fB, B)), (fA, fB)], shift)
        assert padded.equal_on(summed, ts.degrees())
        assert set(padded.blocks) == set(summed.blocks)
        assert _stored_canonically(padded)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_position_and_embed_match_the_entries(data):
    """position(q, a, r, b) is the index of entry(q + r, i) = (q, a, r, b) and
    raises WindowError, naming the degrees, for a stratum outside the window;
    embed(X, deg, left) is the dense X⊗e₀ (left) or e₀⊗X in its stratum."""
    A, B = _draw_full_space(data, "a"), _draw_full_space(data, "b")
    lo = data.draw(st.integers(A.lo + B.lo, A.hi + B.hi))
    top = data.draw(st.integers(lo, A.hi + B.hi))
    ts = TensorSpace(A, B, top, lo)
    for t in ts.degrees():
        assert [ts.position(*ts.entry(t, i)) for i in range(ts.dim(t))] == list(range(ts.dim(t)))
    for q in range(A.lo - 1, A.hi + 2):
        for r in range(B.lo - 1, B.hi + 2):
            if not (lo <= q + r <= top and A.dim(q) and B.dim(r)):
                with pytest.raises(WindowError, match=f"A\\^{q}⊗B\\^{r} "):
                    ts.position(q, 0, r, 0)

    left = data.draw(st.booleans())
    F, G = (A, B) if left else (B, A)  # X lives in F, e₀ in G^0
    deg = data.draw(st.sampled_from(F.degrees()))
    cols = data.draw(st.integers(1, 3))
    values = data.draw(st.lists(SMALL_ENTRIES[0].filter(bool), min_size=F.dim(deg) * cols,
                                max_size=F.dim(deg) * cols))
    X = Matrix(F.dim(deg), cols, {(i, j): values[i * cols + j]
                                  for i in range(F.dim(deg)) for j in range(cols)})
    if not (lo <= deg <= top and G.dim(0)):
        with pytest.raises(WindowError):
            ts.embed(X, deg, left)
        return
    e0 = [[Fraction(int(i == 0))] for i in range(G.dim(0))]
    factors = (X.dense(), e0) if left else (e0, X.dense())
    kron = [[x * y for x in row_x for y in row_y] for row_x in factors[0] for row_y in factors[1]]
    start = _offset(A, B, deg, deg if left else 0)
    want = [[Fraction(0)] * cols for _ in range(ts.dim(deg))]
    want[start:start + len(kron)] = kron
    assert ts.embed(X, deg, left).dense() == want


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_entry_is_the_inverse_of_position(data):
    """entry(t, i) is the i-th (q, a, r, b) of degree t, ordered by q, then
    a, then b, and position undoes it, on the product and on a cut of it;
    an index outside the degree raises."""
    A, B = _draw_full_space(data, "a"), _draw_full_space(data, "b")
    lo = data.draw(st.integers(A.lo + B.lo, A.hi + B.hi))
    top = data.draw(st.integers(lo, A.hi + B.hi))
    ts = TensorSpace(A, B, top, lo)
    cut = ts.truncated(data.draw(st.integers(lo, top)))
    for space in (ts, cut):
        for t in range(lo - 1, top + 2):
            oracle = [(q, a, t - q, b) for q in A.degrees() if B.dim(t - q) and lo <= t <= space.hi
                      for a in range(A.dim(q)) for b in range(B.dim(t - q))]
            assert space.dim(t) == len(oracle)
            for i, e in enumerate(oracle):
                assert space.entry(t, i) == e
                assert space.position(*e) == i
            for i in (-1, len(oracle)):
                with pytest.raises(IndexError):
                    space.entry(t, i)


def test_tensor_space_holds_no_table_per_basis_vector():
    """The product basis of heavy's W⊗Λ(su2xsu2)* to degree 7 (19 825
    vectors) is held as stratum starts: building it keeps at most 16 kB,
    where one (q, a, r, b) tuple per vector kept about 1.5 MB."""
    g = resolve_algebra("su2xsu2")
    W, M = weil_model(g, Truncation(7)), exterior_model(g)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ts = TensorSpace(W.space, M.space, 7)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert ts.total_dim() == 19825
    assert held <= 16 * 1024, held


# ---------------------------------------------------------------------------
# The rows of opA⊗1 + 1⊗opB, read straight from the factor blocks, against
# the rows of the stacked lifted blocks
# ---------------------------------------------------------------------------


def _primitive_rows(rows):
    """Each nonzero integer row divided by its content gcd, in order."""
    return [{c: v // gcd(*row.values()) for c, v in row.items()} for row in rows if row]


def _stacked_rows(blocks, width):
    """The rows of the stacked blocks, top to bottom, as integer dicts."""
    S = vstack(blocks, width)
    rows = [{} for _ in range(S.rows)]
    for (i, j), v in S.num.items():
        rows[i][j] = v
    return rows


def _draw_factor(data, space):
    """A random degree-0 map with rational entries, some of its blocks dropped."""
    op = _draw_op(data, space, 0, MIXED_ENTRIES) or LinMap.identity(space)
    kept = [d for d in op.blocks if data.draw(st.booleans())]
    return LinMap(space, space, 0, {d: op.blocks[d] for d in kept})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_diagonal_rows_match_stacked_lift_random(data):
    A, B = _draw_full_space(data, "a"), _draw_full_space(data, "b")
    top = data.draw(st.integers(A.lo + B.lo, A.hi + B.hi))
    ts = TensorSpace(A, B, top)
    pairs = [(_draw_factor(data, A), _draw_factor(data, B)) for _ in range(data.draw(st.integers(0, 3)))]
    # (opA + c, -c): the diagonal entries cancel, leaving the rows of opA⊗1
    if pairs and data.draw(st.booleans()):
        c = data.draw(COEFFICIENTS)
        pairs.append((pairs[0][0].add(LinMap.identity(A).scale(c)), LinMap.identity(B).scale(-c)))
    cut = data.draw(st.one_of(st.none(), st.integers(ts.lo - 1, top)))
    lifted = [ts.lift_sum([(fA, None), (None, fB)], 0, cut) for fA, fB in pairs]
    sums = [DiagonalSum(ts, fA, fB, cut) for fA, fB in pairs]
    for t in ts.degrees():
        got = [row for L in sums for row in L.rows(t)]
        want = _stacked_rows([L.block(t) for L in lifted], ts.dim(t))
        assert all(got) and all(type(v) is int and v for row in got for v in row.values())
        assert _primitive_rows(got) == _primitive_rows(want)


SPARSE_VALUES = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 7)])


def _draw_sparse_factor(data, space, c=0, bare=None):
    """A random degree-0 map on space, most entries zero and some of them
    rational, plus c on the diagonal; each block is dropped at random when
    c is 0, and there is none at degree bare."""
    blocks = {}
    for d in space.degrees():
        n = space.dim(d)
        if d != bare and (c or data.draw(st.booleans())):
            values = data.draw(st.lists(SPARSE_VALUES, min_size=n * n, max_size=n * n))
            blocks[d] = Matrix(n, n, {(i, j): values[i * n + j] + (c if i == j else 0)
                                      for i in range(n) for j in range(n)})
    return LinMap(space, space, 0, blocks)


def _premerge_length(L, t, i):
    """len(row a' of opA) + len(row b' of opB) for row i of L at degree t,
    where row i is a'⊗b'."""
    q, a2, r, b2 = L.tensor.entry(t, i)
    views = [L._views(op, d) for op, d in zip(L.pair, (q, r))]
    return sum(len(view[0].get(k, ())) for view, k in zip(views, (a2, b2)) if view)


def _streamed_strata(calls):
    """A stand-in for DiagonalSum._rows that records (sum, degree, offset)
    in calls for every stream asked for with a dead set: a stratum a sum
    streams from its factor opA's own rows is such a call on opA."""
    rows_of = DiagonalSum._rows

    def spy(L, t, dead=None, indexed=False, offset=0):
        if dead is not None:
            calls.add((L, t, offset))
        return rows_of(L, t, dead, indexed, offset)
    return spy


def _yielding_stream(L, t, i, calls, offset=0):
    """(L', t', i'): the sum whose own stream yields row i of L at degree t,
    and the row's degree and index there.  A stratum that L streams from
    opA (a call on opA at its degree and start in calls) hands on opA's row
    a', the stratum's B being one-dimensional."""
    q, a2, _, _ = L.tensor.entry(t, i)
    col0 = offset + L.tensor._offsets[t][q]
    if (L.pair[0], q, col0) in calls:
        return _yielding_stream(L.pair[0], q, a2, calls, col0)
    return L, t, i


@st.composite
def _seeded_sums(draw):
    """1 to 4 DiagonalSums on one TensorSpace, as the seeded-presolve test
    draws them."""
    data = SimpleNamespace(draw=draw)
    if data.draw(st.booleans()):
        A1, A2 = _draw_full_space(data, "p"), _draw_full_space(data, "r")
        tsA = TensorSpace(A1, A2, data.draw(st.integers(A1.lo + A2.lo, A1.hi + A2.hi)))
        cutA = data.draw(st.one_of(st.none(), st.integers(tsA.lo - 1, tsA.hi)))
        A = tsA

        def factor(c=0):
            return DiagonalSum(tsA, _draw_sparse_factor(data, A1, c), _draw_sparse_factor(data, A2), cutA)
    else:
        A = _draw_full_space(data, "a")

        def factor(c=0):
            return _draw_sparse_factor(data, A, c)
    B, bare = _draw_full_space(data, "b"), None
    if data.draw(st.booleans()):
        # alone (as the trivial module) or beside B's other degrees
        bare = data.draw(st.integers(B.lo, B.hi + 1))
        dims = {bare: 1} if data.draw(st.booleans()) else {d: B.dim(d) for d in B.degrees()} | {bare: 1}
        B = GradedSpace({d: tuple(f"b{d}_{k}" for k in range(n)) for d, n in dims.items()})
    top = data.draw(st.integers(A.lo + B.lo, A.hi + B.hi))
    ts = TensorSpace(A, B, top)
    pairs = [(factor(), _draw_sparse_factor(data, B, bare=bare)) for _ in range(data.draw(st.integers(1, 3)))]
    if data.draw(st.booleans()):
        # LA[a', a'] + c and LB[b', b'] - c: where both are 0, the merged entry cancels
        c = data.draw(st.sampled_from([1, -2, Fraction(3, 5)]))
        pairs.append((factor(c), _draw_sparse_factor(data, B, -c, bare)))
    cut = data.draw(st.one_of(st.none(), st.integers(ts.lo - 1, top)))
    return [DiagonalSum(ts, fA, fB, cut) for fA, fB in pairs]


def _ops(space, blocks):
    """The degree-0 map on space with the given square blocks (dicts)."""
    return LinMap(space, space, 0, {d: Matrix(space.dim(d), space.dim(d), b) for d, b in blocks.items()})


def _streamed_sum(A1, blocks1, A2, blocks2, B, blocksB, top):
    """[DiagonalSum(A⊗B, L, LB)] to degree top, for L = DiagonalSum(A1⊗A2,
    L1, L2): W's L in W⊗M, in small."""
    tsA = TensorSpace(A1, A2, A1.hi + A2.hi)
    L = DiagonalSum(tsA, _ops(A1, blocks1), _ops(A2, blocks2))
    return [DiagonalSum(TensorSpace(tsA, B, top), L, _ops(B, blocksB))]


# The stratum A^0⊗B^0 streams L's rows (B is one-dimensional), and L's row
# p0_0⊗r0_0 = 3 + (-3) on itself and 2 on p0_1⊗r0_0 cancels to one entry
# inside L's own stream.
CANCELS_IN_STREAM = _streamed_sum(
    GradedSpace({0: ("p0_0", "p0_1")}), {0: {(0, 0): 3, (0, 1): 2, (1, 0): 1, (1, 1): 1}},
    GradedSpace({0: ("r0_0",)}), {0: {(0, 0): -3}},
    GradedSpace({0: ("b0_0",)}), {}, 0)
# At degree 1 the stratum A^1⊗B^0 streams L's rows over 3, beside A^0⊗B^1
# over 5: the streamed rows are rescaled to the sum's 15.
RESCALED_STREAM = _streamed_sum(
    GradedSpace({0: ("p0_0",), 1: ("p1_0", "p1_1")}), {1: {(0, 0): Fraction(1, 3), (0, 1): 1, (1, 1): 2}},
    GradedSpace({0: ("r0_0",)}), {0: {(0, 0): 1}},
    GradedSpace({0: ("b0_0",), 1: ("b1_0",)}), {1: {(0, 0): Fraction(1, 5)}}, 1)


@settings(max_examples=150, deadline=None)
@given(_seeded_sums())
@example(CANCELS_IN_STREAM)
@example(RESCALED_STREAM)
def test_seeded_presolve_is_the_presolve_of_the_lifted_rows(sums):
    """The streams of DiagonalSums given one dead set, all asked for before
    any row is read (as lie.invariants asks), cut the kernel of the stacked
    lifted blocks.  Every row of pre-merge length 1 in the stream that
    yields it is seeded, not built; each yielded row is its full row cut to
    live columns, with two or more entries, from two or more pre-merge
    entries; the final dead set is the plain presolve's.  Factors are
    sparse with rational entries and missing blocks, the factor A may
    itself be a DiagonalSum (W's L in W⊗M), diagonal entries may cancel, B
    may have a one-dimensional degree where no factor has a block (so a
    stratum there streams A's own rows), and both the sum and a nested
    factor may be cut at a top.  Two cases run every time: a row of L
    that cancels to one entry inside L's own stream, and a streamed stratum
    whose denominator differs from the sum's."""
    ts = sums[0].tensor
    for t in ts.degrees():
        dim = ts.dim(t)
        dead: set = set()
        calls: set = set()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(DiagonalSum, "_rows", _streamed_strata(calls))
            streams = [(L, L._rows(t, dead, indexed=True)[1]) for L in sums]
        seeds = set(dead)
        handed = []
        K = row_kernel((handed.append((L, i, dict(row))) or row for L, rows in streams for i, row in rows), dim, dead)
        assert K == joint_kernel([L.block(t) for L in sums], dim)
        full = {id(L): dict(L._rows(t, indexed=True)[1]) for L in sums}
        plain: set = set()
        linalg._presolve(chain.from_iterable(rows.values() for rows in full.values()), plain)
        assert dead == plain
        assert all(list(rows) == sorted(rows) for rows in full.values())
        for L, i, row in handed:
            assert len(row) > 1 and _premerge_length(*_yielding_stream(L, t, i, calls)) > 1
            whole = full[id(L)][i]
            assert row == {c: whole[c] for c in row} and set(whole) - set(row) <= dead
        for L in sums:
            for i, row in full[id(L)].items():
                if _premerge_length(*_yielding_stream(L, t, i, calls)) == 1:
                    assert set(row) <= seeds
            # the indexed rows, streamed strata rescaled to the sum's den, are the block
            view, den = L.row_view(t) or ({}, 1)
            block = L.block(t)
            assert ({(i, c): Fraction(v, den) for i, row in view.items() for c, v in row}
                    == {key: Fraction(v, block.den) for key, v in block.num.items()})


def test_heavy_invariant_kernel_builds_no_singleton_row(monkeypatch):
    """On the heavy workload's W⊗Λ(su2xsu2)* at degree 6, every row that
    reaches the presolve had two or more entries when the stream that
    yields it read its factors, and there are at most 988 of them.  Before
    the presolve was seeded from the factors' row lengths, 17 248 rows
    reached it, 9 504 of them with one entry."""
    g = resolve_algebra("su2xsu2")
    WM = tensor_module(weil_model(g, Truncation(7)), exterior_model(g), max_total=7)
    calls, handed, reached = set(), [], []
    rows_of, presolve = _streamed_strata(calls), linalg._presolve

    def spy(L, t, dead=None, indexed=False, offset=0):
        den, rows = rows_of(L, t, dead, True, offset)

        def stream():
            for i, row in rows:
                if dead is not None and L.tensor is WM.tensor:
                    handed.append((L, t, i))
                yield (i, row) if indexed else row
        return den, stream()

    monkeypatch.setattr(DiagonalSum, "_rows", spy)
    monkeypatch.setattr(linalg, "_presolve",
                        lambda rows, dead: presolve((reached.append(len(row)) or row for row in rows), dead))
    K = WM.invariant_blocks([6])[6]
    assert (K.rows, K.cols) == (5336, 58)
    assert len(reached) == len(handed) <= 988
    assert min(reached) > 1
    assert all(_premerge_length(*_yielding_stream(L, t, i, calls)) > 1 for L, t, i in handed)


def test_read_once_strata_build_no_view_of_W(monkeypatch):
    """The invariant cut of W⊗M builds a row view of W's L_k at degree q
    only where two or more degrees read W^q; a stratum W^q⊗M^r that alone
    reads W^q (M^r one-dimensional, with no row of M's L_k) streams W's own
    rows.  On W⊗Q (Q the trivial su2xsu2 module) at N = 8 it builds no
    view and streams every q ≤ 8.  On heavy's W⊗Λ(su2xsu2)* at N = 6 it
    builds one view per generator at each q < 6, as before, and none at
    q = 6, which only the top degree reads: it streams W^6⊗Λ^0."""
    g = resolve_algebra("su2xsu2")
    views, streams, row_view = [], set(), DiagonalSum.row_view
    monkeypatch.setattr(DiagonalSum, "row_view", lambda L, d: views.append((L, d)) or row_view(L, d))
    monkeypatch.setattr(DiagonalSum, "_rows", _streamed_strata(streams))
    for N, M, viewed, streamed in ((8, trivial_module(g), (), range(9)),
                                   (6, exterior_model(g), range(6), (6,))):
        W = weil_model(g, Truncation(N + 1))
        invariant_subcomplex(tensor_module(W, M, max_total=N + 1))
        assert (sorted((W.L_ops.index(L), q) for L, q in views if L.tensor is W.tensor)
                == [(k, q) for k in g.generators for q in viewed])
        assert (sorted((W.L_ops.index(L), q) for L, q, _ in streams if L.tensor is W.tensor)
                == [(k, q) for k in g.generators for q in streamed])
        views.clear()
        streams.clear()


def test_streamed_stratum_is_rescaled_to_the_sum_denominator():
    """At the top degree of W(su2)⊗B, B = Q·1 ⊕ Q·x with L = 1/3 on x only,
    the stratum W^3⊗1 streams W's own integer rows while W^2⊗x is built
    over 3: the indexed rows, the streamed ones rescaled, are the block."""
    g = resolve_algebra("su2")
    W = weil_model(g, Truncation(4))
    B = GradedSpace({0: ("1",), 1: ("x",)})
    ts = TensorSpace(W.space, B, 3)
    for LW in W.L_ops:
        L = DiagonalSum(ts, LW, LinMap(B, B, 0, {1: Matrix(1, 1, {(0, 0): Fraction(1, 3)})}))
        view, den = L.row_view(3)
        block = L.block(3)
        assert den == 3 and max(view) >= ts._offsets[3][3]
        assert ({(i, c): Fraction(v, den) for i, row in view.items() for c, v in row}
                == {key: Fraction(v, block.den) for key, v in block.num.items()})


def test_diagonal_rows_are_the_stacked_lift_rows():
    """Each row the DiagonalSums L_k yield, L_0's first, is, up to its
    content, the next nonzero row of the stacked lifted L_k blocks: on
    W⊗Λ(su2)*, on W itself and on Λ(su2)*⊗Λ(su2)* at N = 4."""
    g = resolve_algebra("su2")
    ext, N = exterior_model(g), 4
    W = weil_model(g, Truncation(N + 1))
    for module in (tensor_module(W, ext, max_total=N + 1), W, tensor_module(ext, ext)):
        for t in module.complex.usable_degrees(1):
            got = [row for L in module.L_ops for row in L.rows(t)]
            want = _stacked_rows([L.block(t) for L in module.L_ops], module.space.dim(t))
            assert all(got) and _primitive_rows(got) == _primitive_rows(want), (module.name, t)


# ---------------------------------------------------------------------------
# The integer kernel behind combination, lift_sum and @, against dense
# Fraction references, on integral and large-denominator blocks
# ---------------------------------------------------------------------------


def _canonical_block(m: Matrix) -> bool:
    """Every stored numerator a nonzero int over a positive int denominator,
    in lowest terms: gcd(den, *num) == 1."""
    return (type(m.den) is int and m.den > 0
            and all(type(v) is int and v for v in m.num.values())
            and gcd(m.den, *m.num.values()) == 1)


def _stored_canonically(op: LinMap) -> bool:
    """No empty block, and every block stored in lowest terms."""
    return all(m.num and _canonical_block(m) for m in op.blocks.values())


COEFFICIENTS = st.one_of(
    st.integers(-3, 3),
    MIXED_ENTRIES[1],
    st.sampled_from([Fraction((-1) ** q, factorial(q)) for q in range(7)]),  # the twist's
)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_combination_matches_dense_sum(data):
    space = _draw_space(data, "a")
    shift = data.draw(st.integers(-2, 2))
    terms = []
    for _ in range(data.draw(st.integers(1, 4))):
        op = _draw_op(data, space, shift, MIXED_ENTRIES) or LinMap.identity(space)
        terms.append((data.draw(COEFFICIENTS), op))
    combined = LinMap.combination(terms)
    assert combined.shift == shift
    for d in space.degrees():
        expected = [[sum((Fraction(c) * op.block(d)[i, j] for c, op in terms), Fraction(0))
                     for j in range(space.dim(d))] for i in range(space.dim(d + shift))]
        assert combined.block(d).dense() == expected
    assert _stored_canonically(combined)
    c, op = terms[0]
    assert not LinMap.combination([(c, op), (-Fraction(c), op)]).blocks


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_lift_sum_matches_kronecker_sum_large_denominators(data):
    A, B = _draw_full_space(data, "a"), _draw_full_space(data, "b")
    top = data.draw(st.integers(A.lo + B.lo, A.hi + B.hi))
    ts = TensorSpace(A, B, top)
    shift = data.draw(st.integers(-1, 2))
    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        sA = data.draw(st.integers(-1, 1))
        terms.append((_draw_op(data, A, sA, MIXED_ENTRIES),
                      _draw_op(data, B, shift - sA, MIXED_ENTRIES)))
    summed = ts.lift_sum(terms, shift)
    for t, expected in _kronecker_sum(A, B, top, terms, shift).items():
        assert summed.block(t).dense() == expected
    assert _stored_canonically(summed)


# ---------------------------------------------------------------------------
# LiftedSum.image, the lifted sum applied to a block of columns straight from
# the factor blocks, against the dense Kronecker sum and the lifted block
# ---------------------------------------------------------------------------


def _thinned(data, op):
    """op with a random subset of its blocks dropped; None stays the identity."""
    if op is None or not data.draw(st.booleans()):
        return op
    return LinMap(op.source, op.target, op.shift,
                  {d: m for d, m in op.blocks.items() if data.draw(st.booleans())})


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_sum_matches_kronecker_sum_times_columns(data):
    """Odd factor degrees and shifts (the Koszul sign), rational factor blocks
    with large denominators, missing factor blocks, source degrees whose image
    leaves the window, source degrees above the sum's top, empty V and V
    over a non-unit denominator."""
    A, B = _draw_full_space(data, "a"), _draw_full_space(data, "b")
    top = data.draw(st.one_of(st.just(A.hi + B.hi), st.integers(A.lo + B.lo, A.hi + B.hi)))
    ts = TensorSpace(A, B, top)
    shift = data.draw(st.integers(-1, 2))
    terms = []
    for _ in range(data.draw(st.integers(1, 3))):
        sA = data.draw(st.integers(-1, 1))
        terms.append((_thinned(data, _draw_op(data, A, sA, MIXED_ENTRIES)),
                      _thinned(data, _draw_op(data, B, shift - sA, MIXED_ENTRIES))))
    # mostly a degree whose image lands in the window, sometimes any degree
    inside = [d for d in ts.degrees() if ts.dim(d + shift)] or [top + 1]
    anywhere = st.integers(ts.lo - 1, top + 1)
    t = data.draw(st.sampled_from(inside) if data.draw(st.integers(0, 3)) else anywhere)
    cols = data.draw(st.integers(1, 3))
    values = data.draw(st.lists(SMALL_ENTRIES[0].filter(bool), min_size=ts.dim(t) * cols,
                                max_size=ts.dim(t) * cols))
    V = Matrix(ts.dim(t), cols, {(i, j): values[i * cols + j]
                                       for i in range(ts.dim(t)) for j in range(cols)})
    V = V.scale(data.draw(st.sampled_from([1, Fraction(1, 6), Fraction(-5, 65537)])))
    # no top, or a top that leaves out some source degrees
    cut = data.draw(st.one_of(st.none(), st.integers(ts.lo - 1, top)))
    above = cut is not None and t > cut
    op = LiftedSum(ts, terms, shift, cut)
    got = op.image(t, V)
    rows = ts.dim(t + shift)
    zero = [[Fraction(0)] * V.rows] * rows
    block = zero if above else _kronecker_sum(A, B, top, terms, shift).get(t, zero)
    assert got.dense() == [[sum((row[k] * V[k, j] for k in range(V.rows)), Fraction(0))
                            for j in range(V.cols)] for row in block]
    assert _canonical_block(got)
    want = ts.lift_sum(terms, shift, cut).block(t) @ V
    assert got == want and list(got.num) == list(want.num)  # the same entries, in the same order
    assert op.image(t, V.take([])) == Matrix.zero(rows, 0)
    with pytest.raises(ShapeError):
        op.image(t, Matrix.zero(V.rows + 1, 1))
    if above:
        assert (got.rows, got.cols) == (rows, V.cols) and got.is_zero()
        assert not list(op.rows(t))
    # one preparation serves every degree: the factor column views it built
    # at t are reused, not rebuilt
    lifted = ts.lift_sum(terms, shift, cut)
    for u in ts.degrees():
        unit = Matrix.identity(ts.dim(u))
        assert op.image(u, unit) == lifted.block(u) @ unit


# ---------------------------------------------------------------------------
# Witnesses of the d² and chain-map checks, against dense Fraction products
# ---------------------------------------------------------------------------


def _dense_product(X: Matrix, Y: Matrix) -> list:
    return [[sum((X[i, k] * Y[k, j] for k in range(X.cols)), Fraction(0)) for j in range(Y.cols)]
            for i in range(X.rows)]


def _first_nonzero_column(rows: list):
    cols = [j for row in rows for j, v in enumerate(row) if v]
    return min(cols) if cols else None


def _dense_d2_witness(C: Complex):
    """(degree, label) where the d² check of Complex must fail first, or None."""
    top = C.space.hi if C.complete else C.space.hi - 2
    for deg in C.space.degrees():
        if deg <= top:
            col = _first_nonzero_column(_dense_product(C.d.block(deg + 1), C.d.block(deg)))
            if col is not None:
                return deg, C.space.labels(deg)[col]
    return None


def _dense_chain_witness(f: ChainMap):
    """(degree, label, defect column) of the first chain-map defect, or None."""
    C, D = f.source, f.target
    for deg in C.space.degrees():
        lhs = _dense_product(D.d.block(deg), f.map.block(deg))
        rhs = _dense_product(f.map.block(deg + 1), C.d.block(deg))
        diff = [[x - y for x, y in zip(a, b)] for a, b in zip(lhs, rhs)]
        col = _first_nonzero_column(diff)
        if col is not None:
            return deg, C.space.labels(deg)[col], tuple(row[col] for row in diff)
    return None


def _draw_mixed_block(data, rows, cols):
    entry = data.draw(st.sampled_from(MIXED_ENTRIES))
    values = data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return Matrix(rows, cols, {(i, j): values[i * cols + j] for i in range(rows) for j in range(cols)})


def _draw_fractional_complex_data(data):
    """(space, d) of degrees 0..2 with rational d; d₁ is drawn from the left
    kernel of d₀ when `data` says so, making d² = 0 by exact cancellation."""
    n0, n1 = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    d0 = _draw_mixed_block(data, n1, n0)
    left = kernel_basis(d0.transpose())  # rows v with v·d₀ = 0
    if left and data.draw(st.booleans()):
        c = data.draw(MIXED_ENTRIES[1].filter(bool))
        d1 = Matrix.from_rows(left).scale(c)
    else:
        d1 = _draw_mixed_block(data, data.draw(st.integers(1, 3)), n1)
    space = GradedSpace({0: tuple(f"a{i}" for i in range(n0)), 1: tuple(f"b{i}" for i in range(n1)),
                         2: tuple(f"c{i}" for i in range(d1.rows))})
    return space, LinMap(space, space, 1, {0: d0, 1: d1})


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_d_squared_witness_matches_dense_reference(data):
    space, d = _draw_fractional_complex_data(data)
    expected = _dense_d2_witness(Complex(space, d, check=False))
    if expected is None:
        assert Complex(space, d).d_squared_defect() is None
    else:
        deg, lbl = expected
        with pytest.raises(ValueError, match=re.escape(f"d^2 != 0 at degree {deg} on basis vector {lbl!r}")):
            Complex(space, d)


def _block_product_defect(space, degrees, products):
    """first_defect by whole blocks: the first nonzero column of the summed
    product block c·L@R at the first degree where it is nonzero."""
    for deg in degrees:
        m = None
        for c, L, R in products(deg):
            p = (L @ R).scale(c)
            m = p if m is None else m + p
        if m is not None and not m.is_zero():
            col = min(j for _, j in m.num)
            return deg, space.labels(deg)[col], m.column(col)
    return None


def _draw_blocks(data, dims):
    """Blocks B_t of shape dims[t+1] x dims[t]: one complex-shaped chain."""
    return [_draw_mixed_block(data, dims[t + 1], dims[t]) for t in range(len(dims) - 1)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_first_defect_streams_the_block_product(data):
    """first_defect walks the columns one product column at a time and gives
    the same (degree, label, column) as the whole block product: for d²-like
    products C_{t+1}·C_t, blocks alone (1·C_t), and chain-map differences
    D_t·f_t − f_{t+1}·C_t, where D_t equals C_t on a drawn set of columns and
    f = s·1, so the two products cancel exactly in those columns."""
    dims = data.draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
    space = GradedSpace({t: tuple(f"e{t}_{i}" for i in range(n)) for t, n in enumerate(dims)})
    C = _draw_blocks(data, dims)
    kind = data.draw(st.sampled_from(["d2", "identity", "chain", "cancel"]))
    if kind == "d2":
        degrees, products = [0, 1], lambda t: [(1, C[t + 1], C[t])]
    elif kind == "identity":
        degrees, products = [0, 1, 2], lambda t: [(1, Matrix.identity(C[t].rows), C[t])]
    else:
        E = _draw_blocks(data, dims)
        if kind == "chain":
            f = [_draw_mixed_block(data, n, n) for n in dims]
            D = E
        else:
            s = data.draw(MIXED_ENTRIES[1].filter(bool))
            f = [Matrix.identity(n).scale(s) for n in dims]
            keep = [data.draw(st.lists(st.booleans(), min_size=m.cols, max_size=m.cols)) for m in C]
            D = [Matrix(c.rows, c.cols, {(i, j): (c if keep[t][j] else e)[i, j]
                                         for i in range(c.rows) for j in range(c.cols)})
                 for t, (c, e) in enumerate(zip(C, E))]
        degrees, products = [0, 1, 2], lambda t: [(1, D[t], f[t]), (-1, f[t + 1], C[t])]
    want = _block_product_defect(space, degrees, products)
    got = first_defect(space, degrees, products)
    assert got == want
    if got is not None:
        assert all(type(v) is Fraction for v in got[2])


def test_d_squared_fractional_witness_and_exact_cancellation():
    p, q = LARGE_DENOMINATORS[0], LARGE_DENOMINATORS[2]
    space = GradedSpace({0: ("a", "b"), 1: ("c", "e"), 2: ("f",)})
    d0 = Matrix.from_rows([[0, Fraction(1, p)], [0, Fraction(1, q)]])
    bad = LinMap(space, space, 1, {0: d0, 1: Matrix.from_rows([[Fraction(3, q), Fraction(1, p)]])})
    with pytest.raises(ValueError, match=re.escape("d^2 != 0 at degree 0 on basis vector 'b'")):
        Complex(space, bad)
    # 1/(pq) - 1/(qp): the product cancels exactly and the complex is accepted
    good = LinMap(space, space, 1, {0: d0, 1: Matrix.from_rows([[Fraction(1, q), Fraction(-1, p)]])})
    assert Complex(space, good).d_squared_defect() is None


def test_chain_map_fractional_witness():
    p, q = LARGE_DENOMINATORS[0], LARGE_DENOMINATORS[1]
    space = GradedSpace({0: ("a", "b"), 1: ("c",)})
    C = Complex(space, LinMap(space, space, 1, {0: Matrix.from_rows([[Fraction(1, p), Fraction(1, q)]])}))
    corrupted = LinMap(space, space, 0, {0: Matrix.identity(2), 1: Matrix.from_rows([[Fraction(3, 2)]])})
    rep = check_chain_map(ChainMap(C, C, corrupted))
    assert not rep.ok
    assert rep.witness == (0, "a", (Fraction(-1, 2 * p),))
    assert type(rep.witness[2][0]) is Fraction
    assert "chain-map defect at degree 0 on 'a': {0: '-1/20014'}" == rep.describe()


def test_fractional_chain_map_exact_and_corrupted():
    """f₀ = λ·1 + u·wᵀ with d·u = 0 and f₁ = λ commutes with d = (1/p, 1/q)
    only through exact cancellation over large denominators; f₁ = λ + 1/r
    leaves the defect -d/r, first nonzero in column 'a'."""
    p, q, r = LARGE_DENOMINATORS
    space = GradedSpace({0: ("a", "b"), 1: ("c",)})
    C = Complex(space, LinMap(space, space, 1, {0: Matrix.from_rows([[Fraction(1, p), Fraction(1, q)]])}))
    lam, u, w = Fraction(5, 7), (p, -q), (Fraction(1, q), Fraction(3, r))
    f0 = Matrix.from_rows([[lam * (i == j) + u[i] * w[j] for j in range(2)] for i in range(2)])
    good = ChainMap(C, C, LinMap(space, space, 0, {0: f0, 1: Matrix.from_rows([[lam]])}))
    assert check_chain_map(good).ok
    bad = ChainMap(C, C, LinMap(space, space, 0, {0: f0, 1: Matrix.from_rows([[lam + Fraction(1, r)]])}))
    rep = check_chain_map(bad)
    assert not rep.ok
    assert rep.witness == (0, "a", (Fraction(-1, p * r),))
    assert type(rep.witness[2][0]) is Fraction
    assert rep.witness == _dense_chain_witness(bad)


def test_cohomology_classes_stored_in_lowest_terms():
    """Classes keep only the representative rows of the coordinates, which
    can leave a common factor with the denominator: it is divided out."""
    p = LARGE_DENOMINATORS[0]
    space = GradedSpace({0: ("a", "b"), 1: ("c", "e")})
    C = Complex(space, LinMap(space, space, 1, {0: Matrix.from_rows([[Fraction(1, p), 0], [0, 0]])}))
    reps, boundaries = cohomology_representatives(C, 1)
    assert reps.cols == boundaries.cols == 1
    images = reps.scale(Fraction(2, 3)) + boundaries.scale(Fraction(1, 2 * p))
    m = cohomology_classes(reps, boundaries, images)
    assert _canonical_block(m)
    assert m == Matrix.from_rows([[Fraction(2, 3)]])
    assert cohomology_classes(reps, boundaries, Matrix.from_columns([vec([1, 1])])) is not None
    assert cohomology_classes(reps, Matrix.zero(2, 0), Matrix.from_columns([vec([1, 1])])) is None


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_chain_map_witness_matches_dense_reference(data):
    space, d = _draw_fractional_complex_data(data)
    C = Complex(space, d, check=False)
    blocks = {deg: _draw_mixed_block(data, space.dim(deg), space.dim(deg)) for deg in space.degrees()}
    f = ChainMap(C, C, LinMap(space, space, 0, blocks))
    rep = check_chain_map(f)
    expected = _dense_chain_witness(f)
    assert rep.ok == (expected is None)
    assert rep.witness == expected
    if expected is not None:
        assert all(type(v) is Fraction for v in rep.witness[2])


# ---------------------------------------------------------------------------
# Uncertified degrees are counted by ranks: the count the representatives gave
# ---------------------------------------------------------------------------


def _counts_from_representatives(C: Complex, N: int) -> dict:
    """dim H^deg at every degree of the window as the number of representatives
    (none above the space), as cohomology once computed it at every degree."""
    return {deg: cohomology_representatives(C, deg)[0].cols if deg <= C.space.hi else 0
            for deg in range(C.space.lo, N + 1)}


@pytest.mark.parametrize("alg", (*BUILTIN_NAMES, "abelian:0"))
def test_uncertified_counts_match_representatives(alg):
    g = resolve_algebra(alg)
    uncertified = 0
    for N in range(1, 5):
        trunc = Truncation(N)
        complexes = [weil_model(g, trunc).complex]
        for mod in ("trivial", "exterior", "forms:coadjoint:1"):
            M = resolve_module(mod, g)
            complexes += [M.complex, invariant_subcomplex(M).complex]
            try:
                complexes.append(cartan_model(M, trunc).complex)
            except WindowError:
                pass
        for C in complexes:
            try:
                rep = cohomology(C, trunc)
            except WindowError:
                continue
            assert {**rep.betti, **rep.uncertified} == _counts_from_representatives(C, N)
            assert {d: len(r) for d, r in rep.representatives.items()} == rep.betti
            uncertified += len(rep.uncertified)
    assert uncertified


# ---------------------------------------------------------------------------
# Restriction on column blocks against a per-vector dense reference
# ---------------------------------------------------------------------------


def _dense_induced_block(op_block: Matrix, V: Matrix, W: Matrix) -> Matrix:
    """Reference restriction, one vector at a time: each column of V is
    applied densely and its image solved for over the columns of W."""
    family = W.columns()
    cols = []
    for v in V.columns():
        image = op_block.apply(v)
        coords = solve_affine(Matrix.from_columns(family, nrows=len(image)), image)
        assert coords is not None
        cols.append(coords)
    return Matrix.from_columns(cols, nrows=W.cols)


def _assert_induced_matches_reference(op: LinMap, restricted: LinMap, vectors: dict) -> int:
    """Compare every block; the number of nonzero ones is returned."""
    nonzero = 0
    for deg, V in vectors.items():
        rows = op.target.dim(deg + op.shift)
        if not V.cols or not rows:
            continue
        W = vectors.get(deg + op.shift, Matrix.zero(rows, 0))
        want = _dense_induced_block(op.block(deg), V, W)
        assert restricted.block(deg) == want, deg
        nonzero += not want.is_zero()
    return nonzero


@pytest.mark.parametrize("alg", BUILTIN_NAMES)
def test_induced_map_matches_dense_reference(alg):
    """induced_map on column blocks (the invariant differential, the
    multivector actions, the Cartan differential) equals the per-vector
    reference on every built-in algebra."""
    g = resolve_algebra(alg)
    n = g.dim
    nonzero = 0
    for mod in ("trivial", "exterior", "forms:coadjoint:1"):
        M = resolve_module(mod, g)
        inv = invariant_subcomplex(M)
        top = M.complex.truncated(M.max_usable)
        nonzero += _assert_induced_matches_reference(top.d, inv.complex.d, inv.vectors)
        for mv, act in zip(inv.multivectors, inv.actions):
            ambient = M.contraction_of_multivector(mv.coeffs, lambda_monomials(n, mv.degree))
            nonzero += _assert_induced_matches_reference(ambient, act, inv.vectors)
        A = cartan_model(M, Truncation(4))
        amb_d = A.ambient.lift_sum(
            [(None, M.d)] + [(A.ambient.A.generator(k), M.i_ops[k]) for k in range(n)], 1)
        nonzero += _assert_induced_matches_reference(amb_d, A.complex.d, A.vectors)
    assert nonzero  # the comparison saw restricted maps that do not vanish


def test_subcomplex_rejects_one_corrupted_column():
    """The invariants of Λ(su2xsu2)* span a subcomplex; adding to one column
    a vector whose differential leaves that span must be caught."""
    M = exterior_model(resolve_algebra("su2xsu2"))
    vectors = invariant_subcomplex(M).vectors
    subcomplex(M.complex, vectors)  # the family as computed is d-stable
    V, d3 = vectors[3], M.d.block(3)
    leaving = min(j for (_, j) in d3.num)  # d of this basis vector is nonzero, and d = 0 on V
    bad = V + Matrix(V.rows, V.cols, {(leaving, 0): 1})
    with pytest.raises(SubcomplexError, match=r"^operator image leaves the subcomplex \(Λ\)\^g at degree 3$"):
        subcomplex(M.complex, {**vectors, 3: bad}, label_prefix="(Λ)^g")


def test_tensor_labels_built_on_first_read():
    """Product labels "a⊗b" are built per degree on first read, where a
    duplicate is still rejected; dims and truncation need none, and a cut
    keeps the bases up to its top only."""
    A = GradedSpace({0: ("x", "x⊗"), 1: ("u",)})
    B = GradedSpace({0: ("y", "⊗y"), 1: ("v",)})
    T = TensorSpace(A, B, 2)
    cut = T.truncated(1)
    assert {d: T.dim(d) for d in T.degrees()} == {0: 4, 1: 4, 2: 1}
    assert (cut.lo, cut.hi, cut.degrees()) == (0, 1, [0, 1])
    assert T._labels == cut._labels == {}
    assert T.labels(1) == cut.labels(1) == ("x⊗v", "x⊗⊗v", "u⊗y", "u⊗⊗y")
    assert cut.labels(2) == () and cut.degrees() == [0, 1]
    with pytest.raises(WindowError):
        cut.position(1, 0, 1, 0)
    with pytest.raises(ValueError, match="duplicate basis labels in degree 0"):
        T.labels(0)  # "x⊗" ⊗ "y" and "x" ⊗ "⊗y" collide
    clean = GradedSpace({0: ("a",), 1: ("b", "c")})
    eager = GradedSpace({0: ("a⊗a",), 1: ("a⊗b", "a⊗c", "b⊗a", "c⊗a"), 2: ("b⊗b", "b⊗c", "c⊗b", "c⊗c")})
    assert TensorSpace(clean, clean, 2) == eager


def test_cocycle_bases_computed_once(monkeypatch):
    """cohomology and quasi_iso_check on one complex share its cocycle and
    boundary bases: the second asks for no new elimination of them."""
    from koszul import complexes

    C = exterior_model(resolve_algebra("su2")).complex
    trunc = Truncation(3)
    betti = cohomology(C, trunc).betti
    calls = []
    for name in ("_basis_columns", "joint_kernel"):
        fn = getattr(complexes, name)
        monkeypatch.setattr(complexes, name, lambda *args, fn=fn: calls.append(args) or fn(*args))
    rep = quasi_iso_check(ChainMap(C, C, LinMap.identity(C.space)), trunc)
    assert rep.ok and {d: info["source_betti"] for d, info in rep.degrees.items()} == betti
    assert calls == []
    assert cohomology_representatives(C, 1) is cohomology_representatives(C, 1)


# -- the rank path: Betti numbers from ranks, representatives where a class lives

def _old_bases(C, deg):
    """(representatives, boundaries) as cohomology computed them before the
    rank path, at every degree: the cocycle kernel, the boundaries as the
    pivot columns of d_{deg-1} from a RowReduction, and a complement."""
    from koszul.linalg import RowReduction, complement_basis, joint_kernel

    before = C.d.block(deg - 1)
    boundaries = before.take(RowReduction(before).pivots)
    cocycles = joint_kernel([C.d.block(deg)], C.space.dim(deg))
    return complement_basis(boundaries, cocycles), boundaries


def _old_quasi_iso_degrees(f, trunc):
    """The degree dicts of quasi_iso_check, computed the old way (_old_bases
    on both sides at every degree, the induced rank from a RowReduction)."""
    from koszul.linalg import RowReduction

    C, D = f.source, f.target
    degrees = {}
    for deg in range(min(C.space.lo, D.space.lo), trunc.max_degree):
        reps_C, _ = _old_bases(C, deg)
        reps_D, bdry_D = _old_bases(D, deg)
        induced = cohomology_classes(reps_D, bdry_D, f.map.block(deg) @ reps_C)
        rank_ind = -1 if induced is None else RowReduction(induced).rank
        degrees[deg] = {"source_betti": reps_C.cols, "target_betti": reps_D.cols,
                        "induced_rank": rank_ind, "ok": reps_C.cols == reps_D.cols == rank_ind}
    return degrees


@st.composite
def shaped_complex(draw):
    """A complex on degrees 0..k with d² = 0 and every shape of cohomology:
    C^m = H^m ⊕ B^m ⊕ E^m, where d sends E^m onto B^{m+1} by the identity
    and is zero elsewhere, written in a random basis per degree (a unit
    triangular integer change of basis) and scaled by a random rational."""
    sp = pytest.importorskip("sympy")
    rnd = draw(st.randoms(use_true_random=False))
    k = draw(st.integers(1, 4))
    hom = [draw(st.integers(0, 2)) for _ in range(k + 1)]
    exact = [draw(st.integers(0, 2)) for _ in range(k)] + [0]
    bound = [0] + exact[:-1]
    dims = [h + b + e for h, b, e in zip(hom, bound, exact)]

    def basis(n):
        low = sp.Matrix(n, n, lambda i, j: 1 if i == j else rnd.randint(-2, 2) if i > j else 0)
        up = sp.Matrix(n, n, lambda i, j: 1 if i == j else rnd.randint(-2, 2) if i < j else 0)
        return low * up

    S = [basis(n) for n in dims]
    blocks = {}
    for m in range(k):
        std = sp.zeros(dims[m + 1], dims[m])
        for i in range(exact[m]):
            std[hom[m + 1] + i, hom[m] + bound[m] + i] = 1
        scale = sp.Rational(rnd.choice([-3, -1, 1, 2, 5]), rnd.choice([1, 2, 3]))
        d = S[m + 1] * std * S[m].inv() * scale
        blocks[m] = Matrix(d.rows, d.cols, {(i, j): Fraction(int(d[i, j].p), int(d[i, j].q))
                                            for i in range(d.rows) for j in range(d.cols) if d[i, j]})
    space = GradedSpace({m: tuple(f"c{m}_{i}" for i in range(n)) for m, n in enumerate(dims)},
                        lo=0, hi=k)
    complete = draw(st.booleans())
    N = draw(st.integers(1, k + 2 if complete else k))
    # check=True: d² = 0 is verified here, at every degree the window rule reaches
    return Complex(space, LinMap(space, space, 1, blocks), complete=complete), N, hom


@given(shaped_complex())
@settings(max_examples=80, deadline=None)
def test_rank_path_matches_the_old_bases_and_sympy(case):
    """Betti numbers, representatives and quasi-isomorphism degree dicts
    are those of the old path (kernel, boundaries and complement at every
    degree), and every rank read from the elimination record is sympy's."""
    import sympy as sp
    from koszul import complexes

    C, N, hom = case
    trunc = Truncation(N)
    rep = cohomology(C, trunc)
    for deg in rep.betti:
        reps = _old_bases(C, deg)[0] if deg <= C.space.hi else Matrix.zero(0, 0)
        labels = C.space.labels(deg)
        assert rep.betti[deg] == reps.cols == (hom[deg] if deg <= C.space.hi else 0)
        assert rep.representatives[deg] == [{labels[i]: v for i, v in enumerate(r) if v}
                                            for r in reps.columns()]
    def sympy_rank(block):
        return sp.Matrix(block.rows, block.cols, lambda i, j: sp.Rational(
            block[i, j].numerator, block[i, j].denominator)).rank() if block.rows and block.cols else 0

    for deg in range(C.space.lo - 1, N + 1):
        block = C.d.block(deg)
        want = sympy_rank(block)
        kept = complexes._d_pivots(C, deg)
        # rank d of independent columns of d: their images span im d
        assert len(kept) == want == sympy_rank(block.take(kept))
    for deg, count in rep.uncertified.items():
        assert count == C.space.dim(deg) - len(complexes._d_pivots(C, deg)) - len(
            complexes._d_pivots(C, deg - 1))
    for f in (ChainMap(C, C, LinMap.identity(C.space)),
              ChainMap(C, C, LinMap.identity(C.space).scale(Fraction(-2, 3)))):
        assert quasi_iso_check(f, trunc).degrees == _old_quasi_iso_degrees(f, trunc)


def _skewed_complex():
    """Q -> Q² -> Q with d_0 = e_1 and d_1 = (1, 0), built unchecked: d² != 0
    at degree 1, where the ranks still give dim H^1 = 2 - 1 - 1 = 0."""
    space = GradedSpace({0: ("a",), 1: ("b", "c"), 2: ("e",)})
    d = LinMap(space, space, 1, {0: Matrix(2, 1, {(0, 0): 1}), 1: Matrix(1, 2, {(0, 0): 1})})
    return Complex(space, d, check=False)


def test_rank_off_the_boundaries_needs_d_squared_zero():
    """On the unchecked skewed complex d_1·d_0 != 0: skipping d_1's column
    0, d_0's leading row, would leave only its zero column 1.  The rank at
    degree 1 is still sympy's, before and after cohomology's check finds
    the defect."""
    import sympy as sp
    from koszul import complexes
    from koszul.linalg import SpanError

    C = _skewed_complex()
    want = sp.Matrix([[1, 0]]).rank()
    assert len(complexes._d_pivots(C, 0)) == 1
    assert len(complexes._d_pivots(C, 1)) == want == 1
    C = _skewed_complex()
    with pytest.raises(SpanError):
        cohomology(C, Truncation(3))
    assert len(complexes._d_pivots(C, 1)) == want


def test_weil_sl3_ranks_off_the_boundaries_match_pivot_columns():
    """W(sl3) to degree 8 is acyclic and checked, so every rank there
    skips d_{m-1}'s leading rows; each is the RREF rank of its block."""
    from koszul import complexes

    C = weil_model(resolve_algebra("sl3"), Truncation(8)).complex
    rep = cohomology(C, Truncation(8))
    assert rep.betti == {0: 1, **{m: 0 for m in range(1, 8)}}
    assert sorted(C.d.blocks) == list(range(1, 8))
    for m, block in C.d.blocks.items():
        assert len(complexes._d_pivots(C, m)) == len(linalg.pivot_columns(block))


def test_d_squared_defect_at_a_betti_zero_degree_still_raises():
    """Boundaries that leave the cocycles raise SpanError at a degree where
    the ranks give no class, in cohomology and on either side of
    quasi_iso_check, as complement_basis raised it when every degree took
    a complement."""
    from koszul.linalg import SpanError

    C = _skewed_complex()
    with pytest.raises(SpanError, match=r"^U is not contained in span\(V\)$"):
        cohomology(C, Truncation(3))
    C = _skewed_complex()
    with pytest.raises(SpanError, match=r"^U is not contained in span\(V\)$"):
        quasi_iso_check(ChainMap(C, C, LinMap.identity(C.space)), Truncation(3))
    D, empty = _skewed_complex(), GradedSpace({})
    zero = Complex(empty, LinMap.zero(empty, empty, 1))
    with pytest.raises(SpanError, match=r"^U is not contained in span\(V\)$"):
        quasi_iso_check(ChainMap(zero, D, LinMap.zero(empty, D.space, 0)), Truncation(3))


def test_checked_complex_forms_no_boundary_product(monkeypatch):
    """W(su2xsu2) to degree 8 is built with its d² check, which covers every
    degree up to 6 = usable_top(2), so cohomology to degree 8 forms no
    d_m·B product to re-prove d² = 0 on its boundaries; an unchecked
    complex on the same d still forms them."""
    C = weil_model(resolve_algebra("su2xsu2"), Truncation(8)).complex
    assert C.checked_top == C.usable_top(2) == 6
    blocks = {id(m) for m in C.d.blocks.values()}
    products = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda L, R: (id(L) in blocks and products.append(L)) or matmul(L, R))
    rep = cohomology(C, Truncation(8))
    assert rep.betti == {0: 1, **{m: 0 for m in range(1, 8)}} and products == []
    unchecked = Complex(C.space, C.d, complete=False, check=False)
    assert unchecked.checked_top is None
    assert cohomology(unchecked, Truncation(8)) == rep and products


def test_weil_cohomology_eliminates_each_block_once_and_cuts_one_kernel(monkeypatch):
    """cohomology of the acyclic W(su2xsu2) to degree 8 eliminates each
    nonzero block of d once, for its rank and image basis, and cuts a cocycle
    kernel only at degree 0, where H^0 = Q lives.  Only degree 0 prints a
    representative, so only there are W's basis labels built."""
    from koszul import complexes

    C = weil_model(resolve_algebra("su2xsu2"), Truncation(8)).complex
    eliminated, cut = [], []
    basis_columns, joint_kernel = complexes._basis_columns, complexes.joint_kernel
    monkeypatch.setattr(complexes, "_basis_columns",
                        lambda A, skip: eliminated.append(A) or basis_columns(A, skip))
    monkeypatch.setattr(complexes, "joint_kernel",
                        lambda mats, cols: cut.append(list(mats)) or joint_kernel(mats, cols))
    rep = cohomology(C, Truncation(8))
    assert rep.betti == {0: 1, **{m: 0 for m in range(1, 8)}}
    assert [id(A) for A in eliminated] == [id(C.d.blocks[m]) for m in sorted(C.d.blocks)]
    assert cut == [[C.d.block(0)]] and C.space.dim(0) == 1
    assert sorted(C.space._labels) == [0]


def test_survey_quasi_iso_degrees_match_the_old_path(monkeypatch):
    """On the 14 duality-survey cases, both quasi-isomorphism checks of the
    zig-zag (ψ and the inclusion) give the degree dicts of the old path,
    and every complement taken in the verification holds a class: none is
    taken at a degree whose Betti number is 0."""
    import sys
    from pathlib import Path

    from koszul import complexes
    from koszul.duality import verify_duality

    found = []
    complement_basis = complexes.complement_basis
    monkeypatch.setattr(complexes, "complement_basis",
                        lambda U, V: found.append(complement_basis(U, V)) or found[-1])

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    from child import build_module
    from workloads import operations

    for algebra, kind, window in operations("survey"):
        trunc = Truncation(window)
        report, comp = verify_duality(build_module(kind, resolve_algebra(algebra)), trunc)
        assert report.verdict, (algebra, kind, window)
        for qi, f in ((report.psi_quasi_iso, comp.psi), (report.inclusion_quasi_iso, comp.inclusion)):
            assert qi.degrees == _old_quasi_iso_degrees(f, trunc), (algebra, kind, window)
    assert found and all(reps.cols for reps in found)
