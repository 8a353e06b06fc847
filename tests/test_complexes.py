import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koszul.complexes import (
    ChainMap,
    CohomologyReport,
    Complex,
    GradedSpace,
    LinMap,
    SubcomplexError,
    TensorSpace,
    Truncation,
    check_chain_map,
    cohomology,
    induced_map,
    quasi_iso_check,
    subcomplex,
)
from koszul.linalg import Matrix, ShapeError, vec


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
    sub, incl = subcomplex(C, {0: [vec([1, 0])], 1: [vec([1, 0]), vec([0, 1])]})
    assert sub.space.dim(0) == 1 and sub.space.dim(1) == 2
    assert check_chain_map(incl).ok
    assert sub.d.block(0).column(0) == vec([1, 0])


def test_subcomplex_rejects_unclosed_subspace():
    space = GradedSpace({0: ("a",), 1: ("c", "d")})
    d = LinMap(space, space, 1, {0: Matrix.from_rows([[1], [0]])})
    C = Complex(space, d)
    with pytest.raises(SubcomplexError):
        subcomplex(C, {0: [vec([1])], 1: [vec([0, 1])]})


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


def _draw_op(data, space, shift=None):
    """A random rational map of the given shift (random when None), or None (the
    identity) when the shift allows it."""
    if not shift and data.draw(st.booleans()):
        return None
    if shift is None:
        shift = data.draw(st.integers(-2, 2))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    blocks = {}
    for d in space.degrees():
        rows, cols = space.dim(d + shift), space.dim(d)
        if rows:
            values = data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
            blocks[d] = Matrix(rows, cols, {(i, j): values[i * cols + j]
                                            for i in range(rows) for j in range(cols)})
    return LinMap(space, space, shift, blocks)


def _dense_factor(op, space, d):
    """Dense block of op at degree d, the identity standing in for None."""
    if op is None:
        return Matrix.identity(space.dim(d)).dense()
    return op.block(d).dense()


def _kronecker_sum(A, B, top, terms, shift):
    """Dense blocks {t: rows} of the sum of signed Kronecker products opA ⊗ opB."""
    lo = A.lo + B.lo

    def size(t):
        return sum(A.dim(q) * B.dim(t - q) for q in range(A.lo, A.hi + 1)) if lo <= t <= top else 0

    def offset(t, q):
        # the (A^q ⊗ B^{t-q}) stratum starts after all strata of lower A-degree
        return sum(A.dim(p) * B.dim(t - p) for p in range(A.lo, q))

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
                row0, col0 = offset(u, q + sA), offset(t, q)
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
    A, B = _draw_space(data, "a"), _draw_space(data, "b")
    opA, opB = _draw_op(data, A), _draw_op(data, B)
    lo = A.lo + B.lo
    top = data.draw(st.integers(lo, A.hi + B.hi))
    ts = TensorSpace(A, B, top)
    lifted = ts.lift(opA, opB)
    sA = 0 if opA is None else opA.shift
    sB = 0 if opB is None else opB.shift
    assert lifted.shift == sA + sB
    for t, expected in _kronecker_sum(A, B, top, [(opA, opB)], sA + sB).items():
        assert ts.space.dim(t) == sum(A.dim(q) * B.dim(t - q) for q in A.degrees())
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
        assert padded.equal_on(summed, ts.space.degrees())
        assert set(padded.blocks) == set(summed.blocks)
        for m in padded.blocks.values():
            assert m.entries and all(m.entries.values())
