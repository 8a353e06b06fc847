import importlib.util
import json
from pathlib import Path

import pytest

from koszul.lie import (
    AntisymmetryViolation,
    BadIndex,
    JacobiViolation,
    LieAlgebra,
    LieAlgebraError,
    NotReductive,
    RepMatrices,
    adjoint_matrices,
    builtin_algebra,
    certify_reductive,
    invariant_vectors,
    killing_form,
    lie_algebra_from_dict,
    load_lie_algebra,
)
from koszul.linalg import Matrix, vec


def test_su2_loads_and_brackets():
    g = builtin_algebra("su2")
    assert g.dim == 3
    assert g.bracket(0, 1) == vec([0, 0, 2])
    assert g.bracket(1, 2) == vec([2, 0, 0])
    assert g.bracket(2, 0) == vec([0, 2, 0])
    # antisymmetry completed automatically
    assert g.bracket(1, 0) == vec([0, 0, -2])


def test_builtin_algebra_is_built_once_per_name():
    """One LieAlgebra per built-in name and per abelian:n spec, so its
    cached constants, adjoint matrices and generators are built once; a bad
    spec still raises on every call."""
    g = builtin_algebra("su2")
    assert builtin_algebra("su2") is g and load_lie_algebra("su2") is g
    assert g.generators is builtin_algebra("su2").generators
    assert builtin_algebra("abelian:3") is builtin_algebra("abelian:3")
    assert builtin_algebra("abelian:3").name == "abelian3"
    for _ in range(2):
        with pytest.raises(LieAlgebraError):
            builtin_algebra("abelian:-1")
        with pytest.raises(LieAlgebraError):
            builtin_algebra("nope")


def test_abelian_accepted():
    g = builtin_algebra("abelian2")
    assert all(not any(g.bracket(i, j)) for i in range(2) for j in range(2))


def test_sl2_accepted():
    # the single nontrivial Jacobi triple (h,e,f) was checked by hand
    g = builtin_algebra("sl2")
    assert g.bracket(0, 1) == vec([0, 2, 0])
    assert g.bracket(1, 2) == vec([1, 0, 0])


def test_jacobi_violation_reported():
    data = {
        "name": "bad",
        "dim": 3,
        "basis": ["a", "b", "c"],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 2, "c": "1"}]},
            {"i": 0, "j": 2, "terms": [{"k": 1, "c": "1"}]},
            {"i": 1, "j": 2, "terms": [{"k": 1, "c": "1"}]},
        ],
    }
    with pytest.raises(JacobiViolation) as err:
        lie_algebra_from_dict(data)
    assert "triple" in str(err.value)


def test_bad_index_rejected():
    data = {"name": "bad", "dim": 2, "basis": ["a", "b"],
            "brackets": [{"i": 0, "j": 5, "terms": [{"k": 0, "c": "1"}]}]}
    with pytest.raises(BadIndex):
        lie_algebra_from_dict(data)


def test_inconsistent_antisymmetry_rejected():
    data = {
        "name": "bad",
        "dim": 2,
        "basis": ["a", "b"],
        "brackets": [
            {"i": 0, "j": 1, "terms": [{"k": 0, "c": "1"}]},
            {"i": 1, "j": 0, "terms": [{"k": 0, "c": "1"}]},
        ],
    }
    with pytest.raises(AntisymmetryViolation):
        lie_algebra_from_dict(data)


def test_certify_su2(monkeypatch):
    """One Killing form for the check and the decomposition, built on the
    first call only: the decomposition is certified once per algebra."""
    import koszul.lie

    su2 = builtin_algebra("su2")
    g = LieAlgebra(su2.name, su2.dim, su2.basis_labels, su2.structure)  # not yet certified
    built = []
    monkeypatch.setattr(koszul.lie, "killing_form", lambda g: built.append(g) or killing_form(g))
    dec = certify_reductive(g)
    assert dec.center == ()
    assert len(dec.derived) == 3
    assert killing_form(g) == Matrix.identity(3).scale(-8) == dec.killing
    assert built == [g]
    assert certify_reductive(g) is dec and built == [g]


def test_certify_abelian():
    g = builtin_algebra("abelian2")
    dec = certify_reductive(g)
    assert len(dec.center) == 2
    assert dec.derived == ()


def test_nonreductive_rejected():
    #  [x, y] = y: solvable, not reductive
    data = {"name": "aff1", "dim": 2, "basis": ["x", "y"],
            "brackets": [{"i": 0, "j": 1, "terms": [{"k": 1, "c": "1"}]}]}
    g = lie_algebra_from_dict(data)
    for _ in range(2):  # a failure is not cached
        with pytest.raises(NotReductive):
            certify_reductive(g)


def test_adjoint_matrices_su2():
    g = builtin_algebra("su2")
    ad, coad = adjoint_matrices(g)
    # ad_i: i -> 0, j -> 2k, k -> -2j
    assert ad.matrices[0].column(0) == vec([0, 0, 0])
    assert ad.matrices[0].column(1) == vec([0, 0, 2])
    assert ad.matrices[0].column(2) == vec([0, -2, 0])
    ad.check()
    coad.check()
    # built once per algebra
    assert adjoint_matrices(g) is adjoint_matrices(g)


def test_adjoint_matrices_sl2():
    g = builtin_algebra("sl2")
    ad, _ = adjoint_matrices(g)
    # ad_h: e -> 2e, f -> -2f, h -> 0
    assert ad.matrices[0].column(1) == vec([0, 2, 0])
    assert ad.matrices[0].column(2) == vec([0, 0, -2])
    assert ad.matrices[0].column(0) == vec([0, 0, 0])


def test_invariants_trivial_rep():
    g = builtin_algebra("su2")
    rep = RepMatrices(g, (Matrix.zero(1, 1),) * 3)
    assert invariant_vectors(rep) == [vec([1])]


def test_invariants_coadjoint_su2_empty():
    g = builtin_algebra("su2")
    _, coad = adjoint_matrices(g)
    assert invariant_vectors(coad) == []


def test_invariants_abelian_full():
    g = builtin_algebra("abelian2")
    _, coad = adjoint_matrices(g)
    assert len(invariant_vectors(coad)) == 2


def test_rep_bracket_compat_enforced():
    g = builtin_algebra("su2")
    bad = RepMatrices(g, (Matrix.identity(2), Matrix.zero(2, 2), Matrix.zero(2, 2)))
    with pytest.raises(LieAlgebraError):
        bad.check()


def test_load_from_file(tmp_path):
    p = tmp_path / "alg.json"
    p.write_text(json.dumps({"name": "a1", "dim": 1, "basis": ["t"], "brackets": []}))
    g = load_lie_algebra(str(p))
    assert g.dim == 1


def test_load_malformed_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"name": "x", ')
    with pytest.raises(LieAlgebraError) as err:
        load_lie_algebra(str(p))
    assert "line" in str(err.value)


def test_builtin_abelian_n():
    g = builtin_algebra("abelian:3")
    assert g.dim == 3


def test_su2xsu2_certifies():
    g = builtin_algebra("su2xsu2")
    dec = certify_reductive(g)
    assert len(dec.derived) == 6 and dec.center == ()


def test_matrix_algebra_data_files_are_current():
    """sl3.json and u2.json are exactly what scripts/matrix_algebras.py writes
    from matrix commutators."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "matrix_algebras.py"
    spec = importlib.util.spec_from_file_location("matrix_algebras", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--check"]) == 0


@pytest.mark.parametrize("name,center,derived", [("sl3", 0, 8), ("u2", 1, 3)])
def test_matrix_algebras_certify(name, center, derived):
    g = builtin_algebra(name)
    dec = certify_reductive(g)
    assert (len(dec.center), len(dec.derived)) == (center, derived)
    assert len(invariant_vectors(adjoint_matrices(g)[0])) == center


# -- generators: the basis indices whose L_k cut every invariant kernel ------

GENERATORS = {
    "su2": ("i", "j"),
    "sl2": ("h", "e", "f"),
    "abelian1": ("t",),
    "abelian2": ("t1", "t2"),
    "su2xsu2": ("i1", "j1", "i2", "j2"),
    "sl3": ("h1", "h2", "e12", "e23", "f31"),
    "u2": ("z", "i", "j"),
    "abelian:4": ("t1", "t2", "t3", "t4"),
}


def _generated_dim(g, ks) -> int:
    """dim of the subalgebra generated by the basis vectors ks: brackets of
    independent spanning columns with the generators, until sympy's column
    space stops growing (no koszul linear algebra)."""
    import sympy

    span = sympy.Matrix(g.dim, len(ks), lambda i, j: int(i == ks[j]))
    while True:
        grown = span.row_join(sympy.Matrix(g.dim, len(ks) * span.cols, lambda m, c: sum(
            x * g.bracket(ks[c // span.cols], j)[m] for j, x in enumerate(span[:, c % span.cols]))))
        basis = grown.columnspace()
        if len(basis) == span.cols:
            return span.cols
        span = sympy.Matrix.hstack(*basis)


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_pinned_generate_g_and_keep_every_diagonal_index(name):
    g = builtin_algebra(name)
    assert tuple(g.basis_labels[k] for k in g.generators) == GENERATORS[name]
    assert list(g.generators) == sorted(set(g.generators))
    assert _generated_dim(g, g.generators) == g.dim
    diagonal = [k for k in range(g.dim)
                if all(not c for j in range(g.dim) for m, c in enumerate(g.bracket(k, j)) if m != j)]
    assert set(diagonal) <= set(g.generators)
    # smallest: no generator outside the diagonal ones can be dropped
    for k in set(g.generators) - set(diagonal):
        assert _generated_dim(g, [j for j in g.generators if j != k]) < g.dim
