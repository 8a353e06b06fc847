"""The record classes of src/koszul are plain classes: their constructors
keep the checks, defaults and positional order of their fields, the value
types refuse assignment, and equality and hashing hold where instances are
compared."""

import pytest

from koszul.cli import InputError, RunConfig
from koszul.complexes import ChainMap, CohomologyReport, LinMap, Truncation, cohomology
from koszul.equivariant import invariant_multivector_basis, invariant_subcomplex
from koszul.lie import LieAlgebra, adjoint_matrices, builtin_algebra, certify_reductive
from koszul.linalg import ShapeError
from koszul.modules import exterior_model, trivial_module
from koszul.transgression import primitive_basis


def frozen_values():
    g = builtin_algebra("su2")
    return {
        "LieAlgebra": g,
        "RepMatrices": adjoint_matrices(g)[0],
        "ReductiveDecomposition": certify_reductive(g),
        "Truncation": Truncation(3),
        "MultivectorElement": invariant_multivector_basis(g)[0],
        "Primitive": primitive_basis(g, Truncation(4)).primitives[0],
    }


@pytest.mark.parametrize("name", sorted(frozen_values()))
def test_value_types_refuse_assignment(name):
    value = frozen_values()[name]
    assert type(value).__name__ == name
    field = next(iter(vars(value)))
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        value.added = None
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_truncation_is_a_value():
    assert Truncation(3) == Truncation(3) and hash(Truncation(3)) == hash(Truncation(3))
    assert Truncation(3) != Truncation(4)
    assert Truncation(0).max_degree == 0
    with pytest.raises(ValueError):
        Truncation(-1)


def test_lie_algebra_equality_and_hash():
    """Equal algebras hash alike on (name, dim, labels); the cached
    properties of a frozen algebra still fill."""
    g = builtin_algebra("su2")
    copy = LieAlgebra(g.name, g.dim, g.basis_labels, dict(g.structure))
    assert copy == g and copy is not g
    assert hash(copy) == hash(g) == hash((g.name, g.dim, g.basis_labels))
    assert copy.generators == g.generators and "generators" in vars(copy)
    assert copy != builtin_algebra("sl2")


def test_cohomology_reports_compare_by_value():
    C = trivial_module(builtin_algebra("su2")).complex
    rep = cohomology(C, Truncation(2))
    assert cohomology(C, Truncation(2)) == rep
    assert CohomologyReport({0: 1}, {}, {}) != CohomologyReport({0: 2}, {}, {})
    assert CohomologyReport({0: 1}, {}, {}) != {0: 1}


def test_invariant_models_get_their_own_spans():
    M = exterior_model(builtin_algebra("su2"))
    a, b = invariant_subcomplex(M), invariant_subcomplex(M)
    assert a.spans == {} and a.spans is not b.spans
    a.span(0)
    assert list(a.spans) == [0] and b.spans == {}


def test_constructors_keep_their_checks_and_defaults():
    config = RunConfig("cohomology", "su2")
    assert (config.module, config.max_degree, config.output_format,
            config.corrupt_transgression) == ("exterior", 6, "text", False)
    with pytest.raises(InputError):
        RunConfig("cohomology", "su2", "exterior", 6, "yaml")
    C = trivial_module(builtin_algebra("su2")).complex
    with pytest.raises(ShapeError):
        ChainMap(C, C, LinMap.zero(C.space, C.space, 1))
