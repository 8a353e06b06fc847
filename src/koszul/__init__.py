"""Exact-arithmetic verification of the duality between equivariant and
invariant chain-level cohomology for differential modules over reductive
Lie algebras."""

__version__ = "0.1.0"

from .complexes import (
    ChainMap,
    CohomologyReport,
    Complex,
    GradedSpace,
    LinMap,
    Truncation,
    check_chain_map,
    cohomology,
    quasi_iso_check,
)
from .duality import DualityReport, h_of, verify_duality
from .equivariant import cartan_model, invariant_subcomplex
from .lie import (
    LieAlgebra,
    RepMatrices,
    adjoint_matrices,
    builtin_algebra,
    certify_reductive,
    invariant_vectors,
    killing_form,
    load_lie_algebra,
)
from .linalg import Matrix, complement_basis, image_rank, kernel_basis, solve_affine
from .modules import (
    KgModule,
    TensorModule,
    exterior_model,
    invariant_rep_module,
    load_kg_module,
    polynomial_forms_module,
    tensor_module,
    trivial_module,
    validate_kg,
)
from .transgression import distinguished_transgression, primitive_basis
from .weil import (
    horizontal_basic,
    twist_embedding,
    twist_operators,
    weil_model,
    weil_structure_maps,
)
