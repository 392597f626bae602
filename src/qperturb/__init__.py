"""First-order perturbation of dense Hermitian matrices.

Build H and H', diagonalize H with the built-in eigensolver (a Householder /
multisection start basis that Jacobi rotations finish and certify), expand
a state over the eigenbasis, and get first-order energies and the corrected
eigenstate; every result can be checked against exact diagonalization of
H + x H' with quantitative convergence-order fits.
"""

from .errors import (
    AttemptsExhausted,
    DegenerateDenominator,
    DimensionMismatch,
    InsufficientData,
    NoConvergence,
    NonHermitianInput,
    NotNormalized,
    ParseError,
    QPerturbError,
    ZeroVector,
)
from .numkernel import (
    HERMITICITY_RTOL,
    HermitianMatrix,
    add_scaled,
    identity,
    inner_product,
    matrix_element,
    matvec,
)
from .eigensolver import (
    OFFDIAG_RTOL,
    SpectralDecomposition,
    jacobi_eigendecompose,
)
from .perturbation import (
    DEFAULT_TOL_DEGEN,
    DEFAULT_TOL_NUM,
    FirstOrderResult,
    StateVector,
    correction_coefficients,
    expected_energy,
    first_order,
    level_shifts,
    perturbed_state,
    residual_norm,
    total_energy,
)
from .models import (
    BoxModelSpec,
    box_hamiltonian,
    box_potential_matrix,
    random_hermitian,
)
from .verify import (
    DEFAULT_X_GRID,
    ERROR_FLOOR,
    OrderFit,
    SweepRecord,
    convergence_order,
    exact_levels,
    fit_order,
    level_sweep,
    random_nondegenerate_pair,
    records_for_level,
    superposition_sweep,
)
from .fileio import format_matrix, format_vector, parse_matrix, parse_vector

__version__ = "0.1.0"

__all__ = [
    "AttemptsExhausted",
    "BoxModelSpec",
    "DEFAULT_TOL_DEGEN",
    "DEFAULT_TOL_NUM",
    "DEFAULT_X_GRID",
    "DegenerateDenominator",
    "DimensionMismatch",
    "ERROR_FLOOR",
    "FirstOrderResult",
    "HERMITICITY_RTOL",
    "HermitianMatrix",
    "InsufficientData",
    "NoConvergence",
    "NonHermitianInput",
    "NotNormalized",
    "OFFDIAG_RTOL",
    "OrderFit",
    "ParseError",
    "QPerturbError",
    "SpectralDecomposition",
    "StateVector",
    "SweepRecord",
    "ZeroVector",
    "add_scaled",
    "box_hamiltonian",
    "box_potential_matrix",
    "convergence_order",
    "correction_coefficients",
    "exact_levels",
    "expected_energy",
    "first_order",
    "fit_order",
    "format_matrix",
    "format_vector",
    "identity",
    "inner_product",
    "jacobi_eigendecompose",
    "level_shifts",
    "level_sweep",
    "matrix_element",
    "matvec",
    "parse_matrix",
    "parse_vector",
    "perturbed_state",
    "random_hermitian",
    "random_nondegenerate_pair",
    "records_for_level",
    "residual_norm",
    "superposition_sweep",
    "total_energy",
]
