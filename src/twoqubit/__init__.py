"""Closed-form spectra and entanglement analysis for two-qubit states.

The eigenvalues of any 4x4 Hermitian trace-one matrix follow from its
characteristic coefficients through explicit trigonometric radicals, with
dedicated branches for the degenerate cases. On top of the solver sit the
partial-transpose separability test, the standard entanglement measures,
and the noisy entanglement-transfer chain, all cross-checked against an
independent Jacobi diagonalization oracle in the test suite.
"""

from .bloch import (
    from_bloch,
    partial_transpose,
    partial_transpose_bloch,
    reduced_state,
    to_bloch,
    validate_density_matrix,
)
from .chain import (
    ChainReport,
    chain_lambda_min,
    chain_report,
    critical_noise,
    depolarize,
    evolve_chain,
    max_transfer_distance,
    swap_gate,
)
from .entanglement import (
    EntanglementReport,
    concurrence,
    concurrence_pure,
    entanglement_report,
    eof,
    eof_upper_bound,
    negativity,
    spin_flip,
)
from .errors import (
    InternalInconsistencyError,
    NotApplicableError,
    OracleConvergenceError,
)
from .linalg import charpoly_flv, eig_hermitian_oracle, is_hermitian, trace_power
from .separability import (
    SeparabilityReport,
    TAU_SEP,
    inequality_rhs,
    peres_test,
    pt_coeffs,
    pure_pt_spectrum,
    pure_separable,
)
from .spectrum import (
    Branch,
    CharCoeffs,
    CubicCoeffs,
    QuarticSpectrum,
    TAU_BRANCH,
    coeffs_from_bloch,
    coeffs_from_traces,
    cubic_coeffs,
    cubic_eigs,
    purity_bound_check,
    quartic_eigs,
    rank2_eigs,
    trig_params,
)

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "ChainReport",
    "CharCoeffs",
    "CubicCoeffs",
    "EntanglementReport",
    "InternalInconsistencyError",
    "NotApplicableError",
    "OracleConvergenceError",
    "QuarticSpectrum",
    "SeparabilityReport",
    "TAU_BRANCH",
    "TAU_SEP",
    "chain_lambda_min",
    "chain_report",
    "charpoly_flv",
    "coeffs_from_bloch",
    "coeffs_from_traces",
    "concurrence",
    "concurrence_pure",
    "critical_noise",
    "cubic_coeffs",
    "cubic_eigs",
    "depolarize",
    "eig_hermitian_oracle",
    "entanglement_report",
    "eof",
    "eof_upper_bound",
    "evolve_chain",
    "from_bloch",
    "inequality_rhs",
    "is_hermitian",
    "max_transfer_distance",
    "negativity",
    "partial_transpose",
    "partial_transpose_bloch",
    "peres_test",
    "pt_coeffs",
    "pure_pt_spectrum",
    "pure_separable",
    "purity_bound_check",
    "quartic_eigs",
    "rank2_eigs",
    "reduced_state",
    "spin_flip",
    "swap_gate",
    "to_bloch",
    "trace_power",
    "trig_params",
    "validate_density_matrix",
]
