"""Pencil eigenproblems reduced to Hermitian form, solved by simulated phase estimation."""

from .analysis import (
    ScanRecord,
    fill_fraction,
    hermitian_inv_sqrt,
    oracle_eigensolve,
    random_generalized_pair,
    scan_commutator_norm,
    scan_sparsity,
    scan_trotter_error,
)
from .discretize import (
    Coefficient,
    GridSpec,
    SturmLiouvilleSpec,
    build_fem_mass_dg,
    build_fem_mass_tent,
    build_sl_generalized,
    build_sl_reduced,
)
from .errors import (
    BandwidthTooLarge,
    ConfigInvalid,
    ConvergenceFailure,
    DegenerateRange,
    DimensionMismatch,
    NonPositiveCoefficient,
    NotPositiveDefinite,
    OutOfRange,
    ParseError,
    QpencilError,
    RegimeViolation,
    TooManyQubits,
)
from .jacobi import eigh_jacobi
from .linalg import (
    BandedHermitian,
    BlockDiagonalPD,
    BlockLowerTriangular,
    SparsityReport,
    block_powers,
    cholesky_block_diagonal,
    count_nonzeros,
    predicted_nnz,
    sparsity_report,
)
from .qpe import (
    QpeResult,
    ShiftScale,
    Statevector,
    evolve_exact,
    evolve_trotter,
    gershgorin_shift_scale,
    outcome_to_eigenvalue,
    overlap_probabilities,
    run_qpe,
    sample_outcomes,
    split_tridiagonal,
)
from .reduction import (
    ReducedProblem,
    check_b_orthogonality,
    forward_transform,
    recover_eigenvector,
    reduce_cholesky,
    reduce_sqrt,
)

__version__ = "0.1.0"
