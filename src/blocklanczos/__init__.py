"""Numerical laboratory for block Lanczos in finite precision.

The package groups:

* linalg     -- QR / eigen / SVD kernels and the block tridiagonal type
* matrices   -- test problem generators and Matrix Market input
* lanczos    -- the block Lanczos driver, diagnostics, Ritz analysis
* cg         -- two block conjugate gradient variants and the trace error
* continuation -- extending a finite-precision run to a model matrix
* analysis   -- interlacing, cluster, spread, and certificate checks
* cli        -- CSV-producing experiment commands
"""

from .errors import (
    AssumptionUnsatisfiable,
    BlockLanczosError,
    CapReached,
    ConvergenceFailure,
    EmptySelection,
    InnerBreakdown,
    NearDependentRitzVectors,
    NonFiniteOperator,
    NotPositiveDefinite,
    NotSymmetric,
    OverlappingIntervals,
    ParseError,
    RankDeficient,
    RankDeficientStart,
    ShapeMismatch,
    SingularInnerSolve,
    UnsupportedField,
)
from .linalg import (
    BlockTridiagonal,
    densify,
    householder_qr,
    panel_norm,
    reorthogonalize,
    stack_panels,
    sym_eig,
    sym_norm,
    truncated_svd,
)
from .matrices import (
    BlurSpec,
    SpectrumSpec,
    blurred_problem,
    kron_perturbed_problem,
    random_orthonormal,
    read_matrix_market,
    spectrum_to_matrix,
    strakos48,
    strakos_spectrum,
)
from .lanczos import (
    DiagnosticsRow,
    LanczosRun,
    RitzSet,
    ritz_analysis,
    run_block_lanczos,
)
from .cg import CgHistory, dr_bcg, hs_bcg, trace_error
from .continuation import (
    ContinuationResult,
    ContinuationStep,
    DecompositionReport,
    PrefixContinuation,
    SelectionReport,
    assemble_tn,
    build_wk,
    continuation_first_step,
    continuation_run,
    continue_prefix,
    monitored_terms,
    perturbation_decomposition,
    prefix_terms,
    select_ritz_vectors,
)
from .analysis import (
    ClusterLabel,
    ConjectureReport,
    SpreadReport,
    Theorem1Certificate,
    classify_clusters,
    conjecture_scan,
    interlacing_check,
    interval_spread,
    theorem1_certificate,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
