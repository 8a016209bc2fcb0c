"""Operator-frame state and observable estimation for finite quantum systems.

The package is organized around one reconstruction identity: expand an
operator over a spanning set of (generally non-orthogonal, non-Hermitian)
operators, estimate the expansion coefficients from measured data, and
reassemble. Submodules:

operators / states   matrix builders and basic containers
frames               spanning sets, duals, bi-orthogonality and rank checks
dualbasis            Gram-Schmidt and pseudoinverse dual construction
estimators           per-quorum kernels and estimators
records              columnar record batches and the quorum family table
sampler              synthetic measurement records, reproducible streams
recon                streaming accumulation, density-matrix assembly
serialize            file formats (JSON documents, record CSV)
cli                  command-line entry point

scipy is imported only inside the functions that call it, so `import qtomo`
loads numpy only.
"""

from .errors import (
    DimensionMismatchError,
    GridError,
    InvalidSpecError,
    NumericPreconditionError,
    QtomoError,
    RankDeficientError,
    TruncationError,
    UsageError,
)
from .operators import Operator, hs_inner
from .states import DensityMatrix, StateSpec, make_state
from .frames import (
    DualSet,
    FrameReport,
    RankReport,
    SettingLabel,
    SpanningSet,
    check_biorthogonality,
    check_trace_condition,
    irreducibility_rank,
    null_operator_test,
    superop_matrix_elements,
    superop_reassemble,
)
from .dualbasis import (
    gram_schmidt_dual,
    pseudoinverse_dual,
    spiral_directions,
    weigert_spin_quorum,
)
from .estimators import EstimatorConfig, SqueezeParams
from .records import FAMILIES, RecordBatch
from .sampler import RngStream
from .recon import (
    Accumulator,
    EstimationResult,
    ReconstructedMatrix,
    compare_states,
    estimate,
    nearest_physical_state,
    reconstruct_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "QtomoError",
    "UsageError",
    "InvalidSpecError",
    "DimensionMismatchError",
    "NumericPreconditionError",
    "TruncationError",
    "RankDeficientError",
    "GridError",
    "Operator",
    "hs_inner",
    "DensityMatrix",
    "StateSpec",
    "make_state",
    "SettingLabel",
    "SpanningSet",
    "DualSet",
    "FrameReport",
    "RankReport",
    "check_biorthogonality",
    "check_trace_condition",
    "irreducibility_rank",
    "null_operator_test",
    "superop_matrix_elements",
    "superop_reassemble",
    "gram_schmidt_dual",
    "pseudoinverse_dual",
    "weigert_spin_quorum",
    "spiral_directions",
    "EstimatorConfig",
    "SqueezeParams",
    "FAMILIES",
    "RecordBatch",
    "RngStream",
    "Accumulator",
    "EstimationResult",
    "ReconstructedMatrix",
    "estimate",
    "reconstruct_matrix",
    "compare_states",
    "nearest_physical_state",
]
