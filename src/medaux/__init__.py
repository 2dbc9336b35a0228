"""Median estimation with auxiliary information under SRSWOR.

The package covers the full workflow: ingest a finite population or its
published summary parameters, evaluate a catalogue of median estimators that
exploit a known auxiliary median, compute their first-order biases, MSEs,
minimum MSEs and optimal weights from each estimator's expansion, check the
efficiency orderings between estimator classes, and verify the asymptotics
empirically with a reproducible SRSWOR replication engine.
"""

from .errors import (
    DegenerateOptimumError,
    DegeneratePivotWarning,
    DegenerateSampleError,
    DomainError,
    InfiniteEfficiencyWarning,
    MedauxError,
    ParseError,
    SchemaError,
    SingularityError,
    UnknownEstimatorError,
)
from .estimators import (
    EstimatorSpec,
    SampleStats,
    PRESET_NAMES,
    coeffs_of,
    evaluate,
    free_scalars,
    preset,
    resolve_weights,
)
from .expansion import (
    ErrorMoments,
    ExpansionCoeffs,
    bias_from_coeffs,
    error_moments,
    exp_constants,
    k_const,
    mse_from_coeffs,
)
from .montecarlo import (
    EstimatorResult,
    SimulationConfig,
    SimulationReport,
    SyntheticSpec,
    make_synthetic,
    run_simulation,
    srswor,
)
from .mse import (
    DominanceResult,
    MseReportRow,
    analytic_bias,
    dominance_checks,
    min_mse_ss4,
    pre,
    table_rows,
)
from .population import (
    DensityMethod,
    HistogramDensity,
    KernelDensity,
    KnownDensity,
    MedianParams,
    PopulationFrame,
    ProportionMatrix,
    compute_params,
    density_at,
    finite_median,
    load_params,
    load_population,
    proportion_matrix,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # population
    "PopulationFrame",
    "ProportionMatrix",
    "MedianParams",
    "KernelDensity",
    "HistogramDensity",
    "KnownDensity",
    "DensityMethod",
    "load_population",
    "load_params",
    "finite_median",
    "proportion_matrix",
    "density_at",
    "compute_params",
    # expansion
    "ExpansionCoeffs",
    "ErrorMoments",
    "k_const",
    "exp_constants",
    "error_moments",
    "bias_from_coeffs",
    "mse_from_coeffs",
    # estimators
    "EstimatorSpec",
    "SampleStats",
    "PRESET_NAMES",
    "evaluate",
    "coeffs_of",
    "preset",
    "resolve_weights",
    "free_scalars",
    # mse
    "MseReportRow",
    "DominanceResult",
    "min_mse_ss4",
    "analytic_bias",
    "pre",
    "dominance_checks",
    "table_rows",
    # montecarlo
    "SimulationConfig",
    "SyntheticSpec",
    "EstimatorResult",
    "SimulationReport",
    "srswor",
    "run_simulation",
    "make_synthetic",
    # errors
    "MedauxError",
    "ParseError",
    "SchemaError",
    "DomainError",
    "DegenerateSampleError",
    "SingularityError",
    "DegenerateOptimumError",
    "UnknownEstimatorError",
    "DegeneratePivotWarning",
    "InfiniteEfficiencyWarning",
]
