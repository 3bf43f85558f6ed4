"""Normal-approximation toolkit for time-dependent interval dynamics.

Simulates sequential, quasistatic, and random compositions of expanding
interval maps, solves the multivariate Stein equation numerically, verifies
the seven-term decomposition of the normal-comparison form, and measures
distance-to-normal convergence rates for self-normed Birkhoff sums.
"""

__version__ = "0.1.0"

from .dynamics import (
    LsvFamily,
    LsvMap,
    Observable,
    OBSERVABLES,
    PiecewiseLinearMap,
    QuasistaticSequence,
    RandomSequence,
    SequentialSequence,
    ShiftedSlopeFamily,
    orbit,
    trajectory,
)
from .linalg import DegenerateCovariance
from .stein import (
    SteinSolution,
    builtin_test_functions,
    derivative_bound_check,
    smooth_metric_family,
    solve_stein_at,
    stein_residual,
    univariate_bound_check,
    univariate_solution,
)
from .stats import (
    DistanceReport,
    RateFit,
    fit_rate,
    normal_quantile,
    sliced_wasserstein,
    smooth_metric_distance,
    wasserstein1_1d,
)
from .sunklodas import DecompositionLedger, EnsembleMatrix, decompose, punctured_sums
from .transfer import build_ulam, cone_check, invariant_density

__all__ = [
    "__version__",
    "LsvFamily",
    "LsvMap",
    "Observable",
    "OBSERVABLES",
    "PiecewiseLinearMap",
    "QuasistaticSequence",
    "RandomSequence",
    "SequentialSequence",
    "ShiftedSlopeFamily",
    "orbit",
    "trajectory",
    "DegenerateCovariance",
    "SteinSolution",
    "builtin_test_functions",
    "derivative_bound_check",
    "smooth_metric_family",
    "solve_stein_at",
    "stein_residual",
    "univariate_bound_check",
    "univariate_solution",
    "DistanceReport",
    "RateFit",
    "fit_rate",
    "normal_quantile",
    "sliced_wasserstein",
    "smooth_metric_distance",
    "wasserstein1_1d",
    "DecompositionLedger",
    "EnsembleMatrix",
    "decompose",
    "punctured_sums",
    "build_ulam",
    "cone_check",
    "invariant_density",
]
