"""Normal-approximation toolkit for time-dependent interval dynamics.

Simulates sequential, quasistatic, and random compositions of expanding
interval maps, solves the multivariate Stein equation numerically, verifies
the seven-term decomposition of the normal-comparison form, and measures
distance-to-normal convergence rates for self-normed Birkhoff sums.
"""

import importlib

__version__ = "0.1.0"

# PEP 562: each public name is imported from its module at first access, so
# `import steinclt` (and so `import steinclt.cli`) loads no numpy by itself
# and no module a run does not use (`transfer` serves no subcommand).
_MODULES = {
    "dynamics": (
        "LsvFamily", "Observable", "OBSERVABLES", "QuasistaticSequence", "RandomSequence",
        "SequentialSequence", "ShiftedSlopeFamily", "orbit", "trajectory",
    ),
    "linalg": ("DegenerateCovariance",),
    "stein": (
        "SteinSolution", "builtin_test_functions", "derivative_bound_check",
        "smooth_metric_family", "stein_residual", "univariate_bound_check",
        "univariate_solution",
    ),
    "stats": (
        "DistanceReport", "RateFit", "fit_rate", "normal_quantile", "sliced_wasserstein",
        "smooth_metric_distance", "wasserstein1_1d",
    ),
    "sunklodas": ("DecompositionLedger", "EnsembleMatrix", "decompose", "punctured_sums"),
    "transfer": ("build_ulam", "cone_check", "invariant_density"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = [
    "__version__",
    "LsvFamily",
    "Observable",
    "OBSERVABLES",
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


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
