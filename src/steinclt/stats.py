"""Ensembles, normalization algebra, distances to normal, and rate fitting."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from .dynamics import Observable, orbit
from .linalg import DegenerateCovariance, spectral_norm, symmetric_sqrt
from .quadrature import gauss_hermite_standard
from .stein import TestFunction, smooth_metric_family
from .sunklodas import EnsembleMatrix

__all__ = [
    "NormalizationMatrix",
    "CovarianceSummary",
    "DistanceReport",
    "RateFit",
    "SigmaSeriesReport",
    "matrix_sqrt",
    "sqrt_n_normalization",
    "empirical_covariance",
    "build_ensemble",
    "birkhoff_raw_sums",
    "normalize_sums",
    "normal_cdf",
    "normal_quantile",
    "wasserstein1_1d",
    "wasserstein_floor",
    "sliced_wasserstein",
    "smooth_metric_distance",
    "scale_distance",
    "sigma_series",
    "fit_rate",
]


@dataclass(frozen=True)
class NormalizationMatrix:
    """Symmetric positive definite normalization b with its inverse."""

    b: np.ndarray
    b_inv: np.ndarray
    provenance: str
    condition: float

    def __post_init__(self):
        if self.provenance not in ("self-norming", "sqrt-n", "custom"):
            raise ValueError("provenance must be self-norming, sqrt-n, or custom")


@dataclass(frozen=True)
class CovarianceSummary:
    matrix: np.ndarray
    lambda_min: float
    lambda_max: float
    spectral: float


def matrix_sqrt(sigma: np.ndarray, min_eigenvalue: float = 1e-10) -> NormalizationMatrix:
    """Self-norming b = Sigma^(1/2) by symmetric eigendecomposition."""
    b, b_inv, eigs = symmetric_sqrt(sigma, min_eigenvalue)
    cond = float(math.sqrt(eigs.max() / eigs.min()))
    return NormalizationMatrix(b, b_inv, "self-norming", cond)


def sqrt_n_normalization(n: int, dim: int) -> NormalizationMatrix:
    """b = sqrt(N) * identity, the fixed normalization for quenched runs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    root = math.sqrt(float(n))
    return NormalizationMatrix(
        root * np.eye(dim), np.eye(dim) / root, "sqrt-n", 1.0
    )


def empirical_covariance(data) -> CovarianceSummary:
    """Covariance of per-sample sums (centered) with eigenvalue summary.

    Accepts an EnsembleMatrix (sums its centered rows over time) or an
    (S, d) array of already-centered vectors.
    """
    if isinstance(data, EnsembleMatrix):
        sums = data.values.sum(axis=1)
        if data.weights is not None:
            cov = np.einsum("s,sa,sb->ab", data.weights, sums, sums)
        else:
            cov = sums.T @ sums / sums.shape[0]
    else:
        arr = np.asarray(data, dtype=float)
        if arr.ndim != 2:
            raise ValueError("expected an (S, d) array of centered vectors")
        cov = arr.T @ arr / arr.shape[0]
    cov = 0.5 * (cov + cov.T)
    eigs = np.linalg.eigvalsh(cov)
    return CovarianceSummary(cov, float(eigs[0]), float(eigs[-1]), spectral_norm(cov))


def build_ensemble(
    seq,
    f: Observable,
    n_terms: int,
    samples: int,
    seed: int,
    initial: np.ndarray | None = None,
    normalization: NormalizationMatrix | str = "self-norming",
    horizon: int | None = None,
    memory_budget: int = 200_000_000,
) -> EnsembleMatrix:
    """S independent orbits, observable values per time slot, centered.

    Slot i holds f at the i-th orbit point (slot 0 is the initial point:
    `initial`, an array of shape (samples,), or a uniform draw).  Centering
    subtracts the per-slot ensemble mean.  The normalization is self-norming
    by default (b from the empirical covariance of the sums).
    """
    if samples < 100:
        raise ValueError("need at least 100 samples to center the ensemble")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if samples * n_terms * f.dimension > memory_budget:
        raise ValueError("ensemble would exceed the memory budget; stream the sums instead")
    if initial is None:
        x0 = np.random.default_rng(seed).random(samples)
    else:
        x0 = np.asarray(initial, dtype=float)
        if x0.shape != (samples,):
            raise ValueError("initial points must have shape (samples,)")
    raw = np.empty((samples, n_terms, f.dimension))
    for k, x in enumerate(orbit(seq, x0, n_terms - 1, horizon)):
        raw[:, k, :] = f(x)
    if isinstance(normalization, NormalizationMatrix):
        norm = normalization
    elif normalization == "self-norming":
        centered = raw - raw.mean(axis=0, keepdims=True)
        summary = empirical_covariance(centered.sum(axis=1))
        norm = matrix_sqrt(summary.matrix)
    elif normalization == "sqrt-n":
        norm = sqrt_n_normalization(n_terms, f.dimension)
    else:
        raise ValueError("normalization must be self-norming, sqrt-n, or a matrix")
    return EnsembleMatrix.from_raw(raw, norm.b, f.bound)


def birkhoff_raw_sums(
    seq,
    f: Observable,
    n_terms: int,
    samples: int,
    seed: int,
    horizon: int | None = None,
) -> np.ndarray:
    """Uncentered sums over n_terms slots, streaming over time (O(S d) memory)."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    x0 = np.random.default_rng(seed).random(samples)
    acc = np.zeros((samples, f.dimension))
    for x in orbit(seq, x0, n_terms - 1, horizon):
        acc += f(x)
    return acc


def normalize_sums(
    raw_sums: np.ndarray,
    normalization: NormalizationMatrix | str = "self-norming",
    min_eigenvalue: float = 1e-10,
    n_terms: int | None = None,
) -> tuple[np.ndarray, NormalizationMatrix, CovarianceSummary]:
    """Center raw sums, then apply b^{-1}; returns (W, b, covariance summary)."""
    raw = np.asarray(raw_sums, dtype=float)
    centered = raw - raw.mean(axis=0, keepdims=True)
    summary = empirical_covariance(centered)
    if isinstance(normalization, NormalizationMatrix):
        norm = normalization
    elif normalization == "self-norming":
        if summary.lambda_min <= min_eigenvalue:
            raise DegenerateCovariance(
                "covariance of the sums is singular; increase N or the sample count"
            )
        norm = matrix_sqrt(summary.matrix, min_eigenvalue)
    elif normalization == "sqrt-n":
        if n_terms is None:
            raise ValueError("sqrt-n normalization needs n_terms")
        norm = sqrt_n_normalization(n_terms, raw.shape[1])
    else:
        raise ValueError("normalization must be self-norming, sqrt-n, or a matrix")
    return centered @ norm.b_inv.T, norm, summary


@dataclass(frozen=True)
class DistanceReport:
    metric: str
    value: float
    stderr: float
    sample_size: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("distances are nonnegative")


def normal_cdf(x) -> np.ndarray:
    return ndtr(np.asarray(x, dtype=float))


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile, the inverse of `normal_cdf` on (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("quantile argument must lie in (0, 1)")
    x = ndtri(p)
    return float(x) if p.ndim == 0 else x


def wasserstein_floor(m: int) -> float:
    """Resolution floor of the one-sample estimator at sample size M.

    Calibrated on studentized draws (sample centered and scaled by its own
    moments, as the self-norming pipelines do): the mean W1 against the
    standard normal levels off near 0.8 / sqrt(M).  Raw i.i.d. draws sit
    closer to 1.1 / sqrt(M), so treat this as the optimistic floor.
    """
    if m < 2:
        raise ValueError("need at least 2 samples")
    return 0.8 / math.sqrt(float(m))


def wasserstein1_1d(sample, reference=None) -> DistanceReport:
    """One-dimensional Wasserstein-1 distance from order statistics.

    Against the standard normal (reference None), compares sorted samples
    with the quantiles at (i - 1/2)/M; against another sample of the same
    size, averages matched order-statistic gaps.
    """
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    m = x.size
    if m < 100:
        raise ValueError("need at least 100 samples")
    if reference is None:
        q = normal_quantile((np.arange(1, m + 1) - 0.5) / m)
        gaps = np.abs(x - q)
        ref_label = "std-normal"
    else:
        y = np.sort(np.asarray(reference, dtype=float).ravel())
        if y.size != m:
            raise ValueError("two-sample mode requires equal sizes")
        gaps = np.abs(x - y)
        ref_label = "sample"
    value = float(gaps.mean())
    stderr = float(gaps.std(ddof=1) / math.sqrt(m))
    return DistanceReport("wasserstein1", value, stderr, m, {"reference": ref_label})


def sliced_wasserstein(
    w: np.ndarray,
    sigma: np.ndarray | None = None,
    directions: int = 64,
    seed: int = 0,
) -> DistanceReport:
    """Average 1-D distance of unit-direction projections against the normal.

    Each projection theta^T W is rescaled by sqrt(theta^T Sigma theta) and
    compared with the standard normal; d = 1 reduces to wasserstein1_1d.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError("expected an (S, d) array")
    s_count, d = w.shape
    if sigma is None:
        sigma = np.eye(d)
    sigma = np.asarray(sigma, dtype=float)
    if d == 1:
        scale = math.sqrt(float(sigma[0, 0]))
        base = wasserstein1_1d(w[:, 0] / scale)
        return DistanceReport(
            "sliced-wasserstein", base.value, base.stderr, s_count, {"directions": 1}
        )
    if directions < 32:
        raise ValueError("need at least 32 directions")
    rng = np.random.default_rng(seed)
    values = np.empty(directions)
    errs = np.empty(directions)
    for j in range(directions):
        theta = rng.normal(size=d)
        theta /= np.linalg.norm(theta)
        var = float(theta @ sigma @ theta)
        if var <= 0.0:
            raise DegenerateCovariance("projected variance is not positive")
        rep = wasserstein1_1d(w @ theta / math.sqrt(var))
        values[j] = rep.value
        errs[j] = rep.stderr
    value = float(values.mean())
    stderr = float(
        math.sqrt(values.var(ddof=1) / directions + (errs.mean()) ** 2)
    )
    return DistanceReport(
        "sliced-wasserstein", value, stderr, s_count, {"directions": directions}
    )


def smooth_metric_distance(
    w: np.ndarray,
    sigma: np.ndarray | None = None,
    family: Sequence[TestFunction] | None = None,
    gh_order: int = 24,
) -> DistanceReport:
    """Max over the smooth family of |mean h(W) - normal expectation of h|."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError("expected an (S, d) array")
    s_count, d = w.shape
    if d > 3:
        raise ValueError("smooth metric supports d <= 3")
    if sigma is None:
        sigma = np.eye(d)
    sigma = np.asarray(sigma, dtype=float)
    if family is None:
        family = smooth_metric_family(d)
    chol = np.linalg.cholesky(sigma)
    nodes, weights = gauss_hermite_standard(gh_order, d)
    z = nodes @ chol.T
    best = (-1.0, "", 0.0)
    for h in family:
        vals = np.asarray(h.value(w), dtype=float)
        gauss = float(weights @ np.asarray(h.value(z), dtype=float))
        gap = abs(float(vals.mean()) - gauss)
        if gap > best[0]:
            best = (gap, getattr(h, "name", h.__class__.__name__),
                    float(vals.std(ddof=1) / math.sqrt(s_count)))
    return DistanceReport(
        "smooth-metric", best[0], best[2], s_count,
        {"family_size": len(family), "argmax": best[1], "gh_order": gh_order},
    )


def scale_distance(report: DistanceReport, a: float) -> DistanceReport:
    """Positive homogeneity d(aX, aY) = a d(X, Y) for Wasserstein-type metrics."""
    if a <= 0.0:
        raise ValueError("scale factor must be positive")
    if report.metric not in ("wasserstein1", "sliced-wasserstein"):
        raise ValueError("scale homogeneity only applies to Wasserstein-type metrics")
    return DistanceReport(
        report.metric, a * report.value, a * report.stderr,
        report.sample_size, dict(report.params),
    )


@dataclass(frozen=True)
class SigmaSeriesReport:
    matrix: np.ndarray
    lag_terms: tuple
    tail_estimate: float
    k_max: int
    runs: int
    samples: int

    def __array__(self, dtype=None, copy=None):
        arr = np.array(self.matrix, dtype=dtype)
        return arr


def sigma_series(
    make_sequence: Callable[[int], object],
    f: Observable,
    k_max: int,
    samples: int = 4096,
    runs: int = 8,
    burn_in: int = 64,
    window: int = 16,
    seed: int = 0,
) -> SigmaSeriesReport:
    """Truncated annealed covariance series with (2 - delta_k0) weights.

    Sigma ~= sum_{k=0}^{K} (2 - delta_k0) * sym(E[mu(fbar^i (fbar^{i+k})^T)])
    with i averaged over a window past the burn-in and the outer expectation
    over `runs` independent parameter sequences.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    d = f.dimension
    lag_sums = np.zeros((k_max + 1, d, d))
    rng = np.random.default_rng(seed)
    n_slots = burn_in + window + k_max + 1
    for _ in range(runs):
        seq = make_sequence(int(rng.integers(2**63)))
        vals = np.empty((samples, n_slots, d))
        for k, x in enumerate(orbit(seq, rng.random(samples), n_slots - 1)):
            vals[:, k, :] = f(x)
        vals -= vals.mean(axis=0, keepdims=True)
        for k in range(k_max + 1):
            acc = np.zeros((d, d))
            for i in range(burn_in, burn_in + window + 1):
                acc += vals[:, i].T @ vals[:, i + k] / samples
            lag_sums[k] += acc / (window + 1)
    lag_means = lag_sums / runs
    total = np.zeros((d, d))
    terms = []
    for k in range(k_max + 1):
        weight = 1.0 if k == 0 else 2.0
        term = weight * 0.5 * (lag_means[k] + lag_means[k].T)
        terms.append(term)
        total += term
    tail = spectral_norm(terms[-1]) if terms else 0.0
    return SigmaSeriesReport(total, tuple(terms), tail, k_max, runs, samples)


@dataclass(frozen=True)
class RateFit:
    n_values: tuple
    distances: tuple
    model: str
    exponent: float
    halfwidth: float
    r_squared: float
    intercept: float

    @property
    def log_correction(self) -> bool:
        return self.model == "power-times-log"


def fit_rate(pairs: Sequence[tuple[int, float]], model: str = "pure-power") -> RateFit:
    """Least-squares exponent of distance against N on log-log axes.

    pure-power fits log d = c + p log N; power-times-log fixes the
    log-factor coefficient to one and fits log d - log log N = c + p log N.
    The half-width is twice the standard error of the slope.
    """
    if model not in ("pure-power", "power-times-log"):
        raise ValueError("model must be pure-power or power-times-log")
    ns = np.asarray([p[0] for p in pairs], dtype=float)
    ds = np.asarray([p[1] for p in pairs], dtype=float)
    if ns.size < 4:
        raise ValueError("need at least 4 (N, distance) pairs")
    if np.any(ds <= 0.0):
        raise ValueError("distances must be positive")
    if np.unique(ns).size != ns.size or np.any(ns < 2):
        raise ValueError("N values must be distinct integers >= 2")
    if ns.max() / ns.min() < 8.0 - 1e-9:
        raise ValueError("N grid must span at least three octaves")
    x = np.log(ns)
    y = np.log(ds)
    if model == "power-times-log":
        if np.any(ns < 3):
            raise ValueError("power-times-log needs N >= 3")
        y = y - np.log(np.log(ns))
    xbar = x.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - y.mean())) / sxx)
    intercept = float(y.mean() - slope * xbar)
    resid = y - (intercept + slope * x)
    rss = float(resid @ resid)
    tss = float(np.sum((y - y.mean()) ** 2))
    dof = ns.size - 2
    se = math.sqrt(rss / dof / sxx) if dof > 0 else 0.0
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    return RateFit(
        tuple(int(n) for n in ns), tuple(float(v) for v in ds),
        model, slope, 2.0 * se, r2, intercept,
    )
