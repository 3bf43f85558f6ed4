"""Ensembles, Birkhoff sums read at checkpoints, normalization algebra,
distances to normal, and rate fitting."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtri

from .dynamics import Observable, orbit
from .linalg import DegenerateCovariance, spectral_norm, symmetric_sqrt
from .quadrature import gauss_hermite_standard
from .stein import smooth_metric_family
from .sunklodas import MEMORY_BUDGET, EnsembleMatrix

__all__ = [
    "DistanceReport",
    "RateFit",
    "SigmaSeriesReport",
    "empirical_covariance",
    "check_ensemble_size",
    "build_ensemble",
    "birkhoff_raw_sums",
    "normalize_sums",
    "normal_quantile",
    "wasserstein1_1d",
    "wasserstein_floor",
    "sliced_wasserstein",
    "smooth_metric_distance",
    "scale_distance",
    "sigma_series",
    "check_rate_grid",
    "fit_rate",
]


def empirical_covariance(data) -> np.ndarray:
    """Symmetrized covariance of an (S, d) array of centered vectors."""
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise ValueError("expected an (S, d) array of centered vectors")
    cov = arr.T @ arr / arr.shape[0]
    return 0.5 * (cov + cov.T)


def _orbit_values(seq, f: Observable, x0: np.ndarray, slots: int) -> np.ndarray:
    """(samples, slots, d) array of f at the first `slots` points of the
    orbits from x0 (slot 0 is x0), one `f` call per slot in time order."""
    vals = np.empty((x0.shape[0], slots, f.dimension))
    for k, x in enumerate(orbit(seq, x0, slots - 1)):
        vals[:, k, :] = f(x)
    return vals


def check_ensemble_size(samples: int, n_terms: int, dim: int, memory_budget: int = MEMORY_BUDGET):
    """ValueError when `build_ensemble`'s S * N * d values exceed memory_budget."""
    if samples * n_terms * dim > memory_budget:
        raise ValueError("ensemble would exceed the memory budget; stream the sums instead")


def build_ensemble(
    seq,
    f: Observable,
    n_terms: int,
    samples: int,
    seed: int,
    initial: np.ndarray | None = None,
    memory_budget: int = MEMORY_BUDGET,
) -> EnsembleMatrix:
    """S independent orbits, observable values per time slot, centered.

    Slot i holds f at the i-th orbit point (slot 0 is the initial point:
    `initial`, an array of shape (samples,), or a uniform draw).  Centering
    subtracts the per-slot ensemble mean.  The normalization is self-norming:
    b is `linalg.symmetric_sqrt` of the empirical covariance of the sums,
    and another b is one `EnsembleMatrix.with_normalization` call away.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples to center the ensemble")
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    check_ensemble_size(samples, n_terms, f.dimension, memory_budget)
    if initial is None:
        x0 = np.random.default_rng(seed).random(samples)
    else:
        x0 = np.asarray(initial, dtype=float)
        if x0.shape != (samples,):
            raise ValueError("initial points must have shape (samples,)")
    raw = _orbit_values(seq, f, x0, n_terms)
    centered = raw - raw.mean(axis=0, keepdims=True)
    b = symmetric_sqrt(empirical_covariance(centered.sum(axis=1)))[0]
    return EnsembleMatrix.from_raw(raw, b, f.bound)


def birkhoff_raw_sums(
    seq,
    f: Observable,
    checkpoints: Sequence[int],
    x0: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Fill out[j] with the uncentered sum of f over the first checkpoints[j]
    slots (slot 0 is x0) of one orbit pass; returns out.

    The pass takes max(checkpoints) - 1 steps, so it reads that parameter
    row.  Checkpoints are non-decreasing, 0 and repeats allowed.  When the
    rows nest, each out[j] has the bits of a pass to checkpoints[j].
    """
    cps = list(checkpoints)
    if not cps or cps[0] < 0 or any(b < a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be a non-empty non-decreasing sequence >= 0")
    last = cps[-1]
    acc = np.zeros(out.shape[1:])
    j = 0
    for k, x in enumerate(orbit(seq, x0, max(last - 1, 0))):
        while j < len(cps) and cps[j] == k:
            out[j] = acc
            j += 1
        if k < last:
            acc += f(x)
    out[j:] = acc
    return out


def normalize_sums(
    raw_sums: np.ndarray, b_inv: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Center raw sums, then apply b^{-1}; returns (W, covariance of the
    centered sums).

    With `b_inv` None the normalization is self-norming: b is the symmetric
    square root of that covariance, and a singular covariance raises
    DegenerateCovariance.  Pass np.eye(d) / sqrt(N) for sqrt(N) scaling.
    """
    raw = np.asarray(raw_sums, dtype=float)
    centered = raw - raw.mean(axis=0, keepdims=True)
    cov = empirical_covariance(centered)
    if b_inv is None:
        b_inv = symmetric_sqrt(cov)[1]
    return centered @ b_inv.T, cov


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


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile: scipy's `ndtri` on (0, 1), a float for a
    scalar p; p outside (0, 1) is a ValueError."""
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
    if reference is None:
        return _sorted_w1(x, _normal_scores(x.size), "std-normal")
    y = np.sort(np.asarray(reference, dtype=float).ravel())
    if y.size != x.size:
        raise ValueError("two-sample mode requires equal sizes")
    return _sorted_w1(x, y, "sample")


def _normal_scores(m: int) -> np.ndarray:
    """The standard normal quantiles at (i - 1/2)/M, i = 1..M."""
    return normal_quantile((np.arange(1, m + 1) - 0.5) / m)


def _sorted_w1(x: np.ndarray, y: np.ndarray, ref_label: str) -> DistanceReport:
    """W1 report of sorted x against sorted y of the same size."""
    m = x.size
    if m < 100:
        raise ValueError("need at least 100 samples")
    gaps = np.abs(x - y)
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
    scores = _normal_scores(s_count)  # shared by every direction
    rng = np.random.default_rng(seed)
    values = np.empty(directions)
    errs = np.empty(directions)
    for j in range(directions):
        theta = rng.normal(size=d)
        theta /= np.linalg.norm(theta)
        var = float(theta @ sigma @ theta)
        if var <= 0.0:
            raise DegenerateCovariance("projected variance is not positive")
        rep = _sorted_w1(np.sort(w @ theta / math.sqrt(var)), scores, "std-normal")
        values[j] = rep.value
        errs[j] = rep.stderr
    value = float(values.mean())
    stderr = float(
        math.sqrt(values.var(ddof=1) / directions + (errs.mean()) ** 2)
    )
    return DistanceReport(
        "sliced-wasserstein", value, stderr, s_count, {"directions": directions}
    )


_SMOOTH_GH = 24


def smooth_metric_distance(w: np.ndarray, sigma: np.ndarray | None = None) -> DistanceReport:
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
    family = smooth_metric_family(d)
    chol = np.linalg.cholesky(sigma)
    nodes, weights = gauss_hermite_standard(_SMOOTH_GH, d)
    z = nodes @ chol.T
    best = (-1.0, "", 0.0)
    for h in family:
        vals = np.asarray(h.value(w), dtype=float)
        gauss = float(weights @ np.asarray(h.value(z), dtype=float))
        gap = abs(float(vals.mean()) - gauss)
        if gap > best[0]:
            best = (gap, h.name, float(vals.std(ddof=1) / math.sqrt(s_count)))
    return DistanceReport(
        "smooth-metric", best[0], best[2], s_count,
        {"family_size": len(family), "argmax": best[1], "gh_order": _SMOOTH_GH},
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
    point_steps: int  # runs * samples * (burn_in + window + k_max)


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
        vals = _orbit_values(seq, f, rng.random(samples), n_slots)
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
    return SigmaSeriesReport(total, tuple(terms), tail, k_max, runs, samples, runs * samples * (n_slots - 1))


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


def check_rate_grid(n_values: Sequence[int], model: str = "pure-power") -> None:
    """Raise ValueError unless `fit_rate` can fit `model` over these N values.

    The grid needs at least 4 distinct N >= 2 spanning three octaves, and
    power-times-log needs N >= 3 so that log log N is positive.
    """
    if model not in ("pure-power", "power-times-log"):
        raise ValueError("model must be pure-power or power-times-log")
    ns = np.asarray(n_values, dtype=float)
    if ns.size < 4:
        raise ValueError("need at least 4 N values")
    if np.unique(ns).size != ns.size or np.any(ns < 2):
        raise ValueError("N values must be distinct integers >= 2")
    if ns.max() / ns.min() < 8.0 - 1e-9:
        raise ValueError("N grid must span at least three octaves")
    if model == "power-times-log" and np.any(ns < 3):
        raise ValueError("power-times-log needs N >= 3")


def fit_rate(pairs: Sequence[tuple[int, float]], model: str = "pure-power") -> RateFit:
    """Least-squares exponent of distance against N on log-log axes.

    pure-power fits log d = c + p log N; power-times-log fixes the
    log-factor coefficient to one and fits log d - log log N = c + p log N.
    The half-width is twice the standard error of the slope.
    """
    ns = np.asarray([p[0] for p in pairs], dtype=float)
    ds = np.asarray([p[1] for p in pairs], dtype=float)
    check_rate_grid(ns, model)
    if np.any(ds <= 0.0):
        raise ValueError("distances must be positive")
    x = np.log(ns)
    y = np.log(ds)
    if model == "power-times-log":
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
