"""Ensembles, Birkhoff sums read at checkpoints, normalization algebra,
distances to normal, and rate fitting."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

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
    values = _orbit_values(seq, f, x0, n_terms)
    values -= values.mean(axis=0, keepdims=True)  # centred in place, `from_raw`'s bits
    b = symmetric_sqrt(empirical_covariance(values.sum(axis=1)))[0]
    return EnsembleMatrix(values, b, f.bound)


def birkhoff_raw_sums(
    seq,
    f: Observable,
    checkpoints: Sequence[int],
    x0: np.ndarray,
    out: Sequence[np.ndarray],
) -> Sequence[np.ndarray]:
    """Fill out[j], a (samples, d) array (out may be one (checkpoints,
    samples, d) array), with the uncentered sum of f over the first
    checkpoints[j] slots (slot 0 is x0) of one orbit pass; returns out.
    The sums build up in out[-1], which each earlier checkpoint copies when
    the pass reaches it.

    The pass takes max(checkpoints) - 1 steps, so it reads that parameter
    row.  Checkpoints are non-decreasing, 0 and repeats allowed.  When the
    rows nest, each out[j] has the bits of a pass to checkpoints[j].
    """
    cps = list(checkpoints)
    if not cps or cps[0] < 0 or any(b < a for a, b in zip(cps, cps[1:])):
        raise ValueError("checkpoints must be a non-empty non-decreasing sequence >= 0")
    last = cps[-1]
    acc = out[-1]
    acc[...] = 0.0
    j = 0
    for k, x in enumerate(orbit(seq, x0, max(last - 1, 0))):
        while j < len(cps) - 1 and cps[j] == k:
            out[j][...] = acc
            j += 1
        if k < last:
            acc += f(x)
    for row in out[j:-1]:
        row[...] = acc
    return out


_ROW_BLOCK = 8192


def normalize_sums(
    raw_sums: np.ndarray, b_inv: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Center raw sums, then apply b^{-1}; returns (W, covariance of the
    centered sums).  W is the one S x d array this allocates; raw_sums is
    only read.

    With `b_inv` None the normalization is self-norming: b is the symmetric
    square root of that covariance, and a singular covariance raises
    DegenerateCovariance.  Pass np.eye(d) / sqrt(N) for sqrt(N) scaling.
    """
    raw = np.asarray(raw_sums, dtype=float)
    w = raw - raw.mean(axis=0, keepdims=True)
    cov = empirical_covariance(w)
    if b_inv is None:
        b_inv = symmetric_sqrt(cov)[1]
    # b^{-1} row block by row block, with the bits of `w @ b_inv.T`; no
    # block has one row, a product numpy hands to gemv, which rounds unlike gemm
    s_count, lo = w.shape[0], 0
    while lo < s_count:
        hi = lo + _ROW_BLOCK if s_count - lo - _ROW_BLOCK >= 2 else s_count
        w[lo:hi] = w[lo:hi] @ b_inv.T
        lo = hi
    return w, cov


@dataclass(frozen=True)
class DistanceReport:
    metric: str
    value: float
    stderr: float
    sample_size: int
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.value >= 0.0:  # NaN fails this too
            raise ValueError(f"distances are nonnegative numbers, got {self.value}")


# cephes `ndtri`, as scipy.special evaluates it: a rational function of
# y - 1/2 on the central band, and of 1/x with x = sqrt(-2 log y) on the two
# tails, split at exp(-2) and reflected through 1 - p above 1 - exp(-2)
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)
# libm's log, the one cephes calls: numpy's SIMD log differs in the last bit
_libm_log = np.frompyfunc(math.log, 1, 1)
# `_ndtri`'s temporaries, its logs held as Python floats among them, come to
# about 6 times its input; blocks of this many values bound them near 1 MB
_NDTRI_BLOCK = 8192


def _horner(x: np.ndarray, coef: tuple, monic: bool = False) -> np.ndarray:
    """cephes `polevl` (or `p1evl` when monic: a leading 1 left out of coef)."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _ndtri(p: np.ndarray) -> np.ndarray:
    """cephes `ndtri` on an array of p in (0, 1), bit for bit."""
    upper = p > 1.0 - _EXP_M2
    y = np.where(upper, 1.0 - p, p)
    x = np.empty_like(y)
    mid = y > _EXP_M2
    c = y[mid] - 0.5
    c2 = c * c
    x[mid] = (c + c * (c2 * _horner(c2, _P0) / _horner(c2, _Q0, monic=True))) * _S2PI
    tail = ~mid
    r = np.sqrt(-2.0 * _libm_log(y[tail]).astype(float))
    z = 1.0 / r
    x1 = np.where(
        r < 8.0,
        z * _horner(z, _P1) / _horner(z, _Q1, monic=True),
        z * _horner(z, _P2) / _horner(z, _Q2, monic=True),
    )
    xt = r - _libm_log(r).astype(float) / r - x1
    x[tail] = np.where(upper[tail], xt, -xt)
    return x


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile: cephes `ndtri` (scipy.special's, bit for
    bit) on (0, 1), a float for a scalar p; p outside (0, 1), or NaN, is a
    ValueError."""
    p = np.asarray(p, dtype=float)
    if not ((p > 0.0) & (p < 1.0)).all():
        raise ValueError("quantile argument must lie in (0, 1)")
    flat = p.ravel()
    x = np.empty_like(flat)
    for lo in range(0, flat.size, _NDTRI_BLOCK):
        x[lo:lo + _NDTRI_BLOCK] = _ndtri(flat[lo:lo + _NDTRI_BLOCK])
    return float(x[0]) if p.ndim == 0 else x.reshape(p.shape)


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
    x = np.array(sample, dtype=float, order="C").ravel()
    if reference is None:
        return _owned_w1(x)
    y = np.array(reference, dtype=float, order="C").ravel()
    y.sort()
    if y.size != x.size:
        raise ValueError("two-sample mode requires equal sizes")
    return _owned_w1(x, y)


@functools.lru_cache(maxsize=4)
def _normal_scores(m: int) -> np.ndarray:
    """The standard normal quantiles at (i - 1/2)/M, i = 1..M, read-only and
    computed once per M: a rate run reads the same M at every N.  The p grid
    is built one block at a time, so no M-sized temporary sits beside the
    scores."""
    scores = np.empty(m)
    for lo in range(0, m, _NDTRI_BLOCK):
        i = np.arange(lo + 1, min(lo + _NDTRI_BLOCK, m) + 1)
        scores[lo:lo + i.size] = _ndtri((i - 0.5) / m)
    scores.flags.writeable = False
    return scores


def _owned_w1(x: np.ndarray, y: np.ndarray | None = None) -> DistanceReport:
    """W1 report of the 1-D sample x against sorted y of the same size (the
    standard normal scores when None).  x is the caller's to give up: it is
    sorted in place and overwritten by the gaps, then by their squared
    deviations."""
    m = x.size
    if m < 100:
        raise ValueError("need at least 100 samples")
    x.sort()
    x -= _normal_scores(m) if y is None else y
    np.abs(x, out=x)
    value = float(x.mean())
    # the gaps' std(ddof=1) in numpy's own steps, in place of its temporary
    x -= value
    np.square(x, out=x)
    stderr = math.sqrt(float(x.sum()) / (m - 1)) / math.sqrt(m)
    ref_label = "std-normal" if y is None else "sample"
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
        base = _owned_w1(w[:, 0] / math.sqrt(float(sigma[0, 0])))
        return DistanceReport(
            "sliced-wasserstein", base.value, base.stderr, s_count, {"directions": 1}
        )
    if directions < 32:
        raise ValueError("need at least 32 directions")
    rng = np.random.default_rng(seed)
    values = np.empty(directions)
    errs = np.empty(directions)
    projected = np.empty(s_count)  # one buffer, refilled for each direction
    for j in range(directions):
        theta = rng.normal(size=d)
        theta /= np.linalg.norm(theta)
        var = float(theta @ sigma @ theta)
        if var <= 0.0:
            raise DegenerateCovariance("projected variance is not positive")
        np.matmul(w, theta, out=projected)
        projected /= math.sqrt(var)
        rep = _owned_w1(projected)
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
        if gap > best[0] or math.isnan(gap):  # a NaN gap is the maximum
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
    # a set, not np.unique: np.unique imports numpy.ma at its first call
    if len(set(ns.tolist())) != ns.size or np.any(ns < 2):
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
