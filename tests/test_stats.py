"""Normalizations, normal quantiles, distances, variance series, rate fits."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats

from steinclt.dynamics import (
    IidUniformDriver,
    LsvFamily,
    OBSERVABLES,
    RandomSequence,
    SequentialSequence,
    trajectory,
)
from steinclt.linalg import DegenerateCovariance, symmetric_sqrt
from steinclt.stats import (
    DistanceReport,
    build_ensemble,
    birkhoff_raw_sums,
    empirical_covariance,
    fit_rate,
    _normal_scores,
    _owned_w1,
    normal_quantile,
    normalize_sums,
    scale_distance,
    sigma_series,
    sliced_wasserstein,
    smooth_metric_distance,
    wasserstein1_1d,
    wasserstein_floor,
)


def _doubling_seq(slots=200):
    return SequentialSequence(LsvFamily(), tuple(np.zeros(slots)), beta_star=0.25)


def test_symmetric_sqrt_round_trip():
    sigma = np.array([[2.0, 0.6], [0.6, 1.1]])
    b, b_inv = symmetric_sqrt(sigma)
    np.testing.assert_allclose(b @ b, sigma, atol=1e-10)
    np.testing.assert_allclose(b @ b_inv, np.eye(2), atol=1e-12)
    with pytest.raises(DegenerateCovariance, match="singular"):
        symmetric_sqrt(np.zeros((2, 2)))


def test_empirical_covariance():
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(5000, 2))
    arr -= arr.mean(axis=0)
    cov = empirical_covariance(arr)
    np.testing.assert_allclose(cov, arr.T @ arr / 5000, atol=1e-12)
    np.testing.assert_array_equal(cov, cov.T)
    with pytest.raises(ValueError):
        empirical_covariance(np.zeros(5))


def test_normal_quantile_round_trip_and_values():
    p = np.linspace(1e-6, 1.0 - 1e-6, 4001)
    x = normal_quantile(p)
    np.testing.assert_allclose(scipy.special.ndtr(x), p, atol=1e-12)
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    np.testing.assert_allclose(normal_quantile(1.0 - p[:5]), -x[:5], atol=1e-12)
    assert isinstance(normal_quantile(0.3), float)
    # NaN compares false with both ends of (0, 1), so it needs its own check
    for bad in (0.0, 1.0, -0.2, float("nan"), [0.5, float("nan")]):
        with pytest.raises(ValueError):
            normal_quantile(bad)


def test_normal_quantile_is_scipy_ndtri_bit_for_bit():
    # the port takes its tail logs from libm, as cephes does; numpy's SIMD
    # log differs from libm's in the last bit on some of these points, and
    # so would a libm other than the one scipy's cephes calls
    grids = [(np.arange(1, m + 1) - 0.5) / m
             for m in (*range(2, 1001), 100_000, 200_000, 1_000_003)]
    tails = np.logspace(-300.0, math.log10(0.2), 20_000)
    edge = np.array([math.exp(-2.0), 1.0 - math.exp(-2.0), 0.13533528323661269189,
                     1.0 - 0.13533528323661269189])
    edges = np.concatenate([edge, np.nextafter(edge, 0.0), np.nextafter(edge, 1.0), [0.5]])
    upper = 1.0 - tails
    p = np.concatenate([*grids, np.random.default_rng(7).random(1_000_000), tails,
                        upper[upper < 1.0], edges])
    assert np.all((p > 0.0) & (p < 1.0))
    x = normal_quantile(p)
    assert x.dtype == np.float64
    mismatched = p[x != scipy.special.ndtri(p)]
    assert mismatched.size == 0, mismatched[:10]
    assert normal_quantile(0.5) == scipy.special.ndtri(0.5) == 0.0
    for q in edges:
        assert normal_quantile(q) == scipy.special.ndtri(q)
    # any shape in, the same shape out
    np.testing.assert_array_equal(normal_quantile(p[:12].reshape(3, 4)),
                                  scipy.special.ndtri(p[:12].reshape(3, 4)))


def test_normal_scores_are_computed_once_per_m_and_read_only():
    scores = _normal_scores(500)
    assert _normal_scores(500) is scores
    assert not scores.flags.writeable
    with pytest.raises(ValueError):
        scores[0] = 0.0
    np.testing.assert_array_equal(scores, scipy.special.ndtri((np.arange(1, 501) - 0.5) / 500))


@pytest.mark.parametrize("m", [8191, 8192, 8193, 3 * 8192 + 1])
def test_normal_scores_are_scipy_ndtri_bit_for_bit_at_block_edges(m):
    # the scores are built one 8,192-value block at a time
    want = scipy.special.ndtri((np.arange(1, m + 1) - 0.5) / m)
    assert np.array_equal(_normal_scores(m).view(np.int64), want.view(np.int64))


def test_normal_scores_hold_no_temporary_the_size_of_the_scores():
    _normal_scores.cache_clear()
    tracemalloc.start()
    try:
        scores = _normal_scores(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * scores.nbytes


def test_wasserstein_floor():
    assert wasserstein_floor(400) == pytest.approx(0.8 / 20.0, rel=1e-12)
    assert wasserstein_floor(10_000) == pytest.approx(0.008, rel=1e-12)
    with pytest.raises(ValueError):
        wasserstein_floor(1)


def test_wasserstein1_two_sample_matches_scipy():
    rng = np.random.default_rng(1)
    x = rng.normal(size=3000)
    y = rng.normal(loc=0.3, size=3000)
    rep = wasserstein1_1d(x, y)
    want = scipy.stats.wasserstein_distance(x, y)
    assert rep.value == pytest.approx(want, rel=1e-10)
    assert rep.params["reference"] == "sample"
    same = wasserstein1_1d(x, x)
    assert same.value == 0.0


def test_wasserstein1_against_normal_reference():
    rng = np.random.default_rng(2)
    x = rng.standard_normal(200_000)
    rep = wasserstein1_1d(x)
    assert rep.metric == "wasserstein1"
    assert rep.value < 4.0 * wasserstein_floor(200_000)
    shifted = wasserstein1_1d(x + 1.0)
    assert shifted.value == pytest.approx(1.0, abs=0.01)


def test_wasserstein1_validation():
    with pytest.raises(ValueError):
        wasserstein1_1d(np.zeros(50))
    with pytest.raises(ValueError):
        wasserstein1_1d(np.zeros(200), np.zeros(300))
    with pytest.raises(ValueError, match="nonnegative numbers"):
        wasserstein1_1d(np.r_[np.random.default_rng(4).normal(size=200), np.nan])
    with pytest.raises(ValueError, match="nonnegative numbers"):
        DistanceReport("wasserstein1", float("nan"), 0.0, 100)


@pytest.mark.parametrize("m", [100, 101, 127, 129, 1000, 8193, 100_003])
def test_w1_stderr_is_numpy_std_bit_for_bit(m):
    # the owned path squares the gaps' deviations in place of std's temporary
    rng = np.random.default_rng(m)
    x = rng.standard_t(3, size=m)
    gaps = np.abs(np.sort(x) - _normal_scores(m))
    rep = _owned_w1(x.copy())
    assert rep.value == float(gaps.mean())
    assert rep.stderr == float(gaps.std(ddof=1) / math.sqrt(m))
    y = np.sort(rng.normal(size=m))
    gaps = np.abs(np.sort(x) - y)
    assert _owned_w1(x.copy(), y).stderr == float(gaps.std(ddof=1) / math.sqrt(m))


def test_sliced_reduces_to_univariate():
    rng = np.random.default_rng(3)
    w = rng.normal(size=(5000, 1)) * 2.0
    rep = sliced_wasserstein(w, sigma=np.array([[4.0]]))
    base = wasserstein1_1d(w[:, 0] / 2.0)
    assert rep.value == pytest.approx(base.value, rel=1e-12)
    assert rep.metric == "sliced-wasserstein"
    assert rep.params["directions"] == 1


def test_sliced_wasserstein_gaussian_small():
    rng = np.random.default_rng(4)
    sigma = np.array([[1.5, 0.4], [0.4, 0.8]])
    chol = np.linalg.cholesky(sigma)
    w = rng.normal(size=(20_000, 2)) @ chol.T
    rep = sliced_wasserstein(w, sigma=sigma, directions=32, seed=5)
    assert rep.value < 4.0 * wasserstein_floor(20_000)
    with pytest.raises(ValueError):
        sliced_wasserstein(w, sigma=sigma, directions=8)
    with pytest.raises(ValueError):
        sliced_wasserstein(w[:, 0])


def test_sliced_wasserstein_equals_the_per_direction_w1_loop():
    # the normal quantiles are computed once per call and shared by every
    # direction; value and stderr keep the bits of one wasserstein1_1d call
    # per direction
    rng = np.random.default_rng(7)
    sigma = np.array([[1.3, -0.5], [-0.5, 0.7]])
    w = rng.normal(size=(3000, 2)) @ np.linalg.cholesky(sigma).T
    rep = sliced_wasserstein(w, sigma=sigma, directions=40, seed=11)
    dirs = np.random.default_rng(11)
    values, errs = np.empty(40), np.empty(40)
    for j in range(40):
        theta = dirs.normal(size=2)
        theta /= np.linalg.norm(theta)
        one = wasserstein1_1d(w @ theta / math.sqrt(float(theta @ sigma @ theta)))
        values[j], errs[j] = one.value, one.stderr
    assert rep.value == float(values.mean())
    assert rep.stderr == float(math.sqrt(values.var(ddof=1) / 40 + errs.mean() ** 2))
    assert (rep.sample_size, rep.params) == (3000, {"directions": 40})
    with pytest.raises(ValueError, match="at least 100 samples"):
        sliced_wasserstein(w[:99], sigma=sigma, directions=32)


def test_smooth_metric_distance_gaussian_small():
    rng = np.random.default_rng(6)
    sigma = np.array([[1.2, -0.3], [-0.3, 0.9]])
    chol = np.linalg.cholesky(sigma)
    w = rng.normal(size=(40_000, 2)) @ chol.T
    rep = smooth_metric_distance(w, sigma=sigma)
    assert rep.metric == "smooth-metric"
    assert rep.value < 0.01
    assert rep.params["family_size"] == 8
    assert rep.params["argmax"]
    with pytest.raises(ValueError):
        smooth_metric_distance(rng.normal(size=(500, 4)))


def test_smooth_metric_distance_names_a_nan():
    # a NaN gap is the family's maximum, not a gap that never compares greater
    w = np.random.default_rng(8).normal(size=(100_000, 2))
    w[17, 1] = np.nan
    with pytest.raises(ValueError, match="got nan"):
        smooth_metric_distance(w)


def test_scale_distance_homogeneity():
    rep = DistanceReport("wasserstein1", 0.5, 0.01, 1000)
    scaled = scale_distance(rep, 2.0)
    assert scaled.value == 1.0 and scaled.stderr == 0.02
    zero = DistanceReport("wasserstein1", 0.0, 0.0, 1000)
    assert scale_distance(zero, 7.0).value == 0.0
    with pytest.raises(ValueError):
        scale_distance(rep, 0.0)
    with pytest.raises(ValueError):
        scale_distance(DistanceReport("smooth-metric", 0.1, 0.0, 100), 2.0)
    with pytest.raises(ValueError):
        DistanceReport("wasserstein1", -0.1, 0.0, 100)


def test_sigma_series_doubling_matches_closed_form():
    f = OBSERVABLES["identity"]()
    # short burn-in: each doubling step consumes one mantissa bit, so long
    # float orbits of the exact doubling map collapse to 0
    report = sigma_series(
        lambda seed: _doubling_seq(), f, k_max=12, samples=4096, runs=4,
        burn_in=4, window=8, seed=7,
    )
    # Var = 1/12 and Cov(f, f o T^k) = 2^-k / 12 sum to 1/4
    assert report.matrix[0, 0] == pytest.approx(0.25, abs=0.02)
    assert report.k_max == 12 and report.runs == 4
    assert report.tail_estimate < 1e-3
    assert len(report.lag_terms) == 13
    with pytest.raises(ValueError):
        sigma_series(lambda seed: _doubling_seq(), f, k_max=-1)


def test_fit_rate_pure_power_exact():
    ns = [256, 512, 1024, 2048, 4096]
    fit = fit_rate([(n, 2.0 * n**-0.5) for n in ns])
    assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
    assert fit.halfwidth < 1e-12
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-10)
    assert not fit.log_correction
    assert fit.n_values == tuple(ns)


def test_fit_rate_power_log_exact():
    ns = [128, 256, 512, 1024, 2048]
    pairs = [(n, 1.5 * n**-0.4 * math.log(n)) for n in ns]
    fit = fit_rate(pairs, model="power-times-log")
    assert fit.exponent == pytest.approx(-0.4, abs=1e-12)
    assert fit.log_correction
    # the pure-power reading of the same data is biased upward
    plain = fit_rate(pairs)
    assert plain.exponent > fit.exponent


def test_fit_rate_validation():
    good = [(256, 0.1), (512, 0.07), (1024, 0.05), (2048, 0.035)]
    fit_rate(good)
    with pytest.raises(ValueError):
        fit_rate(good[:3])
    with pytest.raises(ValueError):
        fit_rate([(256, 0.1), (512, -0.07), (1024, 0.05), (2048, 0.035)])
    with pytest.raises(ValueError):
        fit_rate([(256, 0.1), (256, 0.07), (1024, 0.05), (2048, 0.035)])
    with pytest.raises(ValueError):
        fit_rate([(100, 0.1), (200, 0.07), (300, 0.05), (400, 0.035)])
    with pytest.raises(ValueError):
        fit_rate(good, model="loglinear")
    with pytest.raises(ValueError):
        fit_rate([(2, 0.1), (8, 0.07), (12, 0.05), (16, 0.035)], model="power-times-log")


def test_build_ensemble_self_norming():
    f = OBSERVABLES["identity"]()
    ens = build_ensemble(_doubling_seq(), f, 6, 4096, seed=8)
    assert ens.samples == 4096 and ens.times == 6 and ens.dimension == 1
    np.testing.assert_allclose(ens.values.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(ens.w_covariance(), np.eye(1), atol=1e-10)


def test_build_ensemble_options_and_validation():
    f = OBSERVABLES["identity"]()
    seq = _doubling_seq()
    ens = build_ensemble(seq, f, 4, 500, seed=9).with_normalization(2.0 * np.eye(1))
    np.testing.assert_allclose(ens.b, 2.0 * np.eye(1), atol=1e-15)
    ens2 = build_ensemble(seq, f, 4, 500, seed=9).with_normalization(np.eye(1))
    np.testing.assert_allclose(ens2.b, np.eye(1), atol=1e-15)
    # a constant start would make the self-normed covariance singular
    x0 = np.linspace(0.0, 1.0, 500)
    fixed = build_ensemble(seq, f, 4, 500, seed=9, initial=x0).with_normalization(np.eye(1))
    assert fixed.samples == 500
    np.testing.assert_array_equal(x0, np.linspace(0.0, 1.0, 500))
    np.testing.assert_allclose(fixed.values[:, 0, 0], x0 - x0.mean(), atol=1e-15)
    with pytest.raises(ValueError):
        build_ensemble(seq, f, 4, 50, seed=9)
    with pytest.raises(ValueError):
        build_ensemble(seq, f, 0, 500, seed=9)
    with pytest.raises(ValueError):
        build_ensemble(seq, f, 4, 500, seed=9, memory_budget=100)
    with pytest.raises(ValueError):
        build_ensemble(seq, f, 4, 500, seed=9, initial=np.full(7, 0.3))
    with pytest.raises(ValueError):
        build_ensemble(seq, f, 4, 500, seed=9, initial=np.full(500, 1.5))


def test_birkhoff_sums_match_ensemble():
    f = OBSERVABLES["identity"]()
    seq = _doubling_seq()
    x0 = np.random.default_rng(10).random(500)
    sums = birkhoff_raw_sums(seq, f, [6], x0, np.empty((1, 500, 1)))[0]
    ens = build_ensemble(seq, f, 6, 500, seed=10).with_normalization(np.eye(1))
    np.testing.assert_allclose(
        ens.values.sum(axis=1), sums - sums.mean(axis=0), atol=1e-12
    )


def test_birkhoff_pass_accumulates_in_the_last_checkpoint():
    # at S = 100,000 the pass's traced peak is 3.2 S-sized arrays with an
    # accumulator beside `out`, 2.2 without (the orbit state and f's value)
    f = OBSERVABLES["identity"]()
    seq = _doubling_seq()
    x0 = np.random.default_rng(12).random(100_000)
    for checkpoints in ([16], [4, 8, 16]):
        out = np.empty((len(checkpoints), 100_000, 1))
        tracemalloc.start()
        try:
            birkhoff_raw_sums(seq, f, checkpoints, x0, out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.7 * x0.nbytes


def _trajectory_values(seq, f, x0, slots):
    return np.stack([f(x) for x in trajectory(seq, x0, slots - 1)], axis=1)


@pytest.mark.parametrize("name", ["identity", "poly_pair"])
def test_ensemble_and_series_values_are_the_trajectory_values(name):
    f = OBSERVABLES[name]()
    seq = RandomSequence(LsvFamily(), IidUniformDriver(0.1, 0.25, seed=12), beta_star=0.25)
    ens = build_ensemble(seq, f, 7, 300, seed=13)
    raw = _trajectory_values(seq, f, np.random.default_rng(13).random(300), 7)
    assert ens.values.tobytes() == (raw - raw.mean(axis=0)[None]).tobytes()

    # one run, lag 0 and a one-slot window: the matrix is the symmetrized
    # covariance of slot burn_in, with the arithmetic of sigma_series
    report = sigma_series(lambda seed: seq, f, k_max=0, samples=300, runs=1,
                          burn_in=5, window=0, seed=14)
    rng = np.random.default_rng(14)
    rng.integers(2**63)  # the driver seed sigma_series draws before x0
    vals = _trajectory_values(seq, f, rng.random(300), 6)
    vals -= vals.mean(axis=0, keepdims=True)
    cov = vals[:, 5].T @ vals[:, 5] / 300
    assert report.matrix.tobytes() == (0.5 * (cov + cov.T)).tobytes()


def test_normalize_sums():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(2000, 2)) @ np.array([[1.5, 0.2], [0.0, 0.7]])
    centered = raw - raw.mean(axis=0, keepdims=True)
    w, cov = normalize_sums(raw)
    np.testing.assert_allclose(w.T @ w / 2000, np.eye(2), atol=1e-10)
    assert cov.tobytes() == empirical_covariance(centered).tobytes()
    # b^{-1} = I / 3 scales each entry by the float 1/3 (not a division by 3)
    w3, cov3 = normalize_sums(raw, np.eye(2) / 3)
    assert w3.tobytes() == (centered * (1 / 3)).tobytes()
    assert cov3.tobytes() == cov.tobytes()
    with pytest.raises(DegenerateCovariance, match="singular"):
        normalize_sums(np.ones((500, 2)))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("samples", [500, 8193, 3 * 8192 + 1, 100_000])
def test_normalize_sums_in_row_blocks_keeps_the_bits(d, samples):
    # b^{-1} is applied one row block at a time, in place of one S x d product
    rng = np.random.default_rng(d * samples)
    raw = rng.normal(size=(samples, d)) @ rng.normal(size=(d, d)) + 5.0
    before = raw.copy()
    centered = raw - raw.mean(axis=0, keepdims=True)
    for b_inv in (None, np.eye(d) / math.sqrt(64)):
        w, cov = normalize_sums(raw, b_inv)
        want = symmetric_sqrt(cov)[1] if b_inv is None else b_inv
        assert w.tobytes() == (centered @ want.T).tobytes()
        assert raw.tobytes() == before.tobytes()
