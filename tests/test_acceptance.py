"""End-to-end acceptance checks.

One test per headline guarantee, ordered from exact algebra to the full
convergence-rate experiments.  Every run is seeded, so failures reproduce
exactly; each test prints a one-line summary (visible with ``pytest -s``)
and ``pytest -v`` gives the per-check pass/fail listing.
"""

import json
import math
import time
import warnings

import numpy as np
import pytest

from steinclt import cli
from steinclt.dynamics import LsvFamily, LsvMap, SequentialSequence, trajectory
from steinclt.harness import run_qds, run_rates, run_stein_check
from steinclt.stats import matrix_sqrt, scale_distance, wasserstein1_1d
from steinclt.stein import (
    MollifierSmoother,
    lipschitz_family_1d,
    mollify,
    univariate_bound_check,
)
from steinclt.sunklodas import EnsembleMatrix, decompose
from steinclt.transfer import build_ulam, cone_check, invariant_density

CFG_SEQUENTIAL = {
    "version": 1,
    "system": {
        "kind": "random",
        "family": "lsv",
        "beta_star": 0.25,
        "driver": {"kind": "iid-uniform", "low": 0.2, "high": 0.25},
    },
    "observable": "identity",
    "n_grid": [256, 512, 1024, 2048, 4096, 8192],
    "samples": 200_000,
    "metric": "wasserstein1",
    "normalization": "self-norming",
    "fit_model": "pure-power",
    "seed": 20260815,
}

CFG_RANDOM_SLOPE = {
    "version": 1,
    "system": {
        "kind": "random",
        "family": "shifted-slope",
        "beta_star": 1.0,
        "driver": {"kind": "iid-uniform", "low": 0.0, "high": 1.0},
    },
    "observable": "quartic",
    "n_grid": [256, 512, 1024, 2048, 4096, 8192],
    "samples": 400_000,
    "metric": "wasserstein1",
    "normalization": "self-norming",
    "fit_model": "pure-power",
    "seed": 20260815,
}

CFG_QUASISTATIC = {
    "version": 1,
    "system": {
        "kind": "quasistatic",
        "family": "lsv",
        "beta_star": 0.25,
        "curve": {"kind": "constant", "value": 0.2},
    },
    "observable": "quartic",
    "n_grid": [512, 1024, 2048, 4096],
    "samples": 200_000,
    "metric": "wasserstein1",
    "normalization": "self-norming",
    "fit_model": "pure-power",
    "seed": 20260815,
    "qds": {"t_mid": 0.5},
}


class TanhMixture:
    """Analytic test function A(w) = sum_j c_j tanh(v_j . w + b_j)."""

    def __init__(self, rng, dim, terms=3):
        self.c = 0.3 * rng.standard_normal(terms)
        self.v = 0.5 / np.sqrt(dim) * rng.standard_normal((terms, dim))
        self.b = 0.3 * rng.standard_normal(terms)

    def gradient(self, points):
        t = np.tanh(points @ self.v.T + self.b)
        return np.einsum("...j,jk->...k", self.c * (1.0 - t * t), self.v)

    def hessian(self, points):
        t = np.tanh(points @ self.v.T + self.b)
        w = self.c * (-2.0 * t * (1.0 - t * t))
        return np.einsum("...j,jk,jl->...kl", w, self.v, self.v)


@pytest.fixture(scope="module")
def stein_reports():
    """Residual and bound sweeps for d = 1, 2, 3, shared by two tests."""
    return {d: run_stein_check(d, seed=0, sigma_count=5) for d in (1, 2, 3)}


def test_a01_decomposition_identity_on_random_finite_spaces():
    rng = np.random.default_rng(20260815)
    t0 = time.perf_counter()
    worst = 0.0
    count = 120
    for _ in range(count):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 9))
        atoms = int(rng.integers(4, 33))
        vals = 0.4 * rng.standard_normal((atoms, n, d))
        weights = rng.dirichlet(np.full(atoms, 2.0))
        bound = float(np.abs(vals).max())
        ens = EnsembleMatrix.from_raw(vals, np.eye(d), bound, weights=weights)
        ledger = decompose(ens, TanhMixture(rng, d))
        worst = max(worst, abs(ledger.residual))
    elapsed = time.perf_counter() - t0
    print(f"identity residual over {count} spaces: worst {worst:.3e} ({elapsed:.1f}s)")
    assert worst <= 1e-9
    assert elapsed < 60.0


def test_a02_stein_residuals_within_budget(stein_reports):
    residual_seconds = 0.0
    for d, report in stein_reports.items():
        assert report.dimension == d
        for row in report.rows:
            if row.h_name in ("affine", "quadratic"):
                assert row.residual_tol == 1e-10
            assert row.max_residual <= row.residual_tol, (d, row.h_name)
        residual_seconds += report.residual_seconds
    rows = sum(len(r.rows) for r in stein_reports.values())
    print(f"stein residuals: {rows} rows, residual phase {residual_seconds:.1f}s")
    assert residual_seconds < 120.0


def test_a03_derivative_bound_margins(stein_reports):
    worst = min(
        row.worst_margin for report in stein_reports.values() for row in report.rows
    )
    print(f"derivative-bound worst margin: {worst:.3e}")
    assert worst >= -1e-6
    assert all(report.passed for report in stein_reports.values())


def test_a04_univariate_bounds_on_lipschitz_family():
    grid = np.linspace(-6.0, 6.0, 241)
    family = lipschitz_family_1d()
    assert len(family) == 10
    reports = [univariate_bound_check(h, grid) for h in family]
    worst = min(rep.worst_margin for rep in reports)
    print(f"univariate bounds over {len(family)} functions: worst margin {worst:.4f}")
    for rep in reports:
        assert rep.passed(1e-6), rep.name


def test_a05_doubling_autocovariance_matches_geometric_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260815)
    x0 = rng.random(1_000_000)
    seq = SequentialSequence(LsvFamily(), tuple(np.zeros(10)), beta_star=0.25)
    orbit = trajectory(seq, x0, 8)
    a = orbit[0] - orbit[0].mean()
    zs = []
    for k in range(1, 9):
        prod = a * (orbit[k] - orbit[k].mean())
        se = prod.std(ddof=1) / math.sqrt(prod.size)
        zs.append((prod.mean() - 2.0**-k / 12.0) / se)
    elapsed = time.perf_counter() - t0
    print(f"autocovariance z-scores k=1..8: max |z| {np.abs(zs).max():.2f} ({elapsed:.1f}s)")
    assert np.abs(zs).max() <= 3.0
    assert elapsed < 60.0


def test_a06_invariant_density_ground_truth():
    flat = invariant_density(build_ulam(LsvMap(0.0), 512))
    dev = float(np.abs(flat.values - 1.0).max())
    assert dev <= 1e-10

    dens = invariant_density(build_ulam(LsvMap(0.25), 512))
    report = cone_check(dens, 0.25)
    print(
        f"uniform deviation {dev:.2e}; cone margins "
        f"{report.decreasing_margin:.2e}/{report.power_increasing_margin:.2e}/"
        f"{report.pointwise_bound_margin:.2e}"
    )
    assert report.tol == 1.0 / 512
    assert report.passed


def test_a07_sequential_intermittent_rate(tmp_path):
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_rates(CFG_SEQUENTIAL, tmp_path)
    elapsed = time.perf_counter() - t0
    fit = result.fit
    print(
        f"sequential rate: exponent {fit.exponent:.4f} +/- {fit.halfwidth:.4f}, "
        f"R2 {fit.r_squared:.3f} ({elapsed:.0f}s)"
    )
    assert fit.model == "pure-power"
    assert -0.65 <= fit.exponent <= -0.35
    assert elapsed <= 900.0


def test_a08_random_slope_family_rate(tmp_path):
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_rates(CFG_RANDOM_SLOPE, tmp_path)
    elapsed = time.perf_counter() - t0
    fit = result.fit
    print(
        f"random-slope rate: exponent {fit.exponent:.4f} +/- {fit.halfwidth:.4f}, "
        f"R2 {fit.r_squared:.3f} ({elapsed:.0f}s)"
    )
    assert -0.65 <= fit.exponent <= -0.35
    assert elapsed <= 600.0


def test_a09_quasistatic_variance_growth_and_rate(tmp_path):
    result = run_qds(CFG_QUASISTATIC, tmp_path)
    ratios = dict(result.lambda_ratios)
    print(
        f"quasistatic: doubling ratios {sorted(ratios.items())}, "
        f"exponent {result.fit.exponent:.4f}"
    )
    assert sorted(ratios) == [512, 1024, 2048]
    for n, ratio in ratios.items():
        assert 1.6 <= ratio <= 2.4, n
    assert -0.65 <= result.fit.exponent <= -0.3


def _kink_probe(points):
    t = np.abs(points[..., 0])
    return np.where(t > 0, t * np.log(np.maximum(t, 1e-300)), 0.0)


def _radial_probe(points):
    r = np.sqrt(np.sum(points * points, axis=-1))
    return np.where(r > 0, r * np.log(np.maximum(r, 1e-300)), 0.0)


def test_a10_mollifier_mass_and_log_lipschitz_modulus():
    for d in (1, 2, 3):
        mass = MollifierSmoother(d, 0.25).kernel_mass_check()
        assert abs(mass - 1.0) <= 1e-8, d

    # g(x) = t log t has modulus of continuity ~ delta log(1/delta) at the
    # kink, so max |g^eps - g| / (eps (1 + log(1/eps))) should stay bounded
    # as eps shrinks instead of decaying linearly.
    probes = np.array(
        [[0.0, 0.0], [0.001, 0.0], [0.0, 0.001], [0.01, 0.01], [-0.005, 0.002]]
    )
    for g in (_kink_probe, _radial_probe):
        ratios = []
        for j in range(3, 10):
            eps = 2.0**-j
            _, err = mollify(g, eps, dim=1, probes=probes)
            ratios.append(err / (eps * (1.0 + math.log(1.0 / eps))))
        ratios = np.array(ratios)
        print(f"{g.__name__}: ratio band [{ratios.min():.3f}, {ratios.max():.3f}]")
        assert ratios.max() <= 1.0
        assert ratios.max() / ratios.min() <= 1.5


def test_a11_estimator_exactness():
    rng = np.random.default_rng(7)
    sample = rng.standard_normal(4000)
    report = wasserstein1_1d(sample)
    for a in (2.0, math.sqrt(2.0), 0.125):
        scaled = scale_distance(report, a)
        assert abs(scaled.value - a * report.value) <= 1e-12

    assert wasserstein1_1d(sample, sample).value == 0.0

    for seed in range(5):
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        sigma = (basis * rng.uniform(0.5, 2.0, size=3)) @ basis.T
        norm = matrix_sqrt(sigma)
        assert np.abs(norm.b @ norm.b - sigma).max() <= 1e-10
    print("scale homogeneity, self-distance, and square-root round trip exact")


def test_a12_deterministic_runs_are_byte_identical(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CFG_SEQUENTIAL))
    outs = (tmp_path / "run1", tmp_path / "run2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for out in outs:
            code = cli.main(
                ["rates", "--config", str(cfg_path), "--deterministic", "--out", str(out)]
            )
            assert code == 0
    for name in ("rates.csv", "rate_fit.csv", "plot_rates.txt"):
        first = (outs[0] / name).read_bytes()
        second = (outs[1] / name).read_bytes()
        assert first == second, name
    print("two deterministic runs produced byte-identical outputs")
