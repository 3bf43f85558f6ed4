"""Experiment configuration, orchestration, caching, and report emission."""
from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import time
import warnings
import zipfile
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import jsonschema
import numpy as np
import scipy

from . import __version__
from .dynamics import (
    IidUniformDriver,
    LsvFamily,
    MarkovChainDriver,
    Observable,
    OBSERVABLES,
    QuasistaticSequence,
    RandomSequence,
    SequentialSequence,
    ShiftedSlopeFamily,
    orbit,
    trajectory,
)
from .linalg import DegenerateCovariance
from .stein import SteinSolution, builtin_test_functions, derivative_bound_check, stein_residual
from .stats import (
    RateFit,
    birkhoff_raw_sums,
    build_ensemble,
    fit_rate,
    normalize_sums,
    sigma_series,
    sliced_wasserstein,
    smooth_metric_distance,
    sqrt_n_normalization,
    wasserstein1_1d,
    wasserstein_floor,
)
from .sunklodas import DecompositionLedger, decompose

__all__ = [
    "ConfigError",
    "CONFIG_SCHEMA",
    "validate_config",
    "load_config",
    "config_hash",
    "stage_seed",
    "build_system",
    "build_observable",
    "RunManifest",
    "run_rates",
    "run_decompose",
    "run_stein_check",
    "run_quenched",
    "run_qds",
    "simulate",
]

BETA_STAR_WARN = 0.4


class ConfigError(ValueError):
    """Invalid experiment configuration (CLI exit code 2)."""


CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "system", "observable", "samples", "seed"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": 1},
        "system": {
            "type": "object",
            "required": ["kind", "family", "beta_star"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["sequential", "quasistatic", "random"]},
                "family": {"enum": ["lsv", "shifted-slope"]},
                "beta_star": {"type": "number", "minimum": 0, "maximum": 1},
                "params": {"type": "array", "items": {"type": "number"}, "minItems": 1},
                "driver": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["iid-uniform", "markov"]},
                        "low": {"type": "number"},
                        "high": {"type": "number"},
                        "values": {"type": "array", "items": {"type": "number"}},
                        "kernel": {
                            "type": "array",
                            "items": {"type": "array", "items": {"type": "number"}},
                        },
                    },
                },
                "curve": {
                    "type": "object",
                    "required": ["kind"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["constant", "linear"]},
                        "value": {"type": "number"},
                        "start": {"type": "number"},
                        "end": {"type": "number"},
                    },
                },
            },
        },
        "observable": {"enum": sorted(OBSERVABLES)},
        "n_grid": {
            "type": "array",
            "items": {"type": "integer", "minimum": 2},
            "minItems": 1,
        },
        "samples": {"type": "integer", "minimum": 100},
        "metric": {"enum": ["wasserstein1", "sliced-wasserstein", "smooth-metric"]},
        "normalization": {"enum": ["self-norming", "sqrt-n"]},
        "fit_model": {"enum": ["pure-power", "power-times-log"]},
        "seed": {"type": "integer", "minimum": 0},
        "threads": {"type": "integer", "minimum": 1},
        "out_dir": {"type": "string"},
        "qds": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "t_mid": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
            },
        },
        "decompose": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_terms": {"type": "integer", "minimum": 1},
                "test_function": {"type": "string"},
                "u_order": {"type": "integer", "minimum": 2},
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "quenched": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "replicas": {"type": "integer", "minimum": 1},
                "k_max": {"type": "integer", "minimum": 1},
                "series_samples": {"type": "integer", "minimum": 100},
                "series_runs": {"type": "integer", "minimum": 1},
            },
        },
    },
}

_DEFAULTS = {
    "metric": "wasserstein1",
    "normalization": "self-norming",
    "fit_model": "pure-power",
    "threads": 1,
}


def validate_config(cfg: dict) -> dict:
    """Schema-check a config document and fill defaults (returns a copy)."""
    try:
        jsonschema.validate(cfg, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config rejected by schema: {exc.message}") from exc
    out = json.loads(json.dumps(cfg))
    for key, val in _DEFAULTS.items():
        out.setdefault(key, val)
    system = out["system"]
    kind = system["kind"]
    if kind == "sequential" and "params" not in system and "driver" not in system:
        raise ConfigError("sequential systems need explicit params or a driver")
    if kind == "quasistatic" and "curve" not in system:
        raise ConfigError("quasistatic systems need a curve")
    if kind == "random" and "driver" not in system:
        raise ConfigError("random systems need a driver")
    driver = system.get("driver")
    if driver is not None:
        if driver["kind"] == "iid-uniform" and not ("low" in driver and "high" in driver):
            raise ConfigError("iid-uniform driver needs low and high")
        if driver["kind"] == "markov" and not ("values" in driver and "kernel" in driver):
            raise ConfigError("markov driver needs values and kernel")
    curve = system.get("curve")
    if curve is not None:
        if curve["kind"] == "constant" and "value" not in curve:
            raise ConfigError("constant curve needs a value")
        if curve["kind"] == "linear" and not ("start" in curve and "end" in curve):
            raise ConfigError("linear curve needs start and end")
    if system["family"] == "lsv" and system["beta_star"] >= BETA_STAR_WARN:
        warnings.warn(
            "beta_star >= 2/5: the intermittent rate bound carries no information",
            stacklevel=2,
        )
    return out


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return validate_config(raw)


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def stage_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def build_observable(cfg: dict) -> Observable:
    return OBSERVABLES[cfg["observable"]]()


def _build_family(name: str):
    return LsvFamily() if name == "lsv" else ShiftedSlopeFamily()


def _build_driver(node: dict, seed: int):
    if node["kind"] == "iid-uniform":
        return IidUniformDriver(node["low"], node["high"], seed)
    return MarkovChainDriver(
        tuple(node["values"]), tuple(tuple(row) for row in node["kernel"]), seed
    )


def _build_curve(node: dict):
    if node["kind"] == "constant":
        value = float(node["value"])
        return lambda t: value
    start, end = float(node["start"]), float(node["end"])
    return lambda t: start + (end - start) * t


def build_system(cfg: dict, driver_seed: int | None = None):
    """Instantiate the map sequence described by the config's system block."""
    system = cfg["system"]
    family = _build_family(system["family"])
    beta = float(system["beta_star"])
    kind = system["kind"]
    if kind == "quasistatic":
        return QuasistaticSequence(family, _build_curve(system["curve"]), beta)
    if kind == "sequential" and "params" in system:
        steps = [float(p) for p in system["params"]]
        return SequentialSequence(family, tuple([steps[0]] + steps), beta)
    seed = driver_seed if driver_seed is not None else stage_seed(cfg["seed"], "driver")
    driver = _build_driver(system["driver"], seed)
    return RandomSequence(family, driver, beta)


@dataclass
class RunManifest:
    config_hash: str
    command: str
    versions: dict = field(default_factory=dict)
    stage_seeds: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    wall_time: float = 0.0

    @classmethod
    def start(cls, cfg_hash: str, command: str) -> "RunManifest":
        manifest = cls(cfg_hash, command)
        manifest.versions = {
            "package": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        }
        manifest._t0 = time.monotonic()
        return manifest

    def record_output(self, path) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.outputs[Path(path).name] = digest

    def write(self, path) -> None:
        self.wall_time = time.monotonic() - getattr(self, "_t0", time.monotonic())
        doc = {
            "config_hash": self.config_hash,
            "command": self.command,
            "versions": self.versions,
            "wall_time_seconds": self.wall_time,
            "stage_seeds": self.stage_seeds,
            "outputs": self.outputs,
        }
        Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _resolve_threads(cfg: dict, threads: int | None) -> int:
    env = os.environ.get("STEINCLT_THREADS")
    if threads is not None:
        return max(1, threads)
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError("STEINCLT_THREADS must be an integer") from exc
    return max(1, int(cfg.get("threads", 1)))


def _ensure_out(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cached_sums(cache_dir: Path, key: str, compute, shape: tuple):
    """Sums of the given shape from the cache, computed and stored on a miss.

    An entry that cannot be read, or holds the wrong shape or dtype, counts
    as a miss and is overwritten.
    """
    path = cache_dir / f"{key}.npz"
    if path.exists():
        try:
            with np.load(path) as data:
                sums = data["sums"]
            if sums.shape == shape and sums.dtype == np.float64:
                return sums
            problem = f"shape {sums.shape}, dtype {sums.dtype}"
        except (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile, zlib.error) as exc:
            problem = f"{type(exc).__name__}: {exc}"
        warnings.warn(f"recomputing corrupt cache entry {path.name}: {problem}", stacklevel=2)
    sums = compute()
    tmp = path.with_suffix(".tmp.npz")
    np.savez_compressed(tmp, sums=sums)
    os.replace(tmp, path)
    return sums


def _measure_distance(cfg: dict, w: np.ndarray, sigma: np.ndarray, seed: int):
    metric = cfg["metric"]
    if metric == "wasserstein1":
        if w.shape[1] != 1:
            raise ConfigError("wasserstein1 needs a scalar observable")
        scale = math.sqrt(float(sigma[0, 0]))
        return wasserstein1_1d(w[:, 0] / scale)
    if metric == "sliced-wasserstein":
        return sliced_wasserstein(w, sigma, seed=seed)
    return smooth_metric_distance(w, sigma)


@dataclass(frozen=True)
class RatesResult:
    fit: RateFit
    rows: tuple
    floor: float
    floor_ok: bool
    csv_path: Path
    plot_path: Path
    fit_path: Path
    manifest_path: Path


def run_rates(
    cfg: dict,
    out_dir,
    threads: int | None = None,
    use_cache: bool = True,
) -> RatesResult:
    """Distance-to-normal across the N grid, rate fit, CSV + plot data.

    Each N has its own seed and its results are sorted by N, so the outputs
    do not depend on the thread count.  Raises DegenerateCovariance naming
    the offending N when self-norming fails; emits rates.csv, plot_rates.txt,
    rate_fit.csv, and manifest.json.
    """
    cfg = validate_config(cfg)
    if "n_grid" not in cfg:
        raise ConfigError("rates runs need an n_grid")
    out = _ensure_out(out_dir)
    cache = _ensure_out(out / "cache")
    chash = config_hash(cfg)
    manifest = RunManifest.start(chash, "rates")
    f = build_observable(cfg)
    seq = build_system(cfg)
    manifest.stage_seeds["driver"] = stage_seed(cfg["seed"], "driver")
    samples = cfg["samples"]
    grid = sorted(cfg["n_grid"])
    n_threads = _resolve_threads(cfg, threads)

    def job(n: int):
        label = f"ensemble-N{n}"
        seed_n = stage_seed(cfg["seed"], label)

        def compute():
            return birkhoff_raw_sums(seq, f, n, samples, seed_n, horizon=n - 1)

        sums = (
            _cached_sums(cache, f"{chash}_N{n}", compute, (samples, f.dimension))
            if use_cache
            else compute()
        )
        try:
            w, norm, summary = normalize_sums(
                sums, cfg["normalization"], n_terms=n
            )
        except DegenerateCovariance as exc:
            raise DegenerateCovariance(f"degenerate covariance at N={n}: {exc}") from exc
        target = np.eye(f.dimension) if cfg["normalization"] == "self-norming" else summary.matrix / n
        rep = _measure_distance(cfg, w, target, stage_seed(cfg["seed"], f"slice-N{n}"))
        return n, seed_n, rep, summary

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            results = list(pool.map(job, grid))
    else:
        results = [job(n) for n in grid]
    results.sort(key=lambda item: item[0])

    rows = []
    for n, seed_n, rep, summary in results:
        manifest.stage_seeds[f"ensemble-N{n}"] = seed_n
        rows.append((n, rep, summary))

    floor = wasserstein_floor(samples)
    smallest = min(rep.value for _, rep, _ in rows)
    floor_ok = smallest >= 3.0 * floor
    if cfg["metric"] != "smooth-metric" and not floor_ok:
        warnings.warn(
            "smallest measured distance sits within 3x the estimator floor; "
            "increase the sample count",
            stacklevel=2,
        )
    fit = fit_rate([(n, rep.value) for n, rep, _ in rows], cfg["fit_model"])

    csv_path = out / "rates.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("config,metric,N,S,value,stderr\n")
        for n, rep, _ in rows:
            fh.write(
                f"{chash},{rep.metric},{n},{samples},{repr(rep.value)},{repr(rep.stderr)}\n"
            )
    plot_path = out / "plot_rates.txt"
    with open(plot_path, "w", newline="") as fh:
        for n, rep, _ in rows:
            fh.write(f"{repr(math.log(n))} {repr(math.log(rep.value))}\n")
    fit_path = out / "rate_fit.csv"
    with open(fit_path, "w", newline="") as fh:
        fh.write("config,model,exponent,halfwidth,r2\n")
        fh.write(
            f"{chash},{fit.model},{repr(fit.exponent)},{repr(fit.halfwidth)},{repr(fit.r_squared)}\n"
        )
    manifest_path = out / "manifest.json"
    for path in (csv_path, plot_path, fit_path):
        manifest.record_output(path)
    manifest.write(manifest_path)
    return RatesResult(
        fit, tuple(rows), floor, floor_ok, csv_path, plot_path, fit_path, manifest_path
    )


@dataclass(frozen=True)
class DecomposeResult:
    ledger: DecompositionLedger
    tolerance: float
    passed: bool
    csv_path: Path
    manifest_path: Path


def run_decompose(cfg: dict, out_dir, h_name: str | None = None) -> DecomposeResult:
    """Build an ensemble, solve the Stein equation, and emit the term ledger."""
    cfg = validate_config(cfg)
    options = cfg.get("decompose", {})
    n_terms = options.get("n_terms", 8)
    if "u_order" in options:
        warnings.warn(
            "decompose.u_order is ignored: the ledger needs no segment quadrature",
            FutureWarning,
            stacklevel=2,
        )
    h_name = h_name or options.get("test_function", "tanh_prod")
    out = _ensure_out(out_dir)
    chash = config_hash(cfg)
    manifest = RunManifest.start(chash, "decompose")
    f = build_observable(cfg)
    if f.dimension > 3:
        raise ConfigError("decompose supports d <= 3")
    seq = build_system(cfg)
    seed = stage_seed(cfg["seed"], "decompose-ensemble")
    manifest.stage_seeds["decompose-ensemble"] = seed
    ens = build_ensemble(seq, f, n_terms, cfg["samples"], seed)
    candidates = {h.name: h for h in builtin_test_functions(f.dimension)}
    if h_name not in candidates:
        raise ConfigError(
            f"unknown test function {h_name!r}; choose from {sorted(candidates)}"
        )
    h = candidates[h_name]
    # The split is exact for any fixed C^2 function, so the solution backing
    # the ledger can use light quadrature; accuracy of A against the true
    # Stein solution is not what the residual measures.
    sol = SteinSolution(
        h, ens.w_covariance(), gh_order=_DECOMP_GH[f.dimension], u_order=8
    )
    ledger = decompose(ens, sol)
    tol = options.get("tolerance", 1e-9 + 4.0 * ledger.combined_stderr)
    passed = abs(ledger.residual) <= tol
    csv_path = out / "decomposition.csv"
    ledger.to_csv(csv_path)
    manifest.record_output(csv_path)
    manifest_path = out / "manifest.json"
    manifest.write(manifest_path)
    return DecomposeResult(ledger, tol, passed, csv_path, manifest_path)


@dataclass(frozen=True)
class SteinCheckRow:
    h_name: str
    sigma_index: int
    max_residual: float
    residual_tol: float
    worst_margin: float
    passed: bool


@dataclass(frozen=True)
class SteinCheckReport:
    dimension: int
    rows: tuple
    residual_seconds: float = 0.0
    bound_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            fh.write("h,sigma_index,max_residual,residual_tol,worst_margin,passed\n")
            for row in self.rows:
                fh.write(
                    f"{row.h_name},{row.sigma_index},{repr(row.max_residual)},"
                    f"{repr(row.residual_tol)},{repr(row.worst_margin)},{int(row.passed)}\n"
                )


_RESIDUAL_GH = {1: 48, 2: 20, 3: 14}
_BOUND_GH = {1: 32, 2: 10, 3: 5}
_BOUND_U = {1: 32, 2: 16, 3: 8}
_RESIDUAL_GRID = {1: 21, 2: 5, 3: 3}
_DECOMP_GH = {1: 16, 2: 8, 3: 5}


def _axis_grid(dim: int, per_axis: int, radius: float) -> np.ndarray:
    axis = np.linspace(-radius, radius, per_axis)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def random_spd(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random SPD matrix with spectrum in [0.5, 2] and Haar-random eigenbasis.

    The spectrum window brackets the covariances the solver actually sees
    (self-normed sums have eigenvalues near 1) and keeps the fixed
    Gauss-Hermite orders inside their accuracy budget.
    """
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)))
    q = q * np.sign(np.diag(r))
    lam = rng.uniform(0.5, 2.0, size=dim)
    return (q * lam) @ q.T


def run_stein_check(
    dim: int,
    seed: int = 0,
    sigma_count: int = 5,
    gh_order: int | None = None,
    bound_gh_order: int | None = None,
    bound_grid: int = 21,
    check_bounds: bool = True,
    out_dir=None,
) -> SteinCheckReport:
    """Residual and derivative-bound sweep over the built-in test functions.

    Closed-form cases (affine, quadratic) must pass at 1e-10; the smooth
    bump-type functions at 1e-4 (quadrature-limited).  With `out_dir`, writes
    stein_check_d{dim}.csv and a manifest.json whose config hash covers the
    arguments.
    """
    if not (1 <= dim <= 3):
        raise ConfigError("stein-check supports 1 <= d <= 3")
    params = {
        "dim": dim,
        "seed": seed,
        "sigma_count": sigma_count,
        "gh_order": gh_order,
        "bound_gh_order": bound_gh_order,
        "bound_grid": bound_grid,
        "check_bounds": check_bounds,
    }
    manifest = RunManifest.start(config_hash(params), "stein-check")
    manifest.stage_seeds["sigmas"] = seed
    gh = gh_order or _RESIDUAL_GH[dim]
    bgh = bound_gh_order or _BOUND_GH[dim]
    bu = _BOUND_U[dim]
    rng = np.random.default_rng(seed)
    sigmas = [random_spd(dim, rng) for _ in range(sigma_count)]
    res_grid = _axis_grid(dim, _RESIDUAL_GRID[dim], 2.5)
    bnd_grid = _axis_grid(dim, bound_grid, 3.0)
    rows = []
    res_elapsed = 0.0
    bnd_elapsed = 0.0
    for h in builtin_test_functions(dim):
        closed_form = h.name in ("affine", "quadratic")
        tol = 1e-10 if closed_form else 1e-4
        for j, sigma in enumerate(sigmas):
            t0 = time.perf_counter()
            sol = SteinSolution(h, sigma, gh_order=gh)
            max_res = float(np.max(stein_residual(sol, res_grid)))
            res_elapsed += time.perf_counter() - t0
            if check_bounds:
                t0 = time.perf_counter()
                bound_sol = SteinSolution(h, sigma, gh_order=bgh, u_order=bu)
                report = derivative_bound_check(bound_sol, bnd_grid, orders=(1, 2))
                margin = report.worst_margin
                bnd_elapsed += time.perf_counter() - t0
            else:
                margin = math.inf
            passed = max_res <= tol and margin >= -1e-6
            rows.append(SteinCheckRow(h.name, j, max_res, tol, margin, passed))
    report = SteinCheckReport(dim, tuple(rows), res_elapsed, bnd_elapsed)
    if out_dir is not None:
        out = _ensure_out(out_dir)
        path = out / f"stein_check_d{dim}.csv"
        report.to_csv(path)
        manifest.record_output(path)
        manifest.write(out / "manifest.json")
    return report


@dataclass(frozen=True)
class QuenchedResult:
    fits: tuple
    sigma_matrix: np.ndarray
    sigma_tail: float
    csv_path: Path
    manifest_path: Path

    @property
    def exponents(self) -> tuple:
        return tuple(fit.exponent for fit in self.fits)


def run_quenched(cfg: dict, out_dir, replicas: int | None = None) -> QuenchedResult:
    """Per-replica rate fits under sqrt(N) normalization against N(0, Sigma).

    Sigma comes from the truncated annealed covariance series; aborts when
    it is not positive definite (no variance growth, no limit theorem).
    """
    cfg = validate_config(cfg)
    if cfg["system"]["kind"] != "random":
        raise ConfigError("quenched runs need a random system")
    if "n_grid" not in cfg:
        raise ConfigError("quenched runs need an n_grid")
    options = cfg.get("quenched", {})
    replicas = replicas or options.get("replicas", 4)
    k_max = options.get("k_max", 16)
    series_samples = options.get("series_samples", 4096)
    series_runs = options.get("series_runs", 8)
    out = _ensure_out(out_dir)
    chash = config_hash(cfg)
    manifest = RunManifest.start(chash, "quenched")
    f = build_observable(cfg)
    base_seed = cfg["seed"]

    def make_seq(seed: int):
        return build_system(cfg, driver_seed=seed)

    series = sigma_series(
        make_seq,
        f,
        k_max,
        samples=series_samples,
        runs=series_runs,
        seed=stage_seed(base_seed, "sigma-series"),
    )
    sigma = np.asarray(series.matrix)
    eigs = np.linalg.eigvalsh(sigma)
    if float(eigs.min()) <= 1e-10:
        raise DegenerateCovariance(
            "series covariance is not positive definite: the variance-growth "
            "condition fails and no quenched limit is available"
        )
    grid = sorted(cfg["n_grid"])
    samples = cfg["samples"]
    fits = []
    csv_path = out / "quenched.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("config,replica,N,S,value,stderr\n")
        for r in range(replicas):
            seq = make_seq(stage_seed(base_seed, f"replica-{r}"))
            manifest.stage_seeds[f"replica-{r}"] = stage_seed(base_seed, f"replica-{r}")
            pairs = []
            for n in grid:
                seed_n = stage_seed(base_seed, f"replica-{r}-N{n}")
                sums = birkhoff_raw_sums(seq, f, n, samples, seed_n, horizon=n - 1)
                w, _, _ = normalize_sums(sums, sqrt_n_normalization(n, f.dimension))
                if f.dimension == 1:
                    rep = wasserstein1_1d(w[:, 0] / math.sqrt(float(sigma[0, 0])))
                else:
                    rep = smooth_metric_distance(w, sigma)
                pairs.append((n, rep.value))
                fh.write(
                    f"{chash},{r},{n},{samples},{repr(rep.value)},{repr(rep.stderr)}\n"
                )
            fits.append(fit_rate(pairs, cfg["fit_model"]))
    manifest.record_output(csv_path)
    manifest_path = out / "manifest.json"
    manifest.write(manifest_path)
    return QuenchedResult(tuple(fits), sigma, series.tail_estimate, csv_path, manifest_path)


@dataclass(frozen=True)
class QdsResult:
    rows: tuple
    lambda_ratios: tuple
    fit: RateFit
    csv_path: Path
    manifest_path: Path


def run_qds(cfg: dict, out_dir) -> QdsResult:
    """Partial-sum covariance growth at t_mid and end-time distance decay."""
    cfg = validate_config(cfg)
    if cfg["system"]["kind"] != "quasistatic":
        raise ConfigError("qds runs need a quasistatic system")
    if "n_grid" not in cfg:
        raise ConfigError("qds runs need an n_grid")
    t_mid = cfg.get("qds", {}).get("t_mid", 0.5)
    out = _ensure_out(out_dir)
    chash = config_hash(cfg)
    manifest = RunManifest.start(chash, "qds")
    f = build_observable(cfg)
    seq = build_system(cfg)
    samples = cfg["samples"]
    grid = sorted(cfg["n_grid"])
    rows = []
    for n in grid:
        seed_n = stage_seed(cfg["seed"], f"qds-N{n}")
        manifest.stage_seeds[f"qds-N{n}"] = seed_n
        x0 = np.random.default_rng(seed_n).random(samples)
        k_mid = int(math.floor(n * t_mid))
        frac = n * t_mid - k_mid
        acc = np.zeros((samples, f.dimension))
        mid = None
        for k, x in enumerate(orbit(seq, x0, n - 1, horizon=n)):
            vals = f(x)
            if k == k_mid:
                mid = acc + frac * vals
            acc += vals
        if mid is None:
            mid = acc.copy()
        mid_centered = mid - mid.mean(axis=0, keepdims=True)
        lam_min = float(
            np.linalg.eigvalsh(mid_centered.T @ mid_centered / samples)[0]
        )
        try:
            w, _, summary = normalize_sums(acc, "self-norming")
        except DegenerateCovariance as exc:
            raise DegenerateCovariance(f"degenerate covariance at n={n}: {exc}") from exc
        rep = _measure_distance(cfg, w, np.eye(f.dimension), stage_seed(cfg["seed"], f"qds-slice-N{n}"))
        rows.append((n, lam_min, rep))
    ratios = []
    by_n = {n: lam for n, lam, _ in rows}
    for n in grid:
        if 2 * n in by_n:
            ratios.append((n, by_n[2 * n] / by_n[n]))
    fit = fit_rate([(n, rep.value) for n, _, rep in rows], cfg["fit_model"])
    csv_path = out / "qds.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("config,N,S,t_mid,lambda_min,value,stderr\n")
        for n, lam, rep in rows:
            fh.write(
                f"{chash},{n},{samples},{repr(float(t_mid))},{repr(lam)},"
                f"{repr(rep.value)},{repr(rep.stderr)}\n"
            )
    manifest.record_output(csv_path)
    manifest_path = out / "manifest.json"
    manifest.write(manifest_path)
    return QdsResult(tuple(rows), tuple(ratios), fit, csv_path, manifest_path)


def simulate(cfg: dict, out_dir, steps: int = 64, orbit_count: int = 8) -> Path:
    """Write a small CSV of orbits for eyeballing a configured system."""
    cfg = validate_config(cfg)
    out = _ensure_out(out_dir)
    chash = config_hash(cfg)
    manifest = RunManifest.start(chash, "simulate")
    seq = build_system(cfg)
    seed = stage_seed(cfg["seed"], "simulate")
    manifest.stage_seeds["simulate"] = seed
    rng = np.random.default_rng(seed)
    x0 = rng.random(orbit_count)
    points = trajectory(seq, x0, steps)
    csv_path = out / "orbits.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write("config,orbit,step,x\n")
        for j in range(orbit_count):
            for k in range(steps + 1):
                fh.write(f"{chash},{j},{k},{repr(float(points[k, j]))}\n")
    manifest.record_output(csv_path)
    manifest.write(out / "manifest.json")
    return csv_path
