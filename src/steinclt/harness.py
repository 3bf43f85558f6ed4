"""Experiment configuration, orchestration, and report emission."""
from __future__ import annotations

import ctypes
import hashlib
import importlib.util
import json
import math
import os
import platform
import resource
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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
    aligned_empty,
    trajectory,
)
from .linalg import MIN_EIGENVALUE, DegenerateCovariance
from .quadrature import rule_certificate
from .stein import (
    SteinSolution,
    TensorGrid,
    builtin_test_functions,
    derivative_bound_check,
    stein_residual,
)
from .stats import (
    RateFit,
    _normal_scores,
    birkhoff_raw_sums,
    build_ensemble,
    check_ensemble_size,
    check_rate_grid,
    empirical_covariance,
    fit_rate,
    normalize_sums,
    sigma_series,
    sliced_wasserstein,
    smooth_metric_distance,
    wasserstein1_1d,
    wasserstein_floor,
)
from .sunklodas import MEMORY_BUDGET, DecompositionLedger, check_block_size, decompose

__all__ = [
    "ConfigError",
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


_ABOVE_0 = math.ulp(0.0)  # the least float above 0: ">= _ABOVE_0" is "> 0"
_MAX = math.nextafter(math.inf, 0.0)  # the largest float
_NUMBER = (-_MAX, _MAX)

# The config, object by object.  "keys" maps each key an object may hold to
# its test: a set of allowed values (of their type: neither 1.0 nor true is
# 1), an int (an integer at least that; no float or bool), a (low, high)
# range of numbers, str, [test, least] (a list of at least `least` items
# that pass `test`) or a nested object.  "required" lists the keys an object
# must hold; "kinds" maps each allowed "kind" to the key groups it adds
# ("low high" is one group), of which the object must hold one whole.
_CONFIG = {
    "required": ("version", "system", "observable", "samples", "seed"),
    "keys": {
        "version": {1},
        "system": {
            "required": ("kind", "family", "beta_star"),
            "kinds": {"sequential": ("params", "driver"), "quasistatic": ("curve",),
                      "random": ("driver",)},
            "keys": {
                "family": {"lsv", "shifted-slope"},
                "beta_star": (0, 1),
                "params": [_NUMBER, 1],
                "driver": {
                    "required": ("kind",),
                    "kinds": {"iid-uniform": ("low high",), "markov": ("values kernel",)},
                    "keys": {"low": _NUMBER, "high": _NUMBER, "values": [_NUMBER, 0],
                             "kernel": [[_NUMBER, 0], 0]},
                },
                "curve": {
                    "required": ("kind",),
                    "kinds": {"constant": ("value",), "linear": ("start end",)},
                    "keys": {"value": _NUMBER, "start": _NUMBER, "end": _NUMBER},
                },
            },
        },
        "observable": set(OBSERVABLES),
        "n_grid": [2, 1],
        "samples": 100,
        "metric": {"wasserstein1", "sliced-wasserstein", "smooth-metric"},
        "normalization": {"self-norming", "sqrt-n"},
        "fit_model": {"pure-power", "power-times-log"},
        "seed": 0,
        "qds": {"keys": {"t_mid": (_ABOVE_0, 1)}},
        "decompose": {"keys": {"n_terms": 1, "test_function": str, "tolerance": (_ABOVE_0, _MAX)}},
        "quenched": {"keys": {"replicas": 1, "k_max": 1, "series_samples": 100, "series_runs": 1}},
    },
}

_DEFAULTS = {"metric": "wasserstein1", "normalization": "self-norming", "fit_model": "pure-power"}


def _check(value, test, path: str = "config") -> None:
    """Raise ConfigError, naming the key path, unless value passes test."""
    if isinstance(test, dict):
        if type(value) is not dict:
            raise ConfigError(f"{path} must be an object, got {value!r}")
        kinds = test.get("kinds")
        keys = dict(test["keys"], kind=set(kinds)) if kinds else test["keys"]
        for key in value:
            if key not in keys:
                raise ConfigError(f"{path}.{key} is not a known key")
        for key in test.get("required", ()):
            if key not in value:
                raise ConfigError(f"{path}.{key} is missing")
        for key, item in value.items():
            _check(item, keys[key], f"{path}.{key}")
        groups = kinds[value["kind"]] if kinds else ()
        if groups and not any(all(key in value for key in group.split()) for group in groups):
            needs = " or ".join(group.replace(" ", " and ") for group in groups)
            raise ConfigError(f"{path} of kind {value['kind']!r} needs {needs}")
    elif isinstance(test, list):
        if type(value) is not list or len(value) < test[1]:
            raise ConfigError(f"{path} must be a list of at least {test[1]} items, got {value!r}")
        for i, item in enumerate(value):
            _check(item, test[0], f"{path}[{i}]")
    elif isinstance(test, set):
        if not any(type(value) is type(a) and value == a for a in test):
            raise ConfigError(f"{path} must be one of {sorted(test)}, got {value!r}")
    elif type(test) is int:
        if type(value) is not int or value < test:
            raise ConfigError(f"{path} must be an integer >= {test}, got {value!r}")
    elif isinstance(test, tuple):
        if type(value) not in (int, float) or not test[0] <= value <= test[1]:
            raise ConfigError(f"{path} must be a number in [{test[0]:g}, {test[1]:g}], got {value!r}")
    elif type(value) is not test:
        raise ConfigError(f"{path} must be a {test.__name__}, got {value!r}")


def validate_config(cfg: dict) -> dict:
    """Check a config document against `_CONFIG` and return a copy with the
    defaults filled in.  Raises ConfigError naming the key path of the first
    fault; warns when an LSV system's beta_star leaves the rate bound empty."""
    _check(cfg, _CONFIG)
    out = {**_DEFAULTS, **json.loads(json.dumps(cfg))}
    system = out["system"]
    if system["family"] == "lsv" and system["beta_star"] >= BETA_STAR_WARN:
        warnings.warn("beta_star >= 2/5: the intermittent rate bound carries no information",
                      stacklevel=2)
    return out


def load_config(path) -> dict:
    """Read a JSON config document and return it as written: a ConfigError
    only if it cannot be read or is not a JSON object.  Each runner's
    `validate_config` checks the rest, and `quenched` rejects keys given."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if type(raw) is not dict:
        raise ConfigError(f"config {path} is not a JSON object")
    return raw


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
    """Instantiate the map sequence described by the config's system block.

    A value the constructors reject (parameters outside [0, beta_star], a
    driver range with low > high, a kernel that is not stochastic or does
    not match its values) is a ConfigError naming config.system.
    """
    system = cfg["system"]
    family = _build_family(system["family"])
    beta = float(system["beta_star"])
    kind = system["kind"]
    try:
        if kind == "quasistatic":
            return QuasistaticSequence(family, _build_curve(system["curve"]), beta)
        if kind == "sequential" and "params" in system:
            steps = [float(p) for p in system["params"]]
            return SequentialSequence(family, tuple([steps[0]] + steps), beta)
        seed = driver_seed if driver_seed is not None else stage_seed(cfg["seed"], "driver")
        return RandomSequence(family, _build_driver(system["driver"], seed), beta)
    except ValueError as exc:
        raise ConfigError(f"config.system: {exc}") from exc


def _numerics() -> dict:
    """What sets an output's last bits besides the code and the config, as
    this run saw it: numpy's active SIMD dispatch targets (its `pow`, `exp`
    and `log` loops round differently above the baseline, and
    NPY_DISABLE_CPU_FEATURES turns targets off), the BLAS numpy links, and
    the BLAS thread count.  numpy before 2.0 keeps the dispatch tables in
    `np.core`, and before 1.25 has no build CONFIG; what a numpy lacks is
    recorded as null."""
    core = getattr(np, "_core", None) or getattr(np, "core", None)
    umath = getattr(core, "_multiarray_umath", None)
    targets = getattr(umath, "__cpu_dispatch__", None)
    features = getattr(umath, "__cpu_features__", None)
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas")
    return {
        "dispatch": None if targets is None or features is None
        else [t for t in targets if features.get(t)],
        "NPY_DISABLE_CPU_FEATURES": os.environ.get("NPY_DISABLE_CPU_FEATURES"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}" if blas else None,
    }


def _versions() -> dict:
    # scipy's version without importing scipy or importlib.metadata (whose
    # import alone costs start-up), read off scipy's generated version.py
    source = Path(importlib.util.find_spec("scipy").origin).with_name("version.py")
    line = next(s for s in source.read_text().splitlines() if s.startswith("version = "))
    return {
        "package": __version__,
        "numpy": np.__version__,
        "scipy": line.split("=", 1)[1].strip().strip("\"'"),
        "python": platform.python_version(),
    }


@dataclass
class RunManifest:
    """One run: its output directory (created at the first write, so a run
    that fails its checks leaves none), the stage seeds it draws, its timed
    stages and the checksums of the files it writes, all of which `finish`
    records in manifest.json."""

    config_hash: str
    command: str
    out: Path | None = None
    versions: dict = field(default_factory=_versions)
    stage_seeds: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    started: float = field(default_factory=time.monotonic)
    faults_at_start: int = field(
        default_factory=lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    )

    def __post_init__(self):
        if self.out is not None:
            self.out = Path(self.out)
            if self.out.exists() and not self.out.is_dir():
                raise NotADirectoryError(f"output path {self.out} is not a directory")

    def path(self, name: str) -> Path:
        """`name` inside the output directory, which this creates."""
        self.out.mkdir(parents=True, exist_ok=True)
        return self.out / name

    def seed(self, base: int, label: str) -> int:
        value = stage_seed(base, label)
        self.stage_seeds[label] = value
        return value

    @contextmanager
    def stage(self, name: str):
        """Add the block's wall seconds to stages[name]["seconds"] and set
        its "peak_rss_mb" to the process's peak resident set when the block
        ends; yields the stage's record so the block can add its own
        counters."""
        record = self.stages.setdefault(name, {"seconds": 0.0})
        t0 = time.perf_counter()
        try:
            yield record
        finally:
            record["seconds"] += time.perf_counter() - t0
            record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def write_rows(self, name: str, header, rows, sep: str = ",") -> Path:
        """Write `header` (None for none) and `rows` as `sep`-joined `str` fields."""
        path = self.path(name)
        with open(path, "w", newline="") as fh:
            if header is not None:
                fh.write(sep.join(header) + "\n")
            for row in rows:
                fh.write(sep.join(map(str, row)) + "\n")
        self.record_output(path)
        return path

    def record_output(self, path) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.outputs[Path(path).name] = digest

    def finish(self) -> Path:
        """Write manifest.json into the output directory and return its path.

        `peak_rss_mb` is the process's peak resident set so far (ru_maxrss,
        KiB on Linux); `minor_faults` counts the process's minor page faults
        (ru_minflt) since the manifest was opened; `numerics` is `_numerics()`.
        """
        usage = resource.getrusage(resource.RUSAGE_SELF)
        doc = {
            "config_hash": self.config_hash,
            "command": self.command,
            "versions": self.versions,
            "wall_time_seconds": time.monotonic() - self.started,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "minor_faults": usage.ru_minflt - self.faults_at_start,
            "numerics": _numerics(),
            "stage_seeds": self.stage_seeds,
            "stages": self.stages,
            "outputs": self.outputs,
        }
        path = self.path("manifest.json")
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return path


def _start(cfg: dict, out_dir, command: str) -> tuple[dict, RunManifest]:
    """The validated config and an open manifest for one config-driven run."""
    cfg = validate_config(cfg)
    return cfg, RunManifest(config_hash(cfg), command, out_dir)


def _check_counts(**counts: tuple[int, int]) -> None:
    """ConfigError naming the first command-line count below its least
    allowed value; each keyword maps an option name to (value, least)."""
    for name, (value, least) in counts.items():
        if value < least:
            raise ConfigError(f"--{name} must be at least {least}, got {value}")


def _check_horizon(cfg: dict, steps: int) -> None:
    """ConfigError unless explicit sequential params cover steps 1..`steps`
    (`build_system` adds slot 0, so L params cover steps 1..L)."""
    system = cfg["system"]
    given = len(system.get("params", ()))
    if system["kind"] == "sequential" and "params" in system and given < steps:
        raise ConfigError(f"system.params covers {given} steps, the run needs {steps}")


def _rate_grid(cfg: dict, command: str) -> list[int]:
    """The config's N grid in increasing order, checked before any simulation.

    Raises ConfigError when the grid is missing or `fit_rate` could not fit
    the configured model over it.
    """
    if "n_grid" not in cfg:
        raise ConfigError(f"{command} runs need an n_grid")
    grid = sorted(cfg["n_grid"])
    try:
        check_rate_grid(grid, cfg["fit_model"])
    except ValueError as exc:
        raise ConfigError(f"n_grid cannot be fitted: {exc}") from exc
    return grid


def _row(seq, n: int) -> SequentialSequence:
    """Row n of seq's triangular array: its orbit of n - 1 steps to S_n
    applies alpha_{n,1..n-1}, as every N's own pass must."""
    return SequentialSequence(seq.family, tuple(seq.parameters(n)), seq.beta_star)


_SHARDS = 16
# S x d arrays a per-N step holds beside the sums: W and, for W1, its sorted
# copy and the normal scores, or the smooth metric's family values
_STEP_ARRAYS = 6


def _check_sums_size(checkpoints: int, samples: int, dim: int) -> None:
    """ConfigError, before any orbit step, when sums at `checkpoints`
    checkpoints (S x d values each) and a per-N step's arrays would hold more
    than MEMORY_BUDGET float64 values."""
    values = (checkpoints + _STEP_ARRAYS) * samples * dim
    if values > MEMORY_BUDGET:
        raise ConfigError(
            f"samples and n_grid: the sums would hold {values} float64 values, over the "
            f"budget of {MEMORY_BUDGET}; reduce samples or the grid"
        )


def _usable_cpus() -> int:
    """The CPUs this process may use: its affinity mask where the OS has one
    (Linux), else os.cpu_count()."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _glibc(name: str, *argtypes):
    """The C library's int-returning function `name`, taking `argtypes`;
    None where the C library has none (not glibc, e.g. macOS)."""
    fn = getattr(ctypes.CDLL(None), name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return fn


def _sharded_sums(
    seq, f: Observable, checkpoints, samples: int, root: int, stage: dict,
    threads: int | None = None,
) -> list[np.ndarray]:
    """One (samples, d) array of sums per checkpoint, each its own
    allocation (so one can be freed alone), over `_SHARDS` fixed sample
    blocks.

    Block i starts from uniform draws of the i-th child of SeedSequence(root)
    and owns its column slice.  The blocks split into one contiguous group
    per thread (`threads`, else the CPUs this process may use), and each
    group is one `birkhoff_raw_sums` pass: large arrays per step keep the
    threads from queueing on the interpreter lock.  Every operation of a
    pass is elementwise over samples, so the grouping, and with it the
    thread count, cannot change a bit of the result.  Adds the pass's
    point-steps, threads and shards to `stage`.

    Each array's data starts on a 64-byte boundary (`aligned_empty`), where
    a pass's `acc += f(x)` stores at full speed.  A group's rows start on
    one when its first row times d is a multiple of 8: at S = 100,000 both
    groups of two threads do, but a group that starts at an odd shard of
    6,250 rows sits 16 bytes off.
    """
    width = min(_SHARDS, threads or _usable_cpus())
    children = np.random.SeedSequence(root).spawn(_SHARDS)
    edges = np.linspace(0, samples, _SHARDS + 1).astype(int)
    x0 = np.concatenate([
        np.random.default_rng(child).random(hi - lo)
        for child, lo, hi in zip(children, edges[:-1], edges[1:])
    ])
    cuts = edges[np.linspace(0, _SHARDS, width + 1).astype(int)]
    out = [aligned_empty((samples, f.dimension)) for _ in checkpoints]

    def group(g: int) -> None:
        lo, hi = cuts[g], cuts[g + 1]
        birkhoff_raw_sums(seq, f, checkpoints, x0[lo:hi], [row[lo:hi] for row in out])

    with ThreadPoolExecutor(width) as pool:
        list(pool.map(group, range(width)))
    # what the workers freed stays in their glibc arenas, beside the arrays
    # the per-N steps allocate next: give it back (a no-op without glibc)
    trim = _glibc("malloc_trim", ctypes.c_size_t)
    if trim is not None:
        trim(0)
    steps = stage.get("point_steps", 0) + samples * max(checkpoints[-1] - 1, 0)
    stage.update(point_steps=steps, threads=width, shards=_SHARDS)
    return out


def _pass_sums(seq, f: Observable, checkpoints, samples: int, root: int, manifest, name: str,
               threads: int | None = None) -> dict:
    """Map each N, in grid order, to its sums at its checkpoints, given one
    non-decreasing checkpoint list per N that ends at N.  When every N's
    row is a prefix of max N's (a random or sequential system, a constant
    curve), one pass over the union of the checkpoints serves every N, with
    the bits of N's own pass; otherwise each N takes its own pass over
    `_row(seq, N)` from the same shard starts.  The sums every pass holds
    are sized (`_check_sums_size`) before the first.  Timed as stage `name`,
    which records the size of the sums as `sums_mb`."""
    grid = [cps[-1] for cps in checkpoints]
    last = seq.parameters(grid[-1] - 1)
    if all(np.array_equal(seq.parameters(n - 1), last[:n]) for n in grid):
        passes = [(seq, checkpoints)]
    else:
        passes = [(_row(seq, cps[-1]), [cps]) for cps in checkpoints]
    _check_sums_size(sum(len({k for cps in wanted for k in cps}) for _, wanted in passes),
                     samples, f.dimension)
    sums = {}
    with manifest.stage(name) as stage:
        for row, wanted in passes:
            union = sorted({k for cps in wanted for k in cps})
            out = _sharded_sums(row, f, union, samples, root, stage, threads)
            stage["sums_mb"] = stage.get("sums_mb", 0.0) + sum(a.nbytes for a in out) / 2**20
            sums.update((cps[-1], [out[union.index(k)] for k in cps]) for cps in wanted)
    stage["point_steps_per_s"] = stage["point_steps"] / stage["seconds"]
    return sums


def _check_metric(metric: str, f: Observable) -> None:
    """ConfigError, before any orbit step, when `metric` cannot read f."""
    if metric == "wasserstein1" and f.dimension != 1:
        raise ConfigError("wasserstein1 needs a scalar observable")


def _distance_at(n: int, raw: np.ndarray, metric: str, seed: int, sigma=None, sqrt_n=False):
    """Normalize the sums over N = n and measure W's distance to the normal.

    Self-norming (the default) compares W with N(0, I).  With `sqrt_n`, W
    is the centered sums over sqrt(n), compared with N(0, sigma), or with
    N(0, covariance of the sums / n) when sigma is None.  A singular
    covariance is re-raised naming n; `seed` draws the slice directions.
    Once normalized, `raw` is dropped: a caller that hands over its last
    reference frees S_N before the W1 step copies W.
    """
    d = raw.shape[1]
    if metric != "smooth-metric":
        # the normal scores (cached per S) are built before W exists, so
        # their block temporaries never sit beside W
        _normal_scores(raw.shape[0])
    try:
        w, cov = normalize_sums(raw, np.eye(d) / math.sqrt(n) if sqrt_n else None)
    except DegenerateCovariance as exc:
        raise DegenerateCovariance(f"degenerate covariance at N={n}: {exc}") from exc
    del raw
    if sigma is None:
        sigma = cov / n if sqrt_n else np.eye(d)
    if metric == "wasserstein1":
        column = w[:, 0]  # W is this call's own: scale it in place
        column /= math.sqrt(float(sigma[0, 0]))
        return wasserstein1_1d(column)
    if metric == "sliced-wasserstein":
        return sliced_wasserstein(w, sigma, seed=seed)
    return smooth_metric_distance(w, sigma)


def _rate_rows(manifest, cfg: dict, sums: dict, metric: str, sqrt_n: bool, sigma=None,
               prefix: str = "") -> tuple[list, RateFit]:
    """The (n, distance) rows at each N's last `_pass_sums` sums, S_N, and
    the rate fit over them.  Stage `<prefix>N<n>` times each N and records
    its `floor_ratio` (the distance over the W1 floor for S samples); stage
    seed `slice-N<n>` draws its slice directions.  Empties `sums`, popping
    each N as it measures it, so S_N can be freed once normalized."""
    floor = wasserstein_floor(cfg["samples"])
    rows = []
    for n in list(sums):
        with manifest.stage(f"{prefix}N{n}") as stage:
            seed = stage_seed(cfg["seed"], f"slice-N{n}")
            rep = _distance_at(n, sums.pop(n)[-1], metric, seed, sigma, sqrt_n)
            stage["floor_ratio"] = rep.value / floor
        rows.append((n, rep))
    return rows, fit_rate([(n, rep.value) for n, rep in rows], cfg["fit_model"])


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


def run_rates(cfg: dict, out_dir, threads: int | None = None) -> RatesResult:
    """Distance-to-normal across the N grid (sums from `_pass_sums`), rate
    fit, CSV + plot data.  The outputs do not depend on `threads` (see
    `_sharded_sums`); a count below 1 is a ConfigError.  Raises
    DegenerateCovariance naming the offending N when self-norming fails;
    emits rates.csv, plot_rates.txt, rate_fit.csv, and manifest.json.
    """
    if threads is not None:
        _check_counts(threads=(threads, 1))
    cfg, manifest = _start(cfg, out_dir, "rates")
    grid = _rate_grid(cfg, "rates")
    _check_horizon(cfg, grid[-1] - 1)
    chash = manifest.config_hash
    f = build_observable(cfg)
    _check_metric(cfg["metric"], f)
    seq = build_system(cfg)
    manifest.seed(cfg["seed"], "driver")
    root = manifest.seed(cfg["seed"], "ensemble")
    samples = cfg["samples"]
    sums = _pass_sums(seq, f, [[n] for n in grid], samples, root, manifest, "sums", threads)
    rows, fit = _rate_rows(manifest, cfg, sums, cfg["metric"], cfg["normalization"] == "sqrt-n")
    floor = wasserstein_floor(samples)
    # floor_ok compares with the W1 estimator's floor; the smooth metric has
    # a floor of its own (0.2-0.4/sqrt(S) measured), which it does not yet read
    floor_ok = cfg["metric"] == "smooth-metric" or min(rep.value for _, rep in rows) >= 3.0 * floor
    csv_path = manifest.write_rows(
        "rates.csv",
        ("config", "metric", "N", "S", "value", "stderr"),
        [(chash, rep.metric, n, samples, rep.value, rep.stderr) for n, rep in rows],
    )
    plot_path = manifest.write_rows(
        "plot_rates.txt", None, [(math.log(n), math.log(rep.value)) for n, rep in rows], sep=" "
    )
    fit_path = manifest.write_rows(
        "rate_fit.csv", ("config", "model", "exponent", "halfwidth", "r2"),
        [(chash, fit.model, fit.exponent, fit.halfwidth, fit.r_squared)],
    )
    return RatesResult(
        fit, tuple(rows), floor, floor_ok, csv_path, plot_path, fit_path, manifest.finish()
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
    cfg, manifest = _start(cfg, out_dir, "decompose")
    options = cfg.get("decompose", {})
    n_terms = options.get("n_terms", 8)
    h_name = h_name or options.get("test_function", "tanh_prod")
    f = build_observable(cfg)
    if f.dimension > 3:
        raise ConfigError("decompose supports d <= 3")
    candidates = {h.name: h for h in builtin_test_functions(f.dimension)}
    if h_name not in candidates:
        raise ConfigError(
            f"unknown test function {h_name!r}; choose from {sorted(candidates)}"
        )
    h = candidates[h_name]
    _check_horizon(cfg, n_terms - 1)
    samples = cfg["samples"]
    try:
        check_ensemble_size(samples, n_terms, f.dimension)
    except ValueError as exc:
        raise ConfigError(f"samples and decompose.n_terms: {exc}") from exc
    try:
        check_block_size(n_terms)
    except ValueError as exc:
        raise ConfigError(f"decompose.n_terms: {exc}") from exc
    seq = build_system(cfg)
    seed = manifest.seed(cfg["seed"], "decompose-ensemble")
    with manifest.stage("ensemble") as stage:
        ens = build_ensemble(seq, f, n_terms, samples, seed)
        stage["point_steps"] = samples * (n_terms - 1)
    # The split is exact for any fixed C^2 function, so the solution backing
    # the ledger can use light quadrature; accuracy of A against the true
    # Stein solution is not what the residual measures.
    # Y, the normalized ensemble, is formed once for the solution's Sigma
    # and the ledger
    with manifest.stage("solution"):
        y = ens.y_values()
        sol = SteinSolution(
            h, ens.w_covariance(y), gh_order=_DECOMP_GH[f.dimension], u_order=8
        )
    with manifest.stage("ledger") as stage:
        ledger = decompose(ens, sol, y=y)
        stage["points"] = samples * n_terms * (n_terms + 1)
        stage["distinct_points"] = ledger.distinct_points
    tol = options.get("tolerance", 1e-9 + 4.0 * ledger.combined_stderr)
    passed = abs(ledger.residual) <= tol
    csv_path = manifest.write_rows("decomposition.csv", ("term", "value", "stderr"), ledger.rows())
    return DecomposeResult(ledger, tol, passed, csv_path, manifest.finish())


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
    residual_seconds: float
    bound_seconds: float

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


_RESIDUAL_GH = {1: 48, 2: 20, 3: 14}
_RESIDUAL_U = 32
_BOUND_GH = {1: 32, 2: 10, 3: 5}
_BOUND_U = {1: 32, 2: 16, 3: 8}
_RESIDUAL_GRID = {1: 21, 2: 5, 3: 3}
_BOUND_GRID = 21
_DECOMP_GH = {1: 16, 2: 8, 3: 5}


def _axis_grid(dim: int, per_axis: int, radius: float) -> TensorGrid:
    return TensorGrid([np.linspace(-radius, radius, per_axis)] * dim)


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


def run_stein_check(dim: int, seed: int = 0, sigma_count: int = 5, out_dir=None) -> SteinCheckReport:
    """Residual and derivative-bound sweep over the built-in test functions.

    Closed-form cases (affine, quadratic) must pass at 1e-10; the smooth
    bump-type functions at 1e-4 (quadrature-limited).  Every row evaluates
    its solution on tensor grids: the last axis's factor tables are built a
    block of u-nodes at a time and summed over their Gauss-Hermite index as
    they are built, so the residual rule's (14^3 columns at d = 3) are never
    held whole, and the rest are contracted by outer products across axes,
    the first axis's fused with its Gauss-Hermite sum in one einsum.  With
    `out_dir`, writes stein_check_d{dim}.csv and a manifest.json whose config
    hash covers the arguments; its `stages` give, for the residual and the
    bound sweep, the seconds, the number of rows and the certificate of the
    quadrature rules in use.
    """
    if not (1 <= dim <= 3):
        raise ConfigError("stein-check supports 1 <= d <= 3")
    _check_counts(seed=(seed, 0), sigmas=(sigma_count, 1))
    params = {"dim": dim, "seed": seed, "sigma_count": sigma_count}
    manifest = RunManifest(config_hash(params), "stein-check", out_dir)
    manifest.stage_seeds["sigmas"] = seed
    gh = _RESIDUAL_GH[dim]
    bgh = _BOUND_GH[dim]
    bu = _BOUND_U[dim]
    rng = np.random.default_rng(seed)
    sigmas = [random_spd(dim, rng) for _ in range(sigma_count)]
    res_grid = _axis_grid(dim, _RESIDUAL_GRID[dim], 2.5)
    bnd_grid = _axis_grid(dim, _BOUND_GRID, 3.0)
    for name, (g, u) in {"residual": (gh, _RESIDUAL_U), "bound": (bgh, bu)}.items():
        manifest.stages[name] = {"seconds": 0.0, "rows": 0, "quadrature": rule_certificate(g, dim, u)}
    rows = []
    for h in builtin_test_functions(dim):
        closed_form = h.name in ("affine", "quadratic")
        tol = 1e-10 if closed_form else 1e-4
        for j, sigma in enumerate(sigmas):
            with manifest.stage("residual") as stage:
                sol = SteinSolution(h, sigma, gh_order=gh, u_order=_RESIDUAL_U)
                max_res = float(np.max(stein_residual(sol, res_grid)))
                stage["rows"] += 1
            with manifest.stage("bound") as stage:
                bound_sol = SteinSolution(h, sigma, gh_order=bgh, u_order=bu)
                margin = derivative_bound_check(bound_sol, bnd_grid, orders=(1, 2)).worst_margin
                stage["rows"] += 1
            passed = max_res <= tol and margin >= -1e-6
            rows.append(SteinCheckRow(h.name, j, max_res, tol, margin, passed))
    if out_dir is not None:
        manifest.write_rows(
            f"stein_check_d{dim}.csv",
            ("h", "sigma_index", "max_residual", "residual_tol", "worst_margin", "passed"),
            [
                (r.h_name, r.sigma_index, r.max_residual, r.residual_tol, r.worst_margin,
                 int(r.passed))
                for r in rows
            ],
        )
        manifest.finish()
    stages = manifest.stages
    return SteinCheckReport(dim, tuple(rows), stages["residual"]["seconds"], stages["bound"]["seconds"])


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
    The normalization and metric are fixed, so a config that sets
    `normalization` or `metric` is a ConfigError.
    """
    for key in ("normalization", "metric"):
        if key in cfg:
            raise ConfigError(f"quenched runs do not read {key!r}; remove it from the config")
    if replicas is not None:
        _check_counts(replicas=(replicas, 1))
    cfg, manifest = _start(cfg, out_dir, "quenched")
    if cfg["system"]["kind"] != "random":
        raise ConfigError("quenched runs need a random system")
    grid = _rate_grid(cfg, "quenched")
    options = cfg.get("quenched", {})
    if replicas is None:
        replicas = options.get("replicas", 4)
    k_max = options.get("k_max", 16)
    series_samples = options.get("series_samples", 4096)
    series_runs = options.get("series_runs", 8)
    f = build_observable(cfg)
    base_seed = cfg["seed"]
    samples = cfg["samples"]
    # each replica's pass holds the sums at every N; the series steps orbits first
    _check_sums_size(len(grid), samples, f.dimension)

    def make_seq(seed: int):
        return build_system(cfg, driver_seed=seed)

    with manifest.stage("series") as stage:
        series = sigma_series(make_seq, f, k_max, samples=series_samples, runs=series_runs,
                              seed=stage_seed(base_seed, "sigma-series"))
        stage["point_steps"] = series.point_steps
    sigma = np.asarray(series.matrix)
    if float(np.linalg.eigvalsh(sigma)[0]) <= MIN_EIGENVALUE:
        raise DegenerateCovariance(
            "series covariance is not positive definite: the variance-growth "
            "condition fails and no quenched limit is available"
        )
    metric = "wasserstein1" if f.dimension == 1 else "smooth-metric"
    fits = []
    rows = []
    for r in range(replicas):
        seq = make_seq(manifest.seed(base_seed, f"replica-{r}"))
        root = manifest.seed(base_seed, f"replica-{r}-ensemble")
        sums = _pass_sums(seq, f, [[n] for n in grid], samples, root, manifest, f"replica-{r}")
        reps, fit = _rate_rows(
            manifest, cfg, sums, metric, sqrt_n=True, sigma=sigma, prefix=f"replica-{r}-"
        )
        fits.append(fit)
        rows += [(manifest.config_hash, r, n, samples, rep.value, rep.stderr) for n, rep in reps]
    csv_path = manifest.write_rows(
        "quenched.csv", ("config", "replica", "N", "S", "value", "stderr"), rows
    )
    return QuenchedResult(tuple(fits), sigma, series.tail_estimate, csv_path, manifest.finish())


@dataclass(frozen=True)
class QdsResult:
    rows: tuple
    lambda_ratios: tuple
    fit: RateFit
    csv_path: Path
    manifest_path: Path


def run_qds(cfg: dict, out_dir) -> QdsResult:
    """Partial-sum covariance growth at t_mid and end-time distance decay."""
    cfg, manifest = _start(cfg, out_dir, "qds")
    if cfg["system"]["kind"] != "quasistatic":
        raise ConfigError("qds runs need a quasistatic system")
    grid = _rate_grid(cfg, "qds")
    t_mid = cfg.get("qds", {}).get("t_mid", 0.5)
    f = build_observable(cfg)
    _check_metric(cfg["metric"], f)
    seq = build_system(cfg)
    samples = cfg["samples"]
    # t_mid = 1 gives k_mid = n, so mid is S_n
    k_mids = [int(math.floor(n * t_mid)) for n in grid]
    sums = _pass_sums(
        seq, f, [[k, min(k + 1, n), n] for k, n in zip(k_mids, grid)], samples,
        manifest.seed(cfg["seed"], "ensemble"), manifest, "sums",
    )
    reps, fit = _rate_rows(
        manifest, cfg, dict(sums), cfg["metric"], cfg["normalization"] == "sqrt-n"
    )
    lam = {}
    for k_mid, n in zip(k_mids, grid):
        s_mid, s_next, _ = sums[n]
        frac = n * t_mid - k_mid
        mid = (1.0 - frac) * s_mid + frac * s_next
        lam[n] = float(np.linalg.eigvalsh(empirical_covariance(mid - mid.mean(axis=0)))[0])
    rows = [(n, lam[n], rep) for n, rep in reps]
    ratios = [(n, lam[2 * n] / lam[n]) for n in grid if 2 * n in lam]
    csv_path = manifest.write_rows(
        "qds.csv",
        ("config", "N", "S", "t_mid", "lambda_min", "value", "stderr"),
        [
            (manifest.config_hash, n, samples, float(t_mid), lam, rep.value, rep.stderr)
            for n, lam, rep in rows
        ],
    )
    return QdsResult(tuple(rows), tuple(ratios), fit, csv_path, manifest.finish())


def simulate(cfg: dict, out_dir, steps: int = 64, orbit_count: int = 8) -> Path:
    """Write a small CSV of orbits for eyeballing a configured system."""
    _check_counts(steps=(steps, 0), orbits=(orbit_count, 1))
    cfg, manifest = _start(cfg, out_dir, "simulate")
    _check_horizon(cfg, steps)
    seq = build_system(cfg)
    rng = np.random.default_rng(manifest.seed(cfg["seed"], "simulate"))
    x0 = rng.random(orbit_count)
    with manifest.stage("orbits") as stage:
        points = trajectory(seq, x0, steps)
        stage["point_steps"] = orbit_count * steps
    csv_path = manifest.write_rows(
        "orbits.csv",
        ("config", "orbit", "step", "x"),
        [
            (manifest.config_hash, j, k, float(points[k, j]))
            for j in range(orbit_count)
            for k in range(steps + 1)
        ],
    )
    manifest.finish()
    return csv_path
