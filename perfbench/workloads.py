"""The benchmark's workloads: CLI argument lists and configs made from a seed.

Each workload is one `steinclt.cli.main(argv)` call.  The program sees only
the config file written here and the argument list built here; the seed is
the only input that changes between runs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 20260815

_LSV_SYSTEM = {
    "kind": "random",
    "family": "lsv",
    "beta_star": 0.25,
    "driver": {"kind": "iid-uniform", "low": 0.2, "high": 0.25},
}
_SLOPE_SYSTEM = {
    "kind": "random",
    "family": "shifted-slope",
    "beta_star": 1.0,
    "driver": {"kind": "iid-uniform", "low": 0.0, "high": 1.0},
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # steinclt subcommand
    args: tuple           # flags after the subcommand, before --config/--out
    threads: int          # worker threads the call may use
    config: dict | None   # config template; None for stein-check
    min_calls: int = 1    # rates-slope needs two calls for the byte-identity check

    def make_config(self, seed: int) -> dict | None:
        if self.config is None:
            return None
        cfg = json.loads(json.dumps(self.config))
        cfg["seed"] = config_seed(seed)
        return cfg

    def argv(self, seed: int, config_path: Path | None, out_dir: Path) -> list[str]:
        argv = [self.command, *self.args]
        if self.command == "stein-check":
            argv += ["--seed", str(config_seed(seed))]
        if config_path is not None:
            argv += ["--config", str(config_path)]
        return argv + ["--out", str(out_dir)]


def config_seed(seed: int) -> int:
    """Map any integer seed onto the non-negative range the configs accept."""
    return seed % (2**32)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rates-lsv-t2",
            "rates",
            ("--threads", "2"),
            threads=2,
            config={
                "version": 1,
                "system": _LSV_SYSTEM,
                "observable": "identity",
                "n_grid": [256, 512, 1024, 2048],
                "samples": 100_000,
                "metric": "wasserstein1",
                "normalization": "self-norming",
                "fit_model": "pure-power",
            },
        ),
        Workload(
            "rates-slope",
            "rates",
            ("--deterministic",),
            threads=1,
            config={
                "version": 1,
                "system": _SLOPE_SYSTEM,
                "observable": "quartic",
                "n_grid": [128, 256, 512, 1024],
                "samples": 100_000,
                "metric": "wasserstein1",
                "normalization": "self-norming",
                "fit_model": "pure-power",
            },
            min_calls=2,
        ),
        Workload(
            "stein-check-d3",
            "stein-check",
            ("--dim", "3", "--sigmas", "1"),
            threads=1,
            config=None,
        ),
        Workload(
            "decompose-d2",
            "decompose",
            (),
            threads=1,
            config={
                "version": 1,
                "system": _LSV_SYSTEM,
                "observable": "poly_pair",
                "samples": 125,
            },
        ),
    )
}
