"""Config validation, seeding, pipeline runners, CLI exit codes."""

import csv
import ctypes
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

from steinclt import cli, harness
from steinclt.dynamics import QuasistaticSequence, RandomSequence, SequentialSequence, trajectory
from steinclt.harness import (
    ConfigError,
    build_observable,
    build_system,
    config_hash,
    random_spd,
    run_decompose,
    run_qds,
    run_quenched,
    run_rates,
    run_stein_check,
    simulate,
    stage_seed,
    validate_config,
    _axis_grid,
    _sharded_sums,
)
from steinclt.stats import _normal_scores, birkhoff_raw_sums, normalize_sums, wasserstein1_1d
from steinclt.stein import TensorGrid


def _random_cfg(**over):
    cfg = {
        "version": 1,
        "system": {
            "kind": "random",
            "family": "lsv",
            "beta_star": 0.25,
            "driver": {"kind": "iid-uniform", "low": 0.2, "high": 0.25},
        },
        "observable": "identity",
        "n_grid": [128, 256, 512, 1024],
        "samples": 2000,
        "seed": 3,
    }
    cfg.update(over)
    return cfg


def _qds_cfg(**over):
    cfg = {
        "version": 1,
        "system": {
            "kind": "quasistatic",
            "family": "lsv",
            "beta_star": 0.25,
            "curve": {"kind": "constant", "value": 0.2},
        },
        "observable": "identity",
        "n_grid": [64, 128, 256, 512],
        "samples": 2000,
        "seed": 5,
    }
    cfg.update(over)
    return cfg


def test_validate_config_defaults_and_copy():
    cfg = _random_cfg()
    out = validate_config(cfg)
    assert out["metric"] == "wasserstein1"
    assert out["normalization"] == "self-norming"
    assert out["fit_model"] == "pure-power"
    assert "threads" not in out
    assert "metric" not in cfg
    out["system"]["beta_star"] = 0.99
    assert cfg["system"]["beta_star"] == 0.25


def test_validate_config_rejections():
    bad = [
        {},
        _random_cfg(version=2),
        _random_cfg(observable="septic"),
        _random_cfg(metric="total-variation"),
        _random_cfg(samples=10),
        _random_cfg(extras=True),
        _random_cfg(threads=2),
        _random_cfg(system={"kind": "random", "family": "lsv", "beta_star": 0.25}),
        _random_cfg(
            system={
                "kind": "random",
                "family": "lsv",
                "beta_star": 0.25,
                "driver": {"kind": "iid-uniform", "low": 0.1},
            }
        ),
        _random_cfg(
            system={
                "kind": "random",
                "family": "lsv",
                "beta_star": 0.25,
                "driver": {"kind": "markov", "values": [0.1, 0.2]},
            }
        ),
        _qds_cfg(system={"kind": "quasistatic", "family": "lsv", "beta_star": 0.25}),
        _qds_cfg(
            system={
                "kind": "quasistatic",
                "family": "lsv",
                "beta_star": 0.25,
                "curve": {"kind": "constant"},
            }
        ),
        _qds_cfg(
            system={
                "kind": "quasistatic",
                "family": "lsv",
                "beta_star": 0.25,
                "curve": {"kind": "linear", "start": 0.0},
            }
        ),
        _random_cfg(system={"kind": "sequential", "family": "lsv", "beta_star": 0.25}),
        # an integral float or a bool is not an integer, nor a bool a number
        _random_cfg(samples=300.0),
        _random_cfg(seed=3.0),
        _random_cfg(n_grid=[16.0, 32, 64, 128]),
        _random_cfg(decompose={"n_terms": 3.0}),
        _random_cfg(version=True),
        _random_cfg(system=dict(_random_cfg()["system"], beta_star=True)),
        _random_cfg(system=dict(_random_cfg()["system"], driver={
            "kind": "iid-uniform", "low": 0.2, "high": 0.25, "seed": 1})),
        _random_cfg(system=[]),
        # a number that is not finite, or beyond the float range
        _random_cfg(system=dict(_random_cfg()["system"], beta_star=float("nan"))),
        _random_cfg(system=dict(_random_cfg()["system"], driver={
            "kind": "iid-uniform", "low": 0.2, "high": float("inf")})),
        _random_cfg(system=dict(_random_cfg()["system"], driver={
            "kind": "iid-uniform", "low": -10**400, "high": 0.25})),
    ]
    for cfg in bad:
        with pytest.raises(ConfigError):
            validate_config(cfg)


def test_config_errors_name_the_key_path():
    system = _random_cfg()["system"]
    cases = [
        ({}, "config.version is missing"),
        (_random_cfg(samples=10), "config.samples must be an integer >= 100, got 10"),
        (_random_cfg(samples=300.0), "config.samples must be an integer >= 100, got 300.0"),
        (_random_cfg(extras=True), "config.extras is not a known key"),
        (_random_cfg(observable="septic"), "config.observable must be one of"),
        (_random_cfg(n_grid=[16.0, 32, 64, 128]), "config.n_grid[0] must be an integer >= 2"),
        (_random_cfg(system=[]), "config.system must be an object"),
        (_random_cfg(system=dict(system, beta_star=True)), "config.system.beta_star must be a number"),
        (_random_cfg(system=dict(system, driver={"kind": "iid-uniform", "low": 0.2})),
         "config.system.driver of kind 'iid-uniform' needs low and high"),
        (_random_cfg(system=dict(system, driver=dict(system["driver"], seed=1))),
         "config.system.driver.seed is not a known key"),
        (_random_cfg(system=dict(system, kind="sequential", driver=None)),
         "config.system.driver must be an object"),
        (_qds_cfg(system=dict(_qds_cfg()["system"], curve={"kind": "constant"})),
         "config.system.curve of kind 'constant' needs value"),
        (_random_cfg(system={"kind": "sequential", "family": "lsv", "beta_star": 0.25}),
         "config.system of kind 'sequential' needs params or driver"),
        (_qds_cfg(qds={"t_mid": 0}), "config.qds.t_mid must be a number in"),
        (_random_cfg(decompose={"n_terms": 3.0}), "config.decompose.n_terms must be an integer >= 1"),
    ]
    for cfg, message in cases:
        with pytest.raises(ConfigError) as got:
            validate_config(cfg)
        assert str(got.value).startswith(message), (str(got.value), message)


def test_cli_run_warns_about_beta_star_once(tmp_path):
    cfg = _random_cfg(
        system={
            "kind": "random",
            "family": "lsv",
            "beta_star": 0.45,
            "driver": {"kind": "iid-uniform", "low": 0.1, "high": 0.4},
        }
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["simulate", "--config", str(path), "--out", str(tmp_path / "out"), "--steps", "4"])
    assert rc == 0
    assert [str(w.message) for w in caught if "beta_star" in str(w.message)] == [
        "beta_star >= 2/5: the intermittent rate bound carries no information"
    ]


def test_beta_star_warning_is_lsv_specific():
    lsv = _random_cfg(
        system={
            "kind": "random",
            "family": "lsv",
            "beta_star": 0.5,
            "driver": {"kind": "iid-uniform", "low": 0.1, "high": 0.4},
        }
    )
    with pytest.warns(UserWarning, match="carries no information"):
        validate_config(lsv)
    slope = _random_cfg(
        system={
            "kind": "random",
            "family": "shifted-slope",
            "beta_star": 1.0,
            "driver": {"kind": "iid-uniform", "low": 0.0, "high": 1.0},
        }
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        validate_config(slope)


def test_config_hash_key_order_invariance():
    a = {"version": 1, "seed": 2, "samples": 500}
    b = {"samples": 500, "seed": 2, "version": 1}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "seed": 3})
    assert len(config_hash(a)) == 16


def test_stage_seed_properties():
    s1 = stage_seed(7, "ensemble-N256")
    assert s1 == stage_seed(7, "ensemble-N256")
    assert s1 != stage_seed(7, "ensemble-N512")
    assert s1 != stage_seed(8, "ensemble-N256")
    assert 0 <= s1 < 2**63


def test_build_system_variants():
    seq_cfg = validate_config(
        _random_cfg(
            system={
                "kind": "sequential",
                "family": "lsv",
                "beta_star": 0.25,
                "params": [0.1, 0.2],
            }
        )
    )
    seq = build_system(seq_cfg)
    assert isinstance(seq, SequentialSequence)
    np.testing.assert_allclose(seq.parameters(2), [0.1, 0.1, 0.2])

    qds = build_system(validate_config(_qds_cfg()))
    assert isinstance(qds, QuasistaticSequence)
    assert qds.parameters(10)[7] == pytest.approx(0.2)
    lin_cfg = _qds_cfg(
        system={
            "kind": "quasistatic",
            "family": "lsv",
            "beta_star": 0.25,
            "curve": {"kind": "linear", "start": 0.0, "end": 0.2},
        }
    )
    lin = build_system(validate_config(lin_cfg))
    assert lin.parameters(10)[5] == pytest.approx(0.1)

    rnd_cfg = validate_config(_random_cfg())
    r1 = build_system(rnd_cfg)
    r2 = build_system(rnd_cfg)
    assert isinstance(r1, RandomSequence)
    np.testing.assert_array_equal(r1.parameters(50), r2.parameters(50))
    r3 = build_system(rnd_cfg, driver_seed=99)
    assert not np.array_equal(r1.parameters(50), r3.parameters(50))


def test_build_observable_registry():
    cfg = validate_config(_random_cfg(observable="quartic"))
    f = build_observable(cfg)
    assert f.name == "quartic" and f.dimension == 1


def test_random_spd_spectrum():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 3):
        for _ in range(5):
            m = random_spd(dim, rng)
            np.testing.assert_allclose(m, m.T, atol=1e-14)
            eigs = np.linalg.eigvalsh(m)
            assert eigs.min() >= 0.5 - 1e-12
            assert eigs.max() <= 2.0 + 1e-12
    a = random_spd(2, np.random.default_rng(1))
    b = random_spd(2, np.random.default_rng(1))
    np.testing.assert_array_equal(a, b)


def test_run_stein_check_small():
    report = run_stein_check(1, seed=2, sigma_count=2)
    assert report.dimension == 1
    assert len(report.rows) == 12
    assert report.passed
    assert report.residual_seconds > 0.0
    assert report.bound_seconds > 0.0
    for row in report.rows:
        want_tol = 1e-10 if row.h_name in ("affine", "quadratic") else 1e-4
        assert row.residual_tol == want_tol
        assert row.max_residual <= want_tol
        assert row.worst_margin >= -1e-6
    with pytest.raises(ConfigError):
        run_stein_check(4)


def test_run_stein_check_writes_csv(tmp_path):
    report = run_stein_check(1, seed=2, sigma_count=1, out_dir=tmp_path)
    path = tmp_path / "stein_check_d1.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h,sigma_index,max_residual,residual_tol,worst_margin,passed"
    assert len(lines) == 1 + len(report.rows)


def test_run_stein_check_writes_manifest(tmp_path):
    run_stein_check(1, seed=2, sigma_count=1, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "stein-check"
    assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] >= 0
    assert set(manifest["outputs"]) == {"stein_check_d1.csv"}
    got = hashlib.sha256((tmp_path / "stein_check_d1.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["stein_check_d1.csv"] == got
    other = tmp_path / "other"
    run_stein_check(1, seed=3, sigma_count=1, out_dir=other)
    other_manifest = json.loads((other / "manifest.json").read_text())
    assert other_manifest["config_hash"] != manifest["config_hash"]


def test_run_stein_check_manifest_stages(tmp_path):
    report = run_stein_check(1, seed=2, sigma_count=2, out_dir=tmp_path)
    stages = json.loads((tmp_path / "manifest.json").read_text())["stages"]
    assert set(stages) == {"residual", "bound"}
    assert stages["residual"]["seconds"] == report.residual_seconds > 0.0
    assert stages["bound"]["seconds"] == report.bound_seconds > 0.0
    for name, (gh, u) in {"residual": (48, 32), "bound": (32, 32)}.items():
        stage = stages[name]
        # six built-in test functions per sigma, every row on the per-axis path
        assert set(stage) == {"seconds", "peak_rss_mb", "rows", "quadrature"}
        assert stage["rows"] == 12
        cert = stage["quadrature"]
        assert (cert["gh_order"], cert["u_order"]) == (gh, u)
        assert cert["gh_min_weight"] > 0.0
        assert cert["gh_weight_sum_defect"] < 1e-13
        assert cert["gl_moment_defect"] < 1e-14


def test_axis_grid_is_the_meshgrid_point_set():
    grid = _axis_grid(3, 4, 2.5)
    assert isinstance(grid, TensorGrid)
    axis = np.linspace(-2.5, 2.5, 4)
    mesh = np.meshgrid(axis, axis, axis, indexing="ij")
    np.testing.assert_array_equal(grid.points(), np.stack([m.ravel() for m in mesh], axis=-1))
    assert np.shape(grid) == (64, 3)


_RATES_FILES = ("rates.csv", "plot_rates.txt", "rate_fit.csv")


def test_run_rates_outputs_and_rerun_simulates(tmp_path):
    cfg = _random_cfg()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_rates(cfg, tmp_path)
    assert [n for n, _ in res.rows] == [128, 256, 512, 1024]
    assert res.floor == pytest.approx(0.8 / np.sqrt(2000))
    assert res.csv_path.exists() and res.plot_path.exists() and res.fit_path.exists()
    lines = res.csv_path.read_text().strip().splitlines()
    assert lines[0] == "config,metric,N,S,value,stderr"
    assert len(lines) == 5
    manifest = json.loads(res.manifest_path.read_text())
    assert manifest["command"] == "rates"
    assert manifest["config_hash"] == config_hash(validate_config(cfg))
    for name, digest in manifest["outputs"].items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest
    first = {name: (tmp_path / name).read_bytes() for name in _RATES_FILES}
    # a rerun into the same directory simulates the one nested pass again
    for threads in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            again = run_rates(cfg, tmp_path, threads=threads)
        stages = json.loads(again.manifest_path.read_text())["stages"]
        assert stages["sums"]["point_steps"] == 2000 * (1024 - 1)
        assert stages["sums"]["threads"] == threads
        assert {name: (tmp_path / name).read_bytes() for name in _RATES_FILES} == first


def test_rates_manifest_records_one_stage_per_n(tmp_path):
    cfg = _random_cfg()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_rates(cfg, tmp_path)
    manifest = json.loads(res.manifest_path.read_text())
    assert manifest["peak_rss_mb"] > 0.0
    assert isinstance(manifest["minor_faults"], int) and manifest["minor_faults"] >= 0
    stages = manifest["stages"]
    assert set(stages) == {"sums", "N128", "N256", "N512", "N1024"}
    sums = stages["sums"]
    assert set(sums) == {
        "seconds", "peak_rss_mb", "point_steps", "point_steps_per_s", "threads", "shards",
        "sums_mb",
    }
    # the sums held through the run: 4 checkpoints x 2000 samples x d = 1 x 8 B
    assert sums["sums_mb"] == 4 * 2000 * 8 / 2**20
    # one pass to max N serves every N of the grid
    assert sums["point_steps"] == 2000 * (1024 - 1)
    assert sums["point_steps_per_s"] == sums["point_steps"] / sums["seconds"] > 0.0
    assert sums["threads"] == min(16, len(os.sched_getaffinity(0)))
    assert sums["shards"] == 16
    # each stage's peak is the process's peak when it ended, so the stage
    # that set the run's peak shows, and none exceeds it
    for stage in stages.values():
        assert 0.0 < stage["peak_rss_mb"] <= manifest["peak_rss_mb"]
    with open(res.csv_path) as fh:
        values = {int(row["N"]): float(row["value"]) for row in csv.DictReader(fh)}
    for n, value in values.items():
        stage = stages[f"N{n}"]
        assert set(stage) == {"seconds", "peak_rss_mb", "floor_ratio"}
        assert stage["seconds"] > 0.0
        assert stage["floor_ratio"] == pytest.approx(value / res.floor, rel=1e-15)


_CURVES = {
    "constant": {"kind": "constant", "value": 0.2},
    "linear": {"kind": "linear", "start": 0.05, "end": 0.25},
}


# a constant curve's rows nest, so one pass to max N serves every N (and
# every qds mid-point); a linear curve's do not, so each N takes its own pass
@pytest.mark.parametrize(
    "command, curve, steps",
    [(command, curve, steps) for command in ("rates", "qds")
     for curve, steps in (("constant", 63), ("linear", 7 + 15 + 31 + 63))],
    ids=["constant", "linear", "constant-qds", "linear-qds"],
)
def test_rates_pass_count_follows_row_nesting(tmp_path, command, curve, steps):
    cfg = _qds_cfg(samples=300, n_grid=[8, 16, 32, 64])
    cfg["system"]["curve"] = _CURVES[curve]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = getattr(harness, f"run_{command}")(cfg, tmp_path)
    stages = json.loads(res.manifest_path.read_text())["stages"]
    assert stages["sums"]["point_steps"] == 300 * steps


# qds and rates share one pass helper, one ensemble root, one per-N step and
# its slice seeds, so their distances agree to the last digit printed
@pytest.mark.parametrize("metric, observable", [("wasserstein1", "identity"),
                                                ("sliced-wasserstein", "poly_pair")])
@pytest.mark.parametrize("curve", ["constant", "linear"])
def test_qds_distances_equal_rates_distances(tmp_path, curve, metric, observable):
    cfg = _qds_cfg(samples=300, n_grid=[8, 16, 32, 64], metric=metric, observable=observable)
    cfg["system"]["curve"] = _CURVES[curve]
    columns = []
    for command in ("rates", "qds"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = getattr(harness, f"run_{command}")(cfg, tmp_path / command)
        with open(res.csv_path, newline="") as fh:
            columns.append([(r["N"], r["value"], r["stderr"]) for r in csv.DictReader(fh)])
    assert len(columns[0]) == 4
    assert columns[0] == columns[1]


def test_constant_curve_rates_equal_sequential_rates(tmp_path):
    cfg = _qds_cfg(samples=300, n_grid=[8, 16, 32, 64])
    flat = _qds_cfg(samples=300, n_grid=[8, 16, 32, 64])
    flat["system"] = {"kind": "sequential", "family": "lsv", "beta_star": 0.25, "params": [0.2] * 63}
    columns = []
    for name, c in (("curve", cfg), ("flat", flat)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = run_rates(c, tmp_path / name)
        with open(res.csv_path, newline="") as fh:
            columns.append([(r["value"], r["stderr"]) for r in csv.DictReader(fh)])
    assert len(columns[0]) == 4
    assert columns[0] == columns[1]


@pytest.mark.parametrize("threads", [1, 2, 3, 16])
def test_sharded_sums_equal_one_pass_per_shard(threads):
    cfg = validate_config(_random_cfg(observable="poly_pair"))
    seq, f = build_system(cfg), build_observable(cfg)
    checkpoints = [0, 3, 40, 40, 64]
    stage = {}
    got = _sharded_sums(seq, f, checkpoints, 1000, 17, stage, threads)
    assert stage == {"point_steps": 1000 * 63, "threads": threads, "shards": 16}
    x0 = _shard_starts(17, 1000)
    edges = np.linspace(0, 1000, 17).astype(int)
    for lo, hi in zip(edges[:-1], edges[1:]):
        alone = birkhoff_raw_sums(seq, f, checkpoints, x0[lo:hi], np.empty((5, hi - lo, 2)))
        np.testing.assert_array_equal(np.stack(got)[:, lo:hi], alone)


def test_rates_outputs_do_not_depend_on_threads(tmp_path, capsys):
    cfg = _random_cfg()
    cfg_path = tmp_path / "rates.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = (tmp_path / "t1", tmp_path / "t2", tmp_path / "t3")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_rates(cfg, outs[0], threads=1)
        with pytest.warns(FutureWarning, match="--deterministic is ignored"):
            rc = cli.main(
                ["rates", "--config", str(cfg_path), "--threads", "2", "--deterministic",
                 "--out", str(outs[1])]
            )
        run_rates(cfg, outs[2], threads=3)
    assert rc == 0
    capsys.readouterr()
    for out in outs[1:]:
        for name in ("rates.csv", "rate_fit.csv", "plot_rates.txt"):
            assert (outs[0] / name).read_bytes() == (out / name).read_bytes(), (out, name)


@pytest.fixture
def sums_calls(monkeypatch):
    """The arguments of every `_sharded_sums` call the test goes on to make."""
    calls = []
    real = harness._sharded_sums

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "_sharded_sums", counting)
    return calls


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_rates_threads_below_one_is_a_config_error(tmp_path, capsys, sums_calls, threads):
    cfg_path = tmp_path / "rates.json"
    cfg_path.write_text(json.dumps(_random_cfg()))
    rc = cli.main(
        ["rates", "--config", str(cfg_path), "--threads", threads, "--out", str(tmp_path / "r")]
    )
    assert rc == 2
    assert "--threads must be at least 1" in capsys.readouterr().err
    assert sums_calls == []


@pytest.mark.parametrize("command, cfg", [("rates", _random_cfg()), ("qds", _qds_cfg())])
def test_wasserstein1_on_a_vector_observable_fails_before_any_orbit_step(
    tmp_path, capsys, sums_calls, command, cfg
):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(dict(cfg, observable="poly_pair")))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "wasserstein1 needs a scalar observable" in capsys.readouterr().err
    assert sums_calls == []
    assert not out.exists()


def test_rates_near_the_floor_print_one_floor_line(tmp_path):
    # the doubling map (alpha = 0 at every step) mixes fast, so the distances
    # sit at the estimator floor
    cfg = _random_cfg(
        system=dict(_random_cfg()["system"], driver={"kind": "iid-uniform", "low": 0.0, "high": 0.0}),
        n_grid=[256, 512, 1024, 2048],
    )
    cfg_path = tmp_path / "floor.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "steinclt.cli", "rates", "--config", str(cfg_path),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    floor_lines = [line for line in proc.stderr.splitlines() if "floor" in line]
    assert floor_lines == ["warning: distances close to the estimator floor"]


def test_cli_rates_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    # the CLI runs BLAS on one thread unless OPENBLAS_NUM_THREADS is set; left
    # to OpenBLAS, S = 30,000 takes the covariance dot onto every core and
    # its last bits, and so rates.csv, follow the host's core count
    cfg_path = tmp_path / "rates.json"
    cfg_path.write_text(json.dumps(_random_cfg(n_grid=[16, 32, 64, 128], samples=30_000)))
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    digests = []
    for blas in (None, "1"):
        out = tmp_path / f"out-{blas}"
        proc = subprocess.run(
            [sys.executable, "-m", "steinclt.cli", "rates", "--config", str(cfg_path),
             "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=env if blas is None else dict(env, OPENBLAS_NUM_THREADS=blas),
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(hashlib.sha256((out / "rates.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]


@pytest.mark.skipif(
    not hasattr(ctypes.CDLL(None), "mallopt"), reason="the C library has no mallopt"
)
def test_stein_check_reuses_freed_memory(tmp_path):
    # cli.main has glibc keep freed blocks under 4 MiB and 8 MiB of free heap
    # top, so the solver's per-term temporaries are not faulted in afresh on
    # every term: about 1.4k minor faults here, about 15k without that
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "steinclt.cli", "stein-check", "--dim", "3", "--sigmas", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((out / "manifest.json").read_text())["minor_faults"] < 5_000


def test_each_pass_of_a_linear_curve_applies_row_n(tmp_path, sums_calls):
    # a linear curve's rows do not nest, so rates takes one pass per N; it
    # and qds must both apply row N, gamma(k/N) for k < N
    system = dict(_qds_cfg()["system"], curve={"kind": "linear", "start": 0.05, "end": 0.25})
    cfg = _qds_cfg(system=system, samples=200, n_grid=[8, 16, 32, 64])
    run_rates(cfg, tmp_path / "rates")
    run_qds(cfg, tmp_path / "qds")
    seq = build_system(cfg)
    assert [args[2][-1] for args in sums_calls] == [8, 16, 32, 64] * 2
    for row, _, checkpoints in (args[:3] for args in sums_calls):
        n = checkpoints[-1]
        assert np.array_equal(row.parameters(n - 1), seq.parameters(n)[:n])


_SHORT_PARAMS = {"kind": "sequential", "family": "lsv", "beta_star": 0.3, "params": [0.1, 0.2, 0.3]}


def _exit_2_case(argv, message="must be at least", cfg=None, id=None):
    return pytest.param(argv, message, cfg or _random_cfg(), id=id or " ".join(argv))


@pytest.mark.parametrize(
    "argv, message, cfg",
    [
        _exit_2_case(["quenched", "--replicas", "0"]),
        _exit_2_case(["quenched", "--replicas", "-1"]),
        _exit_2_case(["stein-check", "--dim", "1", "--sigmas", "0"]),
        _exit_2_case(["stein-check", "--dim", "1", "--seed", "-1"]),
        _exit_2_case(["simulate", "--steps", "-1"]),
        _exit_2_case(["simulate", "--orbits", "-1"]),
        _exit_2_case(["simulate", "--orbits", "0"]),
        _exit_2_case(["rates"], "n_grid cannot be fitted", _random_cfg(n_grid=[16, 32]),
                     "rates unfittable n_grid"),
        _exit_2_case(["quenched"], "n_grid cannot be fitted", _random_cfg(n_grid=[16, 32]),
                     "quenched unfittable n_grid"),
        _exit_2_case(["quenched"], "need a random system", _qds_cfg(), "quenched quasistatic"),
        _exit_2_case(["qds"], "n_grid cannot be fitted", _qds_cfg(n_grid=[16, 32]),
                     "qds unfittable n_grid"),
        _exit_2_case(["qds"], "need a quasistatic system", None, "qds random"),
        _exit_2_case(["simulate"], "system.params covers", _random_cfg(system=_SHORT_PARAMS),
                     "simulate short params"),
        _exit_2_case(["rates"], "system.params covers", _random_cfg(system=_SHORT_PARAMS),
                     "rates short params"),
        _exit_2_case(["decompose"], "system.params covers", _random_cfg(system=_SHORT_PARAMS),
                     "decompose short params"),
        _exit_2_case(["decompose", "--test-function", "nope"], "unknown test function"),
    ],
)
def test_out_of_range_counts_exit_2_before_writing(tmp_path, capsys, argv, message, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    if argv[0] != "stein-check":
        argv = argv + ["--config", str(cfg_path)]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_smooth_metric_rates_raise_no_floor_warning(tmp_path, capsys):
    cfg = _random_cfg(observable="poly_pair", metric="smooth-metric", samples=1000,
                      n_grid=[16, 32, 64, 128])
    cfg_path = tmp_path / "smooth.json"
    cfg_path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = run_rates(cfg, tmp_path / "api")
        rc = cli.main(["rates", "--config", str(cfg_path), "--out", str(tmp_path / "cli")])
    assert res.floor_ok
    assert rc == 0
    assert capsys.readouterr().err == ""


def test_run_rates_needs_grid(tmp_path):
    cfg = _random_cfg()
    del cfg["n_grid"]
    with pytest.raises(ConfigError):
        run_rates(cfg, tmp_path)


def test_run_decompose_small(tmp_path):
    cfg = _random_cfg(samples=300)
    del cfg["n_grid"]
    cfg["decompose"] = {"n_terms": 5, "test_function": "gauss_bump"}
    res = run_decompose(cfg, tmp_path)
    assert res.passed
    assert abs(res.ledger.residual) <= res.tolerance
    assert set(res.ledger.terms) == {"E1", "E2", "E3", "E4", "E5", "E6", "E7"}
    assert res.csv_path.exists() and res.manifest_path.exists()
    ledger_stage = json.loads(res.manifest_path.read_text())["stages"]["ledger"]
    assert ledger_stage["points"] == 300 * 5 * 6
    assert ledger_stage["distinct_points"] == res.ledger.distinct_points
    assert 0 < res.ledger.distinct_points < 300 * 5 * 6
    with pytest.raises(ConfigError, match="unknown test function"):
        run_decompose(cfg, tmp_path, h_name="bogus")
    cfg["decompose"]["u_order"] = 8
    with pytest.raises(ConfigError, match="u_order"):
        run_decompose(cfg, tmp_path)


def test_run_decompose_rejects_unknown_test_function_before_simulating(tmp_path, monkeypatch):
    calls = []
    real = harness.build_ensemble
    monkeypatch.setattr(harness, "build_ensemble", lambda *a, **k: calls.append(a) or real(*a, **k))
    cfg = _random_cfg(samples=100, decompose={"n_terms": 3})
    del cfg["n_grid"]
    with pytest.raises(ConfigError, match="unknown test function"):
        run_decompose(cfg, tmp_path, h_name="bogus")
    assert calls == []
    run_decompose(cfg, tmp_path)
    assert len(calls) == 1


def test_run_qds_small(tmp_path):
    cfg = _qds_cfg()
    res = run_qds(cfg, tmp_path)
    assert len(res.rows) == 4
    assert [n for n, _ in res.lambda_ratios] == [64, 128, 256]
    for _, ratio in res.lambda_ratios:
        assert 1.5 < ratio < 2.5
    assert np.isfinite(res.fit.exponent)
    lines = res.csv_path.read_text().strip().splitlines()
    assert lines[0] == "config,N,S,t_mid,lambda_min,value,stderr"
    assert len(lines) == 5
    manifest = json.loads(res.manifest_path.read_text())
    assert set(manifest["stage_seeds"]) == {"ensemble"}
    stages = manifest["stages"]
    assert set(stages) == {"sums", "N64", "N128", "N256", "N512"}
    # the constant curve's rows nest: one pass to max N serves every N
    assert stages["sums"]["point_steps"] == 2000 * 511
    # 9 distinct checkpoints: N/2, N/2 + 1 and N for each N, N/2 of one N being another N
    assert stages["sums"]["sums_mb"] == 9 * 2000 * 8 / 2**20
    values = [float(line.split(",")[5]) for line in lines[1:]]
    for n, value in zip((64, 128, 256, 512), values):
        assert set(stages[f"N{n}"]) == {"seconds", "peak_rss_mb", "floor_ratio"}
        assert stages[f"N{n}"]["floor_ratio"] == pytest.approx(value / harness.wasserstein_floor(2000), rel=1e-15)
    with pytest.raises(ConfigError):
        run_qds(_random_cfg(), tmp_path)


def _shard_starts(root: int, samples: int) -> np.ndarray:
    """The starting points of a sharded pass: 16 blocks, block i drawn from
    the i-th child of SeedSequence(root)."""
    children = np.random.SeedSequence(root).spawn(16)
    edges = np.linspace(0, samples, 17).astype(int)
    return np.concatenate([
        np.random.default_rng(child).random(hi - lo)
        for child, lo, hi in zip(children, edges[:-1], edges[1:])
    ])


# t_mid = 0.01 puts k_mid at 0 for n = 32 (mid = 0.32 f(y_0))
@pytest.mark.parametrize("t_mid", [0.01, 0.3, 1.0])
def test_run_qds_lambda_min_is_the_interpolated_partial_sum(tmp_path, t_mid):
    cfg = validate_config(_qds_cfg(samples=500, n_grid=[32, 64, 128, 256], qds={"t_mid": t_mid}))
    res = run_qds(cfg, tmp_path)
    seq, f = build_system(cfg), build_observable(cfg)
    for n, lam_min, _ in res.rows:
        x0 = _shard_starts(stage_seed(cfg["seed"], "ensemble"), 500)
        # S_n(x, t) = sum_{k < floor(nt)} f(y_k) + (nt - floor(nt)) f(y_floor(nt))
        nt = n * t_mid
        m = min(int(np.floor(nt + 1e-12)), n)
        frac = nt - m if nt - m >= 1e-12 else 0.0
        row = SequentialSequence(seq.family, tuple(seq.parameters(n)), seq.beta_star)
        vals = f(trajectory(row, x0, m))
        mid = vals[:m].sum(axis=0) + frac * vals[m]
        mid -= mid.mean(axis=0)
        want = np.linalg.eigvalsh(mid.T @ mid / 500)[0]
        assert lam_min == pytest.approx(want, rel=1e-12, abs=0)


def test_sqrt_n_qds_reads_its_normalization(tmp_path, monkeypatch):
    sums = []
    real = harness._pass_sums
    monkeypatch.setattr(harness, "_pass_sums", lambda *a, **k: sums.append(real(*a, **k)) or sums[-1])
    cfg = validate_config(_qds_cfg(
        observable="poly_pair", metric="sliced-wasserstein", normalization="sqrt-n",
        samples=500, n_grid=[32, 64, 128, 256],
    ))
    res = run_qds(cfg, tmp_path)
    with open(res.csv_path, newline="") as fh:
        values = [float(r["value"]) for r in csv.DictReader(fh)]
    assert len(sums) == 1 and list(sums[0]) == cfg["n_grid"] and len(values) == 4
    for n, value in zip(cfg["n_grid"], values):
        s_n = sums[0][n][-1]
        seed = stage_seed(cfg["seed"], f"slice-N{n}")
        assert value == harness._distance_at(n, s_n, "sliced-wasserstein", seed, sqrt_n=True).value
        assert value != harness._distance_at(n, s_n, "sliced-wasserstein", seed).value


def test_w1_distance_holds_w_and_one_copy():
    # W is the step's own: scaled in place, then copied once by
    # wasserstein1_1d, whose gaps and std take no array of their own
    samples = 100_000
    raw = np.random.default_rng(21).normal(size=(samples, 1)) * 3.0 + 1.0
    _normal_scores(samples)
    tracemalloc.start()
    try:
        harness._distance_at(256, raw, "wasserstein1", 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * samples * 8


@pytest.mark.skipif(sys.version_info < (3, 11), reason="a call holds its arguments until it returns")
def test_rate_rows_free_each_n_sums_once_normalized():
    # the dict is the sums' only holder: popped and handed over, S_N is gone
    # before the W1 step copies W, so the step adds W and its copy, less S_N
    samples = 100_000
    rng = np.random.default_rng(23)
    cfg = {"samples": samples, "seed": 1, "fit_model": "pure-power"}
    manifest = harness.RunManifest("sums", "rates")
    _normal_scores(samples)
    tracemalloc.start()
    try:
        sums = {n: [rng.normal(size=(samples, 1))] for n in (128, 256, 512, 1024)}
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rows, _ = harness._rate_rows(manifest, cfg, sums, "wasserstein1", False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums == {} and [n for n, _ in rows] == [128, 256, 512, 1024]
    assert peak - start <= 1.3 * samples * 8


@pytest.mark.parametrize("sqrt_n", [False, True])
def test_w1_distance_is_wasserstein1_1d_of_the_scaled_column(sqrt_n):
    raw = np.random.default_rng(22).gamma(2.0, size=(5000, 1)) * 4.0
    before = raw.copy()
    got = harness._distance_at(64, raw, "wasserstein1", 0, sqrt_n=sqrt_n)
    w, cov = normalize_sums(raw, np.eye(1) / 8.0 if sqrt_n else None)
    sigma = cov / 64 if sqrt_n else np.eye(1)
    want = wasserstein1_1d(w[:, 0] / math.sqrt(float(sigma[0, 0])))
    assert (got.value, got.stderr, got.params) == (want.value, want.stderr, want.params)
    assert raw.tobytes() == before.tobytes()


def test_run_quenched_small(tmp_path):
    cfg = _random_cfg(samples=1500)
    cfg["n_grid"] = [64, 128, 256, 512]
    cfg["quenched"] = {"replicas": 2, "k_max": 8, "series_samples": 512, "series_runs": 2}
    res = run_quenched(cfg, tmp_path)
    assert len(res.fits) == 2
    assert all(np.isfinite(e) for e in res.exponents)
    assert res.sigma_matrix.shape == (1, 1) and res.sigma_matrix[0, 0] > 0
    assert res.sigma_tail >= 0.0
    lines = res.csv_path.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * 4
    stages = json.loads(res.manifest_path.read_text())["stages"]
    grid = (64, 128, 256, 512)
    assert set(stages) == {"series", "replica-0", "replica-1"} | {
        f"replica-{r}-N{n}" for r in (0, 1) for n in grid
    }
    assert stages["replica-1"]["point_steps"] == 1500 * (512 - 1)
    assert stages["replica-1"]["sums_mb"] == 4 * 1500 * 8 / 2**20
    for r in (0, 1):
        assert set(stages[f"replica-{r}-N64"]) == {"seconds", "peak_rss_mb", "floor_ratio"}
    # sigma_series runs 64 burn-in and 16 window steps past which it reads k_max lags
    assert stages["series"]["point_steps"] == 2 * 512 * (64 + 16 + 8)
    with pytest.raises(ConfigError):
        run_quenched(_qds_cfg(), tmp_path)


@pytest.mark.parametrize("key, value", [("metric", "sliced-wasserstein"), ("normalization", "sqrt-n")])
def test_quenched_config_setting_a_fixed_choice_is_a_config_error(key, value, tmp_path, capsys, monkeypatch):
    calls = []
    real = harness.sigma_series
    monkeypatch.setattr(harness, "sigma_series", lambda *a, **k: calls.append(a) or real(*a, **k))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_random_cfg(**{key: value})))
    out = tmp_path / "out"
    rc = cli.main(["quenched", "--config", str(cfg_path), "--out", str(out)])
    assert rc == 2
    assert f"quenched runs do not read {key!r}" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_simulate_writes_orbits(tmp_path):
    path = simulate(validate_config(_qds_cfg()), tmp_path, steps=16, orbit_count=3)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "config,orbit,step,x"
    assert len(lines) == 1 + 3 * 17


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_qds_cfg(samples=500, n_grid=[32, 64, 128, 256])))
    rc = cli.main(["qds", "--config", str(good), "--out", str(tmp_path / "q")])
    assert rc == 0
    assert "doubling ratios" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_random_cfg(metric="nope")))
    rc = cli.main(["rates", "--config", str(bad), "--out", str(tmp_path / "r")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err

    rc = cli.main(["rates", "--config", str(tmp_path / "missing.json"), "--out", str(tmp_path / "r")])
    assert rc == 2
    capsys.readouterr()

    rc = cli.main(["rates", "--config", str(good), "--out", str(good)])
    assert rc == 1
    assert "i/o error" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["qds", "--config", str(good), "--threads", "2", "--out", str(tmp_path / "q")])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err

    with pytest.raises(SystemExit) as exc:
        cli.main(["rates", "--config", str(good), "--no-cache", "--out", str(tmp_path / "r")])
    assert exc.value.code == 2
    assert "--no-cache" in capsys.readouterr().err

    short = tmp_path / "short.json"
    short.write_text(json.dumps(_qds_cfg(n_grid=[64, 128, 256])))
    rc = cli.main(["qds", "--config", str(short), "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "n_grid cannot be fitted" in capsys.readouterr().err

    short.write_text(json.dumps(_random_cfg(n_grid=[64, 128, 256])))
    rc = cli.main(["rates", "--config", str(short), "--out", str(tmp_path / "s")])
    assert rc == 2
    assert "n_grid cannot be fitted" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "s").rglob("*") if p.is_file()] == []

    short.write_text(json.dumps(_random_cfg(system=_SHORT_PARAMS, n_grid=[4, 8, 16, 32])))
    for command, needed in (("simulate", 64), ("rates", 31), ("decompose", 7)):
        out = tmp_path / f"p-{command}"
        rc = cli.main([command, "--config", str(short), "--out", str(out)])
        assert rc == 2, command
        assert f"system.params covers 3 steps, the run needs {needed}" in capsys.readouterr().err
        assert [p.name for p in out.rglob("*") if p.is_file()] == []

    # values the sequence and driver constructors reject
    system = _random_cfg()["system"]
    markov = {"kind": "markov", "values": [0.1, 0.2]}
    for fault in (
        dict(system, driver={"kind": "iid-uniform", "low": 0.2, "high": 0.3}),
        dict(system, driver={"kind": "iid-uniform", "low": 0.25, "high": 0.2}),
        dict(system, driver=dict(markov, kernel=[[0.5, 0.4], [0.5, 0.5]])),
        dict(system, driver=dict(markov, kernel=[[1.0]])),
        dict(_SHORT_PARAMS, params=[0.1, 0.2, 0.31] + [0.1] * 64),
        dict(_SHORT_PARAMS, params=[0.1, -0.2, 0.3] + [0.1] * 64),
    ):
        short.write_text(json.dumps(_random_cfg(system=fault)))
        out = tmp_path / "system"
        rc = cli.main(["simulate", "--config", str(short), "--out", str(out)])
        assert rc == 2, fault
        assert "config error: config.system: " in capsys.readouterr().err
        assert not out.exists()

    # decompose's ensemble size, and one sample's punctured sums against a
    # ledger block, are checked before any orbit step
    monkeypatch.setattr(harness, "build_ensemble", None)
    for samples, observable, n_terms, budget in (
        (10_000_000, "poly_pair", 20, "samples and decompose.n_terms: ensemble would exceed"),
        (1_000, "poly_pair", 5_000, "decompose.n_terms: N (N + 1) = 25005000 punctured sums"),
    ):
        short.write_text(json.dumps(_random_cfg(
            samples=samples, observable=observable, decompose={"n_terms": n_terms})))
        out = tmp_path / "sizes"
        rc = cli.main(["decompose", "--config", str(short), "--out", str(out)])
        assert rc == 2, n_terms
        assert f"config error: {budget}" in capsys.readouterr().err
        assert not out.exists()
    monkeypatch.undo()

    stray = tmp_path / "stray.json"
    stray.write_text(json.dumps(_random_cfg(out_dir="elsewhere")))
    rc = cli.main(["rates", "--config", str(stray), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err

    # --seed writes into the document, so load_config must have found an object
    for text in (json.dumps(_random_cfg(samples=300.0)), "[]"):
        stray.write_text(text)
        rc = cli.main(["rates", "--config", str(stray), "--seed", "3", "--out", str(tmp_path / "f")])
        assert rc == 2, text
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()


_TEXT_COLUMNS = {"config", "metric", "model", "h", "term"}


_TINY = {"samples": 200, "n_grid": [8, 16, 32, 64]}
_TINY_RUNS = {
    "simulate": ([], _qds_cfg(**_TINY)),
    "rates": ([], _random_cfg(**_TINY)),
    "decompose": ([], _random_cfg(samples=100, decompose={"n_terms": 3})),
    "stein-check": (["--dim", "1", "--sigmas", "1"], None),
    "quenched": ([], _random_cfg(**_TINY, quenched={
        "replicas": 1, "k_max": 4, "series_samples": 128, "series_runs": 1})),
    "qds": ([], _qds_cfg(**_TINY)),
}


@pytest.mark.parametrize("command", list(_TINY_RUNS))
def test_every_runner_lists_checksums_and_writes_plain_numbers(command, tmp_path, capsys):
    argv, cfg = _TINY_RUNS[command]
    if cfg is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(cfg_path)]
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = cli.main([command, *argv, "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["stages"] and all(manifest["stages"].values())
    # the listed outputs and the manifest, and nothing else: no subdirectory
    assert {p.name for p in out.iterdir()} == set(manifest["outputs"]) | {"manifest.json"}
    assert all(p.is_file() for p in out.iterdir())
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
        text = (out / name).read_text()
        if name.endswith(".txt"):
            for field in text.split():
                float(field)
            continue
        header, *rows = csv.reader(text.splitlines())
        assert rows, name
        for row in rows:
            assert len(row) == len(header), name
            for col, field in zip(header, row):
                if col not in _TEXT_COLUMNS and field:
                    float(field)


def test_cli_stein_check_and_seed_override(tmp_path, capsys):
    rc = cli.main(["stein-check", "--dim", "1", "--sigmas", "1", "--out", str(tmp_path / "sc")])
    assert rc == 0
    assert "all passed" in capsys.readouterr().out

    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(_qds_cfg()))
    rc = cli.main(
        ["simulate", "--config", str(cfg_path), "--seed", "12", "--steps", "4",
         "--orbits", "2", "--out", str(tmp_path / "sim")]
    )
    assert rc == 0
    capsys.readouterr()


def test_manifest_names_the_numerics_it_ran_with(tmp_path):
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    active = [t for t in __cpu_dispatch__ if __cpu_features__[t]]
    run_stein_check(1, sigma_count=1, out_dir=tmp_path / "in")
    manifest = json.loads((tmp_path / "in" / "manifest.json").read_text())
    numerics = manifest["numerics"]
    assert numerics["dispatch"] == active
    assert numerics["NPY_DISABLE_CPU_FEATURES"] == os.environ.get("NPY_DISABLE_CPU_FEATURES")
    assert numerics["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    assert numerics["blas"] == f"{blas['name']} {blas['version']}"
    if not active:
        pytest.skip("no dispatch target above numpy's baseline is active")
    # a CLI run with every active target disabled records none as active
    src = str(Path(harness.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
               NPY_DISABLE_CPU_FEATURES=" ".join(active))
    env.pop("OPENBLAS_NUM_THREADS", None)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "steinclt.cli", "stein-check", "--dim", "1", "--sigmas", "1",
         "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    numerics = json.loads((out / "manifest.json").read_text())["numerics"]
    assert numerics["dispatch"] == []
    assert numerics["NPY_DISABLE_CPU_FEATURES"] == " ".join(active)
    assert numerics["OPENBLAS_NUM_THREADS"] == "1"


def test_manifest_numerics_survive_an_older_numpy(tmp_path, monkeypatch):
    # numpy 1.x keeps the dispatch tables in np.core, numpy < 1.25 has no
    # build CONFIG, and a build may lack the dispatch tables: the manifest
    # is written all the same, with null for what is missing
    umath = np._core._multiarray_umath
    active = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__[t]]
    monkeypatch.delattr(np, "_core")
    monkeypatch.setattr(np, "core", types.SimpleNamespace(_multiarray_umath=umath), raising=False)
    monkeypatch.delattr(np.__config__, "CONFIG")
    rc = cli.main(["stein-check", "--dim", "1", "--sigmas", "1", "--out", str(tmp_path / "a")])
    assert rc == 0
    numerics = json.loads((tmp_path / "a" / "manifest.json").read_text())["numerics"]
    assert numerics["dispatch"] == active
    assert numerics["blas"] is None
    monkeypatch.delattr(umath, "__cpu_dispatch__")
    rc = cli.main(["stein-check", "--dim", "1", "--sigmas", "1", "--out", str(tmp_path / "b")])
    assert rc == 0
    numerics = json.loads((tmp_path / "b" / "manifest.json").read_text())["numerics"]
    assert numerics["dispatch"] is None


def test_oversized_pass_sums_exit_2_before_any_orbit_step(tmp_path, capsys, monkeypatch):
    def no_orbits(*args, **kwargs):
        raise AssertionError("an orbit step ran")

    monkeypatch.setattr(harness, "_sharded_sums", no_orbits)
    monkeypatch.setattr(harness, "sigma_series", no_orbits)
    cfg_path = tmp_path / "big.json"
    for command, cfg in (("rates", _random_cfg(samples=10**9)), ("qds", _qds_cfg(samples=10**9)),
                         ("quenched", _random_cfg(samples=10**9))):
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / command
        rc = cli.main([command, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 2, command
        assert "config error: samples and n_grid: the sums would hold" in capsys.readouterr().err
        assert not out.exists()
    # at the budget's edge: 4 checkpoints and 6 step arrays of S values
    harness._check_sums_size(4, harness.MEMORY_BUDGET // 10, 1)
    with pytest.raises(ConfigError):
        harness._check_sums_size(4, harness.MEMORY_BUDGET // 10 + 1, 1)


def test_memory_error_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB for an array with shape (1000000000,)")

    monkeypatch.setattr(cli, "run_rates", exhausted)
    cfg_path = tmp_path / "rates.json"
    cfg_path.write_text(json.dumps(_random_cfg()))
    rc = cli.main(["rates", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.splitlines() == ["out of memory: Unable to allocate 7.45 GiB for an array with "
                                "shape (1000000000,)"]


def test_sharded_sums_use_cpu_count_without_an_affinity_mask(monkeypatch):
    # os.sched_getaffinity is Linux-only; elsewhere the pool takes os.cpu_count()
    cfg = validate_config(_random_cfg())
    seq, f = build_system(cfg), build_observable(cfg)
    want = _sharded_sums(seq, f, [8, 16], 300, 5, {}, 1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    stage = {}
    got = _sharded_sums(seq, f, [8, 16], 300, 5, stage)
    assert stage["threads"] == 3
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a, b)
