"""Config validation, seeding, pipeline runners, CLI exit codes."""

import hashlib
import json
import warnings

import numpy as np
import pytest

from steinclt import cli
from steinclt.dynamics import QuasistaticSequence, RandomSequence, SequentialSequence
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
    _resolve_threads,
)


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
    assert out["threads"] == 1
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
    ]
    for cfg in bad:
        with pytest.raises(ConfigError):
            validate_config(cfg)


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
    assert qds.parameter_at(10, 7) == pytest.approx(0.2)
    lin_cfg = _qds_cfg(
        system={
            "kind": "quasistatic",
            "family": "lsv",
            "beta_star": 0.25,
            "curve": {"kind": "linear", "start": 0.0, "end": 0.2},
        }
    )
    lin = build_system(validate_config(lin_cfg))
    assert lin.parameter_at(10, 5) == pytest.approx(0.1)

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


def test_resolve_threads(monkeypatch):
    cfg = {"threads": 2}
    assert _resolve_threads(cfg, 5) == 5
    assert _resolve_threads(cfg, None) == 2
    monkeypatch.setenv("STEINCLT_THREADS", "3")
    assert _resolve_threads(cfg, None) == 3
    assert _resolve_threads(cfg, 7) == 7
    monkeypatch.setenv("STEINCLT_THREADS", "lots")
    with pytest.raises(ConfigError):
        _resolve_threads(cfg, None)


def test_run_stein_check_small():
    report = run_stein_check(1, seed=2, sigma_count=2, bound_grid=11)
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
    report = run_stein_check(1, seed=2, sigma_count=1, check_bounds=False, out_dir=tmp_path)
    path = tmp_path / "stein_check_d1.csv"
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "h,sigma_index,max_residual,residual_tol,worst_margin,passed"
    assert len(lines) == 1 + len(report.rows)
    assert report.bound_seconds == 0.0


def test_run_stein_check_writes_manifest(tmp_path):
    run_stein_check(1, seed=2, sigma_count=1, check_bounds=False, out_dir=tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == "stein-check"
    assert set(manifest["outputs"]) == {"stein_check_d1.csv"}
    got = hashlib.sha256((tmp_path / "stein_check_d1.csv").read_bytes()).hexdigest()
    assert manifest["outputs"]["stein_check_d1.csv"] == got
    other = tmp_path / "other"
    run_stein_check(1, seed=3, sigma_count=1, check_bounds=False, out_dir=other)
    other_manifest = json.loads((other / "manifest.json").read_text())
    assert other_manifest["config_hash"] != manifest["config_hash"]


def test_run_rates_recovers_from_corrupt_cache(tmp_path):
    cfg = _random_cfg()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = run_rates(cfg, tmp_path).csv_path.read_bytes()
    entries = sorted((tmp_path / "cache").glob("*.npz"))
    entries[0].write_bytes(b"not an archive")
    np.savez_compressed(entries[1], sums=np.zeros(3))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        again = run_rates(cfg, tmp_path).csv_path.read_bytes()
    corrupt = [str(w.message) for w in caught if "corrupt cache entry" in str(w.message)]
    assert len(corrupt) == 2
    assert again == first
    for path in entries[:2]:
        assert any(path.name in msg for msg in corrupt)
        with np.load(path) as data:
            assert data["sums"].shape == (2000, 1)


def test_run_rates_outputs_and_cache(tmp_path):
    cfg = _random_cfg()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = run_rates(cfg, tmp_path)
    assert [n for n, _, _ in res.rows] == [128, 256, 512, 1024]
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
    cache_files = list((tmp_path / "cache").glob("*.npz"))
    assert len(cache_files) == 4
    first = res.csv_path.read_bytes()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res2 = run_rates(cfg, tmp_path)
    assert res2.csv_path.read_bytes() == first


def test_rates_outputs_do_not_depend_on_threads(tmp_path, capsys):
    cfg = _random_cfg()
    cfg_path = tmp_path / "rates.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = (tmp_path / "t1", tmp_path / "t2")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run_rates(cfg, outs[0], threads=1, use_cache=False)
        with pytest.warns(FutureWarning, match="--deterministic is ignored"):
            rc = cli.main(
                ["rates", "--config", str(cfg_path), "--threads", "2", "--deterministic",
                 "--no-cache", "--out", str(outs[1])]
            )
    assert rc == 0
    capsys.readouterr()
    for name in ("rates.csv", "rate_fit.csv", "plot_rates.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_run_rates_needs_grid(tmp_path):
    cfg = _random_cfg()
    del cfg["n_grid"]
    with pytest.raises(ConfigError):
        run_rates(cfg, tmp_path)


def test_run_decompose_small(tmp_path):
    cfg = _random_cfg(samples=300)
    del cfg["n_grid"]
    cfg["decompose"] = {"n_terms": 5, "test_function": "gauss_bump", "u_order": 8}
    with pytest.warns(FutureWarning, match="u_order is ignored"):
        res = run_decompose(cfg, tmp_path)
    assert res.passed
    assert abs(res.ledger.residual) <= res.tolerance
    assert set(res.ledger.terms) == {"E1", "E2", "E3", "E4", "E5", "E6", "E7"}
    assert res.csv_path.exists() and res.manifest_path.exists()
    with pytest.raises(ConfigError, match="unknown test function"), pytest.warns(FutureWarning):
        run_decompose(cfg, tmp_path, h_name="bogus")


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
    with pytest.raises(ConfigError):
        run_qds(_random_cfg(), tmp_path)


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
    with pytest.raises(ConfigError):
        run_quenched(_qds_cfg(), tmp_path)


def test_simulate_writes_orbits(tmp_path):
    path = simulate(validate_config(_qds_cfg()), tmp_path, steps=16, orbit_count=3)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "config,orbit,step,x"
    assert len(lines) == 1 + 3 * 17


def test_cli_exit_codes(tmp_path, capsys):
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

    short = tmp_path / "short.json"
    short.write_text(json.dumps(_qds_cfg(n_grid=[64, 128, 256])))
    rc = cli.main(["qds", "--config", str(short), "--out", str(tmp_path / "s")])
    assert rc == 1
    assert "numeric failure" in capsys.readouterr().err


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
