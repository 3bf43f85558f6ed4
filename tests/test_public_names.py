"""Every exported name resolves, and the benchmark tracer still finds the
names it patches and counts the points of every orbit step."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import steinclt

ROOT = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    modules = [steinclt] + [
        importlib.import_module(f"steinclt.{info.name}")
        for info in pkgutil.iter_modules(steinclt.__path__)
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


_TRACED_RATES = """
import json, sys, warnings
from spans import Tracer, install
from steinclt import cli
tracer = Tracer()
install(tracer)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    rc = cli.main(["rates", "--config", sys.argv[1], "--out", sys.argv[2]])
steps = [s.counts["points"] for s in tracer.spans if s.name == "dynamics.step"]
print(json.dumps({"rc": rc, "steps": steps}))
"""


def test_perfbench_tracer_installs(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    code = "from spans import Tracer, install; install(Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

    # the tracer counts the points of each step from the last positional
    # argument of apply_param, which orbit passes as (param, x, out)
    cfg = {
        "version": 1,
        "system": {
            "kind": "random",
            "family": "shifted-slope",
            "beta_star": 1.0,
            "driver": {"kind": "iid-uniform", "low": 0.0, "high": 1.0},
        },
        "observable": "quartic",
        "n_grid": [8, 16, 32, 64],
        "samples": 150,
        "seed": 4,
    }
    cfg_path = tmp_path / "rates.json"
    cfg_path.write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RATES, str(cfg_path), str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rc"] == 0
    assert result["steps"] == [150] * sum(n - 1 for n in cfg["n_grid"])
