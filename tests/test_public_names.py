"""Every exported name resolves, and the benchmark tracer still finds the
names it patches."""

import importlib
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


def test_perfbench_tracer_installs():
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
