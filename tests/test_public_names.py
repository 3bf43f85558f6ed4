"""Every exported name resolves, no src module imports a name it never
reads, the Stein table contraction makes no BLAS call, importing the CLI
leaves scipy unloaded and starts no BLAS worker, a run imports no numpy, scipy or email module at call
time, and the benchmark tracer still finds the names it patches and counts
the points of every orbit step."""

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

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


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but neither reads nor lists in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read | exported)


def test_no_src_module_imports_a_name_it_never_reads():
    unused = {
        path.name: names
        for path in sorted((ROOT / "src" / "steinclt").glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
    assert _unused_imports("from scipy.special import ndtr, ndtri\nx = ndtri(0.5)\n") == [
        "ndtr (line 1)"
    ]


_BLAS_NAMES = {"matmul", "dot", "tensordot", "inner"}


def _blas_uses(source: str, cls: str, methods) -> list[str]:
    """`@`, BLAS-backed names and einsum `optimize=` in the given methods of cls."""
    tree = ast.parse(source)
    body = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls).body
    found = []
    for func in (n for n in body if isinstance(n, ast.FunctionDef) and n.name in methods):
        for node in ast.walk(func):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{func.name}: @ (line {node.lineno})")
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in _BLAS_NAMES:
                found.append(f"{func.name}: {name} (line {node.lineno})")
            if isinstance(node, ast.Call) and (
                getattr(node.func, "attr", getattr(node.func, "id", None)) == "einsum"
                and any(k.arg == "optimize" for k in node.keywords)
            ):
                found.append(f"{func.name}: einsum optimize= (line {node.lineno})")
    return sorted(found)


def test_stein_evaluate_makes_no_blas_call():
    # a BLAS product rounds some columns differently, so a Hessian that is
    # equal at every point (a quadratic's) would not be, and the ledger
    # terms that vanish for such a function would not read 0.0
    source = (ROOT / "src" / "steinclt" / "stein.py").read_text()
    assert _blas_uses(source, "SteinSolution", {"_fill", "_contract"}) == []
    probe = (
        "class S:\n"
        "    def _fill(self, a, b):\n        a @= b\n        return np.dot(a, b)\n"
        "    def _contract(self, a, b):\n        return inner(a, np.einsum('i,i', a, b, optimize=True))\n"
        "    def other(self, a, b):\n        return a @ b\n"
    )
    assert _blas_uses(probe, "S", {"_fill", "_contract"}) == [
        "_contract: einsum optimize= (line 6)",
        "_contract: inner (line 6)",
        "_fill: @ (line 3)",
        "_fill: dot (line 4)",
    ]


def test_importing_the_cli_leaves_scipy_sparse_unloaded():
    # only Ulam assembly needs scipy.sparse and only the a10 family's erf_unit
    # needs scipy.special, so importing the CLI imports no scipy at all;
    # manifests still name scipy's version, read without importing it or
    # importlib.metadata (about 26 ms of start-up); the config check is
    # hand-written, so nothing imports jsonschema
    code = (
        "import json, sys; from steinclt import cli, harness; "
        "names = ('scipy', 'scipy.special', 'scipy.sparse', 'jsonschema', "
        "'numpy.f2py', 'numpy.testing', 'importlib.metadata'); "
        "loaded = [n for n in names if n in sys.modules]; versions = harness._versions(); "
        "print(json.dumps([loaded, [n for n in names if n in sys.modules], versions]))"
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    at_import, after_versions, versions = json.loads(proc.stdout)
    assert at_import == []
    assert after_versions == []
    assert versions["scipy"] == scipy.__version__


_FRESH_CLI = """
import json, os, sys
import steinclt.cli
task = "/proc/self/task"
print(json.dumps({
    "threads": len(os.listdir(task)) if os.path.isdir(task) else None,
    "transfer": "steinclt.transfer" in sys.modules,
    "blas": os.environ.get("OPENBLAS_NUM_THREADS"),
}))
"""


@pytest.mark.parametrize("preset", [None, "3"])
def test_a_fresh_cli_import_starts_no_blas_worker(preset):
    """`import steinclt` resolves its names lazily, so the CLI sets
    OPENBLAS_NUM_THREADS before numpy loads: no idle BLAS worker spins
    beside a run, and `transfer`, which no subcommand uses, stays unloaded.
    A count the caller set is kept."""
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_CLI], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["transfer"] is False
    assert result["blas"] == (preset or "1")
    if preset is None:
        if result["threads"] is None:
            pytest.skip("no /proc/self/task to count the threads")
        assert result["threads"] == 1


_SLOPE_SYSTEM = {
    "kind": "random",
    "family": "shifted-slope",
    "beta_star": 1.0,
    "driver": {"kind": "iid-uniform", "low": 0.0, "high": 1.0},
}
_RATES_CONFIG = {"version": 1, "system": _SLOPE_SYSTEM, "observable": "quartic",
                 "n_grid": [8, 16, 32, 64], "samples": 150, "seed": 4}
_DECOMPOSE_CONFIG = {"version": 1, "system": _SLOPE_SYSTEM, "observable": "poly_pair",
                     "samples": 100, "seed": 4, "decompose": {"n_terms": 3}}

_FIRST_LOADS = """
import json, sys, warnings
from steinclt import cli
rates, decompose, out = sys.argv[1:]
before = set(sys.modules)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    rcs = [
        cli.main(["rates", "--config", rates, "--out", out + "/rates"]),
        cli.main(["decompose", "--config", decompose, "--out", out + "/decompose"]),
        cli.main(["stein-check", "--dim", "1", "--sigmas", "1", "--out", out + "/stein"]),
    ]
print(json.dumps({"rcs": rcs, "loaded": sorted(set(sys.modules) - before)}))
"""


def test_runs_import_no_numpy_scipy_or_email_module(tmp_path):
    """A module first imported inside `cli.main` is billed to the run, not to
    start-up: numpy loads some submodules (numpy.ma, numpy.random) lazily,
    and `importlib.metadata.version` imports the email parser."""
    paths = []
    for name, cfg in (("rates", _RATES_CONFIG), ("decompose", _DECOMPOSE_CONFIG)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", _FIRST_LOADS, *map(str, paths), str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rcs"] == [0, 0, 0]
    assert [m for m in result["loaded"] if m.split(".")[0] in ("numpy", "scipy", "email")] == []


_TRACED_RUNS = """
import json, sys, warnings
from spans import Tracer, install
from steinclt import cli
tracer = Tracer()
install(tracer)
rates, decompose, out = sys.argv[1:]
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    rcs = [
        cli.main(["rates", "--config", rates, "--threads", "2", "--out", out + "/rates"]),
        cli.main(["decompose", "--config", decompose, "--out", out + "/decompose"]),
        cli.main(["stein-check", "--dim", "1", "--sigmas", "1", "--out", out + "/stein"]),
    ]
print(json.dumps({"rcs": rcs, "spans": [s.to_json() for s in tracer.spans]}))
"""


def _traced_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    return env


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory) -> tuple[list, int]:
    """Spans of a rates, a decompose and a stein-check call under the tracer,
    and the id of the rates call's span."""
    tmp_path = tmp_path_factory.mktemp("traced")
    paths = []
    for name, cfg in (("rates", _RATES_CONFIG), ("decompose", _DECOMPOSE_CONFIG)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUNS, *map(str, paths), str(tmp_path)],
        env=_traced_env(), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["rcs"] == [0, 0, 0]
    spans = result["spans"]
    runs = sorted((s for s in spans if s["name"] == "harness.run"), key=lambda s: s["start"])
    assert len(runs) == 3
    return spans, runs[0]["id"]


def test_perfbench_tracer_installs(traced_runs):
    code = "from spans import Tracer, install; install(Tracer())"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_traced_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""

    # the tracer counts the points of each step from the last positional
    # argument of apply_param, which orbit passes as (param, x, out); rates
    # runs one pass to max N = 64 per thread, each over 8 of the 16 shards
    spans, rates = traced_runs
    under_rates = {s["id"] for s in spans if s["parent"] == rates}
    steps = sorted(
        s["counts"]["points"]
        for s in spans
        if s["name"] == "dynamics.step" and s["parent"] in under_rates
    )
    edges = np.linspace(0, 150, 17).astype(int)
    assert steps == [edges[8] - edges[0]] * 63 + [edges[16] - edges[8]] * 63


def test_perfbench_tracer_reaches_every_patched_name(traced_runs):
    """Every name `spans.install` patches is still the one src calls: a
    rename in src would leave a patched name unreached and a layer at 0."""
    spans, rates = traced_runs
    names = {s["name"] for s in spans}
    assert names == {
        "dynamics.step", "dynamics.observable", "stats.sums", "stats.normalize",
        "stats.distance", "stats.fit", "stein.solution_init", "stein.evaluate",
        "stein.residual", "stein.bound_check", "sunklodas.decompose", "harness.run",
    }
    # the shard pool is harness.ThreadPoolExecutor: its two workers' sums
    # run under the rates call's span, not as roots of their own
    by_id = {s["id"]: s for s in spans}
    rates_sums = [s for s in spans if s["name"] == "stats.sums" and s["parent"] == rates]
    assert len(rates_sums) == 2
    assert by_id[rates]["thread"] not in {s["thread"] for s in rates_sums}
