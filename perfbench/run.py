"""steinclt benchmark: four CLI workloads, end-to-end and per-layer metrics.

One workload, as the benchmark contract runs it:

    python3 perfbench/run.py --workload rates-lsv-t2 --seed 1 --seconds 25 --trace 0

Every workload, untraced then traced, with a summary table:

    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from the root of a source checkout: the program is imported from
`src/`.  Each call of `steinclt.cli.main` runs in a fresh process
(`perfbench/child.py`) with a fresh output directory under `.bench_out/`.
Calls repeat until the next one would overrun `--seconds` (at least one,
two for rates-slope).  The last line of standard output is one JSON object;
with `--trace 0` it carries the end-to-end metrics (medians over calls),
with `--trace 1` the per-layer metrics (medians over traced calls).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import check_call, check_repeat
from spans import LAYER_UNITS, Span, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed call)."""


def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(l.split(":", 1)[1].strip() for l in fh if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "steinclt").glob("*.py")):
        src.update(path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def spawn(name: str, seed: int, call_dir: Path, trace: bool, setup_only: bool = False) -> dict:
    """Run one child process; return its result.json plus its captured output."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name,
           "--seed", str(seed), "--dir", str(call_dir)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(time.time())],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: call exceeded {CHILD_TIMEOUT_S} s") from exc
    result_path = call_dir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"{name}: child process failed:\n{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    result["output"] = proc.stdout + proc.stderr
    return result


def _repeat_calls(workload, seed: int, seconds: float, trace: bool, run_dir: Path):
    name = workload.name
    calls = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        call_dir = run_dir / f"call{len(calls)}"
        t0 = time.perf_counter()
        res = spawn(name, seed, call_dir, trace)
        longest = max(longest, time.perf_counter() - t0)
        res["failures"] = check_call(workload, call_dir, res["rc"])
        if calls:
            res["failures"] += check_repeat(workload, calls[-1]["dir"], call_dir)
        if trace:
            spans = [Span(**s) for s in json.loads((call_dir / "spans.json").read_text())]
            res["layers"] = layer_metrics(spans, workload.threads)
        res["dir"] = call_dir
        calls.append(res)
        used = time.perf_counter() - start
        if len(calls) >= workload.min_calls and used + longest > seconds:
            break
    setups = [c["setup_s"] for c in calls]
    while len(setups) < SETUP_SAMPLES:
        extra = spawn(name, seed, run_dir / f"setup{len(setups)}", trace, setup_only=True)
        setups.append(extra["setup_s"])
    return calls, setups


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat calls for about `seconds`, check each, and collect the samples."""
    workload = WORKLOADS[name]
    run_dir = OUT / f"{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        calls, setups = _repeat_calls(workload, seed, seconds, trace, run_dir)
        if trace:
            last = run_dir / f"call{len(calls) - 1}" / "spans.json"
            shutil.copyfile(last, OUT / f"spans-{name}.json")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for call in calls:
        if call["failures"]:
            print(f"{name}: call {call['dir'].name} failed: {'; '.join(call['failures'])}",
                  file=sys.stderr)
            print(call["output"][-2000:], file=sys.stderr)
    return {"calls": calls, "setups": setups}


def summarize(run: dict, trace: bool) -> dict:
    calls = run["calls"]
    failed = sum(1 for c in calls if c["failures"])
    if trace:
        # exact counts are equal in every call; median_low keeps them integers
        metrics = {
            key: {"value": statistics.median_low(c["layers"][key] for c in calls)
                  if unit == "count" else statistics.median(c["layers"][key] for c in calls),
                  "unit": unit}
            for key, unit in LAYER_UNITS.items()
        }
    else:
        metrics = {
            key: {"value": statistics.median(c[key] for c in calls), "unit": unit}
            for key, unit in END_TO_END_UNITS.items()
            if key != "setup_s"
        }
        metrics["setup_s"] = {"value": statistics.median(run["setups"]), "unit": "s"}
    return {"correct": failed == 0, "attempted": len(calls), "failed": failed, "metrics": metrics}


def single(args) -> None:
    trace = bool(args.trace)
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    run = run_workload(args.workload, args.seed, args.seconds, trace)
    result = summarize(run, trace)
    samples = {
        "calls": result["attempted"],
        "setups": len(run["setups"]),
        "wall_s": [round(c["wall_s"], 4) for c in run["calls"]],
    }
    print(f"samples {json.dumps(samples)} fail_ratio {result['failed'] / result['attempted']}")
    print(json.dumps(result))


def run_all(args) -> None:
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    header = f"{'workload':16} {'metric':14} {'median':>12} {'unit':5} samples"
    print(header)
    layer_rows = {}
    for name in WORKLOADS:
        plain = run_workload(name, args.seed, args.seconds, trace=False)
        traced = run_workload(name, args.seed, args.seconds, trace=True)
        res = summarize(plain, trace=False)
        for key, m in res["metrics"].items():
            count = len(plain["setups"]) if key == "setup_s" else res["attempted"]
            print(f"{name:16} {key:14} {m['value']:12.4f} {m['unit']:5} {count}")
        print(f"{name:16} {'fail_ratio':14} {res['failed'] / res['attempted']:12.4f} "
              f"{'ratio':5} {res['attempted']}")
        tres = summarize(traced, trace=True)
        wall = res["metrics"]["wall_s"]["value"]
        overhead = tres["metrics"]["trace.wall_s"]["value"] / wall - 1.0
        print(f"{name:16} {'trace_overhead':14} {overhead:12.4f} {'ratio':5} "
              f"{res['attempted']}+{tres['attempted']}")
        layer_rows[name] = tres
    print()
    print(f"{'per-layer metric (traced medians)':36} " + " ".join(f"{n:>15}" for n in WORKLOADS))
    for key, unit in LAYER_UNITS.items():
        fmt = "15d" if unit == "count" else "15.6g"
        vals = " ".join(f"{layer_rows[n]['metrics'][key]['value']:{fmt}}" for n in WORKLOADS)
        print(f"{key + ' [' + unit + ']':36} {vals}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, with a summary")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (args.all or args.workload):
        parser.error("give --workload NAME or --all")
    if not (ROOT / "src" / "steinclt" / "cli.py").exists():
        print(f"no steinclt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run_all(args) if args.all else single(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
