"""Output checks that decide whether a benchmark call failed.

A call fails on a nonzero exit code or on any check below.  Reference
values are means over seeds 1-8 and 20260815 of the program at the commit
that introduced this benchmark.  Each tolerance is at least five standard
deviations of the seed-to-seed spread measured there, so a new random
stream (another seed, or sharded sampling) passes.  DESIGN.md lists which
deliberately wrong maps and observables these tolerances catch.
"""
from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

# rates: W1 distance at the smallest N of the grid, (reference, relative
# tolerance).  Seed-to-seed spread: 7.5% (LSV, N=256) and 6.5% (shifted
# slope, N=128) of the mean.
RATES_FIRST_DISTANCE = {
    "rates-lsv-t2": (0.0212, 0.40),
    "rates-slope": (0.0241, 0.35),
}
# Fitted exponent: mean -0.41 (sd 0.10) for LSV, -0.46 (sd 0.08) for slope.
RATES_EXPONENT_RANGE = (-1.0, 0.0)
# decompose: the seven-term split is exact on the empirical measure, so the
# residual is roundoff (below 1e-15 measured).
DECOMPOSE_RESIDUAL_MAX = 1e-9
# Direct left-hand side: mean 0.0115, sd 0.0069 at S=125, so this range
# only guards against gross errors.
DECOMPOSE_LHS_RANGE = (-0.025, 0.05)
# stein-check --dim 3: one row per built-in test function, one sigma.
STEIN_ROWS = {"affine", "quadratic", "tanh_prod", "tanh_asym", "gauss_bump", "gauss_wide"}

IDENTICAL_OUTPUTS = ("rates.csv", "rate_fit.csv", "plot_rates.txt")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out: Path) -> list[str]:
    """Every output the manifest lists exists and matches its checksum."""
    path = out / "manifest.json"
    if not path.exists():
        return ["manifest.json missing"]
    outputs = json.loads(path.read_text()).get("outputs", {})
    if not outputs:
        return ["manifest lists no outputs"]
    failures = []
    for name, digest in outputs.items():
        if not (out / name).exists():
            failures.append(f"{name} listed in manifest but missing")
        elif _sha256(out / name) != digest:
            failures.append(f"{name} checksum differs from manifest")
    return failures


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_rates(name: str, out: Path) -> list[str]:
    failures = check_manifest(out)
    rows = sorted(_rows(out / "rates.csv"), key=lambda r: int(r["N"]))
    ref, tol = RATES_FIRST_DISTANCE[name]
    first = float(rows[0]["value"])
    if abs(first / ref - 1.0) > tol:
        failures.append(f"distance at N={rows[0]['N']} is {first:.5f}, reference {ref} +/- {tol:.0%}")
    exponent = float(_rows(out / "rate_fit.csv")[0]["exponent"])
    lo, hi = RATES_EXPONENT_RANGE
    if not lo <= exponent <= hi:
        failures.append(f"fitted exponent {exponent:.4f} outside [{lo}, {hi}]")
    return failures


def check_decompose(out: Path) -> list[str]:
    failures = check_manifest(out)
    ledger = {r["term"]: r for r in _rows(out / "decomposition.csv")}
    residual = float(ledger["residual"]["value"])
    if abs(residual) > DECOMPOSE_RESIDUAL_MAX:
        failures.append(f"ledger residual {residual:.3e} above {DECOMPOSE_RESIDUAL_MAX}")
    lhs = float(ledger["lhs"]["value"])
    lo, hi = DECOMPOSE_LHS_RANGE
    if not lo <= lhs <= hi:
        failures.append(f"ledger lhs {lhs:.5f} outside [{lo}, {hi}]")
    return failures


def check_stein(out: Path) -> list[str]:
    # stein-check writes no manifest.json (the README says every subcommand
    # does); the CSV is checked instead.
    rows = _rows(out / "stein_check_d3.csv")
    failures = []
    if {r["h"] for r in rows} != STEIN_ROWS or len(rows) != len(STEIN_ROWS):
        failures.append(f"unexpected stein-check rows: {[r['h'] for r in rows]}")
    for r in rows:
        if r["passed"] != "1" or float(r["max_residual"]) > float(r["residual_tol"]):
            failures.append(f"stein-check row {r['h']} failed")
    return failures


def check_call(workload, call_dir: Path, rc: int) -> list[str]:
    """Failures of one call: exit code, manifest checksums, reference values."""
    if rc != 0:
        return [f"exit code {rc}"]
    out = call_dir / "out"
    try:
        if workload.command == "rates":
            return check_rates(workload.name, out)
        if workload.command == "decompose":
            return check_decompose(out)
        return check_stein(out)
    except (OSError, KeyError, IndexError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_repeat(workload, prev_dir: Path, call_dir: Path) -> list[str]:
    """rates --deterministic: consecutive calls give byte-identical outputs."""
    if "--deterministic" not in workload.args:
        return []
    return [
        f"{name} differs between consecutive calls"
        for name in IDENTICAL_OUTPUTS
        if not (prev_dir / "out" / name).exists()
        or not (call_dir / "out" / name).exists()
        or _sha256(prev_dir / "out" / name) != _sha256(call_dir / "out" / name)
    ]
