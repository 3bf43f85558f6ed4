"""Golden outputs: small configs of each subcommand keep the outputs recorded
for them in tests/golden/<case>/.

`python tests/test_golden.py` runs every case on the source tree beside this
file and rewrites those files.  A change meant to move outputs reruns it and
lists each file that moved; any other change leaves them as they are.

Shifted-slope `rates` is compared byte for byte.  Its files were first
pinned before the orbit state and the sums moved to 64-byte-aligned memory,
and any change that moves a last bit of the orbit pass, the observable or
the rate step changes them.  The shifted-slope step has no `pow`, and these
bytes were the same on numpy's baseline SIMD path and with AVX-512 (README,
"Which outputs travel"), so they hold on either.

`stein-check` and `decompose` are compared field by field: text fields
exactly, numbers to |got - want| <= 1e-12 |want| + 1e-13.  The relative part
is for the margins, ledger terms and standard errors (1e-5 and up here);
the absolute part is for the fields that sit at roundoff: the residuals, the
closed-form rows' zero margins and the quadratic ledger's E1/E2.  numpy's
two SIMD paths moved such fields by up to 2.8e-17 on these configs, and by
up to 8.7e-6 of their own size on a five-sigma `stein-check --dim 3`.
The `decompose` cases run shifted-slope ensembles, whose bits do not depend
on the SIMD path.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

_SLOPE_SYSTEM = {
    "kind": "random",
    "family": "shifted-slope",
    "beta_star": 1.0,
    "driver": {"kind": "iid-uniform", "low": 0.0, "high": 1.0},
}

_SLOPE_QUARTIC = {
    "version": 1,
    "system": _SLOPE_SYSTEM,
    "observable": "quartic",
    "n_grid": [64, 128, 256, 512],
    "samples": 4000,
    "seed": 8,
}

_RTOL = 1e-12
_ATOL = 1e-13


@dataclass(frozen=True)
class Case:
    args: tuple             # subcommand and flags, before --config/--out
    config: dict | None     # None for stein-check
    files: tuple            # output files compared
    exact: bool = False     # bytes, or field by field


def _decompose(observable: str, samples: int, *flags: str) -> Case:
    cfg = {"version": 1, "system": _SLOPE_SYSTEM, "observable": observable,
           "samples": samples, "seed": 3}
    return Case(("decompose", *flags), cfg, ("decomposition.csv",))


CASES = {
    "slope_quartic_rates": Case(("rates", "--threads", "1"), _SLOPE_QUARTIC,
                                ("rates.csv", "rate_fit.csv", "plot_rates.txt"), exact=True),
    **{
        f"stein_check_d{d}": Case(("stein-check", "--dim", str(d), "--sigmas", "1", "--seed", "20260815"),
                                  None, (f"stein_check_d{d}.csv",))
        for d in (1, 2, 3)
    },
    "decompose_d1_identity": _decompose("identity", 200),
    "decompose_d2_poly_pair": _decompose("poly_pair", 125),
    "decompose_d2_quadratic": _decompose("poly_pair", 125, "--test-function", "quadratic"),
}


def run_case(case: Case, work: Path, args: tuple | None = None) -> Path:
    """Run one case through the CLI in a subprocess; return its output directory."""
    argv = list(args or case.args)
    if case.config is not None:
        cfg_path = work / "cfg.json"
        cfg_path.write_text(json.dumps(case.config))
        argv += ["--config", str(cfg_path)]
    out = work / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "steinclt.cli", *argv, "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return out


def _field_mismatches(got: Path, want: Path) -> list[str]:
    with got.open() as g, want.open() as w:
        got_rows, want_rows = list(csv.reader(g)), list(csv.reader(w))
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} rows, want {len(want_rows)}"]
    bad = []
    for i, (gr, wr) in enumerate(zip(got_rows, want_rows)):
        if len(gr) != len(wr):
            bad.append(f"row {i}: {gr} != {wr}")
            continue
        for j, (a, b) in enumerate(zip(gr, wr)):
            try:
                x, y = float(a), float(b)
            except ValueError:
                equal = a == b
            else:
                equal = abs(x - y) <= _RTOL * abs(y) + _ATOL if math.isfinite(y) else a == b
            if not equal:
                bad.append(f"row {i} field {j}: {a} != {b}")
    return bad


@pytest.mark.parametrize("threads", ["1", "3"])
def test_shifted_slope_quartic_rates_keep_their_bytes(tmp_path, threads):
    case = CASES["slope_quartic_rates"]
    out = run_case(case, tmp_path, ("rates", "--threads", threads))
    for name in case.files:
        assert (out / name).read_bytes() == (GOLDEN / "slope_quartic_rates" / name).read_bytes(), name


@pytest.mark.parametrize("name", [n for n, c in CASES.items() if not c.exact])
def test_stein_outputs_match_their_goldens(tmp_path, name):
    case = CASES[name]
    out = run_case(case, tmp_path)
    for f in case.files:
        assert _field_mismatches(out / f, GOLDEN / name / f) == [], f


def test_field_comparison_tolerates_roundoff_only(tmp_path):
    want = tmp_path / "want.csv"
    want.write_text("h,max_residual,worst_margin,passed\naffine,8.9e-16,0.5,1\n")
    for text, ok in [
        ("affine,9.1e-16,0.5000000000001,1", True),        # 2e-17 absolute, 2e-13 relative
        ("affine,8.9e-16,0.500000000001,1", False),        # 2e-12 relative
        ("affine,2e-13,0.5,1", False),                     # past the absolute part
        ("affine,8.9e-16,0.5,0", False),
        ("quadratic,8.9e-16,0.5,1", False),
    ]:
        got = tmp_path / "got.csv"
        got.write_text("h,max_residual,worst_margin,passed\n" + text + "\n")
        assert (_field_mismatches(got, want) == []) is ok, text


def regenerate() -> None:
    for name, case in CASES.items():
        with tempfile.TemporaryDirectory() as work:
            out = run_case(case, Path(work))
            dest = GOLDEN / name
            dest.mkdir(parents=True, exist_ok=True)
            for f in case.files:
                shutil.copyfile(out / f, dest / f)
        print(f"{name}: {', '.join(case.files)}")


if __name__ == "__main__":
    regenerate()
