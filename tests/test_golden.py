"""Golden outputs: a small config's files keep the bytes recorded for them.

The digests were written by the code before the orbit state and the sums
moved to 64-byte-aligned memory; any change that moves a last bit of the
orbit pass, the observable or the rate step changes them.  Shifted-slope
`rates` has no `pow` on its path, and its bytes were the same on numpy's
baseline SIMD path and with AVX-512 (README, "Which outputs travel"), so
these digests hold on either.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_SLOPE_QUARTIC = {
    "version": 1,
    "system": {
        "kind": "random",
        "family": "shifted-slope",
        "beta_star": 1.0,
        "driver": {"kind": "iid-uniform", "low": 0.0, "high": 1.0},
    },
    "observable": "quartic",
    "n_grid": [64, 128, 256, 512],
    "samples": 4000,
    "seed": 8,
}

_SLOPE_QUARTIC_SHA256 = {
    "rates.csv": "9bc60c26220172e28d1203c9e5c1650161f167183dbf930baf54a34aa08352d5",
    "rate_fit.csv": "dd54e48464505785aef6916dac75e1dc13ff37dcedced59629084eb81a97d9d3",
    "plot_rates.txt": "1108f868eaeea46005335bc007ad538f88691792b6067710eed4942cc8867af8",
}


@pytest.mark.parametrize("threads", ["1", "3"])
def test_shifted_slope_quartic_rates_keep_their_bytes(tmp_path, threads):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_SLOPE_QUARTIC))
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "steinclt.cli", "rates", "--threads", threads,
         "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in _SLOPE_QUARTIC_SHA256}
    assert got == _SLOPE_QUARTIC_SHA256
