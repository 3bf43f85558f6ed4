"""One benchmark call in a process of its own.

    python3 perfbench/child.py --workload NAME --seed N --dir CALL_DIR \
        --spawned-at UNIX_TIME [--trace] [--setup-only]

Imports steinclt from the checkout's `src/`, writes the workload's config
into CALL_DIR, then calls `steinclt.cli.main` once with `--out CALL_DIR/out`.
Timings and peak memory go to CALL_DIR/result.json; with --trace the spans
recorded during the call go to CALL_DIR/spans.json.  A process of its own
per call keeps peak memory per call and puts the import into every set-up.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import steinclt.cli as cli

    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    workload = WORKLOADS[args.workload]
    call_dir = Path(args.dir)
    call_dir.mkdir(parents=True, exist_ok=True)
    cfg = workload.make_config(args.seed)
    cfg_path = None
    if cfg is not None:
        cfg_path = call_dir / "config.json"
        cfg_path.write_text(json.dumps(cfg, indent=2))
    argv = workload.argv(args.seed, cfg_path, call_dir / "out")
    setup_s = time.time() - args.spawned_at
    result = {"setup_s": setup_s}

    if not args.setup_only:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call("cli.main", cli.main, (argv,), {})
        except Exception:  # a crash is a failed call, not a benchmark error
            traceback.print_exc()
            rc = 1
        result.update(
            rc=rc,
            wall_s=time.perf_counter() - t0,
            cpu_s=time.process_time() - c0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            spans = [s.to_json() for s in tracer.spans]
            (call_dir / "spans.json").write_text(json.dumps(spans))
    (call_dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
