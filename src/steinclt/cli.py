"""Command-line entry point: simulate, rates, decompose, stein-check, quenched, qds."""
from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from .harness import (
    ConfigError,
    load_config,
    run_decompose,
    run_qds,
    run_quenched,
    run_rates,
    run_stein_check,
    simulate,
)
from .linalg import DegenerateCovariance


def _add_common(parser: argparse.ArgumentParser, need_config: bool = True) -> None:
    if need_config:
        parser.add_argument("--config", required=True, help="JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steinclt",
        description="Normal-approximation experiments for time-dependent interval maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write a few orbits of the configured system")
    _add_common(p)
    p.add_argument("--steps", type=int, default=64)
    p.add_argument("--orbits", type=int, default=8)

    p = sub.add_parser("rates", help="distance-to-normal over the N grid plus rate fit")
    _add_common(p)
    p.add_argument("--no-cache", action="store_true", help="recompute ensembles")
    p.add_argument(
        "--threads", type=int, default=None,
        help="worker threads over the N grid (outputs do not depend on it)",
    )
    p.add_argument(
        "--deterministic", action="store_true",
        help="ignored: outputs never depend on the thread count",
    )

    p = sub.add_parser("decompose", help="seven-term ledger for the configured system")
    _add_common(p)
    p.add_argument("--test-function", default=None, help="built-in test function name")

    p = sub.add_parser("stein-check", help="residual and bound sweep, no config needed")
    _add_common(p, need_config=False)
    p.add_argument("--dim", type=int, required=True, choices=(1, 2, 3))
    p.add_argument("--sigmas", type=int, default=5, help="random SPD matrices to try")

    p = sub.add_parser("quenched", help="per-replica rate fits with sqrt(N) normalization")
    _add_common(p)
    p.add_argument("--replicas", type=int, default=None)

    p = sub.add_parser("qds", help="partial-sum covariance growth and end-time distance")
    _add_common(p)
    return parser


def _load(args) -> dict:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    try:
        if args.command == "simulate":
            path = simulate(_load(args), out, steps=args.steps, orbit_count=args.orbits)
            print(f"wrote {path}")
            return 0
        if args.command == "rates":
            if args.deterministic:
                warnings.warn(
                    "--deterministic is ignored: outputs never depend on the thread count",
                    FutureWarning,
                    stacklevel=2,
                )
            result = run_rates(
                _load(args), out, threads=args.threads, use_cache=not args.no_cache
            )
            fit = result.fit
            print(
                f"fitted exponent {fit.exponent:.4f} +/- {fit.halfwidth:.4f} "
                f"(R^2 {fit.r_squared:.4f}), outputs in {out}"
            )
            if not result.floor_ok:
                print("warning: distances close to the estimator floor", file=sys.stderr)
            return 0
        if args.command == "decompose":
            result = run_decompose(_load(args), out, h_name=args.test_function)
            print(
                f"residual {result.ledger.residual:.3e} "
                f"(tolerance {result.tolerance:.3e}), ledger in {result.csv_path}"
            )
            return 0 if result.passed else 1
        if args.command == "stein-check":
            report = run_stein_check(args.dim, seed=args.seed or 0,
                                     sigma_count=args.sigmas, out_dir=out)
            worst = max(row.max_residual for row in report.rows)
            print(
                f"{len(report.rows)} checks, worst residual {worst:.3e}, "
                f"{'all passed' if report.passed else 'FAILURES present'}"
            )
            return 0 if report.passed else 1
        if args.command == "quenched":
            result = run_quenched(_load(args), out, replicas=args.replicas)
            exps = ", ".join(f"{e:.3f}" for e in result.exponents)
            print(f"replica exponents: {exps}; series tail {result.sigma_tail:.3e}")
            return 0
        if args.command == "qds":
            result = run_qds(_load(args), out)
            ratios = ", ".join(f"{r:.3f}" for _, r in result.lambda_ratios)
            print(
                f"lambda_min doubling ratios: {ratios}; "
                f"end-time exponent {result.fit.exponent:.4f}"
            )
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DegenerateCovariance, ValueError, RuntimeError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
