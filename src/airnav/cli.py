"""Command-line entry point.

Subcommands::

    airnav simulate      --config FILE [--seed N] [--out DIR] [--run-index K]
    airnav montecarlo    --config FILE [--runs N] [--seed N] [--out DIR]
    airnav observability --config FILE [--window SECONDS] [--out DIR]

Exit codes: 0 success, 2 configuration, ``--window``, ``--run-index`` or
output error, 3 divergence.  An output error is an ``OSError`` from creating
the output directory or from opening or writing an output file (a closed
stdout is not one); a run opens its trace before it ticks, so an unwritable
trace ends the command at once.
Every exit-2 error prints one line on stderr: ``config error: ...``,
``window error: ...`` or ``output error: ...``.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, observability
from .config import load_config
from .exceptions import ConfigParseError, ConfigValidationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3


def _non_negative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="airnav",
        description="Air-velocity/attitude/altitude observer simulations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one observer simulation")
    sim.add_argument("--config", required=True, help="config file path")
    sim.add_argument("--seed", type=int, default=None,
                     help="override base_seed")
    sim.add_argument("--out", default=".", help="output directory")
    sim.add_argument("--run-index", type=_non_negative_int, default=0,
                     help="Monte Carlo run index to simulate")

    mc = sub.add_parser("montecarlo", help="run the Monte Carlo batch")
    mc.add_argument("--config", required=True)
    mc.add_argument("--runs", type=int, default=None, help="override runs")
    mc.add_argument("--seed", type=int, default=None,
                    help="override base_seed")
    mc.add_argument("--out", default=".")

    obs = sub.add_parser("observability",
                         help="verify the uniform-observability conditions")
    obs.add_argument("--config", required=True)
    obs.add_argument("--window", type=float, default=observability.DEFAULT_WINDOW,
                     help="Gramian window length in seconds")
    obs.add_argument("--out", default=".")
    return parser


def _cmd_simulate(args, config) -> int:
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    trace_path = harness.trace_path(args.out, args.run_index)
    metrics = harness.run_single(config, run_index=args.run_index,
                                 trace=trace_path)
    print(f"wrote {trace_path}")
    if metrics.diverged:
        print(f"run diverged at t={metrics.divergence_time:g} s",
              file=sys.stderr)
        return EXIT_DIVERGED
    print(f"final err_att={metrics.err_att[-1]:.3e} "
          f"err_v_body={metrics.err_v_body[-1]:.3e} m/s "
          f"err_h={metrics.err_h[-1]:.3e} m")
    return EXIT_OK


def _cmd_montecarlo(args, config) -> int:
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    if args.runs is not None:
        config = replace(config, runs=args.runs)
    out = Path(args.out)
    summary, _ = harness.run_montecarlo(config, out)
    harness.write_summary_csv(out / "summary.csv", summary)
    print(f"wrote {summary.runs} run traces and summary.csv to {out}")
    print(f"divergences: {summary.divergence_count}/{summary.runs}")
    print(f"unconverged: {summary.unconverged_count}/{summary.runs}")
    for key in ("err_att", "err_v_body"):
        # Diverged runs are NaN; with no run left there is nothing to show.
        values = summary.final_means[key]
        values = values[~np.isnan(values)]
        label = f"final-{harness.FINAL_WINDOW:g}s mean {key}"
        if values.size:
            print(f"{label}: median={np.median(values):.3e} "
                  f"max={np.max(values):.3e}")
        else:
            print(f"{label}: n/a (every run diverged)")
    if summary.divergence_count:
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_observability(args, config) -> int:
    out = Path(args.out)
    try:
        rows = observability.observability_verdict(
            config.trajectory, config.probes, config.mag_ref,
            config.duration, delta=args.window,
        )
    except observability._InputError as exc:
        print(f"window error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    harness.write_observability_csv(out / "observability.csv", rows)
    print(f"{'t_start':>8} {'lam_min_W':>12} {'lam_max_W':>12} "
          f"{'mu_pi':>10} {'mu_api':>10} verdict")
    for row in rows:
        print(f"{row.t_start:8.2f} {row.lam_min:12.4e} {row.lam_max:12.4e} "
              f"{row.mu_pi:10.4e} {row.mu_api:10.4e} "
              f"{'true' if row.verdict else 'false'}")
    verdict = all(row.verdict for row in rows)
    print(f"overall verdict: {'true' if verdict else 'false'} "
          f"(min lam_min={min(row.lam_min for row in rows):.4e}, "
          f"window={args.window:g} s)")
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = load_config(args.config)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        if args.command == "simulate":
            return _cmd_simulate(args, config)
        if args.command == "montecarlo":
            return _cmd_montecarlo(args, config)
        return _cmd_observability(args, config)
    # A config that validates can still ask for more memory than there is,
    # e.g. a tick grid of 2e17 samples.
    except (ConfigParseError, ConfigValidationError, MemoryError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    # A closed stdout is the reader's doing, not an output file's error.
    except BrokenPipeError:
        raise
    # load_config reports its own OSError as a ConfigParseError.
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
