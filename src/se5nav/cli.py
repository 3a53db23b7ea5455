"""Command-line entry point.

Subcommands:
    run <cfg>                 simulate a scenario, write traces + summary
    sweep <cfg> --runs N      randomized-initial-condition convergence sweep
    obsv <cfg> --delta D      observability Gramian across a time grid
    validate <cfg>            parse and check a config, print the result

Output root: --out, else $SE5NAV_OUT, else ./runs. Exit codes: 0 success, 2 bad config
or output directory, 3 numerical failure (a diverged run or a non-finite obsv matrix) or,
in a sweep, a run that did not converge, 4 observability failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .observability import DEFAULT_MU_THRESHOLD
from .observer import DivergenceError
from .scenario import (
    SWEEP_BALL,
    SWEEP_MAX_ANGLE_DEG,
    ConfigError,
    check_gps_pe,
    check_observability,
    parse_scenario,
    run_scenario,
    sweep_agas,
    write_observability_csv,
    write_sweep_csv,
)
from .sensors import ChannelKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_OBSERVABILITY = 4


class _Unwritable(Exception):
    """The output directory cannot be created or written to."""


def _out_dir(args, cfg_path: Path, kind: str) -> Path:
    """The command's output directory, created before the command runs."""
    out = Path(args.out or os.environ.get("SE5NAV_OUT") or "runs") / f"{cfg_path.stem}-{kind}"
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise _Unwritable(f"cannot write outputs to {out}: {err.strerror or err}") from None
    return out


def _cmd_run(args) -> int:
    cfg = parse_scenario(args.config)
    out = _out_dir(args, Path(args.config), "run")
    summary = run_scenario(cfg, out_dir=out)
    print(f"wrote traces to {out}")
    for key, val in summary.to_dict().items():
        print(f"  {key}: {val}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = parse_scenario(args.config)
    out = _out_dir(args, Path(args.config), "sweep")
    rows = sweep_agas(
        cfg, n_runs=args.runs, seed=args.seed,
        max_angle_rad=np.deg2rad(args.max_angle_deg),
        translation_ball=args.ball,
    )
    write_sweep_csv(rows, out / "sweep.csv")
    n_conv = sum(r.converged for r in rows)
    worst = max((r.settle_time_s for r in rows if r.settle_time_s is not None), default=None)
    print(f"wrote {out / 'sweep.csv'}")
    print(f"converged {n_conv}/{len(rows)}; worst settle time: {worst}")
    for r in rows:
        if not r.converged:
            print(f"  run {r.run} did not converge (init angle {np.rad2deg(r.init_angle_rad):.1f} deg)")
        if r.failure is not None:
            print(f"error: run diverged: run {r.run}: {r.failure}", file=sys.stderr)
    return EXIT_OK if n_conv == len(rows) else EXIT_DIVERGED


def _cmd_obsv(args) -> int:
    cfg = parse_scenario(args.config)
    out = _out_dir(args, Path(args.config), "obsv")
    grid = args.grid or list(np.arange(0.0, 51.0, 5.0))
    try:
        reports = check_observability(cfg, delta=args.delta, grid=grid, threshold=args.mu)
    except ValueError as err:  # a window the config cannot resolve, such as delta < dt
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    write_observability_csv(reports, out / "observability.csv")
    all_pass = all(r.passed for r in reports)
    for r in reports:
        status = "pass" if r.passed else "FAIL"
        print(f"t={r.t:6.2f}  delta={r.delta:.2f}  mu={r.mu:.6e}  {status}")
    if any(c.kind is ChannelKind.INERTIAL_POSITION for c in cfg.channels):
        pe = check_gps_pe(cfg, t=grid[0], delta=args.delta, threshold=args.mu)
        print(f"excitation check: min-eig={pe.mu:.6e}  {'pass' if pe.passed else 'FAIL'}")
    print(f"wrote {out / 'observability.csv'}")
    return EXIT_OK if all_pass else EXIT_OBSERVABILITY


def _cmd_validate(args) -> int:
    cfg = parse_scenario(args.config)
    print(f"{args.config}: OK")
    print(json.dumps({
        "trajectory": cfg.trajectory.kind,
        "channels": [c.kind.value for c in cfg.channels],
        "duration": cfg.duration,
        "dt": cfg.observer.dt,
        "seed": cfg.seed,
        "noise": cfg.noise,
    }, indent=2))
    return EXIT_OK


def _checked(parse, ok, what: str):
    """argparse type that parses the text and requires ok(value); anything
    else exits 2 with a message saying what was expected."""
    def convert(text: str):
        try:
            value = parse(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return convert


_nonnegative = _checked(float, lambda x: 0 <= x < np.inf, "a finite nonnegative number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="se5nav", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", help="output root directory (default $SE5NAV_OUT or ./runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write traces")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="randomized convergence sweep (noiseless)")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--runs", type=_checked(int, lambda n: n >= 1, "a positive integer"),
                         default=100)
    p_sweep.add_argument("--seed", type=_checked(int, lambda n: n >= 0, "a nonnegative integer"),
                         default=0)
    p_sweep.add_argument("--max-angle-deg", type=_checked(float, lambda a: 0 <= a <= 180,
                                                          "an angle in [0, 180] degrees"),
                         default=SWEEP_MAX_ANGLE_DEG)
    p_sweep.add_argument("--ball", type=_nonnegative, default=SWEEP_BALL)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_obsv = sub.add_parser("obsv", help="observability Gramian check")
    p_obsv.add_argument("config")
    p_obsv.add_argument("--delta", type=_checked(float, lambda d: 0 < d < np.inf, "a positive number"),
                        default=1.0)
    p_obsv.add_argument("--grid", type=_checked(lambda text: [float(t) for t in text.split(",")],
                                                lambda ts: all(0 <= t < np.inf for t in ts),
                                                "comma-separated nonnegative times"),
                        help="comma-separated window start times (default 0..50 step 5)")
    p_obsv.add_argument("--mu", type=_nonnegative, default=DEFAULT_MU_THRESHOLD, help="pass when min eigenvalue > MU")
    p_obsv.set_defaults(func=_cmd_obsv)

    p_val = sub.add_parser("validate", help="check a scenario config")
    p_val.add_argument("config")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, _Unwritable) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as err:
        print(f"error: run diverged: {err}", file=sys.stderr)
        if err.state is not None:
            print(f"  last healthy state at t={err.state.t:.4f}", file=sys.stderr)
        return EXIT_DIVERGED
    except FloatingPointError as err:  # obsv: a Gramian or excitation matrix that is not finite
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED


if __name__ == "__main__":
    sys.exit(main())
