"""The four benchmark workloads: generated inputs, commands, accounting.

Each workload writes its own copies of the bundled configs with the
workload seed, builds the `se5nav` command lines of one round, and turns
a round's outputs into operations attempted, operations failed, problems
found by the independent checks, and model seconds advanced (for
``sim_rate``).
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks

# the CLI defaults the obsv and sweep commands run with
OBSV_GRID = [float(t) for t in range(0, 51, 5)]
OBSV_DELTA = 1.0
OBSV_MU = 1e-6
SWEEP_MAX_ANGLE_DEG = 170.0
SWEEP_BALL = 10.0
SWEEP_DWELL_S = 0.5   # the sweep's convergence dwell (se5nav.scenario.CONVERGENCE_DWELL_S)


def write_config(src_dir: Path, name: str, dest: Path, seed: int, **observer) -> Path:
    """Copy of a bundled config with the workload seed and overrides."""
    ini = configparser.ConfigParser()
    ini.read(src_dir / f"{name}.cfg")
    ini["observer"]["seed"] = str(seed)
    for key, val in observer.items():
        ini["observer"][key] = str(val)
    path = dest / f"{name}.cfg"
    with open(path, "w") as fh:
        ini.write(fh)
    return path


@dataclass
class RoundResult:
    ops: int
    failed: int
    problems: list
    model_s: float   # model seconds the round integrated


class RunWorkload:
    """`se5nav run <cfg>` on a shortened horizon; one command per round."""

    def __init__(self, config: str, horizon: float):
        self.config, self.horizon = config, horizon

    def prepare(self, src_dir: Path, work: Path, seed: int) -> list[Path]:
        self.cfg = write_config(src_dir, self.config, work, seed, duration=self.horizon,
                                settle_window=self.horizon / 2)
        return [self.cfg]

    def commands(self, out: Path) -> list[list[str]]:
        return [["--out", str(out), "run", str(self.cfg)]]

    def account(self, out: Path, codes: list[int], stdouts: list[str]) -> RoundResult:
        problems = checks.check_run(self.cfg, out / f"{self.config}-run")
        failed = int(codes[0] != 0 or bool(problems))
        return RoundResult(1, failed, problems, self.horizon)


class SweepWorkload:
    """`se5nav sweep <cfg> --runs N --seed <seed>` on the bundled horizon."""

    def __init__(self, config: str, runs: int):
        self.config, self.runs = config, runs

    def prepare(self, src_dir: Path, work: Path, seed: int) -> list[Path]:
        self.seed = seed
        self.cfg = write_config(src_dir, self.config, work, seed)
        cfg = checks.Config.read(self.cfg)
        self.stride_s = cfg.dt * cfg.trace_stride
        return [self.cfg]

    def commands(self, out: Path) -> list[list[str]]:
        return [["--out", str(out), "sweep", str(self.cfg), "--runs", str(self.runs),
                 "--seed", str(self.seed)]]

    def account(self, out: Path, codes: list[int], stdouts: list[str]) -> RoundResult:
        out_dir = out / f"{self.config}-sweep"
        failed, problems = checks.check_sweep(self.cfg, out_dir, self.runs,
                                              SWEEP_MAX_ANGLE_DEG, SWEEP_BALL)
        if (codes[0] == 0) != (failed == 0):
            problems.append(f"sweep exit code {codes[0]} with {failed} runs not converged")
        # a run stops once the dwell has held: settle time plus the dwell's
        # remaining recorded samples
        dwell = max(1, round(SWEEP_DWELL_S / self.stride_s))
        try:
            settle = checks.read_table(out_dir / "sweep.csv")["settle_time_s"]
        except (OSError, ValueError, IndexError, KeyError):
            settle = np.array([])
        settle = settle[np.isfinite(settle)]
        model_s = float(np.sum(settle + (dwell - 1) * self.stride_s))
        return RoundResult(self.runs, failed, problems, model_s)


class ObsvWorkload:
    """`se5nav obsv` on every bundled config over the default grid."""

    def __init__(self, configs: tuple[str, ...]):
        self.configs = configs

    def prepare(self, src_dir: Path, work: Path, seed: int) -> list[Path]:
        self.cfgs = [write_config(src_dir, name, work, seed) for name in self.configs]
        return self.cfgs

    def commands(self, out: Path) -> list[list[str]]:
        return [["--out", str(out), "obsv", str(cfg)] for cfg in self.cfgs]

    def account(self, out: Path, codes: list[int], stdouts: list[str]) -> RoundResult:
        ops = failed = 0
        problems = []
        for name, cfg, code, text in zip(self.configs, self.cfgs, codes, stdouts):
            o, f, p = checks.check_obsv(cfg, out / f"{name}-obsv", code, text,
                                        OBSV_GRID, OBSV_DELTA, OBSV_MU)
            ops, failed, problems = ops + o, failed + f, problems + p
        return RoundResult(ops, failed, problems, OBSV_DELTA * len(OBSV_GRID) * len(self.cfgs))


WORKLOADS = {
    "stereo-run": lambda: RunWorkload("stereo", horizon=5.0),
    "gps-run": lambda: RunWorkload("gps", horizon=2.0),
    "stereo-sweep": lambda: SweepWorkload("stereo", runs=24),
    "obsv": lambda: ObsvWorkload(("stereo", "gps")),
}
