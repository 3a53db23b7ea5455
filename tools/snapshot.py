"""Snapshot of the se5nav command outputs that a change must leave byte-identical.

Runs these commands and writes what each one produces under OUT, one
directory per command:

- ``run`` on copies of the bundled configs cut to the benchmark horizons
  (stereo 5 s, GPS 2 s) for seeds 1 and 7919;
- ``sweep --runs 24`` on ``stereo.cfg`` for seeds 0, 1 and 7919;
- a sweep in which four of eight runs diverge: ``sweep --runs 8 --seed 3
  --ball 3000`` on ``stereo.cfg`` cut to 0.02 s, so that the divergence
  output (stderr, exit code and ``sweep.csv``) is compared too;
- ``obsv`` on both bundled configs.

Each directory holds the files the command wrote and ``stdout.txt``: its
exit code, stdout and stderr. Lines that hold ``runtime_s`` or one of the
run's paths are dropped, since they differ between runs that compute the
same numbers. Snapshots of two trees that compute the same numbers are
then equal under ``diff -r``::

    python tools/snapshot.py /tmp/after
    python tools/snapshot.py /tmp/before --src /path/to/other/checkout/src
    diff -r /tmp/before /tmp/after

The commands run in this interpreter and import se5nav from ``--src``
(default: the ``src`` directory of this checkout). OUT must be empty or absent.
"""

from __future__ import annotations

import argparse
import configparser
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

RUN_HORIZONS = {"stereo": 5.0, "gps": 2.0}
RUN_SEEDS = (1, 7919)
SWEEP_SEEDS = (0, 1, 7919)
SWEEP_RUNS = 24
# a sweep runs without noise, so the seed its config is given does not matter
DIVERGING_SWEEP_S = 0.02
DIVERGING_SWEEP_FLAGS = ("--runs", "8", "--seed", "3", "--ball", "3000")


def shortened_config(bundled: Path, dest: Path, seed: int, duration: float) -> Path:
    """Copy of a bundled config with its seed, duration and settle window
    set as the benchmark sets them."""
    ini = configparser.ConfigParser()
    ini.read(bundled, encoding="utf-8")
    ini["observer"].update(seed=str(seed), duration=str(duration), settle_window=str(duration / 2))
    dest.mkdir(parents=True)
    path = dest / bundled.name
    with open(path, "w") as fh:
        ini.write(fh)
    return path


def commands(configs: Path, tmp: Path) -> dict[str, list[str]]:
    """The snapshot's commands by output directory name, without ``--out``."""
    jobs = {}
    for name, duration in RUN_HORIZONS.items():
        for seed in RUN_SEEDS:
            cfg = shortened_config(configs / f"{name}.cfg", tmp / f"{name}-seed{seed}", seed, duration)
            jobs[f"run-{name}-seed{seed}"] = ["run", str(cfg)]
    for seed in SWEEP_SEEDS:
        jobs[f"sweep-stereo-seed{seed}"] = ["sweep", str(configs / "stereo.cfg"),
                                            "--runs", str(SWEEP_RUNS), "--seed", str(seed)]
    cfg = shortened_config(configs / "stereo.cfg", tmp / "stereo-diverging", 0, DIVERGING_SWEEP_S)
    jobs["sweep-stereo-diverging"] = ["sweep", str(cfg), *DIVERGING_SWEEP_FLAGS]
    for name in RUN_HORIZONS:
        jobs[f"obsv-{name}"] = ["obsv", str(configs / f"{name}.cfg")]
    return jobs


def strip(path: Path, drop: tuple[str, ...]) -> None:
    """Drop the lines of a text file that contain any of `drop`."""
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not any(s in line for s in drop)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="directory to write the snapshot to (empty or absent)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the se5nav package (default: this checkout's src)")
    args = parser.parse_args(argv)
    out, src = args.out.resolve(), args.src.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    sys.path.insert(0, str(src))
    import se5nav.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        parser.error(f"imported se5nav from {cli.__file__}, not from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        drop = ("runtime_s", str(out), str(src), tmp)
        for name, command in commands(src / "se5nav" / "configs", Path(tmp)).items():
            dest = out / name
            dest.mkdir(parents=True)
            text = io.StringIO()
            with redirect_stdout(text), redirect_stderr(text):
                code = cli.main(["--out", str(dest), *command])
            (dest / "stdout.txt").write_text(f"exit {code}\n{text.getvalue()}")
            for path in sorted(dest.rglob("*")):
                if path.is_file():
                    strip(path, drop)
            print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
