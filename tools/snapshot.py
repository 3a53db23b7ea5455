"""Snapshot of the se5nav command outputs that a change must leave byte-identical.

Runs these commands and writes what each one produces under OUT, one
directory per command:

- ``run`` on copies of the bundled configs cut to the benchmark horizons
  (stereo 5 s, GPS 2 s) for seeds 1 and 7919;
- ``sweep --runs 24`` on ``stereo.cfg`` for seeds 0, 1 and 7919;
- a sweep in which six of eight runs diverge: ``sweep --runs 8 --seed 3
  --ball 2e157`` on ``stereo.cfg`` cut to 0.02 s, so that the divergence
  output (stderr, exit code and ``sweep.csv``) is compared too. The
  observer stays finite from any start that float64 can step; at this ball
  six estimates overflow within the first steps and two do not. The
  initial errors, up to 2e157, are written as finite numbers: their square
  would overflow, so the sweep takes the norm of each error scaled by a
  power of two;
- a run whose Riccati matrix fails: ``run`` on ``stereo.cfg`` cut to
  0.02 s with ``p0_scale = 1e307``, so that Pi overflows within the first
  step and the failure output (stderr and exit code) is compared too;
- ``obsv`` and ``validate`` on both bundled configs;
- ``obsv`` on ``gps.cfg`` with ``--grid 0,250,500``, whose last window
  ends at 501 s, so that the lever-arm attitude's block starts are
  compared where they are chained over about 31 segments;
- an ``obsv`` whose Gramian overflows: ``gps.cfg`` with the lever arm
  ``b = 1e300, 0, 0``, so that the numerical-failure output (stderr and
  exit code) is compared too.

Each directory holds the files the command wrote and ``stdout.txt``: its
exit code, stdout and stderr. The key ``runtime_s`` is dropped from every
JSON file, which stays valid JSON, and the lines that hold ``runtime_s`` or
one of the run's paths from every other file, since they differ between
runs that compute the same numbers. Snapshots of two trees that compute
the same numbers are then equal under ``diff -r``::

    python tools/snapshot.py /tmp/after
    python tools/snapshot.py /tmp/before --src /path/to/other/checkout/src
    diff -r /tmp/before /tmp/after

The commands run in this interpreter and import se5nav from ``--src``
(default: the ``src`` directory of this checkout). OUT must be empty or absent.

Byte identity is the rule for a change that keeps the arithmetic: a
refactor, a new check, or the same tree under two string-hash seeds (the
CI ``determinism`` job). A change that reorders floating-point arithmetic
on purpose, for instance by associating a long product differently, moves
the numbers at rounding level; for it the report of ``--compare``
replaces ``diff -r``::

    python tools/snapshot.py --compare /tmp/before /tmp/after

For each file that differs it prints the largest relative difference
|a - b| / max(|a|, |b|, s) over its numbers, then the largest per field
over all files. A number's field is its CSV column, else the name before
it on its line, and s is the largest |value| of that field over both
versions of the file, so a value that crosses zero reads its move against
the field's scale and not against itself. Any
other difference, text that differs or a file only one side has, is
listed, and the exit code is then 1. The change states the bound the
numbers must meet; the report shows whether they do.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import re
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
DIVERGING_SWEEP_FLAGS = ("--runs", "8", "--seed", "3", "--ball", "2e157")
FAILING_PI_S = 0.02
FAILING_PI_P0 = "1e307"
OVERFLOW_LEVER_ARM = "1e300, 0, 0"
FAR_GRID = "0,250,500"
# a number that is not part of a name such as seed1 or Rh00
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def edited_config(bundled: Path, dest: Path, sections: dict[str, dict[str, str]]) -> Path:
    """Copy of a bundled config with the keys of `sections` set, section by section."""
    ini = configparser.ConfigParser()
    ini.read(bundled, encoding="utf-8")
    for name, keys in sections.items():
        ini[name].update(keys)
    dest.mkdir(parents=True)
    path = dest / bundled.name
    with open(path, "w") as fh:
        ini.write(fh)
    return path


def shortened_config(bundled: Path, dest: Path, seed: int, duration: float, **observer: str) -> Path:
    """Copy of a bundled config with its seed, duration and settle window
    set as the benchmark sets them, and any other `observer` keys set."""
    keys = dict(seed=str(seed), duration=str(duration), settle_window=str(duration / 2), **observer)
    return edited_config(bundled, dest, {"observer": keys})


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
    cfg = shortened_config(configs / "stereo.cfg", tmp / "stereo-failing-pi", 0, FAILING_PI_S,
                           p0_scale=FAILING_PI_P0)
    jobs["run-stereo-failing-pi"] = ["run", str(cfg)]
    for name in RUN_HORIZONS:
        jobs[f"obsv-{name}"] = ["obsv", str(configs / f"{name}.cfg")]
        jobs[f"validate-{name}"] = ["validate", str(configs / f"{name}.cfg")]
    jobs["obsv-gps-far-grid"] = ["obsv", str(configs / "gps.cfg"), "--grid", FAR_GRID]
    cfg = edited_config(configs / "gps.cfg", tmp / "gps-overflow", {"channel.2": {"b": OVERFLOW_LEVER_ARM}})
    jobs["obsv-gps-overflow"] = ["obsv", str(cfg)]
    return jobs


def strip(path: Path, drop: tuple[str, ...]) -> None:
    """Drop the key ``runtime_s`` from a JSON object file, written back as
    se5nav writes it (indent 2), or the lines of another text file that
    contain any of `drop`."""
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        data.pop("runtime_s", None)
        path.write_text(json.dumps(data, indent=2))
        return
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines if not any(s in line for s in drop)))


def numbers(line: str, header: list[str] | None) -> list[tuple[str, float]]:
    """(field, value) of each number on a line: its column of `header`, else the name before it."""
    found = []
    for m in NUMBER.finditer(line):
        if header:
            field = header[line.count(",", 0, m.start())]
        else:
            names = re.findall(r"[A-Za-z_]\w*", line[:m.start()])
            field = names[-1] if names else "?"
        found.append((field, float(m.group())))
    return found


def numeric_diff(before: str, after: str, csv_file: bool):
    """Two texts compared line by line: the relative differences of the
    numbers that stand in the same places, each against its field's scale
    (see the module doc), as (difference, field, line) triples, and the
    numbers of the lines that differ otherwise."""
    lines_b, lines_a = before.splitlines(), after.splitlines()
    header = lines_b[1].split(",") if csv_file and len(lines_b) > 1 else None
    scale = {}
    for line in lines_b + lines_a:
        for field, x in numbers(line, header):
            scale[field] = max(scale.get(field, 0.0), abs(x))
    diffs, other = [], list(range(min(len(lines_b), len(lines_a)) + 1, max(len(lines_b), len(lines_a)) + 1))
    for i, (lb, la) in enumerate(zip(lines_b, lines_a), start=1):
        if lb == la:
            continue
        if NUMBER.split(lb) != NUMBER.split(la):
            other.append(i)
            continue
        found = [(abs(x - y) / max(abs(x), abs(y), scale[field]), field, i)
                 for (field, x), (_, y) in zip(numbers(lb, header), numbers(la, header)) if x != y]
        diffs += found
        if not found:  # the same values written differently
            other.append(i)
    return diffs, sorted(other)


def compare(before: Path, after: Path) -> int:
    """Print the rounding report of two snapshots (see the module doc); 1
    if they differ other than in their numbers."""
    files = sorted({p.relative_to(root) for root in (before, after) for p in root.rglob("*") if p.is_file()})
    by_field, other = {}, []
    for rel in files:
        if not (before / rel).is_file() or not (after / rel).is_file():
            other.append(f"{rel}: only in {before if (before / rel).is_file() else after}")
            continue
        text_b, text_a = (before / rel).read_text(), (after / rel).read_text()
        if text_b == text_a:
            continue
        diffs, lines = numeric_diff(text_b, text_a, rel.suffix == ".csv")
        if lines:
            shown = ", ".join(map(str, lines[:5])) + (f" and {len(lines) - 5} more" if len(lines) > 5 else "")
            other.append(f"{rel}: text differs on line {shown}")
        if diffs:
            worst, field, line = max(diffs)
            print(f"{rel}: {len(diffs)} numbers differ, largest relative difference {worst:.2e} ({field}, line {line})")
        for rel_diff, field, _ in diffs:
            by_field[field] = max(by_field.get(field, 0.0), rel_diff)
    if by_field:
        print("largest relative difference by field:")
        for field, worst in sorted(by_field.items(), key=lambda item: -item[1]):
            print(f"  {field}: {worst:.2e}")
    for line in other:
        print(line)
    if not by_field and not other:
        print("identical")
    return 1 if other else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, nargs="?", help="directory to write the snapshot to (empty or absent)")
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
                        help="directory that holds the se5nav package (default: this checkout's src)")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("BEFORE", "AFTER"),
                        help="report how two snapshots differ instead of writing one")
    args = parser.parse_args(argv)
    if args.compare:
        if args.out:
            parser.error("give OUT or --compare, not both")
        return compare(*args.compare)
    if args.out is None:
        parser.error("OUT is required")
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
