"""Snapshot of the se5nav command outputs that a change must leave byte-identical.

Runs these commands and writes what each one produces under OUT, one
directory per command:

- ``run`` on copies of the bundled configs cut to the benchmark horizons
  (stereo 5 s, GPS 2 s) for seeds 1 and 7919;
- ``sweep --runs 24`` on ``stereo.cfg`` for seeds 0, 1 and 7919;
- a sweep in which four of eight runs diverge: ``sweep --runs 8 --seed 3
  --ball 3000`` on ``stereo.cfg`` cut to 0.02 s, so that the divergence
  output (stderr, exit code and ``sweep.csv``) is compared too;
- ``obsv`` and ``validate`` on both bundled configs.

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
|a - b| / max(|a|, |b|) over its numbers, then the largest per field over
all files (a CSV column, else the name before the number on its line). Any
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
DIVERGING_SWEEP_FLAGS = ("--runs", "8", "--seed", "3", "--ball", "3000")
# a number that is not part of a name such as seed1 or Rh00
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


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
        jobs[f"validate-{name}"] = ["validate", str(configs / f"{name}.cfg")]
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


def numeric_diff(before: str, after: str, csv_file: bool):
    """Two texts compared line by line: the relative differences of the
    numbers that stand in the same places, as (difference, field, line)
    triples, and the numbers of the lines that differ otherwise."""
    lines_b, lines_a = before.splitlines(), after.splitlines()
    header = lines_b[1].split(",") if csv_file and len(lines_b) > 1 else None
    diffs, other = [], list(range(min(len(lines_b), len(lines_a)) + 1, max(len(lines_b), len(lines_a)) + 1))
    for i, (lb, la) in enumerate(zip(lines_b, lines_a), start=1):
        if lb == la:
            continue
        if NUMBER.split(lb) != NUMBER.split(la):
            other.append(i)
            continue
        found = []
        for mb, ma in zip(NUMBER.finditer(lb), NUMBER.finditer(la)):
            x, y = float(mb.group()), float(ma.group())
            if x != y:
                if header:
                    field = header[lb.count(",", 0, mb.start())]
                else:
                    names = re.findall(r"[A-Za-z_]\w*", lb[:mb.start()])
                    field = names[-1] if names else "?"
                found.append((abs(x - y) / max(abs(x), abs(y)), field, i))
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
