"""se5nav benchmark: one workload, measured for a fixed time.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload stereo-run --seed 1 --seconds 20 --trace 0

The process generates the workload's configs from the bundled ones with
the seed, times the start-up of fresh interpreters (``setup_s``), then
imports ``se5nav`` from ``src/`` and calls ``se5nav.cli.main`` in-process,
round after round, until the next round would end past ``--seconds``.
Every round's outputs go through the independent checks in ``checks.py``.
Times are normalized to a reference machine speed by the probe in
``speed.py``. With ``--trace 1`` rounds alternate untraced and traced,
and the layer metrics come from the traced ones. The last line of
standard output is the JSON result.
"""

import os

# One BLAS thread: the program's matrices are at most 15 x 15, and a
# fixed pool keeps runs comparable on a shared machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from speed import NOMINAL_SLICE_S, SpeedProbe  # noqa: E402
from tracing import LAYER_UNITS, TIME_SCALED, Tracer  # noqa: E402

SETUP_SAMPLES = 5
SETUP_CODE = "import sys, se5nav.scenario as s\nfor p in sys.argv[1:]: s.parse_scenario(p)"
WORK_DIR = ".perfbench-runs"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    return args


def measure_setup(src: Path, cfgs: list, probe: SpeedProbe) -> float:
    """Median normalized time of a fresh interpreter importing se5nav and
    parsing the configs; each sample is normalized by the probe slices run
    just before and after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    times = []
    before = probe.sample()
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, cfgs)], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        elapsed = time.perf_counter() - t0
        after = probe.sample()
        times.append(elapsed * 2.0 * NOMINAL_SLICE_S / (before + after))
        before = after
    return statistics.median(times)


def run_round(cli, commands, tracer, probe):
    """Run one round's commands with the probe on and, if given, the tracer.

    Returns (raw wall, wall without probe slices, normalized wall, exit
    codes, stdouts, problems).
    """
    raw = clean = norm = 0.0
    codes, stdouts, problems = [], [], []
    for argv in commands:
        buf = io.StringIO()
        if tracer is not None:
            tracer.install()
        probe.start()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                code = cli.main(argv)   # looked up each time so a traced main is seen
        except SystemExit as err:
            code = err.code if isinstance(err.code, int) else 1
        except Exception:
            code = -1
            problems.append(f"se5nav {' '.join(argv)} raised:\n{traceback.format_exc()}")
        finally:
            t1 = time.perf_counter()
            probe.stop()
            if tracer is not None:
                tracer.uninstall()
        probe_s, slowdown = probe.speed(t0, t1)
        raw += t1 - t0
        clean += t1 - t0 - probe_s
        norm += (t1 - t0 - probe_s) / slowdown
        codes.append(code)
        stdouts.append(buf.getvalue())
    return raw, clean, norm, codes, stdouts, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "se5nav" / "__init__.py").is_file() or not (src / "se5nav" / "configs").is_dir():
        print(f"error: no se5nav sources under {src}; run from the root of a checkout", file=sys.stderr)
        return 2
    work = root / WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload]()
    cfgs = workload.prepare(src / "se5nav" / "configs", work, args.seed)
    probe = SpeedProbe()
    try:
        setup_s = measure_setup(src, cfgs, probe)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
        print(f"error: se5nav does not import or parse its configs: {err}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(src))
    import se5nav.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "se5nav").resolve():
        print(f"error: imported se5nav from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    raw_walls = {False: [], True: []}
    walls = {False: [], True: []}   # normalized, untraced and traced rounds
    traced_clean = 0.0
    attempted = failed = 0
    problems, model_s, out_bytes = [], [], []
    out = work / "out"
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(raw_walls[False]) > len(raw_walls[True])
        raw, clean, norm, codes, stdouts, errs = run_round(cli, workload.commands(out),
                                                           tracer if traced else None, probe)
        raw_walls[traced].append(raw)
        walls[traced].append(norm)
        traced_clean += clean if traced else 0.0
        try:
            res = workload.account(out, codes, stdouts)
        except Exception:   # outputs the checks cannot even parse
            res = workloads.RoundResult(1, 1, [f"checking the outputs raised:\n{traceback.format_exc()}"], 0.0)
        attempted += res.ops
        failed += res.failed
        problems += errs + res.problems
        model_s.append(res.model_s)
        out_bytes.append(sum(f.stat().st_size for f in out.rglob("*") if f.is_file()))
        rounds = len(model_s)
        if tracer is not None and not raw_walls[True]:
            continue
        if time.perf_counter() - started + statistics.median(raw_walls[False] + raw_walls[True]) > args.seconds:
            break

    wall_s = statistics.median(walls[False])
    slowdown = probe.speed()[1]
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "sim_rate": (statistics.median(model_s) / wall_s, "sim-s/s"),
            "ops_per_s": (attempted / rounds / wall_s, "1/s"),
        }
    else:
        layers = tracer.layer_metrics(len(raw_walls[True]), probe.slices)
        traced_slowdown = traced_clean / sum(walls[True])
        for name in TIME_SCALED:
            layers[name] /= traced_slowdown
        layers["scenario.bytes_written"] = statistics.median(out_bytes)
        layers["trace.overhead_s"] = statistics.median(walls[True]) - wall_s
        metrics = {name: (layers[name], unit) for name, unit in LAYER_UNITS.items()}
        tracer.save(work / "spans.npz", probe.slices)
        for hook in tracer.missing:
            print(f"missing hook: {hook}")

    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"{args.workload} seed {args.seed}: {len(raw_walls[False])} untraced and "
          f"{len(raw_walls[True])} traced rounds; raw round walls "
          f"{[round(w, 3) for w in raw_walls[False] + raw_walls[True]]} s; "
          f"normalized {[round(w, 3) for w in walls[False] + walls[True]]} s; "
          f"machine slowdown {slowdown:.3f}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    (work / "result.json").write_text(json.dumps(result, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
