"""Span tracing around se5nav's layer boundaries, installed from outside.

The program has no timers of its own, so the traced run replaces each
boundary function named in :data:`HOOKS` with a wrapper that records a
span (name, start, end, parent, command id) in memory. A function is
replaced in every ``se5nav`` module namespace that holds it, because the
modules import each other's functions by name. A hook whose function is
not found is reported as missing, so a rename shows up instead of a
layer silently reading zero.

Layer metrics are computed from the spans after the run: a span's self
time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# (span name, owning module, attribute or Class.method)
HOOKS = [
    ("cli.main", "se5nav.cli", "main"),
    ("scenario.parse", "se5nav.scenario", "parse_scenario"),
    ("scenario.run_scenario", "se5nav.scenario", "run_scenario"),
    ("scenario.sweep_agas", "se5nav.scenario", "sweep_agas"),
    ("scenario.check_observability", "se5nav.scenario", "check_observability"),
    ("scenario.check_gps_pe", "se5nav.scenario", "check_gps_pe"),
    ("scenario.run_observer", "se5nav.scenario", "run_observer"),
    ("scenario.error_arrays", "se5nav.observer", "error_arrays"),
    # run_observer calls np.linalg.eigvalsh once per recorded sample
    ("scenario.eigvalsh", "numpy.linalg", "eigvalsh"),
    ("scenario.write_truth_csv", "se5nav.trajectory", "write_truth_csv"),
    ("scenario.write_measurement_csv", "se5nav.scenario", "write_measurement_csv"),
    ("scenario.write_estimate_csv", "se5nav.scenario", "write_estimate_csv"),
    ("scenario.write_sweep_csv", "se5nav.scenario", "write_sweep_csv"),
    ("scenario.write_observability_csv", "se5nav.scenario", "write_observability_csv"),
    ("trajectory.simulate_truth", "se5nav.trajectory", "simulate_truth"),
    ("sensors.noise", "se5nav.sensors", "ChannelSampler.noise"),
    ("sensors.poll_stages", "se5nav.sensors", "ChannelSampler.poll_stages"),
    ("sensors.corrupt_imu", "se5nav.sensors", "corrupt_imu"),
    ("sensors.spawn_channel_rngs", "se5nav.sensors", "spawn_channel_rngs"),
    ("frontend.raw_from_pose", "se5nav.frontend", "UnifiedLayout.raw_from_pose"),
    ("frontend.stacks", "se5nav.frontend", "UnifiedLayout.stacks"),
    ("frontend.c_matrix", "se5nav.frontend", "UnifiedLayout.c_matrix"),
    ("frontend.fast_output_matrix", "se5nav.frontend", "fast_output_matrix"),
    ("frontend.output_matrix", "se5nav.frontend", "output_matrix"),
    ("observer.rk4", "se5nav.observer", "_rk4_observer"),
    ("observer.rhs", "se5nav.observer", "_observer_rhs"),
    ("observer.build_a", "se5nav.observer", "build_a"),
    ("observer.finalize", "se5nav.observer", "_finalize_step"),
    ("lie.project_rotation", "se5nav.lie", "project_rotation"),
    ("observability.output_map", "se5nav.scenario", "scenario_output_map"),
    ("observability.gramian", "se5nav.observability", "gramian"),
    ("observability.phi_step", "se5nav.observability", "_phi_step"),
    ("observability.pe", "se5nav.observability", "gps_pe_condition"),
]
# spans of the A(t) / C(t) callables that scenario_output_map returns
RETURNED = ["observability.a_eval", "observability.c_eval"]

SENSORS = ["sensors.noise", "sensors.poll_stages", "sensors.corrupt_imu",
           "sensors.spawn_channel_rngs"]
FRONTEND = ["frontend.raw_from_pose", "frontend.stacks", "frontend.c_matrix",
            "frontend.fast_output_matrix", "frontend.output_matrix"]
OBSERVER = ["observer.rk4", "observer.rhs", "observer.build_a", "observer.finalize"]
WRITERS = [name for name, _, _ in HOOKS if name.startswith("scenario.write_")]

# every per-layer metric the traced run reports, with its unit
LAYER_UNITS = {
    "trajectory.truth_s": "s",
    "sensors.us_per_step": "us",
    "sensors.draws": "count",
    "frontend.us_per_step": "us",
    "frontend.c_builds": "count",
    "observer.us_per_step": "us",
    "observer.rhs_us": "us",
    "observer.rhs_calls": "count",
    "observer.a_builds": "count",
    "observer.finalize_us_per_step": "us",
    "lie.project_us_per_step": "us",
    "lie.project_calls": "count",
    "scenario.loop_us_per_step": "us",
    "scenario.steps": "count",
    "scenario.run_setup_ms": "ms",
    "scenario.record_us": "us",
    "scenario.records": "count",
    "scenario.write_s": "s",
    "scenario.bytes_written": "bytes",
    "observability.map_setup_s": "s",
    "observability.window_ms": "ms",
    "observability.phi_steps": "count",
    "observability.a_evals": "count",
    "observability.c_evals": "count",
    "observability.pe_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "share",
    "trace.missing_hooks": "count",
}
# span times, reported at the reference machine speed like the end-to-end times
TIME_SCALED = [n for n, u in LAYER_UNITS.items() if u in ("s", "ms", "us") and n != "trace.overhead_s"]


def _resolve(module_name: str, attr: str):
    """(owner object, attribute name, original) or None when not found."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = getattr(owner, name, None) if isinstance(owner, type) else vars(owner).get(name)
    if original is None or not callable(original):
        return None
    return owner, name, original


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names = [name for name, _, _ in HOOKS] + RETURNED
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.draws = 0
        self._stack = [-1]
        self._cmd = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # recording -----------------------------------------------------------

    def _wrap(self, fn, name: str, post=None):
        nid = self._ids[name]
        names, parents, cmds = self.name, self.parent, self.cmd
        starts, ends, stack, cmd = self.start, self.end, self._stack, self._cmd
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            parent = stack[-1]
            if parent < 0:
                cmd[0] += 1
            names.append(nid)
            parents.append(parent)
            cmds.append(cmd[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            return out if post is None else post(out)

        wrapper.__wrapped__ = fn
        return wrapper

    def _post(self, name: str):
        if name == "sensors.noise":
            def count_draw(out):
                if out is not None:
                    self.draws += 1
                return out
            return count_draw
        if name == "sensors.corrupt_imu":
            def count_imu(out):
                self.draws += 2  # one gyro and one accel draw
                return out
            return count_imu
        if name == "observability.output_map":
            def wrap_map(out):
                a_of_t, c_of_t = out
                return (self._wrap(a_of_t, "observability.a_eval"),
                        self._wrap(c_of_t, "observability.c_eval"))
            return wrap_map
        return None

    # installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every hook that can be found; remember the ones that cannot."""
        self.missing = []
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "se5nav" or n.startswith("se5nav."))]
        for name, module_name, attr in HOOKS:
            found = _resolve(module_name, attr)
            if found is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner, key, original = found
            wrapper = self._wrap(original, name, self._post(name))
            targets = [(owner, key)]
            if not isinstance(owner, type):
                targets += [(m, k) for m in modules if m is not owner
                            for k, v in vars(m).items() if v is original]
            for target, k in targets:
                self._patches.append((target, k, getattr(target, k)))
                setattr(target, k, wrapper)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # analysis ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "cmd": np.frombuffer(self.cmd, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: Path, probe_slices) -> None:
        """Spans plus the speed-probe slices that ran inside them."""
        np.savez(path, names=np.array(self.names), probe_slices=np.array(probe_slices).reshape(-1, 2),
                 **self.arrays())

    def layer_metrics(self, rounds: int, probe_slices) -> dict[str, float]:
        """Per-layer figures, per traced round where they are totals.

        Speed-probe slices (non-overlapping (start, end) pairs) run inside
        whatever spans were open, so each span's duration excludes the
        slices that lie within it.
        """
        sp = self.arrays()
        name, parent, start, end = sp["name"], sp["parent"], sp["start"], sp["end"]
        slices = np.array(sorted(probe_slices), dtype=float).reshape(-1, 2)
        probe_time = np.concatenate([[0.0], np.cumsum(slices[:, 1] - slices[:, 0])])
        first = np.searchsorted(slices[:, 0], start)
        last = np.searchsorted(slices[:, 1], end, side="right")
        dur = end - start - np.where(last > first, probe_time[last] - probe_time[np.minimum(first, last)], 0.0)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        ids = self._ids

        def mask(*names):
            return np.isin(name, [ids[n] for n in names])

        def count(*names):
            return int(mask(*names).sum())

        run_obs = mask("scenario.run_observer")
        under_run = has_parent & np.isin(parent, np.nonzero(run_obs)[0])
        steps = count("observer.rk4")

        def per_step(sel):
            return 1e6 * float(self_time[sel].sum()) / steps if steps else 0.0

        rk4 = mask("observer.rk4") & has_parent
        first_step = np.full(dur.size, np.inf)
        np.minimum.at(first_step, parent[rk4], start[rk4])
        stepped = run_obs & np.isfinite(first_step)
        records = mask("scenario.error_arrays") & under_run
        record_time = dur[(records | mask("scenario.eigvalsh")) & under_run].sum()
        rhs = mask("observer.rhs")
        windows = mask("observability.gramian")
        root = mask("cli.main")
        traced_wall = float(dur[root].sum())

        return {
            "trajectory.truth_s": float(dur[mask("trajectory.simulate_truth")].sum()) / rounds,
            "sensors.us_per_step": per_step(mask(*SENSORS)),
            "sensors.draws": self.draws / rounds,
            "frontend.us_per_step": per_step(mask(*FRONTEND)),
            "frontend.c_builds": count("frontend.fast_output_matrix", "frontend.output_matrix") / rounds,
            "observer.us_per_step": per_step(mask(*OBSERVER)),
            "observer.rhs_us": 1e6 * float(dur[rhs].mean()) if rhs.any() else 0.0,
            "observer.rhs_calls": int(rhs.sum()) / rounds,
            "observer.a_builds": count("observer.build_a") / rounds,
            "observer.finalize_us_per_step": per_step(mask("observer.finalize")),
            "lie.project_us_per_step": per_step(mask("lie.project_rotation")),
            "lie.project_calls": count("lie.project_rotation") / rounds,
            "scenario.loop_us_per_step": per_step(run_obs),
            "scenario.steps": steps / rounds,
            "scenario.run_setup_ms": (1e3 * float((first_step[stepped] - start[stepped]).mean())
                                      if stepped.any() else 0.0),
            "scenario.record_us": 1e6 * float(record_time) / records.sum() if records.any() else 0.0,
            "scenario.records": int(records.sum()) / rounds,
            "scenario.write_s": float(dur[mask(*WRITERS)].sum()) / rounds,
            "observability.map_setup_s": float(dur[mask("observability.output_map")].sum()) / rounds,
            "observability.window_ms": 1e3 * float(dur[windows].mean()) if windows.any() else 0.0,
            "observability.phi_steps": count("observability.phi_step") / rounds,
            "observability.a_evals": count("observability.a_eval") / rounds,
            "observability.c_evals": count("observability.c_eval") / rounds,
            "observability.pe_s": float(dur[mask("observability.pe")].sum()) / rounds,
            "cli.self_s": float(self_time[root].sum()) / rounds,
            "trace.coverage": 1.0 - float(self_time[root].sum()) / traced_wall if traced_wall else 0.0,
            "trace.missing_hooks": len(self.missing),
        }
