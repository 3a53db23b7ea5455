"""Scenario orchestration: configs, runs, sweeps, observability checks.

A scenario is a flat INI file describing the trajectory, the output
channels, and the observer parameters; see the bundled ``stereo.cfg`` and
``gps.cfg`` for the two reference configurations. Runs are deterministic
given the seed: identical config and seed produce byte-identical trace
files.

Every run goes through :func:`run_observer`, which drives the observer
over a truth generated up front, sensors sampled at their rates with
zero-order hold and the IMU and full-rate channels delivered at the
truth's stage rows. Two truths exist: :func:`simulate_truth` samples the
trajectory at the step starts and midpoints, and :func:`coupled_truth`
integrates it by RK4 and keeps its four stages, so truth and observer
form one RK4 flow; that faithful discretization of the continuous-time
error system backs the linear-equivalence and decoupling oracles, where
trajectories must track each other over many decades of error decay.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import json
import logging
import math
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .frontend import UnifiedLayout, fast_output_matrix
from .lie import SEn, so3_exp
from .observability import (
    DEFAULT_MU_THRESHOLD,
    OBSV_CSV_SCHEMA,
    ExcitationReport,
    GramianReport,
    gps_pe_condition,
    kron_gramians,
    window_nodes,
)
from .observer import (
    ESTIMATE_CSV_SCHEMA,
    ObserverConfig,
    ObserverState,
    _state,
    _step,
    build_a,
    build_abar,
    error_arrays,
    make_stage_inputs,
)
from .sensors import (
    MEASUREMENT_CSV_SCHEMA,
    ChannelKind,
    ChannelSampler,
    ChannelSpec,
    corrupt_imu,
    parse_channel_kind,
    spawn_channel_rngs,
)
from .trajectory import (
    TrajectorySpec,
    eval_omega,
    eval_trajectory,
    record_steps,
    simulate_truth,
    truth_attitude,
    write_table,
    write_truth_csv,
    z_block,
)

log = logging.getLogger("se5nav")

SWEEP_CSV_SCHEMA = "se5nav-sweep-v1"

ATT_THRESHOLD_RAD = 1e-2
POS_THRESHOLD_M = 1e-2
CONVERGENCE_DWELL_S = 0.5

# the shape of one row of each RunTrace array
_ROW_SHAPES = {"t": (), "phat": (3,), "vhat": (3,), "rhat": (3, 3), "ehat": (3, 3), "att_err": (),
               "col_norms": (5,), "x_body": (15,), "mineig_p": (), "rot_defect": ()}

# float64 values a run holds per step for its truth (the grid and midpoint
# arrays of simulate_truth) and per recorded step for its trace; the steps
# of a config and of an obsv horizon are bounded so that they fit in _MAX_RUN_BYTES
_TRUTH_FLOATS_PER_STEP = 46
_TRACE_FLOATS_PER_RECORD = sum(math.prod(shape) for shape in _ROW_SHAPES.values())
_MAX_RUN_BYTES = 4 << 30


def _check_steps(steps: float, stride: int, what: str) -> None:
    """ValueError unless a run's truth and trace over `steps` steps fit in _MAX_RUN_BYTES."""
    need = 8 * steps * (_TRUTH_FLOATS_PER_STEP + _TRACE_FLOATS_PER_RECORD / stride)
    if need > _MAX_RUN_BYTES:
        raise ValueError(f"{what} is {steps:.3g} steps, whose truth and trace would take about "
                         f"{need / 2**30:.3g} GiB; at most {_MAX_RUN_BYTES / 2**30:g} GiB are allowed")


class ConfigError(ValueError):
    """Scenario file rejected; collects every problem found."""

    def __init__(self, problems: list[str]):
        super().__init__("invalid scenario config:\n  " + "\n  ".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario file (see :func:`parse_scenario`); messages name its keys."""

    trajectory: TrajectorySpec
    channels: tuple[ChannelSpec, ...]
    observer: ObserverConfig
    duration: float
    seed: int = 0
    imu_noise_power: float = 0.0
    noise: bool = True
    p0_scale: float = 1.0
    phat0: tuple[float, float, float] = (1.0, 1.0, 1.0)
    vhat0: tuple[float, float, float] = (1.0, 1.0, 1.0)
    rhat0_rotvec: tuple[float, float, float] = (0.0, 0.0, 0.0)
    trace_stride: int = 10
    settle_window: float = 20.0

    def __post_init__(self):
        if not self.observer.dt <= self.duration < math.inf:
            raise ValueError(f"[observer] duration must be finite and at least dt, got {self.duration:g}")
        if self.trace_stride < 1:
            raise ValueError("[observer] trace_stride must be >= 1")
        _check_steps(self.duration / self.observer.dt, self.trace_stride, "[observer] duration / dt")
        for i, ch in enumerate(self.channels):
            if ch.rate is not None and ch.rate * self.duration < 1:  # stride beyond the last step
                raise ValueError(
                    f"[channel.*] rate {ch.rate:g} Hz of channel {i + 1} samples less than once in "
                    f"the run's {self.duration:g} s; the rate must be at least 1 / duration")
        if self.seed < 0:
            raise ValueError("[observer] seed must be nonnegative")
        if not self.p0_scale > 0:
            raise ValueError("[observer] p0_scale must be positive")
        if not self.imu_noise_power >= 0:
            raise ValueError("[imu] noise_power must be nonnegative")

    def initial_state(self) -> ObserverState:
        rhat0 = so3_exp(np.asarray(self.rhat0_rotvec, dtype=float))
        z = z_block(self.phat0, self.vhat0)
        return ObserverState(xhat=SEn(rhat0, z), pi=self.p0_scale * np.eye(5), t=0.0)

    def noiseless(self) -> "ScenarioConfig":
        return dataclasses.replace(self, noise=False)


def bundled_config_path(name: str) -> Path:
    """Path of a bundled scenario config (``stereo`` or ``gps``)."""
    ref = resources.files("se5nav").joinpath("configs", f"{name}.cfg")
    with resources.as_file(ref) as p:
        return Path(p)


# config parsing -----------------------------------------------------------
# [trajectory] sets TrajectorySpec, each [channel.N] a ChannelSpec, [observer]
# ObserverConfig and ScenarioConfig, and [imu] noise_power imu_noise_power.
# The observer weights are renamed: rho1..rho3 -> rho, q_scale -> q, v_scale -> v.

_FLAGS = {"on": True, "true": True, "yes": True, "1": True,
          "off": False, "false": False, "no": False, "0": False}


def _convert(tp, text: str):
    """The value of type `tp` that `text` writes; ValueError if it writes none."""
    if isinstance(tp, UnionType):  # an optional field, such as rate: float | None
        (tp,) = set(get_args(tp)) - {type(None)}
    if get_origin(tp) is tuple:
        parts = text.replace(",", " ").split()
        if len(parts) != len(get_args(tp)):
            raise ValueError(f"expected {len(get_args(tp))} numbers, got {text!r}")
        return tuple(_convert(float, part) for part in parts)
    if tp is bool:
        if text.lower() not in _FLAGS:
            raise ValueError(f"expected on or off, got {text!r}")
        return _FLAGS[text.lower()]
    if tp in (float, int):
        try:
            value = tp(text)
            if tp is int or math.isfinite(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"expected {'an integer' if tp is int else 'a finite number'}, got {text!r}")
    return parse_channel_kind(text) if tp is ChannelKind else tp(text)


@functools.cache  # evaluating the type hints costs more than the rest of a parse
def _keys(cls) -> dict:
    """key -> (dataclass, field, type, required) per field of cls, under the
    field's name; callers must not modify it."""
    hints = get_type_hints(cls)
    return {f.name: (cls, f.name, hints[f.name], f.default is dataclasses.MISSING)
            for f in dataclasses.fields(cls)}


def _schema(section: str) -> dict:
    """The keys a section takes (see :func:`_keys`); none for an unknown section."""
    if section == "trajectory":
        return _keys(TrajectorySpec)
    if section.startswith("channel."):
        return _keys(ChannelSpec)
    run = _keys(ScenarioConfig)
    if section == "imu":
        return {"noise_power": run["imu_noise_power"]}
    if section != "observer":
        return {}
    obs = _keys(ObserverConfig)
    keys = {f"rho{i}": (ObserverConfig, f"rho{i}", float, True) for i in (1, 2, 3)}  # joined into rho
    keys |= {"q_scale": obs["q"], "v_scale": obs["v"], "dt": obs["dt"]}
    return keys | {key: run[key] for key in run
                   if key not in ("trajectory", "channels", "observer", "imu_noise_power")}


def parse_scenario(path) -> ScenarioConfig:
    """Parse and validate a scenario file; every problem is reported.

    Each key sets the dataclass field of its name (see :func:`_schema`),
    converted by the field's type; a missing key takes the field's default,
    and the dataclasses check their own domain rules. The observer's
    gravity is the trajectory's.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        ini.read(path)
    except configparser.Error as err:
        raise ConfigError([str(err)]) from None

    problems = [f"missing [{s}] section" for s in ("trajectory", "observer") if not ini.has_section(s)]
    values: dict = {}  # (section, dataclass) -> {field: value}
    for section in ini.sections():
        schema = _schema(section)
        problems += [f"[{section}] {key}: unknown key" for key in ini.options(section) if key not in schema]
        for key, (cls, name, tp, required) in schema.items():
            if ini.has_option(section, key):
                try:
                    values.setdefault((section, cls), {})[name] = _convert(tp, ini.get(section, key))
                except ValueError as err:
                    problems.append(f"[{section}] {key}: {err}")
            elif required:
                problems.append(f"[{section}] missing required key {key!r}")
    if problems:
        raise ConfigError(problems)

    def build(section: str, cls, **extra):
        try:
            return cls(**values.get((section, cls), {}), **extra)
        except ValueError as err:
            problems.append(f"[{section}] {err}")

    trajectory = build("trajectory", TrajectorySpec)
    channels = tuple(build(s, ChannelSpec) for s in sorted(ini.sections()) if s.startswith("channel."))
    obs = values[("observer", ObserverConfig)]
    rho = tuple(obs.pop(f"rho{i}") for i in (1, 2, 3))
    observer = build("observer", ObserverConfig, rho=rho, gravity=trajectory.gravity) if trajectory else None
    if problems:
        raise ConfigError(problems)
    run = {**values.get(("imu", ScenarioConfig), {}), **values.get(("observer", ScenarioConfig), {})}
    try:
        return ScenarioConfig(trajectory, channels, observer, **run)
    except ValueError as err:
        raise ConfigError([str(err)]) from None


# estimate construction helpers --------------------------------------------

def estimate_from_errors(truth_r: np.ndarray, truth_z: np.ndarray,
                         rtilde: np.ndarray, ztilde: np.ndarray) -> SEn:
    """Estimate whose right-invariant errors against truth equal the given
    (rtilde, ztilde): Rhat = Rtilde^T R, zhat = Rtilde^T (z - ztilde)."""
    return SEn(rtilde.T @ truth_r, rtilde.T @ (truth_z - ztilde))


# observer run driver -------------------------------------------------------

# steps whose truth- and noise-only stage inputs a run builds at once;
# larger chunks run no faster and raise the peak memory of a run
_CHUNK_STEPS = 64

_I3 = np.eye(3)


@dataclass
class RunTrace:
    """Decimated trace of one observer run against its truth."""

    t: np.ndarray
    phat: np.ndarray
    vhat: np.ndarray
    rhat: np.ndarray
    ehat: np.ndarray
    att_err: np.ndarray
    col_norms: np.ndarray      # (N, 5): p, v, e1, e2, e3 error norms
    x_body: np.ndarray         # (N, 15)
    mineig_p: np.ndarray       # of P = Pi kron I_3, which has Pi's eigenvalues
    rot_defect: np.ndarray     # Frobenius orthonormality defect of Rhat
    measurements: list         # (t, channel, y) rows at update instants
    final_state: ObserverState
    stopped_at: float | None = None


@np.errstate(over="ignore", invalid="ignore")
def run_observer(cfg: ScenarioConfig, truth, init=None, stop_when=None,
                 record_measurements: bool = False, keep_rows: bool = True):
    """Drive the observer over a truth run under the scenario's settings.

    The channels, observer weights, seed, noise switch, IMU noise power
    and trace stride come from `cfg`; `init` defaults to its initial
    state. `truth` has the grid arrays t, R, p, v, its step dt and
    ``stages(k0, k1)``: a :class:`TruthRun` or a :func:`coupled_truth`.
    Each channel is sampled at its own rate with zero-order hold in
    between; full-rate channels and the IMU are delivered at the truth's
    stage rows. Noise, the IMU's too, applies only when ``cfg.noise`` is
    on. The steps of :func:`record_steps` are recorded, and
    ``stop_when(t, att_err, col_norms)`` may end the run at a recorded
    step; with ``keep_rows`` off, the trace keeps the last record only. A
    DivergenceError carries the state at the start of the failing step.
    Overflow and invalid warnings are off: the checks raise on a non-finite estimate.

    `init` may also be a sequence of states sharing ``pi`` and ``t``, run
    as one batch of estimates X (B x 3 x 8) against one Riccati factor Pi,
    which does not depend on the estimate; the result is then a list of
    traces, each bit for bit that of its state run alone. `stop_when` is
    then None or one callable per run; a run that stops leaves the batch.
    The rows are allocated once per field for the whole batch, so a
    ``keep_rows`` batch holds every record of the horizon for every run up front.

    What depends only on truth and noise (stage samples, y/r stacks, the
    noisy IMU and its hat(omega)) is built ahead of the recursion, once
    for the whole batch, in chunks of ``_CHUNK_STEPS`` steps. The noise is
    drawn in bulk from the same per-channel streams in the same order as
    one draw per step, so a seeded run gives the same numbers.
    """
    obs, dt, stride, ts = cfg.observer, truth.dt, cfg.trace_stride, truth.t
    if abs(obs.dt - dt) > 1e-12:
        raise ValueError("observer dt must match the truth sampling step")
    single = init is None or isinstance(init, ObserverState)
    inits = [cfg.initial_state() if init is None else init] if single else list(init)
    stops = [stop_when] * len(inits) if single or stop_when is None else list(stop_when)
    pi = np.asarray(inits[0].pi, dtype=float) if inits else None
    if len(stops) != len(inits) or any(s.t != inits[0].t or not np.array_equal(s.pi, pi) for s in inits):
        raise ValueError("a batch of initial states must share pi and t, with one stop_when per state")
    m = len(cfg.channels)
    if m == 0:
        log.warning("no output channels configured; observer runs open loop")
    imu_rng, ch_rngs = spawn_channel_rngs(cfg.seed, m)
    imu_std = np.sqrt(cfg.imu_noise_power * (1.0 / dt)) if cfg.noise and cfg.imu_noise_power > 0 else None
    samplers = [ChannelSampler(spec=ch, index=i, sim_dt=dt, rng=ch_rngs[i] if cfg.noise else None)
                for i, ch in enumerate(cfg.channels)]
    full_rate = [s.index for s in samplers if s.stride == 1]
    # measurement rows of one step: full-rate channels first, then decimated
    row_order = full_rate + [s.index for s in samplers if s.stride > 1]
    layout = UnifiedLayout(cfg.channels)
    pending_rows = []  # (step, measurement row)

    def chunk(k0: int, k1: int):
        """The stage inputs of steps k0 .. k1 - 1 on the four RK4 stages."""
        r_st, p_st, v_st, w_st, a_st, stage_map = truth.stages(k0, k1)
        if imu_std is not None:
            w_st, a_st = corrupt_imu(w_st, a_st, imu_std, imu_rng)
        raw = layout.raw_from_pose(r_st, p_st, v_st)  # (step, row, channel, axis)
        logged = np.empty((k1 - k0, m), dtype=bool)
        for sampler in samplers:
            i = sampler.index
            raw[:, :, i], logged[:, i] = sampler.sample(k0, raw[:, :, i])
        if record_measurements:
            # full-rate channels are logged at the trace stride
            logged[:, full_rate] = (np.arange(k0, k1) % stride == 0)[:, None]
            for j, c in zip(*np.nonzero(logged[:, row_order])):
                i = row_order[c]
                pending_rows.append((k0 + j, (ts[k0 + j], i, raw[j, 0, i].copy())))
        return make_stage_inputs(w_st, a_st, *layout.stacks(raw), obs.g).at(slice(None), stage_map)

    x = np.stack([np.hstack([s.rhat, s.zhat]) for s in inits])
    live = np.arange(len(inits))  # the run of each row of x
    abar, rho = build_abar(obs.g), np.asarray(obs.rho)
    n = len(truth) - 1
    slots = {k: slot for slot, k in enumerate(record_steps(n, stride).tolist())}  # trace row of each record
    n_rows = len(slots) if keep_rows else 1
    rows = {name: np.empty((n_rows, len(inits)) + shape) for name, shape in _ROW_SHAPES.items()}
    traces = [None] * len(inits)
    for k in range(n + 1):
        if k in slots:
            slot = slots[k] if keep_rows else 0
            rhat = x[..., :3]
            rep = error_arrays(truth.R[k], z_block(truth.p[k], truth.v[k]), rhat, x[..., 3:])
            gram = (rhat.mT @ rhat - _I3).reshape(-1, 9)
            record = {"t": ts[k], "phat": x[..., 3], "vhat": x[..., 4], "rhat": rhat, "ehat": x[..., 5:],
                      "att_err": rep.angle, "col_norms": rep.column_norms, "x_body": rep.x_body,
                      "mineig_p": np.linalg.eigvalsh(pi)[0],
                      "rot_defect": np.sqrt(np.vecdot(gram, gram))}  # rounds as the 1-D norm does
            for name, value in record.items():
                rows[name][slot, live] = value
            stop = np.zeros(live.size, dtype=bool)
            for j, run in enumerate(live):
                stop[j] = stops[run] is not None and stops[run](ts[k], rep.angle[j], rep.column_norms[j])
            done = stop | (k == n)
            if done.any():
                for j in np.flatnonzero(done):
                    run = live[j]  # a copy: a view of its column would keep the whole batch's rows alive
                    traces[run] = RunTrace(**{name: col[:slot + 1, run].copy() for name, col in rows.items()},
                                           measurements=[m for step, m in pending_rows if step < k],
                                           final_state=_state(x[j], pi, ts[k]),
                                           stopped_at=ts[k] if stop[j] else None)
                x, live = x[~done], live[~done]
                if not live.size:
                    break
        if k % _CHUNK_STEPS == 0:
            k0, stages = k, chunk(k, min(k + _CHUNK_STEPS, n))
        x, pi = _step(x, pi, stages.at(k - k0), ts[k], obs, abar, rho, live)
    return traces[0] if single else traces


# summary + file outputs ----------------------------------------------------

@dataclass
class RunSummary:
    duration: float
    settle_window: float
    rmse_att: float
    rmse_p: float
    rmse_v: float
    time_to_att_threshold: float | None
    time_to_pos_threshold: float | None
    final_mineig_p: float
    min_mineig_p: float
    max_rot_defect: float
    runtime_s: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def summarize(trace: RunTrace, duration: float, settle_window: float, runtime_s: float) -> RunSummary:
    t = trace.t
    settled = t >= max(0.0, duration - settle_window)
    if not settled.any():
        settled = np.ones_like(t, dtype=bool)

    def rms(x):
        return float(np.sqrt(np.mean(np.square(x[settled]))))

    def first_below(vals, thresh):
        idx = np.nonzero(vals < thresh)[0]
        return float(t[idx[0]]) if idx.size else None

    return RunSummary(
        duration=duration,
        settle_window=settle_window,
        rmse_att=rms(trace.att_err),
        rmse_p=rms(trace.col_norms[:, 0]),
        rmse_v=rms(trace.col_norms[:, 1]),
        time_to_att_threshold=first_below(trace.att_err, ATT_THRESHOLD_RAD),
        time_to_pos_threshold=first_below(trace.col_norms[:, 0], POS_THRESHOLD_M),
        final_mineig_p=float(trace.mineig_p[-1]),
        min_mineig_p=float(trace.mineig_p.min()),
        max_rot_defect=float(trace.rot_defect.max()),
        runtime_s=runtime_s,
    )


def write_measurement_csv(rows, path) -> None:
    write_table(path, MEASUREMENT_CSV_SCHEMA, ["t", "channel", "yx", "yy", "yz"],
                ([t, ch, *y] for t, ch, y in rows))


def write_estimate_csv(trace: RunTrace, path) -> None:
    write_table(
        path, ESTIMATE_CSV_SCHEMA,
        ["t", "phx", "phy", "phz", "vhx", "vhy", "vhz"]
        + [f"Rh{i}{j}" for i in range(3) for j in range(3)]
        + [f"eh{i}{j}" for i in range(3) for j in range(3)]
        + ["att_err_rad", "p_err", "v_err", "e1_err", "e2_err", "e3_err", "mineig_P"],
        ([trace.t[i], *trace.phat[i], *trace.vhat[i], *trace.rhat[i].reshape(-1), *trace.ehat[i].reshape(-1),
          trace.att_err[i], *trace.col_norms[i], trace.mineig_p[i]] for i in range(trace.t.size)))


def run_scenario(cfg: ScenarioConfig, out_dir: Path | str | None = None) -> RunSummary:
    """Full pipeline: truth, sensors, observer; optionally writes traces.

    Emits truth.csv, measurements.csv, estimate.csv, and summary.json into
    `out_dir` when given.
    """
    started = time.perf_counter()
    truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
    trace = run_observer(cfg, truth, record_measurements=out_dir is not None)
    summary = summarize(trace, cfg.duration, cfg.settle_window, time.perf_counter() - started)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_truth_csv(truth, out_dir / "truth.csv", stride=cfg.trace_stride)
        write_measurement_csv(trace.measurements, out_dir / "measurements.csv")
        write_estimate_csv(trace, out_dir / "estimate.csv")
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(summary.to_dict(), fh, indent=2)
    return summary


# AGAS sweep ----------------------------------------------------------------

@dataclass
class SweepRow:
    run: int
    seed: int
    init_angle_rad: float
    init_p_err: float
    init_v_err: float
    converged: bool
    settle_time_s: float | None


class _Dwell:
    """Stop rule of one sweep run: `checks` records in a row below both thresholds, the first at `settle`."""

    def __init__(self, checks: int):
        self.checks, self.streak, self.settle = checks, 0, None

    def __call__(self, t, att, norms) -> bool:
        self.streak = self.streak + 1 if att < ATT_THRESHOLD_RAD and norms[0] < POS_THRESHOLD_M else 0
        self.settle = t if self.streak == 1 else self.settle
        return self.streak >= self.checks


# most runs of a sweep stepped as one batch: larger batches save little time,
# and a sweep of any size holds no more runs than this at once
_SWEEP_BATCH = 64


@np.errstate(over="ignore", invalid="ignore")
def sweep_agas(
    cfg: ScenarioConfig,
    n_runs: int,
    seed: int = 0,
    max_angle_rad: float = np.pi - np.deg2rad(10.0),
    translation_ball: float = 10.0,
) -> list[SweepRow]:
    """Randomized-initial-condition convergence sweep, on `cfg` without noise.

    Attitude errors are uniform in angle up to `max_angle_rad` with a
    uniformly random axis; position and velocity errors are drawn in a
    ball of radius `translation_ball`. A run converges when the attitude
    error and geometric position error stay below the convergence
    thresholds for a short dwell, and its settle time is the first record
    of that dwell. The runs share the truth, the measurements and the
    Riccati factor, so they are stepped in equal batches of at most
    ``_SWEEP_BATCH`` by one :func:`run_observer` call each. Overflow warnings
    are off: errors beyond float64 end in a non-finite estimate the run rejects.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    cfg = cfg.noiseless()
    truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
    truth0 = truth.state(0)
    dwell_checks = max(1, int(round(CONVERGENCE_DWELL_S / (cfg.observer.dt * cfg.trace_stride))))

    rows: list[SweepRow] = []
    seeds = np.random.SeedSequence(seed)  # spawn() continues its children: as one spawn(n_runs)
    size = -(-n_runs // -(-n_runs // _SWEEP_BATCH))
    for b0 in range(0, n_runs, size):
        inits = []
        for i, child in enumerate(seeds.spawn(min(size, n_runs - b0)), start=b0):
            rng = np.random.default_rng(child)
            angle = rng.uniform(0.0, max_angle_rad)
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            rtilde = so3_exp(angle * axis)
            p_err = rng.uniform(-1.0, 1.0, 3)
            p_err *= translation_ball * rng.uniform() / max(np.linalg.norm(p_err), 1e-12)
            v_err = rng.uniform(-1.0, 1.0, 3)
            v_err *= translation_ball * rng.uniform() / max(np.linalg.norm(v_err), 1e-12)

            zhat = z_block(rtilde.T @ (truth0.p - p_err), rtilde.T @ (truth0.v - v_err))
            inits.append(ObserverState(xhat=SEn(rtilde.T @ truth0.R, zhat), pi=cfg.p0_scale * np.eye(5), t=0.0))
            rows.append(SweepRow(run=i, seed=seed, init_angle_rad=angle, init_p_err=float(np.linalg.norm(p_err)),
                                 init_v_err=float(np.linalg.norm(v_err)), converged=False, settle_time_s=None))
        stops = [_Dwell(dwell_checks) for _ in inits]
        for row, trace, stop in zip(rows[b0:], run_observer(cfg, truth, inits, stops, keep_rows=False), stops):
            if trace.stopped_at is not None:
                row.converged, row.settle_time_s = True, stop.settle
    return rows


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    write_table(path, SWEEP_CSV_SCHEMA,
                ["run", "init_angle_rad", "init_p_err", "init_v_err", "converged", "settle_time_s"],
                ([r.run, r.init_angle_rad, r.init_p_err, r.init_v_err, int(r.converged), r.settle_time_s]
                 for r in rows))


# observability checks ------------------------------------------------------

def _reference_attitude(cfg: ScenarioConfig, t_max: float):
    """The attitude at which the channels' reference vectors are evaluated,
    as a function of times t in [0, t_max] (scalar or array).

    Only a position channel with a lever arm b has an r that depends on it,
    r = [1, 0, -(p + R b)]; then R is the truth attitude at the nearest grid
    sample k = round(t / dt), from one truth attitude run up to t_max.
    Otherwise the identity stands in and no truth is synthesized.
    """
    if not any(ch.kind is ChannelKind.INERTIAL_POSITION and np.any(ch.b_vec) for ch in cfg.channels):
        return lambda t: _I3
    dt = cfg.observer.dt
    attitude = truth_attitude(cfg.trajectory, int(np.rint(t_max / dt)), dt)[0]

    def at(t):
        k = np.rint(np.asarray(t) / dt).astype(int)
        if np.any(k < 0) or np.any(k >= len(attitude)):
            raise ValueError(f"truth attitude is computed for times in [0, {t_max:g}] only")
        return attitude[k]

    return at


def scenario_output_map(cfg: ScenarioConfig, horizon: float):
    """(A(t), C(t)) callables for the scenario on noiseless truth.

    C(t) = R_s(t) kron I_3 with R_s from the channel rules of
    :class:`UnifiedLayout` at the truth pose. Lever-arm position channels
    take the truth attitude at the nearest grid sample, precomputed out to
    `horizon` (see :func:`_reference_attitude`).
    """
    spec = cfg.trajectory
    layout = UnifiedLayout(cfg.channels)
    attitude = _reference_attitude(cfg, horizon + cfg.observer.dt)

    def a_of_t(t: float) -> np.ndarray:
        return build_a(eval_omega(spec, t), spec.g)

    def build_c(t: float) -> np.ndarray:
        p, v, _ = eval_trajectory(spec, t)
        return fast_output_matrix(layout.stacks(layout.raw_from_pose(attitude(t), p, v))[1])

    if not layout.constant_r:
        return a_of_t, build_c
    c_const = build_c(0.0)
    return a_of_t, lambda t: c_const


_OBSV_CHUNK_NODES = 1 << 16  # quadrature nodes evaluated at once in check_observability
_OBSV_PIECE_NODES = 1 << 16  # nodes of one window evaluated at once; longer windows go in pieces


def check_observability(
    cfg: ScenarioConfig,
    delta: float,
    grid: list[float],
    threshold: float = DEFAULT_MU_THRESHOLD,
) -> list[GramianReport]:
    """Gramian smallest eigenvalue across a grid of window start times.

    Closed form on 5 x 5 matrices (:func:`kron_gramians`): the reference
    vectors at every trapezoid node t + k dt of every window come from the
    channel rules of :class:`UnifiedLayout`, whole windows at a time up to
    ``_OBSV_CHUNK_NODES`` nodes, and a window longer than ``_OBSV_PIECE_NODES``
    in pieces of that many nodes. Lever-arm position channels take the truth
    attitude at the nearest grid sample, as :func:`scenario_output_map`
    does, from one truth attitude run over all windows; other configs
    synthesize no truth. Window starts must be nonnegative, `delta` at
    least the config's step dt and the last window end within the step
    bound of a run's duration (ValueError).
    """
    spec, dt = cfg.trajectory, cfg.observer.dt
    if not delta >= dt:
        raise ValueError(f"delta must be at least the step dt = {dt:g}, got {delta:g}")
    starts = np.asarray(grid, dtype=float)
    if not np.all(starts >= 0):
        raise ValueError("window start times must be nonnegative")
    _check_steps((float(starts.max(initial=0.0)) + delta) / dt, cfg.trace_stride, "(max --grid + --delta) / dt")
    offsets, _ = window_nodes(0.0, delta, dt)
    attitude = _reference_attitude(cfg, (starts + offsets[-1]).max(initial=0.0))
    layout = UnifiedLayout(cfg.channels)
    abar = build_abar(spec.g)
    piece = min(offsets.size, _OBSV_PIECE_NODES)

    def node_pieces(group):  # R_s rows at the nodes of the group's windows, a piece at a time
        for k0 in range(0, offsets.size, piece):
            ts = (group[:, None] + offsets[k0:k0 + piece]).ravel()
            p, v, _ = eval_trajectory(spec, ts)
            _, rs = layout.stacks(layout.raw_from_pose(attitude(ts), p, v))
            yield rs.reshape(group.size, -1, *rs.shape[1:])

    per_group = max(1, _OBSV_CHUNK_NODES // piece)
    reports = []
    for g0 in range(0, starts.size, per_group):
        group = starts[g0:g0 + per_group]
        reports += kron_gramians(abar, node_pieces(group), group, delta, dt, threshold=threshold)
    return reports


def check_gps_pe(
    cfg: ScenarioConfig, t: float, delta: float, threshold: float = DEFAULT_MU_THRESHOLD
) -> ExcitationReport:
    """Persistency-of-excitation check for a GPS-style configuration."""
    spec = cfg.trajectory
    mags = [c for c in cfg.channels if c.kind is ChannelKind.BODY_VECTOR and c.gamma == 0]
    has_vel = any(c.kind is ChannelKind.INERTIAL_VELOCITY for c in cfg.channels)

    def vdot_of_t(s):
        return eval_trajectory(spec, s)[2]

    def v_of_t(s):
        return eval_trajectory(spec, s)[1]

    return gps_pe_condition(
        vdot_of_t, v_of_t if has_vel else None, spec.g,
        xi_mag=mags[0].xi_vec if mags else None,
        t=t, delta=delta, dt=cfg.observer.dt, threshold=threshold,
    )


def write_observability_csv(reports: list[GramianReport], path) -> None:
    write_table(path, OBSV_CSV_SCHEMA, ["t", "delta", "mu", "pass"],
                ([r.t, r.delta, r.mu, int(r.passed)] for r in reports))
