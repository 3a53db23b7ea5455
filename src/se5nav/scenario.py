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
integrates it by RK4 and keeps its four stages, so the truth and the
observer's right factors form one RK4 flow; that faithful discretization
of the continuous-time error system backs the linear-equivalence and
decoupling oracles, where trajectories must track each other over many
decades of error decay.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import functools
import json
import logging
import math
import os
import pickle
import signal
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
    GramianReport,
    gps_pe_condition,
    kron_gramians,
    window_nodes,
)
from .observer import (
    ESTIMATE_CSV_SCHEMA,
    DivergenceError,
    ObserverConfig,
    ObserverState,
    _finalize_step,
    _riccati_pass,
    _rk4_observer,
    _state,
    build_a,
    build_abar,
    error_arrays,
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
    attitude_at,
    eval_omega,
    eval_trajectory,
    record_steps,
    simulate_truth,
    write_table,
    write_truth_csv,
    z_block,
)

log = logging.getLogger("se5nav")

SWEEP_CSV_SCHEMA = "se5nav-sweep-v1"

ATT_THRESHOLD_RAD = 1e-2
POS_THRESHOLD_M = 1e-2
CONVERGENCE_DWELL_S = 0.5
SWEEP_MAX_ANGLE_DEG = 170.0  # sweep_agas's and `sweep --max-angle-deg`'s default
SWEEP_BALL = 10.0  # sweep_agas's and `sweep --ball`'s default

# float64 values a run holds per step for its truth (t, R and R_mid of a
# TruthRun) and per recorded step for its trace: the records of a one-run
# batch (t, Pi, the truth's R and z, X) and the RunTrace derived from them
# (X, t, truth_r, att_err, col_norms, x_body, mineig_p, rot_defect); the steps of a
# config and of an obsv horizon are bounded so that they fit in _MAX_RUN_BYTES
_TRUTH_FLOATS_PER_STEP = 19
_TRACE_FLOATS_PER_RECORD = (1 + 25 + 9 + 15 + 24) + (24 + 1 + 9 + 1 + 5 + 15 + 1 + 1)
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
        if not self.settle_window >= 0:
            raise ValueError("[observer] settle_window must be nonnegative")

    def initial_estimate(self) -> SEn:
        return SEn(so3_exp(np.asarray(self.rhat0_rotvec, dtype=float)), z_block(self.phat0, self.vhat0))

    def noiseless(self) -> "ScenarioConfig":
        return dataclasses.replace(self, noise=False)


def bundled_config_path(name: str) -> Path:
    """Path of a bundled scenario config (``stereo`` or ``gps``)."""
    ref = resources.files("se5nav").joinpath("configs", f"{name}.cfg")
    with resources.as_file(ref) as p:
        return Path(p)


# config parsing -----------------------------------------------------------
# [trajectory] sets TrajectorySpec, each [channel.N] a ChannelSpec (in the
# order of the positive integers N), [observer] ObserverConfig and
# ScenarioConfig, and [imu] noise_power imu_noise_power.
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
    and the dataclasses check their own domain rules. A section the format
    does not have, even an empty one, and a ``[channel.N]`` whose N is not a
    positive integer or repeats another's are problems too. The observer's
    gravity is the trajectory's: a run takes ``trajectory.g``.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    # no header can name "", so [DEFAULT] is a section like any other, not one that every section inherits
    ini = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="")
    try:
        ini.read(path, encoding="utf-8")
    except configparser.Error as err:
        raise ConfigError([str(err)]) from None
    except UnicodeDecodeError as err:
        raise ConfigError([f"config file {path} is not UTF-8 text: {err}"]) from None

    problems = [f"missing [{s}] section" for s in ("trajectory", "observer") if not ini.has_section(s)]
    values: dict = {}  # (section, dataclass) -> {field: value}
    numbered: dict = {}  # channel number N -> its [channel.N] section
    for section in ini.sections():
        schema = _schema(section)
        n = section.removeprefix("channel.")
        if n != section:
            if not (n.isascii() and n.isdigit() and int(n) > 0):
                problems.append(f"[{section}] channel number: expected a positive integer, got {n!r}")
            elif numbered.setdefault(int(n), section) != section:
                problems.append(f"[{section}] channel number: {int(n)} repeats [{numbered[int(n)]}]")
        elif not schema:
            problems.append(f"[{section}] unknown section")
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
    channels = tuple(build(numbered[n], ChannelSpec) for n in sorted(numbered))
    obs = values[("observer", ObserverConfig)]
    rho = tuple(obs.pop(f"rho{i}") for i in (1, 2, 3))
    observer = build("observer", ObserverConfig, rho=rho)
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

# the gain pipe's buffer (the default Linux pipe-max-size): about 20 chunks of at most 49 kB each,
# 32 kB of them the right factors M_k; the default 64 kB holds about one, so the worker would wait
# on each chunk's handoff
_PIPE_BYTES = 1 << 20


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
    truth_r: np.ndarray        # (N, 3, 3): the truth attitude at the records
    measurements: list         # (t, channel, y) rows at update instants
    final_state: ObserverState
    stopped_at: float | None = None
    failure: str | None = None  # why and when the run failed, at its final state


def _ahead(items):
    """Yield `items` as a worker made by ``os.fork`` computes them ahead, on another core (where there
    is no ``os.fork``, as this process does). The worker pickles each item, or the exception raised
    instead, into a pipe whose buffer bounds how far ahead it runs, and ends by ``os._exit``; one that
    ends early is a RuntimeError. Closing this generator, which the caller must do however it leaves,
    kills and reaps the worker."""
    if not hasattr(os, "fork"):
        yield from items
        return
    import fcntl  # POSIX, as os.fork is

    fd_in, fd_out = os.pipe()
    with contextlib.suppress(AttributeError, OSError):  # F_SETPIPE_SZ is Linux's, and its limit may refuse
        fcntl.fcntl(fd_out, fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
    pid = os.fork()
    if pid == 0:  # the worker
        try:
            signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the caller's to handle
            out = open(fd_out, "wb")
            for item in items:
                pickle.dump(item, out, pickle.HIGHEST_PROTOCOL)
                out.flush()
        except BaseException as err:
            pickle.dump(err, out, pickle.HIGHEST_PROTOCOL)
            out.flush()
        finally:
            os._exit(0)
    os.close(fd_out)
    try:
        with open(fd_in, "rb") as feed:
            while True:
                try:
                    item = pickle.load(feed)
                except EOFError:
                    raise RuntimeError(f"the gain worker process {pid} ended before its last item") from None
                if isinstance(item, BaseException):
                    raise item
                yield item
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _gains(cfg: ScenarioConfig, truth, rngs, keep_rows: bool):
    """What the estimate of :func:`run_observer` steps on and records, from truth and noise alone, per
    chunk of ``_CHUNK_STEPS`` steps: its first step k0, :func:`_riccati_pass`'s (pis, m_k, failure) from
    Pi(0) = ``cfg.p0_scale`` I on, the truth pose (R, z) at its record steps (the last chunk's with step
    n) and its measurement log (steps, channels, values), decimated channels at updates and full-rate
    ones at records, if `keep_rows`. The front end works on the truth's four RK4 stages; the noise of `rngs`
    (:func:`spawn_channel_rngs`) is drawn in bulk, as one draw per step would. A failing chunk is the last."""
    obs, dt, ts, n, m = cfg.observer, truth.dt, truth.t, len(truth) - 1, len(cfg.channels)
    imu_rng, ch_rngs = rngs
    imu_std = np.sqrt(cfg.imu_noise_power * (1.0 / dt)) if cfg.noise and cfg.imu_noise_power > 0 else None
    samplers = [ChannelSampler(spec=ch, sim_dt=dt, rng=ch_rngs[i] if cfg.noise else None)
                for i, ch in enumerate(cfg.channels)]
    decimated = np.array([s.stride > 1 for s in samplers], dtype=bool)
    row_order = np.argsort(decimated, kind="stable")  # a step's rows: full-rate channels first
    recorded = np.isin(np.arange(n + 1), record_steps(n, cfg.trace_stride))
    layout, abar = UnifiedLayout(cfg.channels), build_abar(cfg.trajectory.g)
    uv = np.concatenate([np.eye(5), cfg.p0_scale * np.eye(5)])  # [U; V] = [I; Pi(0)]
    for k0 in range(0, n, _CHUNK_STEPS):
        k1 = min(k0 + _CHUNK_STEPS, n)
        r_st, p_st, v_st, w_st, a_st = truth.stages(k0, k1)
        if imu_std is not None:
            w_st, a_st = corrupt_imu(w_st, a_st, imu_std, imu_rng)
        raw = layout.raw_from_pose(r_st, p_st, v_st)  # (step, stage, channel, axis)
        logged = np.empty((k1 - k0, m), dtype=bool)
        for i, sampler in enumerate(samplers):
            raw[:, :, i], logged[:, i] = sampler.sample(k0, raw[:, :, i])
        logged[:, ~decimated] = recorded[k0:k1, None]
        js, cs = np.nonzero(logged[:, row_order] & keep_rows)
        pis, m_k, failure, uv = _riccati_pass(uv, k0, (w_st, a_st, *layout.stacks(raw)), ts[k0:k1], obs, abar)
        r_at, p_at, v_at = truth.pose(k0 + np.flatnonzero(recorded[k0:k1 + (k1 == n)]))  # stages built them
        yield k0, pis, m_k, failure, (r_at, z_block(p_at, v_at)), (k0 + js, row_order[cs], raw[js, 0, row_order[cs]])
        if failure is not None:
            return


@np.errstate(over="ignore", invalid="ignore")
def run_observer(cfg: ScenarioConfig, truth, estimates=None, stop_when=None,
                 keep_rows: bool = True) -> list[RunTrace]:
    """Drive a batch of observer runs over a truth run; one RunTrace per estimate.

    `estimates` is a sequence of initial estimates on SE_5(3), at least one (else ValueError); None runs
    the config's :meth:`~ScenarioConfig.initial_estimate` alone. Their X (B x 3 x 8) step as one batch from
    the truth's t[0] against one Riccati factor Pi from Pi(0) = ``cfg.p0_scale`` I, which does not depend
    on the estimate, and each trace equals bit for bit that of its estimate run alone. The channels,
    observer weights, seed, noise switch, IMU noise power and trace stride come from `cfg`. `truth`, a
    :class:`TruthRun` or a :func:`coupled_truth`, has times t and its step dt, all the estimate loop reads,
    and ``pose(steps)`` and ``stages(k0, k1)``, which :func:`_gains` reads. Each channel is sampled at its
    own rate with zero-order hold in between; full-rate channels and the IMU are delivered at the truth's
    four RK4 stages (the start, the midpoint twice and the end of a step). Noise, the IMU's too, applies
    only when ``cfg.noise`` is on. The steps of :func:`record_steps` are recorded; at each,
    ``stop_when(t, runs, att_err, col_norms)`` gets the live runs' positions in the batch and their errors
    and returns which of them stop (one bool for all or one per live run), and those leave the batch. A run
    that fails leaves as a trace whose ``failure`` gives the reason and whose final state is the failing
    step's start: every live run, before the first step that :func:`_riccati_pass` passes no factor for,
    with Pi's reason, and a run alone, after a step that turns its estimate non-finite. ``keep_rows`` off
    keeps only each trace's last record and no measurement log. Overflow and invalid warnings are off: the
    checks catch a non-finite estimate.

    The records are allocated once per field for the whole batch, so a ``keep_rows`` batch holds every
    record of the horizon for every run up front. A record stores what its step produced, X per run and
    t, Pi and its chunk's truth pose once; a run that ends copies the attitude into ``truth_r`` and
    derives the errors from its own records, Pi's least eigenvalue and Rhat's orthonormality defect, for
    all its records at once. What depends only on truth and noise, the chunks of :func:`_gains`, a worker
    process makes ahead of this estimate loop (:func:`_ahead`); the outputs do not depend on where they
    are made.
    """
    obs, ts, n = cfg.observer, truth.t, len(truth) - 1
    if abs(obs.dt - truth.dt) > 1e-12:
        raise ValueError("observer dt must match the truth sampling step")
    estimates = [cfg.initial_estimate()] if estimates is None else list(estimates)
    if not estimates or any(e.n != 5 for e in estimates):
        raise ValueError("a batch needs at least one estimate, and every estimate lives on SE_5(3)")
    if not cfg.channels:
        log.warning("no output channels configured; observer runs open loop")
    slots = {k: slot for slot, k in enumerate(record_steps(n, cfg.trace_stride).tolist())}  # record row of each step
    logs = []  # (step, measurement row)

    x = np.stack([np.hstack([e.rotation, e.translation]) for e in estimates])
    live = np.arange(len(estimates))  # the run of each row of x
    half_rho = 0.5 * np.asarray(obs.rho)
    n_rows = len(slots) if keep_rows else 1
    t_rows, pi_rows, r_rows, z_rows = (np.empty((n_rows,) + shape) for shape in ((), (5, 5), (3, 3), (3, 5)))
    x_rows = np.empty((n_rows, len(estimates), 3, 8))
    traces = [None] * len(estimates)

    def finish(run, state, stopped_at=None, failure=None):
        """End `run` in `state` with the trace of its records up to the last, and their errors; the
        estimate fields are views of one copy of its X rows (a view would keep the batch's)."""
        xs = x_rows[:slot + 1, run].copy()
        rhat = xs[..., :3]
        rep = error_arrays(r_rows[:slot + 1], z_rows[:slot + 1], rhat, xs[..., 3:])
        gram = (rhat.mT @ rhat - _I3).reshape(-1, 9)
        traces[run] = RunTrace(t=t_rows[:slot + 1].copy(), phat=xs[..., 3], vhat=xs[..., 4], rhat=rhat,
                               ehat=xs[..., 5:], truth_r=r_rows[:slot + 1].copy(), att_err=rep.angle,
                               col_norms=rep.column_norms, x_body=rep.x_body,
                               mineig_p=np.linalg.eigvalsh(pi_rows[:slot + 1])[:, 0],
                               rot_defect=np.sqrt(np.vecdot(gram, gram)),  # rounds as the 1-D norm does
                               measurements=[m for step, m in logs if step < k],
                               final_state=state, stopped_at=stopped_at, failure=failure)

    rngs = spawn_channel_rngs(cfg.seed, len(cfg.channels))  # made here, so numpy.random is imported once per process
    with contextlib.closing(_ahead(_gains(cfg, truth, rngs, keep_rows))) as feed:  # closed however it ends
        for k in range(n + 1):
            if k % _CHUNK_STEPS == 0 and k < n:  # the chunk from k on; the last also holds the record at n
                k0, pis, m_k, pi_failure, poses, (steps, chans, ys) = next(feed)
                poses = zip(*poses)  # the truth pose of each record, in turn
                logs += zip(steps.tolist(), zip(ts[steps], chans.tolist(), ys))
            if k in slots:
                slot = slots[k] if keep_rows else 0
                t_rows[slot], pi_rows[slot], (r_rows[slot], z_rows[slot]) = ts[k], pis[k - k0], next(poses)
                x_rows[slot, live] = x
                stop = np.zeros(live.size, dtype=bool)
                if stop_when is not None:
                    errs = error_arrays(r_rows[slot], z_rows[slot], x[..., :3], x[..., 3:])
                    stop[:] = stop_when(ts[k], live, errs.angle, errs.column_norms)
                done = stop | (k == n)
                if done.any():
                    for j in np.flatnonzero(done):
                        finish(live[j], _state(x[j], pis[k - k0], ts[k]), stopped_at=ts[k] if stop[j] else None)
                    x, live = x[~done], live[~done]
                    if not live.size:
                        break
            if pi_failure is not None and k - k0 == len(m_k):  # Pi fails in this step: every live run ends before it
                for j in range(live.size):
                    finish(live[j], _state(x[j], pis[k - k0], ts[k]), failure=pi_failure)
                break
            x1 = _rk4_observer(x, m_k[k - k0], obs.dt, half_rho)
            finite = _finalize_step(x1)
            if finite is not None:
                for j in np.flatnonzero(~finite):
                    finish(live[j], _state(x[j], pis[k - k0], ts[k]), failure=f"non-finite estimate at t={ts[k]:.4f}")
                x1, live = x1[finite], live[finite]
                if not live.size:
                    break
            x = x1
    return traces


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
    header = (["t", "phx", "phy", "phz", "vhx", "vhy", "vhz"]
              + [f"{m}{i}{j}" for m in ("Rh", "eh") for i in range(3) for j in range(3)]
              + ["att_err_rad", "p_err", "v_err", "e1_err", "e2_err", "e3_err", "mineig_P"])
    columns = [trace.t, trace.phat, trace.vhat, trace.rhat.reshape(-1, 9), trace.ehat.reshape(-1, 9),
               trace.att_err, trace.col_norms, trace.mineig_p]
    write_table(path, ESTIMATE_CSV_SCHEMA, header, np.column_stack(columns).tolist())


def run_scenario(cfg: ScenarioConfig, out_dir: Path | str | None = None) -> RunSummary:
    """Full pipeline: truth, sensors, observer; optionally writes traces.

    Emits truth.csv, measurements.csv, estimate.csv, and summary.json into
    `out_dir` when given.
    """
    started = time.perf_counter()
    truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
    [trace] = run_observer(cfg, truth)
    if trace.failure is not None:
        raise DivergenceError(f"run 0: {trace.failure}", trace.final_state)
    summary = summarize(trace, cfg.duration, cfg.settle_window, time.perf_counter() - started)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_truth_csv(cfg.trajectory, trace.t, trace.truth_r, out_dir / "truth.csv")
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
    failure: str | None = None  # the reason a diverged run gives; not written to the CSV


class _Dwell:
    """Stop rule of a sweep batch: `checks` records in a row below both thresholds, the first at `settle[run]`."""

    def __init__(self, checks: int, size: int):
        self.checks, self.streak, self.settle = checks, np.zeros(size, dtype=int), np.full(size, np.nan)

    def __call__(self, t, runs, att, norms) -> np.ndarray:
        below = (att < ATT_THRESHOLD_RAD) & (norms[:, 0] < POS_THRESHOLD_M)
        self.streak[runs] = np.where(below, self.streak[runs] + 1, 0)
        self.settle[runs[self.streak[runs] == 1]] = t
        return self.streak[runs] >= self.checks


# most runs of a sweep stepped as one batch: larger batches save little time,
# and a sweep of any size holds no more runs than this at once
_SWEEP_BATCH = 64


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` bit for bit, yet finite past about 1.3e154, where the square of x overflows."""
    e = np.frexp(np.abs(x).max())[1]  # scaling by a power of two is exact
    return float(np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e))


@np.errstate(over="ignore", invalid="ignore")
def sweep_agas(
    cfg: ScenarioConfig,
    n_runs: int,
    seed: int = 0,
    max_angle_rad: float = np.deg2rad(SWEEP_MAX_ANGLE_DEG),
    translation_ball: float = SWEEP_BALL,
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
    are off: errors beyond float64 end in a non-finite estimate, whose reason the row keeps in ``failure``.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be at least 1")
    cfg = cfg.noiseless()
    truth = simulate_truth(cfg.trajectory, cfg.duration, cfg.observer.dt)
    r0, p0, v0 = truth.pose(0)
    dwell_checks = max(1, int(round(CONVERGENCE_DWELL_S / (cfg.observer.dt * cfg.trace_stride))))

    rows: list[SweepRow] = []
    seeds = np.random.SeedSequence(seed)  # spawn() continues its children: as one spawn(n_runs)
    size = -(-n_runs // -(-n_runs // _SWEEP_BATCH))
    for b0 in range(0, n_runs, size):
        estimates = []
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

            zhat = z_block(rtilde.T @ (p0 - p_err), rtilde.T @ (v0 - v_err))
            estimates.append(SEn(rtilde.T @ r0, zhat))
            rows.append(SweepRow(run=i, seed=seed, init_angle_rad=angle, init_p_err=_norm(p_err),
                                 init_v_err=_norm(v_err), converged=False, settle_time_s=None))
        dwell = _Dwell(dwell_checks, len(estimates))
        traces = run_observer(cfg, truth, estimates, dwell, keep_rows=False)
        for row, trace, settle in zip(rows[b0:], traces, dwell.settle):
            row.converged, row.failure = trace.stopped_at is not None, trace.failure
            row.settle_time_s = settle if row.converged else None
    return rows


def write_sweep_csv(rows: list[SweepRow], path) -> None:
    write_table(path, SWEEP_CSV_SCHEMA,
                ["run", "init_angle_rad", "init_p_err", "init_v_err", "converged", "settle_time_s"],
                ([r.run, r.init_angle_rad, r.init_p_err, r.init_v_err, int(r.converged), r.settle_time_s]
                 for r in rows))


# observability checks ------------------------------------------------------

def _reference_rows(cfg: ScenarioConfig, t_max: float):
    """R_s, the reference vectors of the channel rules of :class:`UnifiedLayout`
    at the noiseless truth pose, as a function of times ts in [0, t_max] of
    any shape; its values are shaped ts.shape + (m, 5).

    Only a position channel with a lever arm b has an r that depends on the
    attitude, r = [1, 0, -(p + R b)]; then R is the truth attitude at the
    nearest grid sample k = round(t / dt), from one :func:`attitude_at` up to
    t_max. Otherwise the identity stands in and no truth is synthesized.
    """
    spec, dt, layout = cfg.trajectory, cfg.observer.dt, UnifiedLayout(cfg.channels)
    lever = any(ch.kind is ChannelKind.INERTIAL_POSITION and np.any(ch.b_vec) for ch in cfg.channels)
    n = int(np.rint(t_max / dt))
    attitude = attitude_at(spec, n, dt) if lever else None

    def at(ts):
        if attitude is None:
            return _I3
        k = np.rint(ts / dt).astype(int)
        if np.any(k < 0) or np.any(k > n):
            raise ValueError(f"truth attitude is computed for times in [0, {t_max:g}] only")
        return attitude(k)

    def rows(ts):
        ts = np.asarray(ts, dtype=float)
        p, v = eval_trajectory(spec, ts)[:2]
        return layout.stacks(layout.raw_from_pose(at(ts), p, v))[1]  # no attitudes held while stacks allocates

    return rows


def scenario_output_map(cfg: ScenarioConfig, horizon: float):
    """(A(t), C(t)) callables for the scenario on noiseless truth.

    C(t) = R_s(t) kron I_3 with R_s from :func:`_reference_rows`, whose
    lever-arm attitudes are available out to `horizon`.
    """
    spec = cfg.trajectory
    rows = _reference_rows(cfg, horizon + cfg.observer.dt)

    def a_of_t(t: float) -> np.ndarray:
        return build_a(eval_omega(spec, t), spec.g)

    if not UnifiedLayout(cfg.channels).constant_r:
        return a_of_t, lambda t: fast_output_matrix(rows(t))
    c_const = fast_output_matrix(rows(0.0))
    return a_of_t, lambda t: c_const


def check_observability(
    cfg: ScenarioConfig,
    delta: float,
    grid: list[float],
    threshold: float = DEFAULT_MU_THRESHOLD,
) -> list[GramianReport]:
    """One :class:`GramianReport` per window start of `grid`; a window passes when its mu > `threshold`.

    Closed form on 5 x 5 matrices (:func:`kron_gramians`), with the
    reference vectors at the nodes of every window from the channel rules
    of :class:`UnifiedLayout` (:func:`_reference_rows`). Lever-arm position
    channels take the truth attitude at the nearest grid sample, as
    :func:`scenario_output_map` does, from one :func:`attitude_at` for all
    windows; other configs synthesize no truth. Window starts must be
    nonnegative, `delta` at least the config's step dt and the last window
    end within the step bound of a run's duration (ValueError).
    """
    dt = cfg.observer.dt
    if not delta >= dt:
        raise ValueError(f"delta must be at least the step dt = {dt:g}, got {delta:g}")
    starts = np.asarray(grid, dtype=float)
    if not np.all(starts >= 0):
        raise ValueError("window start times must be nonnegative")
    _check_steps((float(starts.max(initial=0.0)) + delta) / dt, cfg.trace_stride, "(max --grid + --delta) / dt")
    rows = _reference_rows(cfg, window_nodes(starts.max(initial=0.0), delta, dt)[0][-1])
    return kron_gramians(build_abar(cfg.trajectory.g), rows, starts, delta, dt, threshold=threshold)


def check_gps_pe(
    cfg: ScenarioConfig, t: float, delta: float, threshold: float = DEFAULT_MU_THRESHOLD
) -> GramianReport:
    """Persistency-of-excitation check for a GPS-style configuration (:func:`gps_pe_condition`)."""
    spec = cfg.trajectory
    mags = [c for c in cfg.channels if c.kind is ChannelKind.BODY_VECTOR and c.gamma == 0]
    has_vel = any(c.kind is ChannelKind.INERTIAL_VELOCITY for c in cfg.channels)
    _, v, vdot = eval_trajectory(spec, window_nodes(t, delta, cfg.observer.dt)[0])
    return gps_pe_condition(
        vdot, v if has_vel else None, spec.g,
        xi_mag=mags[0].xi_vec if mags else None,
        t=t, delta=delta, dt=cfg.observer.dt, threshold=threshold,
    )


def write_observability_csv(reports: list[GramianReport], path) -> None:
    write_table(path, OBSV_CSV_SCHEMA, ["t", "delta", "mu", "pass"],
                ([r.t, r.delta, r.mu, int(r.passed)] for r in reports))
