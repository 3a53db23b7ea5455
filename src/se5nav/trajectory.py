"""Ground-truth rigid-body trajectories and ideal IMU synthesis.

The truth model is the strapdown kinematics

    dp/dt = v,   dv/dt = g + R a_B,   dR/dt = R hat(omega),

with analytic position profiles and a sinusoidal body-rate profile. The
accelerometer output is synthesized as a_B = R.T (dv/dt - g) so that the
velocity equation closes exactly at every sample.

Conventions: NED inertial frame, gravity g = [0, 0, +9.81] m/s^2 by default
(only the norm is physical; axis and sign are configurable).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .lie import hat, project_rotation, so3_exp

GRAVITY_NED = np.array([0.0, 0.0, 9.81])

TRUTH_CSV_SCHEMA = "se5nav-truth-v1"


@dataclass(frozen=True)
class TrajectorySpec:
    """Analytic trajectory family plus body-rate profile.

    kind:
        ``eight``             p = [a1 cos(w1 t), a2 sin(w2 t), a3 sin(w3 t)]
        ``constant-velocity`` p = p0 + v0 t
        ``hover``             p = p0
    The body rate is three sinusoids, omega_i = amp_i sin(freq_i t + phase_i).
    """

    kind: str = "eight"
    amp: tuple[float, float, float] = (1.0, 0.25, -np.sqrt(3.0) / 4.0)
    freq: tuple[float, float, float] = (5.0, 10.0, 10.0)
    p0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    v0: tuple[float, float, float] = (0.0, 0.0, 0.0)
    omega_amp: tuple[float, float, float] = (1.0, 0.7, 0.5)
    omega_freq: tuple[float, float, float] = (0.3, 0.2, 0.1)
    omega_phase: tuple[float, float, float] = (0.0, np.pi, np.pi / 3.0)
    r0_rotvec: tuple[float, float, float] = (0.0, np.pi / 2.0, 0.0)
    gravity: tuple[float, float, float] = tuple(GRAVITY_NED)

    def __post_init__(self):
        if self.kind not in ("eight", "constant-velocity", "hover"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if not all(f >= 0 for f in (*self.freq, *self.omega_freq)):
            raise ValueError("frequencies must be nonnegative")

    @property
    def g(self) -> np.ndarray:
        return np.asarray(self.gravity, dtype=float)

    @property
    def r0(self) -> np.ndarray:
        return so3_exp(np.asarray(self.r0_rotvec, dtype=float))


@dataclass(frozen=True)
class TruthState:
    """Truth sample at time ``t`` with the IMU pair synthesized from it."""

    t: float
    p: np.ndarray
    v: np.ndarray
    vdot: np.ndarray
    R: np.ndarray
    omega: np.ndarray
    aB: np.ndarray

    @property
    def z(self) -> np.ndarray:
        """Extended translation block [p, v, e1, e2, e3] (3 x 5)."""
        return z_block(self.p, self.v)


def z_block(p, v) -> np.ndarray:
    """Extended translation block [p, v, e1, e2, e3] (3 x 5) of a position
    and a velocity; the e_i columns are the canonical basis."""
    out = np.zeros((3, 5))
    out[:, 0] = p
    out[:, 1] = v
    out[:, 2:] = np.eye(3)
    return out


def eval_trajectory(spec: TrajectorySpec, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Position, velocity, and acceleration at time(s) t, all analytic.

    Times of any shape give arrays of that shape plus a trailing axis of
    3: (3,) for a scalar, (len(t), 3) for a 1-D array of times.
    """
    t = np.asarray(t, dtype=float)
    p = np.zeros(t.shape + (3,))
    v = np.zeros(t.shape + (3,))
    a = np.zeros(t.shape + (3,))
    if spec.kind == "eight":
        a1, a2, a3 = spec.amp
        w1, w2, w3 = spec.freq
        p[..., 0] = a1 * np.cos(w1 * t)
        p[..., 1] = a2 * np.sin(w2 * t)
        p[..., 2] = a3 * np.sin(w3 * t)
        v[..., 0] = -a1 * w1 * np.sin(w1 * t)
        v[..., 1] = a2 * w2 * np.cos(w2 * t)
        v[..., 2] = a3 * w3 * np.cos(w3 * t)
        a[..., 0] = -a1 * w1 * w1 * np.cos(w1 * t)
        a[..., 1] = -a2 * w2 * w2 * np.sin(w2 * t)
        a[..., 2] = -a3 * w3 * w3 * np.sin(w3 * t)
    elif spec.kind == "constant-velocity":
        v[...] = spec.v0
        p[...] = spec.p0 + t[..., None] * v
    else:  # hover
        p[...] = spec.p0
    return p, v, a


def eval_omega(spec: TrajectorySpec, t) -> np.ndarray:
    """Body angular velocity at time(s) t, shaped as :func:`eval_trajectory`'s outputs."""
    t = np.asarray(t, dtype=float)
    amp = np.asarray(spec.omega_amp)
    frq = np.asarray(spec.omega_freq)
    phs = np.asarray(spec.omega_phase)
    return amp * np.sin(t[..., None] * frq + phs)


def synthesize_imu(p_ddot: np.ndarray, r: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Accelerometer output a_B = R.T (vdot - g), of each of a stack r (..., 3, 3), p_ddot (..., 3)."""
    return np.einsum("...ji,...j->...i", r, np.asarray(p_ddot, dtype=float) - np.asarray(g, dtype=float))


@dataclass
class TruthRun:
    """A truth trajectory sampled on the uniform grid t_k = k dt.

    ``R[k]`` is the attitude at t_k; the ``*_mid`` arrays hold the state
    and the IMU pair at the step midpoints t_k + dt/2 (the attitude there
    is the exact midpoint of the per-step rotation factor), so the
    estimator can integrate with the same input resolution as the truth.
    """

    spec: TrajectorySpec
    dt: float
    t: np.ndarray
    p: np.ndarray
    v: np.ndarray
    vdot: np.ndarray
    R: np.ndarray
    omega: np.ndarray
    aB: np.ndarray
    p_mid: np.ndarray = field(repr=False)
    v_mid: np.ndarray = field(repr=False)
    R_mid: np.ndarray = field(repr=False)
    omega_mid: np.ndarray = field(repr=False)
    aB_mid: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.t.size

    def state(self, k: int) -> TruthState:
        return TruthState(
            t=float(self.t[k]), p=self.p[k], v=self.v[k], vdot=self.vdot[k],
            R=self.R[k], omega=self.omega[k], aB=self.aB[k],
        )

    def stages(self, k0: int, k1: int):
        """(R, p, v, omega, aB) of steps k0 .. k1 - 1 as (step, row, ...)
        tables, rows the step start, midpoint and end, and the map of the
        four RK4 stages to those rows: the midpoint serves stages 2 and 3."""
        def table(grid, mid):
            return np.stack([grid[k0:k1], mid[k0:k1], grid[k0 + 1:k1 + 1]], axis=1)

        return (table(self.R, self.R_mid), table(self.p, self.p_mid), table(self.v, self.v_mid),
                table(self.omega, self.omega_mid), table(self.aB, self.aB_mid), (0, 1, 1, 2))


@dataclass
class CoupledTruth:
    """A truth advanced by its own RK4 flow on the grid t_k = k dt (see
    :func:`coupled_truth`). ``R``, ``p``, ``v`` hold the grid values and
    ``stage_tables`` the (R, p, v, omega, aB) values at the four RK4
    stages of every step, as (step, stage, ...)."""

    dt: float
    t: np.ndarray
    R: np.ndarray
    p: np.ndarray
    v: np.ndarray
    stage_tables: tuple = field(repr=False)

    def __len__(self) -> int:
        return self.t.size

    def stages(self, k0: int, k1: int):
        """The stage tables of steps k0 .. k1 - 1 (as :meth:`TruthRun.stages`);
        each RK4 stage has its own row."""
        return (*(a[k0:k1] for a in self.stage_tables), (0, 1, 2, 3))


def coupled_truth(spec: TrajectorySpec, duration: float, dt: float) -> CoupledTruth:
    """Truth integrated by RK4 on its own kinematics over [0, duration],
    keeping the four stage values of every step.

    An observer run on it evaluates the measurements and the IMU on the
    truth's own stage values, so truth and observer together are a single
    ODE discretized once; the extracted translational error then follows
    the closed-loop linear system to integration accuracy over its whole
    decay, which the equivalence and decoupling oracles compare against.
    The truth flow does not depend on the estimate, so it is taken first.
    """
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    n = int(round(duration / dt))
    h2, c6 = 0.5 * dt, dt / 6.0

    # body rates and accelerations at the stage times, as (step, stage) tables
    ts = np.arange(n + 1) * dt
    stage_ts = np.stack([ts[:-1], ts[:-1] + h2, ts[:-1] + h2, ts[1:]], axis=1)
    w_st, a_st = eval_omega(spec, stage_ts), eval_trajectory(spec, stage_ts)[2]
    r_st, p_st, v_st = np.empty((n, 4, 3, 3)), np.empty((n, 4, 3)), np.empty((n, 4, 3))
    r_t = spec.r0.copy()
    p_t, v_t, _ = eval_trajectory(spec, 0.0)
    for j, (wk, ak) in enumerate(zip(hat(w_st), a_st)):
        r_st[j, 0], p_st[j, 0], v_st[j, 0] = r_t, p_t, v_t
        dr = []
        for s, h in enumerate((h2, h2, dt)):
            dr.append(r_st[j, s] @ wk[s])
            r_st[j, s + 1] = r_t + h * dr[s]
            p_st[j, s + 1] = p_t + h * v_st[j, s]
            v_st[j, s + 1] = v_t + h * ak[s]
        dr.append(r_st[j, 3] @ wk[3])
        vs = v_st[j]
        r_t = project_rotation(r_t + c6 * (dr[0] + 2 * dr[1] + 2 * dr[2] + dr[3]))
        p_t = p_t + c6 * (vs[0] + 2 * vs[1] + 2 * vs[2] + vs[3])
        v_t = v_t + c6 * (ak[0] + 2 * ak[1] + 2 * ak[2] + ak[3])
    grid = (np.concatenate([st[:, 0], end[None]]) for st, end in ((r_st, r_t), (p_st, p_t), (v_st, v_t)))
    return CoupledTruth(dt, ts, *grid,
                        stage_tables=(r_st, p_st, v_st, w_st, synthesize_imu(a_st, r_st, spec.g)))


_EXP_CHUNK = 4096  # half-step exponentials built per batch in truth_attitude


def truth_attitude(spec: TrajectorySpec, n: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Truth attitude on the grid t_k = k dt (k = 0 .. n) and at the step
    midpoints, shaped (n + 1, 3, 3) and (n, 3, 3).

    Each step applies the half-step factor exp(dt/2 hat(omega(t_k + dt/2)))
    twice, R_mid[k] = R[k] E_k and R[k + 1] = R_mid[k] E_k; the factors are
    built in batches of ``_EXP_CHUNK`` steps.
    """
    rs = np.empty((n + 1, 3, 3))
    rs[0] = spec.r0
    r_mid = np.empty((n, 3, 3))
    for k0 in range(0, n, _EXP_CHUNK):
        k1 = min(k0 + _EXP_CHUNK, n)
        mid_omega = eval_omega(spec, np.arange(k0, k1) * dt + 0.5 * dt)
        half_steps = so3_exp(0.5 * dt * mid_omega)
        r = rs[k0]
        for half, r_m, r_next in zip(half_steps, r_mid[k0:k1], rs[k0 + 1:k1 + 1]):
            np.matmul(r, half, out=r_m)
            np.matmul(r_m, half, out=r_next)
            r = r_next
    return rs, r_mid


def simulate_truth(spec: TrajectorySpec, duration: float, dt: float = 1e-3) -> TruthRun:
    """Generate truth samples over [0, duration] at fixed step dt."""
    if duration <= 0 or dt <= 0:
        raise ValueError("duration and dt must be positive")
    n = int(round(duration / dt))
    ts = np.arange(n + 1) * dt
    p, v, a = eval_trajectory(spec, ts)

    rs, r_mid = truth_attitude(spec, n, dt)

    # state and IMU pair at the step midpoints t_k + dt/2
    t_mid = ts[:-1] + 0.5 * dt
    p_mid, v_mid, a_mid = eval_trajectory(spec, t_mid)

    return TruthRun(
        spec=spec, dt=dt, t=ts, p=p, v=v, vdot=a, R=rs, omega=eval_omega(spec, ts),
        aB=synthesize_imu(a, rs, spec.g), p_mid=p_mid, v_mid=v_mid, R_mid=r_mid,
        omega_mid=eval_omega(spec, t_mid), aB_mid=synthesize_imu(a_mid, r_mid, spec.g),
    )


def write_table(path, schema: str, header, rows) -> None:
    """Write a CSV table: a ``# schema`` line, the header, then the rows.
    Floats are written as ``.17g``, which reads back bit for bit, ints as
    they are and None as an empty field."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {schema}\n")
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows([f"{v:.17g}" if isinstance(v, float) else "" if v is None else v for v in row]
                    for row in rows)


def record_steps(n: int, stride: int) -> np.ndarray:
    """The steps of a run of n steps that its traces record: every stride-th and the last."""
    return np.append(np.arange(0, n, stride), n)


def write_truth_csv(run: TruthRun, path, stride: int = 1) -> None:
    """Truth trace at :func:`record_steps`: t, p[3], v[3], R row-major[9], omega[3], aB[3]."""
    write_table(path, TRUTH_CSV_SCHEMA,
                ["t", "px", "py", "pz", "vx", "vy", "vz"] + [f"R{i}{j}" for i in range(3) for j in range(3)]
                + ["wx", "wy", "wz", "ax", "ay", "az"],
                ([run.t[k], *run.p[k], *run.v[k], *run.R[k].reshape(-1), *run.omega[k], *run.aB[k]]
                 for k in record_steps(len(run) - 1, stride)))
