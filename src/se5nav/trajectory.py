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

from dataclasses import dataclass, field

import numpy as np

from .lie import hat, project_rotation, rk4, so3_exp

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
    """Extended translation block [p, v, e1, e2, e3] (3 x 5) of a position and a
    velocity, or of each of a stack of them; the e_i columns are the canonical basis."""
    out = np.zeros(np.shape(p)[:-1] + (3, 5))
    out[..., 0] = p
    out[..., 1] = v
    out[..., 2:] = np.eye(3)
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


def time_grid(duration: float, dt: float) -> np.ndarray:
    """The nodes k dt, k = 0 .. round(duration / dt), of a run or a window."""
    if not (duration > 0 and dt > 0):
        raise ValueError(f"duration {duration:g} and step dt {dt:g} must be positive")
    return np.arange(int(round(duration / dt)) + 1) * dt


def signals(spec: TrajectorySpec, t, r) -> tuple[np.ndarray, ...]:
    """The closed-form signals (p, v, vdot, omega, aB) at times t, of any
    shape, and the attitudes r there, t.shape + (3, 3)."""
    p, v, a = eval_trajectory(spec, t)
    return p, v, a, eval_omega(spec, t), synthesize_imu(a, r, spec.g)


@dataclass
class TruthRun:
    """A truth trajectory sampled on the uniform grid t_k = k dt.

    It stores only what :func:`signals` cannot give, the integrated attitude
    ``R`` on the grid and ``R_mid`` at the step midpoints t_k + dt/2 (the
    exact midpoint of the per-step rotation factor), the rows of
    :func:`truth_attitude`, built on demand in segments of whole scan blocks
    (each at least ``_EXP_CHUNK`` steps and all earlier ones long):
    :meth:`pose` and :meth:`stages` build as far as they read, ``R`` and
    ``R_mid`` the whole horizon, with the same bits in any order. p, v and
    the other signals are evaluated where they are read.
    """

    spec: TrajectorySpec
    dt: float
    t: np.ndarray

    def __post_init__(self):
        self._r, self._r_mid, self._built = np.empty((self.t.size, 3, 3)), np.empty((self.t.size - 1, 3, 3)), 0
        self._r[0] = self.spec.r0

    def _build(self, k: int) -> "TruthRun":
        """Build the attitude up to grid row k, if not built yet."""
        if k > (k0 := self._built):
            k1 = min(max(-(-k // _SCAN_BLOCK) * _SCAN_BLOCK, 2 * k0, _EXP_CHUNK), len(self._r_mid))
            r_mid = self._r_mid[k0:k1]
            walk_blocks(block_starts(self.spec, self.dt, k0, self._r[k0], r_mid), r_mid, self._r[k0:k1 + 1])
            self._built = k1
        return self

    @property
    def R(self) -> np.ndarray:
        return self._build(len(self._r_mid))._r

    @property
    def R_mid(self) -> np.ndarray:
        return self._build(len(self._r_mid))._r_mid

    def __len__(self) -> int:
        return self.t.size

    def pose(self, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(R, p, v) at grid step k, or at each of an array of steps, negative ones counted from the end
        as NumPy indexing does; p and v from :func:`eval_trajectory`."""
        t, k = self.t[k], np.mod(k, len(self))  # t[k] raises for a step out of range
        return self._build(int(np.max(k, initial=0)))._r[k], *eval_trajectory(self.spec, t)[:2]

    def state(self, k: int) -> TruthState:
        p, v, vdot, omega, ab = signals(self.spec, self.t[k], r := self.pose(k)[0])
        return TruthState(t=float(self.t[k]), p=p, v=v, vdot=vdot, R=r, omega=omega, aB=ab)

    def stages(self, k0: int, k1: int):
        """(R, p, v, omega, aB) at the four RK4 stages of steps k0 .. k1 - 1, as (step, stage, ...):
        the start, the midpoint twice, and the end."""
        self._build(k1)
        mid, r_mid = self.t[k0:k1] + 0.5 * self.dt, self._r_mid[k0:k1]
        ts = np.stack([self.t[k0:k1], mid, mid, self.t[k0 + 1:k1 + 1]], axis=1)
        rs = np.stack([self._r[k0:k1], r_mid, r_mid, self._r[k0 + 1:k1 + 1]], axis=1)
        p, v, _, omega, ab = signals(self.spec, ts, rs)
        return rs, p, v, omega, ab


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

    def pose(self, k) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.R[k], self.p[k], self.v[k]

    def stages(self, k0: int, k1: int):
        """The stage tables of steps k0 .. k1 - 1 (as :meth:`TruthRun.stages`)."""
        return tuple(a[k0:k1] for a in self.stage_tables)


def coupled_truth(spec: TrajectorySpec, duration: float, dt: float) -> CoupledTruth:
    """Truth integrated by :func:`~se5nav.lie.rk4` on its own kinematics
    over [0, duration], keeping the four stage values of every step.

    The state is [R | p | v] (3 x 5), of field [R hat(omega) | v | a], its rotation block projected
    after each step; R, p, v and their stage tables view the grid (n + 1, 3, 5) and stages (n, 4, 3, 5).

    An observer run on it evaluates the measurements and the IMU on the
    truth's own stage values, so truth and observer together are a single
    ODE discretized once; the extracted translational error then follows
    the closed-loop linear system to integration accuracy over its whole
    decay, which the equivalence and decoupling oracles compare against.
    The truth flow does not depend on the estimate, so it is taken first.
    """
    ts = time_grid(duration, dt)
    n, h2 = ts.size - 1, 0.5 * dt

    # body rates and accelerations at the stage times, as (step, stage) tables
    stage_ts = np.stack([ts[:-1], ts[:-1] + h2, ts[:-1] + h2, ts[1:]], axis=1)
    w_st, a_st = eval_omega(spec, stage_ts), eval_trajectory(spec, stage_ts)[2]
    grid, st = np.empty((n + 1, 3, 5)), np.empty((n, 4, 3, 5))
    grid[0, :, :3], grid[0, :, 3], grid[0, :, 4] = spec.r0, *eval_trajectory(spec, 0.0)[:2]
    for y, y1, y_st, wk, ak in zip(grid, grid[1:], st, hat(w_st), a_st[..., None]):
        y1[:], y_st[:] = rk4(lambda x, s: np.concatenate([x[:, :3] @ wk[s], x[:, 4:], ak[s]], axis=1), y, dt)
        y1[:, :3] = project_rotation(y1[:, :3])
    return CoupledTruth(dt, ts, grid[..., :3], grid[..., 3], grid[..., 4],
                        stage_tables=(st[..., :3], st[..., 3], st[..., 4], w_st,
                                      synthesize_imu(a_st, st[..., :3], spec.g)))


_EXP_CHUNK = 4096  # half-step exponentials built per batch in block_starts
_SCAN_BLOCK = 256  # steps per block of the truth attitude scan; fixed, so R[k] does not depend on n


def block_starts(spec: TrajectorySpec, dt: float, k0: int, start: np.ndarray, halves: np.ndarray) -> np.ndarray:
    """The block starts R[k0 + bL], b = 0 .. m // L, of the :func:`truth_attitude`
    scan over the m steps from k0 (a multiple of L), chained from R[k0] = start;
    fills halves (m, 3, 3) with the factors E_k, ``_EXP_CHUNK`` at a time."""
    m, size = len(halves), _SCAN_BLOCK
    for c0 in range(0, m, _EXP_CHUNK):
        c1 = min(c0 + _EXP_CHUNK, m)
        halves[c0:c1] = so3_exp(0.5 * dt * eval_omega(spec, np.arange(k0 + c0, k0 + c1) * dt + 0.5 * dt))
    blocks = np.eye(3)
    for j in range(size):
        half = halves[j:m // size * size:size]
        blocks = blocks @ half @ half
    starts = np.empty((len(blocks) + 1, 3, 3))
    starts[0] = start
    for b, block in enumerate(blocks):
        np.matmul(starts[b], block, out=starts[b + 1])
    return starts


def walk_blocks(starts: np.ndarray, halves: np.ndarray, rs: np.ndarray) -> None:
    """Walk scan blocks from their starts, batched over blocks: halves (m, 3, 3)
    holds their factors back to back, all blocks whole but the last, and gets
    R_mid; rs (m + 1 rows, or m) gets the starts at rows bL and R elsewhere."""
    size = _SCAN_BLOCK
    rs[::size] = r = starts
    for j in range(min(size, len(halves))):
        half = halves[j::size]  # step j of every block that has one: a leading run of blocks
        mid = r[:len(half)] @ half
        r = mid @ half
        halves[j::size] = mid
        if j < size - 1:  # a block's end keeps its chained start
            rs[j + 1::size] = r


def truth_attitude(spec: TrajectorySpec, n: int, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Truth attitude on the grid t_k = k dt (k = 0 .. n) and at the step
    midpoints, shaped (n + 1, 3, 3) and (n, 3, 3).

    Each step applies the half-step factor E_k = exp(dt/2 hat(omega(t_k + dt/2)))
    twice, in a blocked scan over blocks of L = ``_SCAN_BLOCK`` steps:
    :func:`block_starts` forms the product T_b of each full block, (T E_j) E_j
    from T = I, and chains the starts R[bL] = R[(b - 1)L] T_{b-1}, then
    :func:`walk_blocks` runs every block from its start. Bit for bit,
    R_mid[k] = R[k] E_k, R[k + 1] = R_mid[k] E_k where L does not divide k + 1,
    and R[k] depends neither on n nor on which other blocks are walked; R
    differs from the step-by-step product at rounding level.
    """
    rs, r_mid = np.empty((n + 1, 3, 3)), np.empty((n, 3, 3))
    walk_blocks(block_starts(spec, dt, 0, spec.r0, r_mid), r_mid, rs)
    return rs, r_mid


def attitude_at(spec: TrajectorySpec, n: int, dt: float):
    """R[k] of :func:`truth_attitude` bit for bit, as a function of steps k in
    0 .. n of any shape: the block starts are chained once, and a call walks
    only the blocks that hold its steps and that no call walked before."""
    size = _SCAN_BLOCK
    rows = np.empty((n // size + 1, size, 3, 3))  # whole blocks out past step n: E_k, then R once walked
    starts = block_starts(spec, dt, 0, spec.r0, rows.reshape(-1, 3, 3))
    walked = np.zeros(len(rows), dtype=bool)

    def at(k):
        new = np.unique(k // size)
        new = new[~walked[new]]
        if new.size:
            rs = np.empty((new.size, size, 3, 3))
            walk_blocks(starts[new], rows[new].reshape(-1, 3, 3), rs.reshape(-1, 3, 3))
            rows[new], walked[new] = rs, True
        return rows[k // size, k % size]

    return at


def simulate_truth(spec: TrajectorySpec, duration: float, dt: float = 1e-3) -> TruthRun:
    """The truth over [0, duration] at fixed step dt: its grid, its attitude built as it is read."""
    return TruthRun(spec, dt, time_grid(duration, dt))


def write_table(path, schema: str, header, rows) -> None:
    """Write a CSV table: a ``# schema`` line, the header, then the rows,
    with the bytes the ``csv`` module's default dialect writes (``\\r\\n``
    line ends). Floats are written as ``.17g``, which reads back bit for
    bit, ints as they are and None as an empty field, each row by one ``%``
    format per pattern of value types, of which a table has one or a few."""
    formats = {}  # a row's value types -> its format

    def line(row):
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:  # %.0s consumes None and writes nothing
            fmt = formats[types] = ",".join("%.0s" if tp is type(None) else "%.17g" if issubclass(tp, float)
                                            else "%d" for tp in types) + "\r\n"
        return fmt % tuple(row)

    with open(path, "w", newline="") as fh:
        fh.write(f"# {schema}\n" + ",".join(header) + "\r\n")
        fh.writelines(map(line, rows))


def record_steps(n: int, stride: int) -> np.ndarray:
    """The steps of a run of n steps that its traces record, as int64:
    every stride-th and the last. A stride beyond n records the same steps
    as n does, the first and the last."""
    return np.append(np.arange(0, n, min(stride, max(n, 1))), n)


def write_truth_csv(spec: TrajectorySpec, t, r, path) -> None:
    """Truth trace at times t with the attitudes r there, such as a trace's ``t`` and ``truth_r``:
    t, p[3], v[3], R row-major[9], omega[3], aB[3], the others from :func:`signals`."""
    p, v, _, omega, ab = signals(spec, t, r)
    write_table(path, TRUTH_CSV_SCHEMA,
                ["t", "px", "py", "pz", "vx", "vy", "vz"] + [f"R{i}{j}" for i in range(3) for j in range(3)]
                + ["wx", "wy", "wz", "ax", "ay", "az"],
                np.column_stack([t, p, v, r.reshape(-1, 9), omega, ab]).tolist())
