"""Generic output channels and IMU corruption.

Four output kinds are supported, matching the measurement families the
observer can fuse:

    body_vector        y = R.T (xi - gamma p)   landmark (gamma=1) or
                                                known inertial direction
                                                such as a magnetometer
                                                (gamma=0)
    inertial_position  y = p + R b              e.g. GPS antenna with lever
                                                arm b
    inertial_velocity  y = v
    body_velocity      y = R.T v                e.g. Doppler / airspeed

Noise follows the Simulink "noise power" convention: the configured value
is a one-sided PSD and the per-sample standard deviation is
sqrt(power * rate) at the effective rate 1 / (stride * dt) of the samples
(see :class:`ChannelSpec`; the IMU's is 1 / dt). Every channel draws from
its own child stream of the master seed, so scenario runs are deterministic
and replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

MEASUREMENT_CSV_SCHEMA = "se5nav-measurements-v1"


class ChannelKind(Enum):
    BODY_VECTOR = "body_vector"
    INERTIAL_POSITION = "inertial_position"
    INERTIAL_VELOCITY = "inertial_velocity"
    BODY_VELOCITY = "body_velocity"


_KIND_ALIASES = {
    "body_vector": ChannelKind.BODY_VECTOR,
    "landmark": ChannelKind.BODY_VECTOR,
    "inertial_position": ChannelKind.INERTIAL_POSITION,
    "gps_position": ChannelKind.INERTIAL_POSITION,
    "inertial_velocity": ChannelKind.INERTIAL_VELOCITY,
    "body_velocity": ChannelKind.BODY_VELOCITY,
}


def parse_channel_kind(name: str) -> ChannelKind:
    try:
        return _KIND_ALIASES[name.strip().lower()]
    except KeyError:
        raise ValueError(f"unknown channel kind {name!r}") from None


@dataclass(frozen=True)
class ChannelSpec:
    kind: ChannelKind
    xi: tuple[float, float, float] = (0.0, 0.0, 0.0)   # body_vector reference point / direction
    gamma: int = 1                                      # body_vector only, 0 or 1
    b: tuple[float, float, float] = (0.0, 0.0, 0.0)     # inertial_position lever arm
    noise_power: float = 0.0                            # one-sided PSD, unit^2 s
    # Hz, None for the simulation rate 1 / dt; sampled every stride = max(1, round(1 / (rate dt))) steps, at
    # 1 / (stride dt): 300 Hz at dt = 1e-3 samples at 333.3 Hz, and a rate above 1 / dt at 1 / dt
    rate: float | None = None

    def __post_init__(self):
        if self.gamma not in (0, 1):
            raise ValueError("gamma must be 0 or 1")
        if not self.noise_power >= 0:
            raise ValueError("noise_power must be nonnegative")
        if self.rate is not None and not self.rate > 0:
            raise ValueError("rate must be positive")

    @property
    def xi_vec(self) -> np.ndarray:
        return np.asarray(self.xi, dtype=float)

    @property
    def b_vec(self) -> np.ndarray:
        return np.asarray(self.b, dtype=float)


def value_from_pose(channel: ChannelSpec, r: np.ndarray, p: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The channel's defining identity evaluated at a pose (R, p, v).

    Poses may carry leading batch dimensions, r (..., 3, 3) with p and v
    (..., 3); the result is then (..., 3).
    """
    if channel.kind is ChannelKind.BODY_VECTOR:
        return ((channel.xi_vec - channel.gamma * p)[..., None, :] @ r)[..., 0, :]
    if channel.kind is ChannelKind.INERTIAL_POSITION:
        return p + channel.b_vec @ np.swapaxes(r, -1, -2)
    if channel.kind is ChannelKind.INERTIAL_VELOCITY:
        return np.array(v, dtype=float)
    return (v[..., None, :] @ r)[..., 0, :]


def corrupt_imu(
    omega: np.ndarray,
    accel: np.ndarray,
    std: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Additive white Gaussian noise of standard deviation `std` per axis,
    on the gyro and the accelerometer alike (sqrt(power / dt), one draw per step).

    Accepts a single (3,) sample, a stack of stage samples (S, 3), or the
    stage samples of consecutive steps (..., S, 3). Each step takes one
    gyro draw and then one accel draw, applied to all of its stage rows
    (the zero-order hold of the noise over the integration step); steps
    draw in order, so a stack of K steps consumes the stream exactly as K
    single-step calls do.
    """
    omega = np.asarray(omega, dtype=float)
    accel = np.asarray(accel, dtype=float)
    noise = std * rng.standard_normal(omega.shape[:-2] + (2, 3))
    wn, an = noise[..., 0, :], noise[..., 1, :]
    if omega.ndim > 1:
        wn, an = wn[..., None, :], an[..., None, :]
    return omega + wn, accel + an


_MAX_STRIDE = 1 << 62  # steps between a channel's samples, at most


@dataclass
class ChannelSampler:
    """Drives one channel at its own rate with zero-order hold in between.

    A channel sampling at the simulation rate delivers its value at the
    truth's stage rows with one noise draw per step; a decimated channel
    delivers one sample per epoch (every step k with k % stride == 0, and
    the first step it is polled at), taken at the epoch's start and held
    across steps and stages. A stride is capped at ``_MAX_STRIDE``, beyond
    any step index, so a rate that low updates at the first poll only.
    """

    spec: ChannelSpec
    sim_dt: float
    rng: np.random.Generator | None
    _stride: int = field(init=False)
    _held: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self):
        rate = self.spec.rate if self.spec.rate is not None else 1.0 / self.sim_dt
        per_step = rate * self.sim_dt
        self._stride = max(1, int(round(1.0 / per_step))) if per_step > 1.0 / _MAX_STRIDE else _MAX_STRIDE

    @property
    def stride(self) -> int:
        return self._stride

    @property
    def effective_rate(self) -> float:
        return 1.0 / (self._stride * self.sim_dt)

    def noise(self, count: int) -> np.ndarray | None:
        """`count` consecutive draws as (count, 3), scaled to the effective rate."""
        if self.rng is None or self.spec.noise_power <= 0:
            return None
        return np.sqrt(self.spec.noise_power * self.effective_rate) * self.rng.standard_normal((count, 3))

    def sample(self, k0: int, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Delivered values for the steps k0, k0 + 1, ... of a run.

        `values` holds the noiseless channel values at the stage times of
        those steps, (K, S, 3) as (step, stage, axis). Returns the
        delivered (K, S, 3) values and the (K,) mask of steps at which a
        new sample arrived. Steps must be passed in order, without gaps.
        """
        count = len(values)
        if self._stride == 1:
            noise = self.noise(count)
            out = values if noise is None else values + noise[:, None, :]
            return out, np.ones(count, dtype=bool)
        updated = (k0 + np.arange(count)) % self._stride == 0
        if self._held is None:
            updated[0] = True
        fresh = values[updated, 0]
        noise = self.noise(len(fresh))
        if noise is not None:
            fresh = fresh + noise
        prior = fresh[:1] if self._held is None else self._held[None, :]
        held = np.concatenate([prior, fresh])[np.cumsum(updated)]
        self._held = held[-1]
        return np.repeat(held[:, None, :], values.shape[1], axis=1), updated

    def poll_stages(self, k: int, truth) -> tuple[np.ndarray, bool]:
        """Values at the stage rows of step k of a truth (see
        :meth:`TruthRun.stages`), (S, 3). Returns (values, updated)."""
        out, updated = self.sample(k, value_from_pose(self.spec, *truth.stages(k, k + 1)[:3]))
        return out[0], bool(updated[0])


def spawn_channel_rngs(master_seed: int, n_channels: int) -> tuple[np.random.Generator, list[np.random.Generator]]:
    """Independent streams: one for the IMU, one per channel."""
    seq = np.random.SeedSequence(master_seed)
    children = seq.spawn(n_channels + 1)
    return np.random.default_rng(children[0]), [np.random.default_rng(c) for c in children[1:]]
