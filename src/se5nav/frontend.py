"""Reformulation of raw measurements into the unified right-invariant form.

Each channel's sample is mapped to a reference vector r in R^5 and a
processed 3-vector y such that, stacking y_bold = [y; r] and
r_bold = [0_3; r], the noiseless truth satisfies

    y_bold = X^{-1} r_bold

for the extended state X in SE_5(3). With that, the innovation
dy_i = r_bold_i - Xhat y_bold_i is computable from measured data alone,
and the stacked output matrix C(t) (rows r_i^T kron I_3) makes the
translational error dynamics linear.

Reference vectors per kind (xi, b known channel constants; eta the raw
sample, from the measurement model :func:`se5nav.sensors.value_from_pose`),
written once, in :class:`UnifiedLayout`:

    body_vector        y = eta            r = [gamma, 0, -xi^T]
    inertial_position  y = b              r = [1, 0, -eta^T]
    inertial_velocity  y = 0              r = [0, 1, -eta^T]
    body_velocity      y = eta            r = [0, -1, 0, 0, 0]

The position/velocity reference vectors are rebuilt from the latest sample
at every measurement epoch (time-varying r), noisy as measured.
"""

from __future__ import annotations

import numpy as np

from .sensors import ChannelKind, ChannelSpec, value_from_pose

_I3 = np.eye(3)


def output_matrix(rs: np.ndarray) -> np.ndarray:
    """C(t) = R_s kron I_3, shape (3m, 15), of stacked reference vectors
    R_s (m, 5); ValueError when there are none."""
    if len(rs) == 0:
        raise ValueError("at least one output channel is required")
    return fast_output_matrix(rs)


def fast_output_matrix(rs: np.ndarray) -> np.ndarray:
    """Output matrix R_s kron I_3 from stacked reference vectors R_s (m, 5)."""
    m = rs.shape[0]
    return np.einsum("ij,ab->iajb", rs, _I3).reshape(3 * m, 15)


class UnifiedLayout:
    """Batch mapping from raw channel samples to (y, r) stacks.

    The one place the (y, r) rule of each channel kind is written: y and r
    are a constant per-channel base, with the raw sample copied into y or,
    negated, into the tail of r. The integration loop refreshes the stacks
    from an (m, 3) array of raw samples in O(1) numpy calls.
    """

    def __init__(self, channels: list[ChannelSpec]):
        m = len(channels)
        self.channels = list(channels)
        self.y_base = np.zeros((m, 3))
        self.r_base = np.zeros((m, 5))
        y_raw, r_raw = [], []   # y copies the raw sample; r carries -raw in its tail
        for i, ch in enumerate(channels):
            if ch.kind is ChannelKind.BODY_VECTOR:
                self.r_base[i] = np.concatenate([[float(ch.gamma), 0.0], -ch.xi_vec])
                y_raw.append(i)
            elif ch.kind is ChannelKind.INERTIAL_POSITION:
                self.y_base[i] = ch.b_vec
                self.r_base[i, 0] = 1.0
                r_raw.append(i)
            elif ch.kind is ChannelKind.INERTIAL_VELOCITY:
                self.r_base[i, 1] = 1.0
                r_raw.append(i)
            else:
                self.r_base[i, 1] = -1.0
                y_raw.append(i)
        self._y_raw_idx = np.array(y_raw, dtype=int)
        self._r_raw_idx = np.array(r_raw, dtype=int)
        self.constant_r = not r_raw
        self._c_cache = fast_output_matrix(self.r_base) if self.constant_r else None

    def stacks(self, raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(ys, rs) from raw samples (..., m, 3): shapes (..., m, 3) and
        (..., m, 5), one pair per leading index (stage, step)."""
        ys = np.empty(raw.shape)
        ys[...] = self.y_base
        ys[..., self._y_raw_idx, :] = raw[..., self._y_raw_idx, :]
        rs = np.empty(raw.shape[:-1] + (5,))
        rs[...] = self.r_base
        rs[..., self._r_raw_idx, 2:] = -raw[..., self._r_raw_idx, :]
        return ys, rs

    def c_matrix(self, rs: np.ndarray) -> np.ndarray:
        if self._c_cache is not None:
            return self._c_cache
        return fast_output_matrix(rs)

    def raw_from_pose(self, r: np.ndarray, p: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Noiseless raw samples for every channel at a pose, (m, 3): the
        measurement model :func:`value_from_pose` of each channel.

        Poses may carry leading batch dimensions, r (..., 3, 3) with p and
        v (..., 3); the result is then (..., m, 3).
        """
        if not self.channels:
            return np.empty(p.shape[:-1] + (0, 3))
        return np.stack([value_from_pose(ch, r, p, v) for ch in self.channels], axis=-2)
