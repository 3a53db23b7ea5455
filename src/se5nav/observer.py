"""Geometric navigation observer on SE_5(3) with Riccati-tuned gains.

The estimator carries Xhat = T_5(Rhat, [phat, vhat, ehat_1..3]) and the
Riccati matrix P of its translational error. The observer is

    dXhat/dt = Xhat U + [Xhat, D] + Delta Xhat
    dP/dt    = A P + P A^T - P C^T Q C P + V

with A = Abar kron I_3 - I_5 kron hat(omega) and C = R_s kron I_3, where
R_s stacks the channels' reference vectors r_i^T as rows. With the
weights this package uses, Q = qI and V = vI, and a start P(0) = Pi(0)
kron I_3 (p0 * I_15), the gyro terms cancel in A P + P A^T and the flow
keeps the form P = Pi kron I_3, with the 5 x 5 factor

    dPi/dt = Abar Pi + Pi Abar^T - q Pi R_s^T R_s Pi + v I_5,

which does not depend on the estimate (Barrau & Bonnabel, "The Invariant
Extended Kalman Filter as a Stable Observer", IEEE TAC 2017). The
observer's state is (Rhat, zhat, Pi), and P is derived from Pi. One
driver, ``scenario.run_observer``, steps the observer: for a chunk of
steps it hands the raw stage samples (IMU, processed outputs, reference
vectors) to :func:`_riccati_pass`, which integrates Pi over the chunk,
checks it positive definite and turns it into gains; the estimate then
takes its RK4 steps on those gains (:func:`_rk4_observer`), and
:func:`_finalize_step` re-projects the rotation block of each finite run
onto SO(3). The innovation Delta has rotation part hat(delta_r) built
from the auxiliary basis columns and translation part K_I dz folded back
into a 3 x 5 block, q Rhat ((Pi R_s^T)(dz Rhat))^T for the innovation
rows dz.

The translational error x_B = vec(R^T (z - Rtilde zhat)) of this observer
follows the linear time-varying closed loop

    dx_B/dt = (A(t) - K_B(t) C(t)) x_B,     K_B = P C^T Q,

independently of the attitude error. The tests integrate that system
directly, with the generic 15 x 15 Riccati flow (``tests/oracles.py``), as
the oracle for the full observer, as :func:`build_a` and the oracles'
``gain`` serve for its parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import SEn, hat, kron, project_rotation, rk4, rotation_angle

_I3 = np.eye(3)
_EYE5 = np.eye(5)

ESTIMATE_CSV_SCHEMA = "se5nav-estimate-v1"


class DivergenceError(RuntimeError):
    """Numerical failure of a run; carries its last healthy state."""

    def __init__(self, message: str, state: "ObserverState | None" = None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class ObserverConfig:
    """Gains and weights. q and v scale identity weight matrices."""

    rho: tuple[float, float, float] = (10.0, 6.0, 4.0)
    q: float = 100.0
    v: float = 10.0
    dt: float = 1e-3

    def __post_init__(self):
        if not all(r > 0 for r in self.rho) or len(set(self.rho)) != 3:
            raise ValueError("rho must be three positive, pairwise distinct scalars")
        if not (self.q > 0 and self.v > 0):
            raise ValueError("q and v weights must be positive")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")


@dataclass(frozen=True)
class ObserverState:
    """Estimate Xhat on SE_5(3) and the 5 x 5 factor Pi of its Riccati matrix P = Pi kron I_3 at time t:
    the final state of a run, as :func:`_state` builds it."""

    xhat: SEn
    pi: np.ndarray
    t: float

    @property
    def P(self) -> np.ndarray:
        """The 15 x 15 Riccati matrix Pi kron I_3."""
        return kron(self.pi, _I3)

    @property
    def rhat(self) -> np.ndarray:
        return self.xhat.rotation

    @property
    def zhat(self) -> np.ndarray:
        return self.xhat.translation

    @property
    def phat(self) -> np.ndarray:
        return self.xhat.translation[:, 0]

    @property
    def vhat(self) -> np.ndarray:
        return self.xhat.translation[:, 1]

    @property
    def ehat(self) -> np.ndarray:
        return self.xhat.translation[:, 2:5]


# system matrices ----------------------------------------------------------

def build_abar(g: np.ndarray) -> np.ndarray:
    """5 x 5 drift matrix of the extended translation block."""
    abar = np.zeros((5, 5))
    abar[0, 1] = 1.0
    abar[1, 2:] = np.asarray(g, dtype=float)
    return abar


def build_a(omega: np.ndarray, g: np.ndarray) -> np.ndarray:
    """15 x 15 error-dynamics matrix Abar kron I_3 - I_5 kron hat(omega)."""
    a = build_abar(g)[:, None, :, None] * _I3[:, None] - _EYE5[:, None, :, None] * hat(omega)[:, None]
    return a.reshape(15, 15)


# integration core ----------------------------------------------------------

def _observer_rhs(x, fg, half_rho):
    """Vector field of a batch of estimates X = [Rhat, zhat] (B x 3 x 8) at
    one stage, with that stage's flow F and gain G = q cross Pi side by side
    in fg = [F | G] (8 x 13), and rho / 2.

    dX = X F + hat(delta_r) X - (Rhat Rhat^T) X G, the last term only in
    the zhat columns: it is the gain K_I applied to the innovations
    dz_i = -X y_bold_i, folded to 3 x 5, that is
    q Rhat ((Pi R_s^T)(dz Rhat))^T with dz stacked as rows.
    """
    rhat = x[..., :3]
    m = x[..., 5:] * half_rho
    xfg = x @ fg
    dx = xfg[..., :8] + (m.mT - m) @ x  # m^T - m = hat(delta_r(ehat, rho))
    dx[..., 3:] -= (rhat @ rhat.mT) @ xfg[..., 8:]
    return dx


def _rk4_observer(x, fg, dt: float, half_rho):
    """One :func:`~se5nav.lie.rk4` step of the estimate over the [F | G] of
    the four RK4 stages: the step start, the midpoint twice, and the end. A
    sampled truth repeats its midpoint; the coupled oracle has its own four
    stages. Returns the raw X; the caller projects and checks."""
    return rk4(lambda y, s: _observer_rhs(y, fg[s], half_rho), x, dt)[0]


def _riccati_pass(pi, stages, t, cfg: ObserverConfig, abar):
    """:func:`~se5nav.lie.rk4` steps of dPi = T Pi + Pi T^T + v I_5 with
    T = Abar - (q/2) Pi info, that is Abar Pi + Pi Abar^T - q Pi R_s^T R_s Pi + v I_5,
    each symmetrized, the steps starting at times `t`.

    `stages` is (omega, accel, ys, rs): the IMU samples (step, stage, 3), the processed outputs
    ys (step, stage, m, 3) and their reference vectors rs (step, stage, m, 5) at the four RK4
    stages of each step, as a truth's ``stages`` gives them. With the estimate's top block rows
    X = [Rhat, zhat] (3 x 8) and the stacked y_bold rows Y = [ys, rs] (m x 8), a stage has

        F     = hat(omega) and accel in column 4, Abar^T below   (8 x 8)
        cross = Y^T rs,     info = rs^T rs                       (8 x 5, 5 x 5)

    Returns (pis, fg, failure): Pi at the start and end of each step, the
    estimate's [F | G] with G = q cross Pi on each step's stages, and None
    or, when one batched Cholesky finds a step's Pi non-finite or not
    positive definite, the reason that step fails; the pass then ends there.
    """
    omega, accel, ys, rs = stages
    q, hq, dt, veye = cfg.q, 0.5 * cfg.q, cfg.dt, cfg.v * _EYE5
    flow = np.zeros(omega.shape[:-1] + (8, 8))
    flow[..., :3, :3] = hat(omega)
    flow[..., :3, 4] = accel
    flow[..., 3:, 3:] = abar.T
    cross = np.concatenate([ys, rs], axis=-1).mT @ rs
    info = rs.mT @ rs
    stage = np.empty((len(info), 4, 5, 5))  # Pi at the four RK4 stages of each step

    def rhs(p, info):
        tp = (abar - hq * (p @ info)) @ p
        return tp + tp.T + veye

    for st, inf in zip(stage, info):
        pi, st[:] = rk4(lambda p, s: rhs(p, inf[s]), pi, dt)
        pi = 0.5 * (pi + pi.T)
    pis = np.concatenate([stage[:, 0], pi[None]])
    healthy, failure = _check_pd(pis[1:], t)
    n = min(healthy + 1, len(stage))  # the failing step runs, so that the estimate's own check comes first
    fg = np.concatenate([flow[:n], q * (cross[:n] @ stage[:n])], axis=-1)
    return pis[:n + 1], fg, failure


def _check_pd(pi: np.ndarray, t) -> tuple[int, str | None]:
    """The number of leading finite, positive definite matrices of the stack
    pi (n x 5 x 5), by one batched Cholesky, and the reason the next one
    fails, if any, at its time in `t`."""
    finite = np.isfinite(pi).all(axis=(-2, -1))
    if finite.all():
        try:
            np.linalg.cholesky(pi)
            return len(pi), None
        except np.linalg.LinAlgError:
            pass
    for j, p in enumerate(pi):
        try:
            if not finite[j]:
                return j, f"non-finite Riccati matrix at t={t[j]:.4f}"
            np.linalg.cholesky(p)
        except np.linalg.LinAlgError:
            return j, (f"Riccati matrix lost positive definiteness at t={t[j]:.4f} (min eig "
                       f"{np.linalg.eigvalsh(p)[0]:.3e}); reduce dt or check observability")
    return len(pi), None


def _finalize_step(x):
    """Projects the rotation block of each finite row of a batch X (B x 3 x 8)
    in place, whose shared step-end Pi the Riccati pass has checked; returns
    None when every row is finite, else which rows are."""
    if np.isfinite(x).all():
        x[..., :3] = project_rotation(x[..., :3])
        return None
    finite = np.isfinite(x).all(axis=(-2, -1))
    x[finite, :, :3] = project_rotation(x[finite, :, :3])
    return finite


def _state(x: np.ndarray, pi: np.ndarray, t) -> ObserverState:
    """ObserverState of one X = [Rhat, zhat] (3 x 8) and Pi; no other code builds one."""
    return ObserverState(xhat=SEn(x[:, :3], x[:, 3:], check=False), pi=pi, t=float(t))


# diagnostics --------------------------------------------------------------

@dataclass(frozen=True)
class ErrorReport:
    """Right-invariant errors of an estimate against a truth sample."""

    rtilde: np.ndarray
    angle: float | np.ndarray
    ztilde: np.ndarray
    x_body: np.ndarray
    column_norms: np.ndarray  # [p, v, e1, e2, e3] error norms


def error_arrays(truth_r, truth_z, rhat, zhat) -> ErrorReport:
    """Errors of an estimate (rhat 3 x 3, zhat 3 x 5) or of each of a stack
    of them against one truth (truth_r 3 x 3, truth_z 3 x 5) or against the
    truth of each, stacked alike; the report's fields are stacked alike."""
    rtilde = truth_r @ rhat.mT
    ztilde = truth_z - rtilde @ zhat
    x_body = (truth_r.mT @ ztilde).mT.reshape(ztilde.shape[:-2] + (15,))  # vec
    return ErrorReport(
        rtilde=rtilde,
        angle=rotation_angle(rtilde),
        ztilde=ztilde,
        x_body=x_body,
        column_norms=np.linalg.norm(ztilde, axis=-2),
    )
