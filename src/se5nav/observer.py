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
Extended Kalman Filter as a Stable Observer", IEEE TAC 2017) and which
Pi = V U^-1 solves where d[U; V]/dt = [[-Abar^T, q R_s^T R_s], [v I_5,
Abar]] [U; V] (Davison & Maki, IEEE TAC 18(1), 1973), a linear flow. The
observer's state is (Rhat, zhat, Pi), and P is derived from Pi. The
innovation Delta has rotation part hat(delta_r) built from the auxiliary
basis columns and translation part K_I dz folded back into a 3 x 5 block,
q Rhat ((Pi R_s^T)(dz Rhat))^T for the innovation rows dz. With
Rhat Rhat^T = I, which the step keeps (below), everything but
hat(delta_r) Xhat is linear in Xhat from the right, Xhat A(t), and A does
not depend on the estimate.

One driver, ``scenario.run_observer``, steps the observer: for a chunk of
steps it hands the raw stage samples (IMU, processed outputs, reference
vectors) to :func:`_riccati_pass`, which steps [U; V] over the chunk,
checks Pi positive definite and forms each step's right factor M_k, the
RK4 transition of A over the step with a rotation as its rotation block.
A step of the estimate (:func:`_rk4_observer`) is a Lie-Trotter split of
the two parts (Hairer, Lubich & Wanner, "Geometric Numerical Integration",
2006, II.5 and IV.8): the rotation exp(dt hat(delta_r)) on the left, then
M_k on the right, so Rhat stays a product of rotations; and
:func:`_finalize_step` checks each run's estimate finite.

The translational error x_B = vec(R^T (z - Rtilde zhat)) of this observer
follows the linear time-varying closed loop

    dx_B/dt = (A(t) - K_B(t) C(t)) x_B,     K_B = P C^T Q,

independently of the attitude error. A left rotation of Xhat leaves x_B
unchanged, so the split step keeps that independence to rounding. The
tests integrate that system directly, with the generic 15 x 15 Riccati
flow (``tests/oracles.py``), as the oracle for the full observer, as
:func:`build_a` and the oracles' ``gain`` serve for its parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import SEn, hat, kron, project_rotation, rk4, rotation_angle

_I3 = np.eye(3)
_EYE5 = np.eye(5)
_EYE8 = np.eye(8)
_PI_BLOCK = 16  # steps between resets of [U; V] to [I; Pi], from step 0; U's conditioning worsens with their span

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

def _observer_rhs(flow, cross, pi, q: float):
    """Stage generators A = F - [0 | q cross Pi] (... x 8 x 8) of the estimate's right-linear part
    dX = X A, from each stage's flow F (8 x 8), cross (8 x 5) and Pi (5 x 5), stacked alike.

    -X [0 | q cross Pi] is the gain K_I applied to the innovations dz_i = -X y_bold_i, folded to
    3 x 5, once Rhat Rhat^T = I, which the split step keeps; X F is the flow's part.
    """
    gen = flow.copy()
    gen[..., 3:] -= q * (cross @ pi)
    return gen


def _rk4_observer(x, m_k, dt: float, half_rho):
    """One Lie-Trotter step of a batch of estimates X = [Rhat, zhat] (B x 3 x 8): the attitude
    innovation's left part, X <- exp(dt hat(delta_r)) X with delta_r from X's ehat and rho / 2,
    in Rodrigues' closed form, then the right-linear part X <- X M_k, with M_k the step's
    transition from :func:`_riccati_pass`. The left rotation leaves x_B unchanged, so x_B follows
    the right factors alone, whatever the attitude error. Returns X; the caller checks it finite."""
    m = x[..., 5:] * (dt * half_rho)
    w = m.mT - m  # dt hat(delta_r(ehat, rho)), which generates a rotation by the angle 2h
    flat = w.reshape(-1, 9)
    # h > 0; the 1e-300 moves no h above 1e-142, below which sin(h) / h and cos(h) round to 1 anyway
    h = np.sqrt(0.125 * np.vecdot(flat, flat) + 1e-300)[:, None, None]
    s = np.sin(h) / h
    # Rodrigues: sin(2h) / 2h = s cos(h) and (1 - cos(2h)) / (2h)^2 = s^2 / 2
    rot = _I3 + (s * np.cos(h)) * w + (0.5 * s * s) * (w @ w)
    return (rot @ x) @ m_k


def _riccati_pass(uv, k0: int, stages, t, cfg: ObserverConfig, abar):
    """Pi = V U^-1 over the steps k0, k0 + 1, ... of a chunk, starting at times `t`, from [U; V] = `uv`,
    by the linear flow d[U; V] = H [U; V], H = [[-Abar^T, q info], [v I_5, Abar]]; and each step's M_k.

    `stages` is (omega, accel, ys, rs): the IMU samples (step, stage, 3), the processed outputs
    ys (step, stage, m, 3) and their reference vectors rs (step, stage, m, 5) at the four RK4
    stages of each step, as a truth's ``stages`` gives them. With the estimate's top block rows
    X = [Rhat, zhat] (3 x 8) and the stacked y_bold rows Y = [ys, rs] (m x 8), a stage has

        F     = hat(omega) and accel in column 4, Abar^T below   (8 x 8)
        cross = Y^T rs,     info = rs^T rs                       (8 x 5, 5 x 5)

    One batched :func:`~se5nav.lie.rk4` on the 10 x 10 identity gives each step's transition and stage
    maps; a product per step carries [U; V], reset to [I; Pi] at the steps ``_PI_BLOCK`` divides, so U
    stays well conditioned and Pi does not depend on the chunks; :func:`_pi_of` gives Pi at every step
    and stage by one batched solve. M_k (8 x 8) is one RK4 step of dM = M A from the identity, A =
    F - [0 | q cross Pi] (:func:`_observer_rhs`) at each stage's Pi, all steps at once, its rotation
    block (off SO(3) by about 1e-11 on a noisy gyro) then replaced by its polar factor.

    Returns (pis, m_k, failure, uv) for the leading steps whose end-of-step Pi one batched Cholesky
    finds finite and positive definite: Pi at the start and end of each, M_k of each, None or, where
    the pass ends short, the reason the next step fails, and [U; V] at the chunk's end.
    """
    omega, accel, ys, rs = stages
    flow = np.zeros(omega.shape[:-1] + (8, 8))
    flow[..., :3, :3], flow[..., :3, 4], flow[..., 3:, 3:] = hat(omega), accel, abar.T
    cross = np.concatenate([ys, rs], axis=-1).mT @ rs
    ham = np.zeros(rs.shape[:2] + (10, 10))
    ham[..., :5, :5], ham[..., 5:, :5], ham[..., 5:, 5:] = -abar.T, cfg.v * _EYE5, abar
    ham[..., :5, 5:] = cfg.q * (rs.mT @ rs)
    phi, (_, *maps) = rk4(lambda y, s: ham[:, s] @ y, np.eye(10), cfg.dt)
    uvs = [uv]
    for k, step in enumerate(phi, k0 + 1):
        uvs.append(step @ uvs[-1] if k % _PI_BLOCK else np.concatenate([_EYE5, _pi_of(step @ uvs[-1])]))
    at_stages = (np.stack(maps, 1) @ np.stack(uvs[:-1])[:, None]).reshape(-1, 10, 5)  # stages 1 to 3
    pis, stage = np.split(_pi_of(np.concatenate([uvs, at_stages])), [len(uvs)])
    stage = np.concatenate([pis[:-1, None], stage.reshape(-1, 3, 5, 5)], axis=1)
    n, failure = _check_pd(pis[1:], t)
    gen = _observer_rhs(flow[:n], cross[:n], stage[:n], cfg.q)
    m_k = rk4(lambda m, s: m @ gen[:, s], _EYE8, cfg.dt)[0]
    m_k[..., :3, :3] = project_rotation(m_k[..., :3, :3])
    return pis[:n + 1], m_k, failure, uvs[-1]


def _pi_of(uv):
    """Pi = V U^-1 of each [U; V] of a stack (..., 10, 5), symmetrized as 0.5 Pi + 0.5 Pi^T, which
    overflows nowhere Pi does not; infinite where U is singular or the solve overflows."""
    try:
        pi = np.linalg.solve(uv[..., :5, :].mT, uv[..., 5:, :].mT)  # Pi^T
    except np.linalg.LinAlgError:
        return np.stack([_pi_of(y) for y in uv]) if uv.ndim > 2 else np.full((5, 5), np.inf)
    return 0.5 * pi + 0.5 * pi.mT


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
    """Which rows of a batch X (B x 3 x 8) are finite, None when all are: the estimate's check of a step."""
    finite = np.isfinite(x).all(axis=(-2, -1))
    return None if finite.all() else finite


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
