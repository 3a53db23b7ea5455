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
observer's state is (Rhat, zhat, Pi), and P is derived from Pi. One fixed
step is RK4 (IMU inputs sampled at the stage times when available), then
the rotation block is re-projected onto SO(3), Pi is symmetrized and
checked positive definite. The innovation Delta has rotation part
hat(delta_r) built from the auxiliary basis columns and translation part
K_I dz folded back into a 3 x 5 block, q Rhat ((Pi R_s^T)(dz Rhat))^T for
the innovation rows dz.

The translational error x_B = vec(R^T (z - Rtilde zhat)) of this observer
follows the linear time-varying closed loop

    dx_B/dt = (A(t) - K_B(t) C(t)) x_B,     K_B = P C^T Q,

independently of the attitude error; :func:`kalman_reference_run`
integrates that system directly, with the generic 15 x 15 Riccati flow,
and serves as the oracle for the full observer, as :func:`riccati_step`,
:func:`build_a` and :func:`gain` serve for its parts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import SEn, hat, kron, project_rotation, psi, rotation_angle
from .trajectory import TruthState

_I3 = np.eye(3)
_E3 = np.eye(3)
_EYE5 = np.eye(5)

ESTIMATE_CSV_SCHEMA = "se5nav-estimate-v1"


class DivergenceError(RuntimeError):
    """Numerical failure of a run; carries its last healthy state and its index in a batch."""

    def __init__(self, message: str, state: "ObserverState | None" = None, run: int | None = None):
        super().__init__(message)
        self.state, self.run = state, run


@dataclass(frozen=True)
class ObserverConfig:
    """Gains and weights. q and v scale identity weight matrices."""

    rho: tuple[float, float, float] = (10.0, 6.0, 4.0)
    q: float = 100.0
    v: float = 10.0
    dt: float = 1e-3
    gravity: tuple[float, float, float] = (0.0, 0.0, 9.81)

    def __post_init__(self):
        if not all(r > 0 for r in self.rho) or len(set(self.rho)) != 3:
            raise ValueError("rho must be three positive, pairwise distinct scalars")
        if not (self.q > 0 and self.v > 0):
            raise ValueError("q and v weights must be positive")
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be finite and positive")

    @property
    def g(self) -> np.ndarray:
        return np.asarray(self.gravity, dtype=float)


@dataclass(frozen=True)
class ObserverState:
    """Estimate Xhat and the 5 x 5 factor Pi of its Riccati matrix P = Pi kron I_3."""

    xhat: SEn
    pi: np.ndarray
    t: float

    def __post_init__(self):
        if self.xhat.n != 5:
            raise ValueError("observer state lives on SE_5(3)")
        pi = np.asarray(self.pi, dtype=float)
        if pi.shape != (5, 5):
            raise ValueError("Pi must be 5 x 5")
        if np.max(np.abs(pi - pi.T)) > 1e-9:
            raise ValueError("Pi must be symmetric")

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


def build_d(g: np.ndarray) -> np.ndarray:
    """Constant 8 x 8 commutator matrix (bottom-right Abar^T)."""
    d = np.zeros((8, 8))
    d[3:, 3:] = build_abar(g).T
    return d


def build_u(omega: np.ndarray, accel: np.ndarray) -> np.ndarray:
    """8 x 8 input matrix: hat(omega) block plus accel in column 4."""
    u = np.zeros((8, 8))
    u[:3, :3] = hat(omega)
    u[:3, 4] = np.asarray(accel, dtype=float)
    return u


def build_a(omega: np.ndarray, g: np.ndarray) -> np.ndarray:
    """15 x 15 error-dynamics matrix Abar kron I_3 - I_5 kron hat(omega)."""
    a = build_abar(g)[:, None, :, None] * _I3[:, None] - _EYE5[:, None, :, None] * hat(omega)[:, None]
    return a.reshape(15, 15)


# innovation ---------------------------------------------------------------

def delta_r(ehat: np.ndarray, rho) -> np.ndarray:
    """Rotation innovation 0.5 sum_i rho_i (ehat_i x e_i)."""
    e1, e2, e3 = ehat[:, 0], ehat[:, 1], ehat[:, 2]
    r1, r2, r3 = rho
    return 0.5 * np.array([
        -r2 * e2[2] + r3 * e3[1],
        r1 * e1[2] - r3 * e3[0],
        -r1 * e1[1] + r2 * e2[0],
    ])


def delta_r_decomposition(rho, rhat: np.ndarray, rtilde: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split of delta_r into an attitude term and a translational-error term.

    Returns (psi(M Rtilde), Gamma) with M = diag(rho) and
    Gamma = 0.5 [0_{3x6}, rho_1 hat(e1) Rhat, rho_2 hat(e2) Rhat,
    rho_3 hat(e3) Rhat], so that delta_r = psi(M Rtilde) + Gamma x_B.
    """
    m = np.diag(rho)
    psi_term = psi(m @ rtilde)
    gamma = np.zeros((3, 15))
    for i in range(3):
        gamma[:, 6 + 3 * i: 9 + 3 * i] = 0.5 * rho[i] * (hat(_E3[:, i]) @ rhat)
    return psi_term, gamma


# gains --------------------------------------------------------------------

def gain(P: np.ndarray, C: np.ndarray, Q: float, rhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Riccati gain pair: body-frame K_B = P C^T Q for a scalar weight Q and
    its inertial-frame conjugate K_I = (I_5 kron Rhat) K_B (I_m kron Rhat^T).

    The five 3 x 3m row blocks of K_I weight the innovation stack for the
    p, v, e1, e2, e3 columns of the estimate.
    """
    kb = P @ C.T * Q
    m = C.shape[0] // 3
    ki = kron(np.eye(5), rhat) @ kb @ kron(np.eye(m), rhat.T)
    return kb, ki


# integration core ----------------------------------------------------------

@dataclass
class StageInputs:
    """What the observer's vector field needs at one RK4 stage.

    The measured quantities enter already multiplied out. With the
    estimate's top block rows X = [Rhat, zhat] (3 x 8), the stacked
    y_bold rows Y = [ys, rs] (m x 8) and the stacked reference vectors
    R_s = rs (m x 5):

        flow  = build_u(omega, accel) + build_d(g)    (8 x 8)
        cross = Y^T R_s                                (8 x 5)
        info  = R_s^T R_s                              (5 x 5)

    Fields may carry leading batch dimensions (step, stage); index them
    with :meth:`at`.
    """

    flow: np.ndarray
    cross: np.ndarray
    info: np.ndarray

    def at(self, *index) -> "StageInputs":
        return StageInputs(self.flow[index], self.cross[index], self.info[index])


def make_stage_inputs(omega, accel, ys, rs, g) -> StageInputs:
    """Stage inputs from IMU samples omega, accel (..., 3) and the
    processed outputs ys (..., m, 3) with reference vectors rs (..., m, 5),
    all with the same leading batch dimensions."""
    omega = np.asarray(omega, dtype=float)
    flow = np.zeros(omega.shape[:-1] + (8, 8))
    flow[..., :3, :3] = hat(omega)
    flow[..., :3, 4] = accel
    flow[..., 3:, 3:] = build_abar(g).T
    rs_t = np.swapaxes(rs, -1, -2)
    cross = np.swapaxes(np.concatenate([ys, rs], axis=-1), -1, -2) @ rs
    return StageInputs(flow=flow, cross=cross, info=rs_t @ rs)


def _observer_rhs(x, pi, flow, cross, info, q: float, v: float, rho, abar):
    """Vector field of (X, Pi) at one stage, for a batch of estimates
    X = [Rhat, zhat] (B x 3 x 8) sharing Pi, which dPi does not depend on,
    and that stage's StageInputs fields flow, cross and info.

    dX = X flow + hat(delta_r) X - q (Rhat Rhat^T) X cross Pi, the last
    term only in the zhat columns: it is the gain K_I applied to the
    innovations dz_i = -X y_bold_i, folded to 3 x 5, that is
    q Rhat ((Pi R_s^T)(dz Rhat))^T with dz stacked as rows. The Riccati
    part is dPi = T Pi + Pi T^T + v I_5 with T = Abar - (q/2) Pi info,
    which is Abar Pi + Pi Abar^T - q Pi R_s^T R_s Pi + v I_5.
    """
    rhat = x[..., :3]
    m = x[..., 5:] * rho
    hdr = 0.5 * (m.mT - m)  # hat(delta_r(ehat, rho))
    dx = x @ flow + hdr @ x
    dx[..., 3:] -= q * ((rhat @ rhat.mT) @ ((x @ cross) @ pi))
    tp = (abar - (0.5 * q) * (pi @ info)) @ pi
    return dx, tp + tp.T + v * _EYE5


def _rk4_observer(x, pi, st: StageInputs, dt: float, q: float, v: float, rho, abar):
    """One RK4 step over StageInputs whose fields carry a leading axis of
    the four RK4 stages: the step start, the midpoint twice, and the end.
    Inputs sampled at the stage times repeat the midpoint entry; the
    coupled oracle passes the measurements on the truth's own four stages.

    Returns the raw (X, Pi); the caller projects and checks.
    """
    f, c, i = st.flow, st.cross, st.info
    h2 = 0.5 * dt
    k1x, k1p = _observer_rhs(x, pi, f[0], c[0], i[0], q, v, rho, abar)
    k2x, k2p = _observer_rhs(x + h2 * k1x, pi + h2 * k1p, f[1], c[1], i[1], q, v, rho, abar)
    k3x, k3p = _observer_rhs(x + h2 * k2x, pi + h2 * k2p, f[2], c[2], i[2], q, v, rho, abar)
    k4x, k4p = _observer_rhs(x + dt * k3x, pi + dt * k3p, f[3], c[3], i[3], q, v, rho, abar)
    c6 = dt / 6.0
    return (x + c6 * (k1x + 2.0 * k2x + 2.0 * k3x + k4x),
            pi + c6 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p))


def _check_pd(pi: np.ndarray, t: float | None = None) -> np.ndarray:
    """Symmetrized Riccati matrix; DivergenceError unless positive definite."""
    pi = 0.5 * (pi + pi.T)
    try:
        np.linalg.cholesky(pi)
    except np.linalg.LinAlgError:
        mineig = float(np.linalg.eigvalsh(pi)[0])
        where = "" if t is None else f" at t={t:.4f}"
        raise DivergenceError(
            f"Riccati matrix lost positive definiteness{where} "
            f"(min eig {mineig:.3e}); reduce dt or check observability"
        ) from None
    return pi


def _finalize_step(x, pi, t):
    """Checks after one step of a batch X (B x 3 x 8) and its shared Pi; projects
    each rotation block in place. DivergenceError's ``run`` is a non-finite X's row."""
    if not (np.isfinite(x).all() and np.isfinite(pi).all()):
        run = int(np.argmin(np.isfinite(x).all(axis=(-2, -1))))  # the first non-finite X, else 0
        raise DivergenceError(f"non-finite estimate at t={t:.4f}", run=run)
    x[..., :3] = project_rotation(x[..., :3])
    return x, _check_pd(pi, t)


def _state(x: np.ndarray, pi: np.ndarray, t) -> ObserverState:
    """ObserverState of one X = [Rhat, zhat] (3 x 8) and Pi."""
    return ObserverState(xhat=SEn(x[:, :3], x[:, 3:], check=False), pi=pi, t=float(t))


def _step(x, pi, stages: StageInputs, t: float, cfg: ObserverConfig, abar, rho, runs):
    """One checked RK4 step of a batch (X, Pi) from time t over the four
    RK4 stages of `stages` (see :func:`_rk4_observer`). A failed check
    raises DivergenceError naming the failing run, by its number in `runs`
    (one per row of X), and carrying its state at t, the start of the
    failing step; a failure of the shared Pi names the first run."""
    x1, pi1 = _rk4_observer(x, pi, stages, cfg.dt, cfg.q, cfg.v, rho, abar)
    try:
        return _finalize_step(x1, pi1, t)
    except DivergenceError as err:
        row = err.run or 0
        raise DivergenceError(f"run {runs[row]}: {err}", _state(x[row], pi, t), int(runs[row])) from None


# public operations ---------------------------------------------------------

def _riccati_rhs(P: np.ndarray, a: np.ndarray, c: np.ndarray, q: float, v: float) -> np.ndarray:
    ap = a @ P
    pct = P @ c.T
    kb = pct * q
    out = ap + ap.T - kb @ pct.T
    out[np.diag_indices_from(out)] += v
    return out


def riccati_step(P: np.ndarray, a: np.ndarray, c: np.ndarray, q: float, v: float, dt: float) -> np.ndarray:
    """One RK4 step of the Riccati flow with A, C held over the step.

    Symmetrizes the result and fails loudly if positive definiteness is
    lost (step too large, or the output map is not exciting enough).
    """
    k1 = _riccati_rhs(P, a, c, q, v)
    k2 = _riccati_rhs(P + 0.5 * dt * k1, a, c, q, v)
    k3 = _riccati_rhs(P + 0.5 * dt * k2, a, c, q, v)
    k4 = _riccati_rhs(P + dt * k3, a, c, q, v)
    return _check_pd(P + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))


def observer_step(
    state: ObserverState,
    imu: tuple[np.ndarray, np.ndarray],
    ys: np.ndarray,
    rs: np.ndarray,
    cfg: ObserverConfig,
) -> ObserverState:
    """Advance estimate and Riccati state by one fixed step.

    ``imu`` is (omega, accel), either one (3,) sample per signal, held over
    the step, or (3, 3) stacks giving the samples at the step start,
    midpoint, and end. ``ys`` (m, 3) and ``rs`` (m, 5) are the latest
    processed outputs and reference vectors (see
    :meth:`UnifiedLayout.stacks`), zero-order held over the step; m = 0
    is open-loop prediction.
    """
    omega, accel = (np.broadcast_to(np.asarray(a, dtype=float), (3, 3)) for a in imu)
    ys, rs = (np.broadcast_to(np.asarray(a, dtype=float), (3,) + np.shape(a)) for a in (ys, rs))
    st = make_stage_inputs(omega, accel, ys, rs, cfg.g)
    x = np.hstack([state.rhat, state.zhat])[None]
    x, pi = _step(x, state.pi, st.at([0, 1, 1, 2]), state.t, cfg, build_abar(cfg.g), np.asarray(cfg.rho), [0])
    return _state(x[0], pi, state.t + cfg.dt)


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
    """Errors against one truth of an estimate (rhat 3 x 3, zhat 3 x 5) or
    of each of a stack of them, the report's fields stacked alike."""
    rtilde = truth_r @ rhat.mT
    ztilde = truth_z - rtilde @ zhat
    x_body = (truth_r.T @ ztilde).mT.reshape(ztilde.shape[:-2] + (15,))  # vec
    return ErrorReport(
        rtilde=rtilde,
        angle=rotation_angle(rtilde),
        ztilde=ztilde,
        x_body=x_body,
        column_norms=np.linalg.norm(ztilde, axis=-2),
    )


def geometric_error(state: ObserverState, truth: TruthState) -> SEn:
    """E = X Xhat^{-1} on SE_5(3), via group operations."""
    x = SEn(truth.R, truth.z, check=False)
    return x @ state.xhat.inverse()


def kalman_reference_run(
    a_of_t,
    c_of_t,
    q: float,
    v: float,
    p0: np.ndarray,
    x0: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Directly integrate the closed-loop translational error system.

    dx/dt = (A(t) - K_B(t) C(t)) x with K_B = P C^T Q and P from the same
    Riccati flow the full observer uses; RK4 with A and C evaluated at the
    stage times, matching the observer's staging. Returns (times, x
    trajectory) including the initial sample.
    """
    n = int(round((t1 - t0) / dt))
    ts = t0 + np.arange(n + 1) * dt
    xs = np.empty((n + 1, x0.size))
    xs[0] = x0
    x = np.array(x0, dtype=float)
    P = np.array(p0, dtype=float)

    def f(xx, pp, a, c):
        pct = pp @ c.T
        kb = pct * q
        return a @ xx - kb @ (c @ xx), _riccati_rhs(pp, a, c, q, v)

    # A and C once per grid node and midpoint: a step's end is the next start
    a0, c0 = a_of_t(ts[0]), c_of_t(ts[0])
    for k in range(n):
        t_half = ts[k] + 0.5 * dt
        a_half, c_half = a_of_t(t_half), c_of_t(t_half)
        a1, c1 = a_of_t(ts[k + 1]), c_of_t(ts[k + 1])
        k1 = f(x, P, a0, c0)
        k2 = f(x + 0.5 * dt * k1[0], P + 0.5 * dt * k1[1], a_half, c_half)
        k3 = f(x + 0.5 * dt * k2[0], P + 0.5 * dt * k2[1], a_half, c_half)
        k4 = f(x + dt * k3[0], P + dt * k3[1], a1, c1)
        x = x + (dt / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        P = P + (dt / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        P = 0.5 * (P + P.T)
        xs[k + 1] = x
        a0, c0 = a1, c1
    return ts, xs
