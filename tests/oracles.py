"""Oracles for the observer, kept apart from the package code they check.

:func:`riccati_step` is one RK4 step of the generic 15 x 15 Riccati flow
dP = A P + P A^T - P C^T Q C P + V, :func:`riccati_flow_step` one RK4
step of the 30 x 30 linear flow whose P = V U^-1 solves it, and
:func:`kalman_reference_run` integrates the closed-loop translational
error system

    dx_B/dt = (A(t) - K_B(t) C(t)) x_B,     K_B = P C^T Q,

directly, with P from the linear flow of :func:`riccati_flow_step`. The
observer itself integrates only the 5 x 5 factor Pi of P = Pi kron I_3.
The generic observer's parts (its input and commutator matrices, the
rotation innovation and the gain pair) are written out here as the paper
states them.
:func:`sequential_attitude` is the truth attitude as a step-by-step
product, which :func:`se5nav.trajectory.truth_attitude` matches to
rounding. :func:`kron_gramians_einsum` is the closed-form Gramian with each
window's node sum as one einsum.
"""

import numpy as np

from se5nav.lie import SEn, hat, kron, psi
from se5nav.observability import DEFAULT_MU_THRESHOLD, GramianReport, window_nodes
from se5nav.observer import DivergenceError, build_abar
from se5nav.trajectory import time_grid


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
    gamma = np.zeros((3, 15))
    for i in range(3):
        gamma[:, 6 + 3 * i: 9 + 3 * i] = 0.5 * rho[i] * (hat(np.eye(3)[:, i]) @ rhat)
    return psi(np.diag(rho) @ rtilde), gamma


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


def geometric_error(xhat: SEn, truth) -> SEn:
    """E = X Xhat^{-1} on SE_5(3) of an estimate against a truth sample, via group operations."""
    return SEn(truth.R, truth.z, check=False) @ xhat.inverse()


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
    P = P + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    P = 0.5 * (P + P.T)
    try:
        np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise DivergenceError("Riccati matrix lost positive definiteness") from None
    return P


def riccati_flow_step(P: np.ndarray, a, c, q: float, v: float, dt: float) -> list[np.ndarray]:
    """One RK4 step of the linear flow d[U; V] = [[-A^T, C^T Q C], [V, A]] [U; V] from [I; P], of
    which P = V U^-1 solves the Riccati flow (Davison & Maki, IEEE TAC 18(1), 1973), with Q = qI,
    V = vI and A, C given at the four RK4 stages (`a`, `c`: one matrix per stage).

    Returns P = V U^-1, symmetrized, at the four stages and at the step's end.
    """
    n = len(P)
    hs = [np.block([[-a[s].T, q * c[s].T @ c[s]], [v * np.eye(n), a[s]]]) for s in range(4)]
    y1 = np.vstack([np.eye(n), P])
    k1 = hs[0] @ y1
    y2 = y1 + 0.5 * dt * k1
    k2 = hs[1] @ y2
    y3 = y1 + 0.5 * dt * k2
    k3 = hs[2] @ y3
    y4 = y1 + dt * k3
    k4 = hs[3] @ y4
    end = y1 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    ps = [np.linalg.solve(y[:n].T, y[n:].T) for y in (y1, y2, y3, y4, end)]  # P^T
    return [0.5 * (p + p.T) for p in ps]


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
    linear Hamiltonian flow the full observer steps (:func:`riccati_flow_step`);
    x by RK4 with A, C and P at the stage values of that step, matching the
    observer's staging. Returns (times, x trajectory) including the initial
    sample.
    """
    ts = t0 + time_grid(t1 - t0, dt)
    n = ts.size - 1
    xs = np.empty((n + 1, x0.size))
    xs[0] = x0
    x = np.array(x0, dtype=float)
    P = np.array(p0, dtype=float)

    def f(xx, pp, a, c):
        return a @ xx - (pp @ c.T * q) @ (c @ xx)

    # A and C once per grid node and midpoint: a step's end is the next start
    a0, c0 = a_of_t(ts[0]), c_of_t(ts[0])
    for k in range(n):
        t_half = ts[k] + 0.5 * dt
        a_half, c_half = a_of_t(t_half), c_of_t(t_half)
        a1, c1 = a_of_t(ts[k + 1]), c_of_t(ts[k + 1])
        *ps, P = riccati_flow_step(P, [a0, a_half, a_half, a1], [c0, c_half, c_half, c1], q, v, dt)
        k1 = f(x, ps[0], a0, c0)
        k2 = f(x + 0.5 * dt * k1, ps[1], a_half, c_half)
        k3 = f(x + 0.5 * dt * k2, ps[2], a_half, c_half)
        k4 = f(x + dt * k3, ps[3], a1, c1)
        x = x + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        xs[k + 1] = x
        a0, c0 = a1, c1
    return ts, xs


def sequential_attitude(r0: np.ndarray, half_steps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Attitude by the step-by-step product from r0, one step per half-step
    factor E_k: R_mid[k] = R[k] E_k and R[k + 1] = R_mid[k] E_k, shaped
    (n + 1, 3, 3) and (n, 3, 3) for n factors."""
    rs = np.empty((len(half_steps) + 1, 3, 3))
    r_mid = np.empty((len(half_steps), 3, 3))
    rs[0] = r = r0
    for half, r_m, r_next in zip(half_steps, r_mid, rs[1:]):
        np.matmul(r, half, out=r_m)
        np.matmul(r_m, half, out=r_next)
        r = r_next
    return rs, r_mid


def kron_gramians_einsum(abar, rows, starts, delta, dt, threshold=DEFAULT_MU_THRESHOLD):
    """The Gramians of :func:`se5nav.observability.kron_gramians`, taking the
    same arguments, with the trapezoid sum over every window's nodes written
    as one einsum over nodes and rows."""
    offsets, weights = window_nodes(0.0, delta, dt)
    taus = offsets[:, None, None]
    b = rows(np.asarray(starts)[:, None] + offsets) @ (np.eye(5) + abar * taus + abar @ abar * (0.5 * taus * taus))
    wbar = np.einsum("k,wkmi,wkmj->wij", weights, b, b) / delta
    wbar = 0.5 * (wbar + np.swapaxes(wbar, -1, -2))
    return [GramianReport(t=float(t), delta=delta, W=np.kron(w, np.eye(3)), mu=float(np.linalg.eigvalsh(w)[0]),
                          threshold=threshold) for t, w in zip(starts, wbar)]
