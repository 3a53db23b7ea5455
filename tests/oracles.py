"""Oracles for the observer, kept apart from the package code they check.

:func:`riccati_step` is one RK4 step of the generic 15 x 15 Riccati flow
dP = A P + P A^T - P C^T Q C P + V, and :func:`kalman_reference_run`
integrates the closed-loop translational error system

    dx_B/dt = (A(t) - K_B(t) C(t)) x_B,     K_B = P C^T Q,

directly, with that Riccati flow beside it. The observer itself integrates
only the 5 x 5 factor Pi of P = Pi kron I_3.
"""

import numpy as np

from se5nav.observer import DivergenceError


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
