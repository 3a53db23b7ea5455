"""Quantitative observability analysis for the translational error system.

Provides the state-transition matrix of the time-varying error dynamics,
the windowed observability Gramian

    W(t, t + delta) = (1/delta) int_t^{t+delta} phi^T C^T C phi ds,

whose smallest eigenvalue certifies uniform observability when bounded
away from zero, and the closed-form persistency-of-excitation check for
the GPS-aided configuration (position + optional magnetometer + optional
velocity channels), which only needs the trajectory's acceleration,
velocity, and the reference magnetic field.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import rk4
from .trajectory import time_grid

OBSV_CSV_SCHEMA = "se5nav-observability-v1"

DEFAULT_MU_THRESHOLD = 1e-6

_I3 = np.eye(3)


def transition_matrix(a_of_t, t0: float, t1: float, dt: float) -> np.ndarray:
    """RK4 integration of d(phi)/dt = A(t) phi from phi(t0, t0) = I to t1 > t0,
    on the nodes of :func:`window_nodes`."""
    for phi in _phi_nodes(a_of_t, window_nodes(t0, t1 - t0, dt)[0], dt):
        pass
    return phi


def _phi_nodes(a_of_t, ts: np.ndarray, dt: float):
    """phi(ts[k], ts[0]) at the grid nodes ts (spaced dt) by RK4, with A
    evaluated once per node and midpoint: a step's end is the next start."""
    a0 = a_of_t(ts[0])
    phi = np.eye(a0.shape[0])
    yield phi
    for t_half, t_end in zip(ts[:-1] + 0.5 * dt, ts[1:]):
        a1 = a_of_t(t_end)
        phi = _phi_step(phi, a0, a_of_t(t_half), a1, dt)
        yield phi
        a0 = a1


def _phi_step(phi, a0, a_half, a1, dt: float) -> np.ndarray:
    """One :func:`~se5nav.lie.rk4` step of d(phi)/dt = A phi from A at the step's start, midpoint and end."""
    return rk4(lambda y, s: (a0, a_half, a_half, a1)[s] @ y, phi, dt)[0]


def window_nodes(t: float, delta: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes t + k dt (k = 0 .. round(delta / dt)) of the window
    [t, t + delta] and their composite-trapezoid weights."""
    ts = t + time_grid(delta, dt)
    weights = np.full(ts.size, dt)
    weights[0] = weights[-1] = 0.5 * dt
    return ts, weights


@dataclass(frozen=True)
class GramianReport:
    t: float
    delta: float
    W: np.ndarray
    mu: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.mu > self.threshold


def gramian(
    a_of_t,
    c_of_t,
    t: float,
    delta: float,
    dt: float,
    threshold: float = DEFAULT_MU_THRESHOLD,
) -> GramianReport:
    """Windowed observability Gramian by composite-trapezoid quadrature.

    The transition matrix is advanced incrementally across the quadrature
    nodes, so the cost is one RK4 sweep of the window.
    """
    ts, weights = window_nodes(t, delta, dt)
    w = 0.0
    for s, wq, phi in zip(ts, weights, _phi_nodes(a_of_t, ts, dt)):
        cs = c_of_t(s) @ phi
        w = w + wq * (cs.T @ cs)
    w /= delta
    w = 0.5 * (w + w.T)
    mu = float(np.linalg.eigvalsh(w)[0])
    return GramianReport(t=t, delta=delta, W=w, mu=mu, threshold=threshold)


def kron_gramians(
    abar: np.ndarray,
    pieces,
    starts,
    delta: float,
    dt: float,
    threshold: float = DEFAULT_MU_THRESHOLD,
) -> list[GramianReport]:
    """Closed-form Gramians of A(t) = Abar kron I3 - I5 kron hat(omega(t))
    with C(t) = R_s(t) kron I3, one per window start.

    ``pieces`` yields the rows of R_s at the nodes of :func:`window_nodes`
    of every window, shaped (windows, K, m, 5), K consecutive nodes at a
    time. The transition matrix factors as Phibar kron Q with Q
    orthogonal, so the rotation cancels in
    (C phi)^T (C phi) and W = Wbar kron I3 with

        Wbar = (1/delta) int Phibar^T R_s^T R_s Phibar ds,

    where Phibar(tau) = I + Abar tau + Abar^2 tau^2 / 2 is exact because
    Abar^3 = 0. The quadrature is the trapezoid rule of :func:`gramian` on
    the same nodes, so mu is the same number. A piece adds (D B)^T B to each
    window, B (K m x 5) the rows R_s Phibar at its K nodes, D their weights.
    """
    offsets, weights = window_nodes(0.0, delta, dt)
    abar2 = abar @ abar
    if np.any(abar2 @ abar):
        raise ValueError("Abar^3 must vanish for the polynomial transition matrix")
    wbar, k0 = None, 0
    for rs in pieces:
        k1 = k0 + rs.shape[1]
        taus = offsets[k0:k1, None, None]
        b = rs @ (np.eye(5) + abar * taus + abar2 * (0.5 * taus * taus))
        part = (b * weights[k0:k1, None, None]).reshape(len(b), -1, 5).mT @ b.reshape(len(b), -1, 5)
        wbar, k0 = part if wbar is None else wbar + part, k1
    if k0 != offsets.size:
        raise ValueError(f"expected {offsets.size} nodes per window, got {k0}")
    wbar = wbar / delta
    wbar = 0.5 * (wbar + np.swapaxes(wbar, -1, -2))
    mus = np.linalg.eigvalsh(wbar)[:, 0]
    return [
        GramianReport(t=float(t), delta=delta, W=np.kron(w, _I3), mu=float(mu), threshold=threshold)
        for t, w, mu in zip(starts, wbar, mus)
    ]


def gps_pe_condition(
    vdot_of_t,
    v_of_t,
    g: np.ndarray,
    xi_mag: np.ndarray | None,
    t: float,
    delta: float,
    dt: float,
    threshold: float = DEFAULT_MU_THRESHOLD,
) -> GramianReport:
    """Persistency-of-excitation matrix for the GPS-aided configuration.

    Evaluates (1/delta) int (vdot - g)(vdot - g)^T ds, plus xi xi^T for a
    magnetometer direction ``xi_mag``, plus the windowed velocity outer
    product for a velocity channel; ``xi_mag=None`` or ``v_of_t=None``
    means the configuration has no such channel. Full rank of the sum is
    sufficient for uniform observability of the corresponding error pair:
    the report's ``W`` is the 3 x 3 sum and ``mu`` its least eigenvalue,
    which passes as a Gramian window's does. ``vdot_of_t`` and ``v_of_t``
    are called once, on the array of quadrature nodes; a constant (3,)
    return stands for every node.
    """
    ts, weights = window_nodes(t, delta, dt)
    g = np.asarray(g, dtype=float)

    def on_nodes(fn):
        return np.broadcast_to(np.asarray(fn(ts), dtype=float), ts.shape + (3,))

    def outer_mean(x):
        return np.einsum("k,ki,kj->ij", weights, x, x) / delta

    m = outer_mean(on_nodes(vdot_of_t) - g)
    if xi_mag is not None:
        xi = np.asarray(xi_mag, dtype=float)
        m = m + np.outer(xi, xi)
    if v_of_t is not None:
        m = m + outer_mean(on_nodes(v_of_t))
    m = 0.5 * (m + m.T)
    return GramianReport(t=t, delta=delta, W=m, mu=float(np.linalg.eigvalsh(m)[0]), threshold=threshold)
