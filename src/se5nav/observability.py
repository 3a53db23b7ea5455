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


_OBSV_NODES = 1 << 16  # quadrature nodes whose rows kron_gramians evaluates at once


def kron_gramians(
    abar: np.ndarray,
    rows,
    starts,
    delta: float,
    dt: float,
    threshold: float = DEFAULT_MU_THRESHOLD,
) -> list[GramianReport]:
    """Closed-form Gramians of A(t) = Abar kron I3 - I5 kron hat(omega(t))
    with C(t) = R_s(t) kron I3, one per window start.

    ``rows`` is R_s as a function of times of any shape, its values shaped
    times.shape + (m, 5). It is evaluated at the nodes of
    :func:`window_nodes`, ``_OBSV_NODES`` at a time: whole windows up to
    that many, a longer window in pieces of that many. The transition
    matrix factors as Phibar kron Q with Q orthogonal, so the rotation
    cancels in (C phi)^T (C phi) and W = Wbar kron I3 with

        Wbar = (1/delta) int Phibar^T R_s^T R_s Phibar ds,

    where Phibar(tau) = I + Abar tau + Abar^2 tau^2 / 2 is exact because
    Abar^3 = 0. The quadrature is the trapezoid rule of :func:`gramian` on
    the same nodes, so mu is the same number. A piece adds (D B)^T B to each
    window, B (K m x 5) the rows R_s Phibar at its K nodes, D their weights.
    A Wbar that is not finite raises FloatingPointError naming its window.
    """
    offsets, weights = window_nodes(0.0, delta, dt)
    abar2 = abar @ abar
    if np.any(abar2 @ abar):
        raise ValueError("Abar^3 must vanish for the polynomial transition matrix")
    starts = np.asarray(starts, dtype=float)
    piece = min(offsets.size, _OBSV_NODES)
    per_group = max(1, _OBSV_NODES // piece)
    reports = []
    for g0 in range(0, starts.size, per_group):
        group, wbar = starts[g0:g0 + per_group], None
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite Wbar is reported below
            for k0 in range(0, offsets.size, piece):
                rs = rows(group[:, None] + offsets[k0:k0 + piece])
                taus = offsets[k0:k0 + piece, None, None]
                b = rs @ (np.eye(5) + abar * taus + abar2 * (0.5 * taus * taus))
                part = (b * weights[k0:k0 + piece, None, None]).reshape(len(b), -1, 5).mT @ b.reshape(len(b), -1, 5)
                wbar = part if wbar is None else wbar + part
            wbar = wbar / delta
            wbar = 0.5 * (wbar + np.swapaxes(wbar, -1, -2))
        bad = ~np.isfinite(wbar).all(axis=(1, 2))
        if np.any(bad):
            raise FloatingPointError(f"non-finite observability Gramian in the window at t={group[np.argmax(bad)]:g}")
        mus = np.linalg.eigvalsh(wbar)[:, 0]
        reports += [GramianReport(t=float(t), delta=delta, W=np.kron(w, _I3), mu=float(mu), threshold=threshold)
                    for t, w, mu in zip(group, wbar, mus)]
    return reports


def gps_pe_condition(
    vdot,
    v,
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
    product for a velocity channel; ``xi_mag=None`` or ``v=None`` means
    the configuration has no such channel. Full rank of the sum is
    sufficient for uniform observability of the corresponding error pair:
    the report's ``W`` is the 3 x 3 sum and ``mu`` its least eigenvalue,
    which passes as a Gramian window's does. ``vdot`` and ``v`` are the
    values at the nodes of :func:`window_nodes`, shaped (nodes, 3); a (3,)
    value stands for every node. A sum that is not finite raises
    FloatingPointError naming the window.
    """
    ts, weights = window_nodes(t, delta, dt)
    g = np.asarray(g, dtype=float)

    def outer_mean(x):
        x = np.broadcast_to(np.asarray(x, dtype=float), ts.shape + (3,))
        return np.einsum("k,ki,kj->ij", weights, x, x) / delta

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum is reported below
        m = outer_mean(vdot - g)
        if xi_mag is not None:
            xi = np.asarray(xi_mag, dtype=float)
            m = m + np.outer(xi, xi)
        if v is not None:
            m = m + outer_mean(v)
        m = 0.5 * (m + m.T)
    if not np.all(np.isfinite(m)):
        raise FloatingPointError(f"non-finite excitation matrix in the window at t={t:g}")
    return GramianReport(t=t, delta=delta, W=m, mu=float(np.linalg.eigvalsh(m)[0]), threshold=threshold)
