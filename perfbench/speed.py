"""Machine-speed probe: a fixed reference kernel interleaved with the program.

On a shared virtual machine the speed of a vCPU drifts by tens of per
cent within seconds and stays off for minutes, which buries changes of
a few per cent in wall time. The probe runs a short reference kernel
(small NumPy products, a 3 x 3 SVD and small array builds, the same kind
of work the program does) from a SIGALRM handler every ``PERIOD_S`` while
the program runs. The handler executes in the main thread between
bytecodes, so each slice samples the speed the program sees at that
moment. A timed interval is reported as

    normalized = (wall - probe time) * NOMINAL_SLICE_S / mean slice time,

i.e. in seconds at the reference speed at which one slice takes
``NOMINAL_SLICE_S``. Changing the kernel, its size or the nominal slice
redefines the unit of every time metric.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.2
KERNEL_ITERATIONS = 700
NOMINAL_SLICE_S = 0.025

_P0 = np.eye(15)
_A = 0.1 * np.eye(15)
_C = np.full((15, 15), 0.01)
_R = np.eye(3) + 0.01


def reference_kernel() -> None:
    """The fixed work of one probe slice."""
    p = _P0
    for _ in range(KERNEL_ITERATIONS):
        ap = _A @ p
        pc = p @ _C.T
        p = _P0 + 1e-6 * (ap + ap.T - pc @ pc.T)
        np.linalg.svd(_R)
        w = np.array([[0.0, -0.1, 0.2], [0.1, 0.0, -0.3], [-0.2, 0.3, 0.0]])
        z = np.zeros((3, 5))
        z[:, 0] += _R @ w[:, 0]


class SpeedProbe:
    """Interleaves :func:`reference_kernel` slices with whatever runs."""

    def __init__(self):
        self.slices: list[tuple[float, float]] = []   # (start, end)

    def sample(self) -> float:
        """Run one slice now; returns its time."""
        t0 = time.perf_counter()
        reference_kernel()
        self.slices.append((t0, time.perf_counter()))
        return self.slices[-1][1] - t0

    def _tick(self, signum, frame):
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, t0: float = -np.inf, t1: float = np.inf) -> tuple[float, float]:
        """(probe seconds, slowdown factor) of the slices inside [t0, t1].

        The factor is the mean slice time over the nominal one; an interval
        with no slice gets the factor of every slice so far.
        """
        inside = [e - s for s, e in self.slices if s >= t0 and e <= t1]
        pool = inside or [e - s for s, e in self.slices]
        return sum(inside), float(np.mean(pool)) / NOMINAL_SLICE_S
