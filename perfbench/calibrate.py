"""Host-speed calibration for the timed metrics.

The machines this benchmark runs on are shared: the same operations run
10-30% slower for minutes at a time while neighbours are busy.  A fixed
probe is therefore timed after every operation, and each gated time is
scaled by REFERENCE_S / (median probe time around it), expressing it at
the host speed the probe had on the reference machine (2-core x86 VM,
Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  The raw figures print
alongside.

The probe does not use hessianls: it is scipy's RK45 with a Python
right-hand side on a fixed damped nonlinear oscillator, the same kind of
work (interpreter-bound small-array steps) as the package's radial
solves, so slow phases slow it by about as much.  A change to the
package cannot change the probe.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

# Median probe time on the reference machine.
REFERENCE_S = 0.012


def _rhs(t, y):
    return np.array([y[1], -y[0] * math.sqrt(abs(y[0]) + 1e-3) - 0.1 * y[1] / (1.0 + t)])


def probe() -> float:
    """Seconds of one fixed RK45 solve."""
    start = time.perf_counter()
    solve_ivp(_rhs, (0.0, 8.0), [1.0, 0.0], method="RK45", rtol=1e-9, atol=1e-12)
    return time.perf_counter() - start


class Calibration:
    """Probe times of one phase of a run, with when they were taken."""

    def __init__(self, warmup: int = 3):
        for _ in range(warmup):
            probe()
        self.samples = []   # (start, seconds)
        self.ops = []       # (start, end) of each timed op

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append((time.perf_counter(), probe()))

    def median_s(self) -> float:
        return statistics.median(s for _, s in self.samples)

    def scale(self) -> float:
        """Factor taking this phase's times to reference host speed."""
        return REFERENCE_S / self.median_s()

    def op_scales(self, margin: float = 5.0):
        """Factor for each recorded op: from the median of the probes taken
        from ``margin`` seconds (or the op's own duration, if longer) before
        the op to as long after it, so a slow phase is matched where it
        happened."""
        scales = []
        for start, end in self.ops:
            pad = max(margin, end - start)
            window = [s for t, s in self.samples if start - pad <= t <= end + pad]
            scales.append(REFERENCE_S / statistics.median(window or
                                                          [s for _, s in self.samples]))
        return scales
