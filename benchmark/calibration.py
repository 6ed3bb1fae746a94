"""Machine-speed reference timed while the benchmark's operations run.

The shared 2-core VM this benchmark was tuned on changes speed by up to
1.7x over minutes (other tenants share its cores).  CPU time drifts with
wall time, so no run that fits the time budget averages the drift out:
raw round times of one workload spread by a third between runs.  A fixed
kernel -- Python loops, float math through function calls, and small
numpy operations with a 21x21 LU solve, the mix the stepper spends its
time on, but none of droope's code -- is timed every half second from a
SIGALRM handler and at every operation boundary.  Scaling an operation's
wall time by ``REFERENCE_S`` over the mean kernel time seen during it
gives seconds at a fixed reference speed.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

# Median kernel time on a shared 2-core Intel Xeon VM, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1.
REFERENCE_S = 0.0220

_LU = lu_factor(np.eye(21) * 4.0 + 0.1)
_X0 = np.linspace(0.0, 1.0, 21)


def _kernel() -> float:
    """About equal parts integer loop, float math with calls and dict
    lookups, and small numpy operations with a 21x21 LU solve."""
    total = 0
    for i in range(100_000):
        total += i * i
    acc, d = 0.0, {"a": 1.0, "b": 2.0}
    for i in range(20_000):
        acc += math.sin(i * 1e-3) * d["a"] + math.cos(acc * 1e-6) * d["b"]
    x = _X0.copy()
    for _ in range(330):
        y = np.sin(x) * 0.5 + x
        x = lu_solve(_LU, y) + np.concatenate([x[:10], y[10:]]) * 1e-3
    return float(x[0]) + acc + total


class SpeedProbe:
    """Kernel samples taken periodically and on demand.

    ``spent`` is the wall time the samples took; callers subtract it from
    the wall of the work they time.
    """

    def __init__(self, period: float = 0.5):
        self.period = period
        self.kernel_s: list[float] = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def sample(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            t0 = time.perf_counter()
            _kernel()
            dt = time.perf_counter() - t0
            self.kernel_s.append(dt)
            self.spent += dt
        finally:
            self._busy = False

    def mean_since(self, index: int) -> float:
        """Mean kernel time from sample ``index`` on.  The periodic samples
        are spread evenly in time, so the mean follows the machine's speed
        averaged over the interval, as the interval's wall time does."""
        return statistics.fmean(self.kernel_s[index:])

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
