"""Speed-normalized time for a machine whose speed drifts.

On a shared 2-vCPU Intel Xeon host the same pure-Python work can take twice as
long from one second to the next: a fixed star sweep ran between 1.41 s and
2.66 s over 30 back-to-back repeats.  Raw wall times then spread far wider
than any regression bound.  So the benchmark samples the machine's current
speed with a fixed calibration kernel every ``INTERVAL_S`` and reports time
on a virtual clock that advances at the reference speed: every interval of
workload time is scaled by ``NOMINAL_S / (current kernel duration)``.  Over
the same 30 repeats the virtual clock read 0.79 s to 0.86 s.  Time spent in
the kernel itself is excluded.

The kernel mimics the package's hot path (interpreter-bound scalar math on
small numpy arrays), so contention slows both alike.  Caveat: work that the
program moves to other threads or processes is not sampled.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.025
ROUNDS = 150
NOMINAL_S = 0.0005  # kernel duration on an idle core of that host: one reference second

_BASE = np.linspace(0.5, 1.5, 16).reshape(4, 4)


def calibration_kernel() -> float:
    """Fixed work: scalar reads, writes and reductions on a 4x4 array."""
    a = _BASE.copy()
    s = 0.0
    for i in range(ROUNDS):
        s += float(a[i % 4, (i * 3) % 4]) * 1.0001
        a[i % 4, 1] = math.sqrt(s % 7.0)
        s += float(np.sum(a[1:3, 2]))
    return s


def kernel_seconds(repeats: int = 5) -> float:
    """Median duration of the calibration kernel, measured right now."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        calibration_kernel()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


class SpeedClock:
    """Virtual clock at the reference speed, driven by SIGALRM samples.

    Use as a context manager around the timed work, on the main thread, and
    read it with ``now()``.  The state is one tuple, replaced in one
    assignment by the signal handler, so ``now()`` never reads a torn update.
    """

    def __init__(self) -> None:
        self.durations: list[float] = []
        self._state = (0.0, time.perf_counter(), 1.0)  # (virtual, mark, factor)
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        virtual, mark, factor = self._state
        t0 = time.perf_counter()
        calibration_kernel()
        t1 = time.perf_counter()
        self.durations.append(t1 - t0)
        recent = statistics.median(self.durations[-3:])
        self._state = (virtual + (t0 - mark) * factor, t1, NOMINAL_S / recent)

    def __enter__(self) -> "SpeedClock":
        calibration_kernel()  # warm
        self._state = (0.0, time.perf_counter(), NOMINAL_S / kernel_seconds())
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def now(self) -> float:
        virtual, mark, factor = self._state
        return virtual + (time.perf_counter() - mark) * factor

    def slowdown(self) -> float:
        """Median kernel duration over the reference one: 2.0 means the
        machine ran at half the reference speed."""
        return statistics.median(self.durations) / NOMINAL_S if self.durations else float("nan")
