"""Host speed sampled while a workload runs, to scale its timings.

The benchmark runs on a few cores of a shared host whose speed for this
kind of code changes by up to 1.7x within seconds and drifts over
minutes, so raw timings of the same program spread past any useful bound
between runs.  A SIGALRM handler times a fixed calibration loop every
INTERVAL_S in the benchmark's own (single) thread: a Python loop over
numpy float scalars, the kind of loop the program spends its time in.
An operation's time is then scaled by REFERENCE_S over the mean loop time
sampled during it, which gives its time on a host that runs the loop in
REFERENCE_S.  The loop is fixed benchmark code, so a change to the program
moves the scaled times just as it moves the raw ones.  That holds while
the program runs in the benchmark's thread, as it does: work it moved to
other cores would slow the loop sampled here and be partly discounted.

The handler's own time is counted in ``spent`` so that operations it
interrupts can leave it out.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

LOOP_STEPS = 1000
INTERVAL_S = 0.1
# an operation shorter than this is scaled by the samples of the window
# of this width around its middle
MIN_WINDOW_S = 2.0
# seconds the loop takes on the reference host, about what one vCPU of
# a shared x86-64 virtual machine takes at its fastest
REFERENCE_S = 1e-3


def calibration_loop(values) -> int:
    """Counts sign changes between finite neighbours, as the program's
    scans do."""
    changes = 0
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if np.isfinite(a) and a * b < 0.0:
            changes += 1
    return changes


class SpeedSampler:
    """Times calibration_loop every INTERVAL_S while active (a context
    manager); samples are (time at the middle of the loop, loop seconds)."""

    def __init__(self):
        self.values = np.linspace(-1.0, 1.0, LOOP_STEPS)
        self.times: list[float] = []
        self.loops: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        start = time.perf_counter()
        calibration_loop(self.values)
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.loops.append(end - start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mean_loop(self, start: float, end: float) -> float:
        """Mean loop time sampled in [start, end], widened to MIN_WINDOW_S
        around its middle; the next sample (or the last) if none falls
        inside."""
        if end - start < MIN_WINDOW_S:
            middle = 0.5 * (start + end)
            start, end = middle - 0.5 * MIN_WINDOW_S, middle + 0.5 * MIN_WINDOW_S
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return statistics.fmean(self.loops[lo:hi])
        if not self.times:
            raise RuntimeError("no speed samples were taken")
        return self.loops[min(lo, len(self.times) - 1)]

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds measured in [start, end] into seconds
        on the reference host."""
        return REFERENCE_S / self.mean_loop(start, end)
