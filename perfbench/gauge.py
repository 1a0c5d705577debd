"""A fixed pure-Python kernel that gauges the speed of the CPU right now.

The benchmark shares a few cores of a host with other work, and the speed it
gets drifts by a third, back and forth within seconds: in a 5-minute trial,
single lift-candidates passes took 5.4 s in fast stretches and 7.6 s in slow
ones.  ``Gauge`` times the kernel before and after every timed region and,
on a timer signal, every ``PERIOD_S`` inside it; a region's time divided by
the mean of its samples takes most of the drift out.  In a trial of 19
lift-candidates passes the pass totals spread 12% (quartile distance over
median) in wall time, and 3.5% gauged with this kernel.  A kernel of
products of dicts keyed by ints, which stays in the first-level cache, left
7%, and a pointer chase through a 2 MB table 6.5%: the kernel has to do the
engine's kind of work, allocating tuples and hashing them into dicts.  When
each sentence was gauged only before and after it, 12% was left.

The kernel uses no engine code, so a change to the engine never changes it.
Gauged times are in reference seconds: the time the work would take on a CPU
that runs one sample in ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager

REPS = 3                # kernel repetitions in one sample, about 1 ms
REFERENCE_S = 0.0008
PERIOD_S = 0.05         # samples inside a region cost about 2% of its time

_P = 7
_A = {(i, j, i * j % 3): (i + 2 * j) % _P for i in range(5) for j in range(4)}
_B = {(i, j, (i + j) % 2): (3 * i + j + 1) % _P for i in range(4) for j in range(4)}


def kernel(reps=REPS):
    """Products of two polynomials over F_7 in three variables, kept as
    dicts from exponent tuples to coefficients."""
    total = 0
    for _ in range(reps):
        prod = {}
        for ea, x in _A.items():
            for eb, y in _B.items():
                e = tuple(u + v for u, v in zip(ea, eb))
                prod[e] = (prod.get(e, 0) + x * y) % _P
        total += len(prod)
    return total


def sample(clock=time.perf_counter):
    """Seconds one sample of the kernel takes now."""
    t0 = clock()
    kernel()
    return clock() - t0


class Region:
    """A timed region: ``seconds`` of wall time with the gauge samples taken
    inside it left out, and ``gauge``, the mean sample from the one right
    before the region to the one right after it."""

    seconds = gauge = None

    @property
    def reference_s(self):
        return self.seconds * REFERENCE_S / self.gauge


class Gauge:
    """Samples the kernel on SIGALRM every ``PERIOD_S`` while entered.

    Only one may be entered at a time; exiting stops the timer and restores
    the previous handler.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.samples = []
        self.regions = []
        self.sampling_s = 0.0   # wall time the timer-driven samples took

    def __enter__(self):
        for _ in range(3):      # let the interpreter specialise the kernel
            kernel()
        self.samples.append(sample(self.clock))
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        t0 = self.clock()
        self.samples.append(sample(self.clock))
        self.sampling_s += self.clock() - t0

    @contextmanager
    def region(self):
        """Time the enclosed work; the yielded ``Region`` is filled in on exit
        and appended to ``regions``."""
        region = Region()
        first = len(self.samples) - 1
        sampled = self.sampling_s
        t0 = self.clock()
        try:
            yield region
        finally:
            region.seconds = self.clock() - t0 - (self.sampling_s - sampled)
            self.samples.append(sample(self.clock))
            region.gauge = statistics.fmean(self.samples[first:])
            self.regions.append(region)
