"""Operation cost in reference units.

A reference unit is the wall time of one run of ``reference_kernel``, a
fixed piece of exact rational arithmetic that uses no curvealex code. The
2-core machines this benchmark was tuned on switch between speeds about
1.7 times apart, for anything from a tenth of a second to over a minute;
the program and the kernel slow down by nearly the same factor, so their
ratio stays put where wall time does not.

``RefClock`` times the kernel every ``PROBE_EVERY_S`` seconds from a
SIGALRM handler, also in the middle of a long operation, and converts an
interval of wall time into reference units by dividing each stretch
between two probes by the mean of those two probes. Time spent probing is
left out of every interval.
"""

from __future__ import annotations

import bisect
import math
import signal
import sys
import time
from fractions import Fraction

REFERENCE_TERMS = 300  # 1.0 to 1.6 ms on a 2.0 GHz Xeon core
PROBE_EVERY_S = 0.1


def reference_kernel() -> Fraction:
    """The exact harmonic sum H_299: rational arithmetic on integers of up
    to about 130 digits, like the program's own."""
    total = Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += Fraction(1, i)
    return total


class RefClock:
    """While entered, probes the reference kernel periodically; ``measure``
    then converts intervals inside that time."""

    def __init__(self):
        self.starts, self.ends = [], []  # perf_counter bounds of each probe
        self.units = []  # seconds per reference unit at each probe

    def _probe(self, *_signal) -> None:
        if sys.getprofile() is not None:
            # inside a profiled call: pausing cProfile would drop the rest
            # of the self time of every frame on the stack
            return
        start = time.perf_counter()
        best = math.inf
        for _ in range(2):  # the faster of two, so one interrupt is ignored
            t = time.perf_counter()
            reference_kernel()
            best = min(best, time.perf_counter() - t)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.units.append(best)

    def __enter__(self) -> RefClock:
        signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._probe()  # closes the last stretch

    def measure(self, start: float, end: float) -> tuple:
        """(seconds, reference units) from ``start`` to ``end``, two
        perf_counter readings taken outside any probe while entered."""
        k = bisect.bisect_right(self.ends, start)  # the next probe
        seconds = units = 0.0
        at = start
        while True:
            stop = min(self.starts[k], end)
            mean = (self.units[max(k - 1, 0)] + self.units[k]) / 2
            seconds += stop - at
            units += (stop - at) / mean
            if self.starts[k] >= end:
                return seconds, units
            at = self.ends[k]
            k += 1
