"""Op timing corrected for the host's current speed.

On a shared host the speed of one core can change by a factor of two from
one second to the next, and process CPU time changes with it.  Wall time
alone then measures the host as much as the program.  `RefClock` samples the
host's speed while the benchmark runs: an interval timer interrupts the
program every PERIOD seconds and times a short, fixed reference loop that is
part of the benchmark, never of the program.  An op's wall time, minus the
time spent in those interruptions, is then scaled by REF_NOMINAL_S over the
reference loop's time around the op.  The result reads as the op's time on a
host where the reference loop takes REF_NOMINAL_S seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD = 0.005           # seconds of wall time between speed samples
WINDOW = 0.025           # samples this far before an op also count for it
REF_NOMINAL_S = 100e-6   # reference loop time in a fast phase of a 2-core host


def reference_loop(n: int = 600) -> int:
    """Fixed dict and integer work; it allocates no GC-tracked objects, so a
    garbage collection of the program's objects never lands in it."""
    d: dict[int, int] = {}
    s = 0
    for i in range(n):
        k = i % 97
        d[k] = d.get(k, 0) + i
        s += i * i % 7
    return s


class RefClock:
    """Times callables in nominal seconds while the interval timer runs."""

    def __init__(self):
        self.begun: list[float] = []     # start time of each speed sample
        self.ended: list[float] = []     # end time of each speed sample

    def _sample(self, *_):
        t0 = time.perf_counter()
        reference_loop()
        t1 = time.perf_counter()
        self.begun.append(t0)
        self.ended.append(t1)

    def __enter__(self):
        for _ in range(5):
            self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False

    def time(self, fn):
        """Call fn(); return (its result or exception, wall s, nominal s).

        Wall time leaves out the samples taken during the call.  The speed
        around the call is the median reference time over those samples and
        the ones in the WINDOW before the call.  A clock that was never
        entered returns wall time for both."""
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # the caller decides what a failure is
            result = exc
        t1 = time.perf_counter()
        wall = t1 - t0
        if not self.ended:      # never started: wall time is all there is
            return result, wall, wall
        around = []
        k = len(self.ended) - 1
        while k >= 0 and self.ended[k] >= t0 - WINDOW:
            if self.ended[k] <= t1:
                around.append(self.ended[k] - self.begun[k])
                if self.begun[k] >= t0:
                    wall -= self.ended[k] - self.begun[k]
            k -= 1
        if not around:
            around = [self.ended[-1] - self.begun[-1]]
        return result, wall, wall * REF_NOMINAL_S / statistics.median(around)

    def samples(self) -> int:
        return len(self.ended)
