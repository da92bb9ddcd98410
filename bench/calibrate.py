"""Machine-speed calibration of measured op times.

Shared hosts change speed under a single-threaded process: on the machine
this benchmark was tuned on, every piece of Python code ran about 1.9x
slower for minutes at a time and then switched back, with no steal time
and CPU time equal to wall time.  Raw wall times of one workload then
spread by 20-40% (interquartile range over ten runs), which hides most
changes to the program.

The benchmark therefore times a fixed reference slice, pure Python code of
its own that never changes with the program, between ops.  Over 7 minutes
of interleaved samples, op time divided by the local reference time varied
about five times less than op time alone (log standard deviation 0.04
against 0.20 over 10-second windows) on all four workloads.  Op time did
not slow as much as the reference: it grew as the ``BETA`` power of the
reference time.  Least-squares fits of log op time on log reference time
gave 0.65 to 0.83 over 2.5 to 4 minutes of ops and slices interleaved in
one process, and 0.85 to 0.95 over ten runs of each workload; the fitted
power changed with the host's state, and 0.8 lies between.
An op's calibrated time is its wall time times ``(NOMINAL_S / r) ** BETA``
with r the median reference time measured around it: the time it would
have taken with the reference slice at its nominal speed.  Raw times are
kept as well.

The slice runs in the process under test, so it is timed with the garbage
collector switched off (and restored afterwards): collector settings and
the size of the heap the program keeps do not reach the reference time.
The calibrated figures still assume that the program leaves the rest of
the interpreter's global state alone.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

# reference_slice() time on that machine in its fast state (2 vCPUs)
NOMINAL_S = 0.0027
BETA = 0.8
NEIGHBOURS = 7      # samples around an op that set its local speed
SAMPLE_EVERY_S = 0.1  # op time between samples


def calibrated(seconds: float, reference_seconds: float) -> float:
    return seconds * (NOMINAL_S / reference_seconds) ** BETA


def reference_slice() -> int:
    """Fixed mix of the interpreter work the package does: tuple-keyed dicts,
    integer arithmetic, dense row elimination, face-like tuple sets."""
    acc, x = {}, 1
    for i in range(3000):
        key = (i % 37, i % 11)
        acc[key] = acc.get(key, 0) + i * i
        x = (x * 1103515245 + 12345) % (1 << 61)

    n = 16
    A = [[((i * 7 + j * 13) % 11) - 5 for j in range(n)] for i in range(n)]
    for t in range(n):
        p = next((i for i in range(t, n) if A[i][t]), None)
        if p is None:
            continue
        A[t], A[p] = A[p], A[t]
        for i in range(t + 1, n):
            if A[i][t]:
                a, b = A[t][t], A[i][t]
                A[i] = [a * u - b * v for u, v in zip(A[i], A[t])]
    M = [{j: (i * j) % 5 for j in range(40) if (i + j) % 3} for i in range(40)]
    C = [[sum(M[i].get(k, 0) * M[k].get(j, 0) for k in range(40)) for j in range(0, 40, 4)]
         for i in range(0, 40, 4)]

    faces = set()
    for a in range(1, 12):
        for b in range(a + 1, 12):
            for c in range(b + 1, 12):
                if (a + b + c) % 3:
                    f = (a, b, c)
                    faces.update({(), (a,), (b,), (c,), (a, b), (a, c), (b, c), f})
    ordered = sorted(faces, key=lambda f: (len(f), f))
    index = {f: i for i, f in enumerate(ordered)}
    hits = sum(index.get(f[:j] + f[j + 1:], 0) for f in ordered for j in range(len(f)))
    return x + len(acc) + C[1][1] + hits


def timed_reference() -> tuple:
    """(start, end) perf_counter stamps of one reference slice, run with the
    garbage collector off so that the program's GC state cannot change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        reference_slice()
        return start, perf_counter()
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Reference-slice timings taken between ops, with their midpoints."""

    def __init__(self):
        self.times: list = []
        self.durations: list = []
        self._since = 0.0

    def sample(self) -> None:
        start, end = timed_reference()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self._since = 0.0

    def after_op(self, op_seconds: float) -> None:
        """Sample once at least SAMPLE_EVERY_S of op time has passed."""
        self._since += op_seconds
        if self._since >= SAMPLE_EVERY_S:
            self.sample()

    def calibrate(self, seconds: float, at: float) -> float:
        """Calibrate an op time by the samples nearest its midpoint `at`."""
        i = bisect.bisect_left(self.times, at)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.times) - NEIGHBOURS))
        return calibrated(seconds, statistics.median(self.durations[lo:lo + NEIGHBOURS]))

    def slowdown(self) -> float:
        """Median reference time over its nominal value, for the record."""
        return statistics.median(self.durations) / NOMINAL_S
