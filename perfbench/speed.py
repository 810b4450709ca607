"""Host-speed normalisation for the end-to-end timings.

On a shared host the speed of one core changes by 10-30% from one tenth of
a second to the next, and wall-clock times carry that noise. While a Meter
is entered (around set-up and the measured loop), a timer interrupts the
program every INTERVAL seconds and times one run of a fixed kernel: exact
Fraction elimination on a small matrix, the same kind of work as the
library, in pure Python, so it slows down with the host just as the ops
do. The kernel belongs to the benchmark; no change to the library can
speed it up or slow it down.

The time of an op (or of a set-up) in reference seconds (ref_s) is its
wall time, less the time spent in the kernel meanwhile, times the host's
mean speed over it in kernel runs per second (the mean of 1 / kernel time
over the samples taken while it ran, or over the MIN_SAMPLES nearest ones
when it is short), divided by KERNEL_RUNS_PER_REF_S. So one reference
second is the time in which the host runs the kernel KERNEL_RUNS_PER_REF_S
times, and the work of an op reads the same whether the host was fast or
slow. It all happens in this process, on one thread: the timer is a
signal, handled between bytecodes.
"""

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL = 0.02
MIN_SAMPLES = 9
KERNEL_RUNS_PER_REF_S = 1000

_MATRIX = [
    [Fraction((3 * i + 5 * j) % 11 - 5, (i * j) % 4 + 1) for j in range(7)]
    for i in range(6)
]


def kernel():
    """Reduced row echelon form of a fixed 6 x 7 rational matrix."""
    rows = [list(row) for row in _MATRIX]
    lead = 0
    for col in range(7):
        pivot = next((r for r in range(lead, 6) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[lead], rows[pivot] = rows[pivot], rows[lead]
        inv = 1 / rows[lead][col]
        rows[lead] = [x * inv for x in rows[lead]]
        for r in range(6):
            if r != lead and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[lead])]
        lead += 1
    return rows


def timed_kernel():
    """One kernel run in seconds, with the collector held off so that a
    collection of the op's objects does not land in the sample."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return start, time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class Meter:
    """Samples kernel times on a timer while entered, and converts op
    intervals measured with op_clock() to reference seconds."""

    def __init__(self):
        self.starts = []
        self.times = []
        self.paused = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start, elapsed = timed_kernel()
        self.starts.append(start)
        self.times.append(elapsed)
        self.paused += time.perf_counter() - start

    def __enter__(self):
        for _ in range(20):
            timed_kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def op_clock(self):
        """(wall clock, seconds paused so far) at this moment."""
        return time.perf_counter(), self.paused

    def ref_seconds(self, begin, end):
        """Reference seconds of the op between two op_clock() readings."""
        (t0, p0), (t1, p1) = begin, end
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            before = t0 - self.starts[lo - 1] if lo > 0 else float("inf")
            after = self.starts[hi] - t1 if hi < len(self.starts) else float("inf")
            if before <= after:
                lo -= 1
            else:
                hi += 1
        if hi - lo < MIN_SAMPLES:
            raise RuntimeError("too few host-speed samples to normalise an op")
        runs_per_s = statistics.fmean(1 / t for t in self.times[lo:hi])
        return (t1 - t0 - (p1 - p0)) * runs_per_s / KERNEL_RUNS_PER_REF_S
