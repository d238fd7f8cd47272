"""Host speed, sampled while the program under test runs.

On a shared host, neighbours slow the same code by up to 2x, for seconds
at a time and for minutes at a time.  So the benchmark times every
operation in CPU seconds and divides by the measured speed of the host
at that moment.  The speed comes from a calibration slice, about 1 ms of
fixed pure-Python work, that a profiling timer (SIGPROF) runs every
INTERVAL_S of CPU time, in the middle of whatever the program is doing.
A reported time then means "seconds on a host that runs the slice in
REFERENCE_S".  The slice uses only the standard library and never
changes with the program; the garbage collector is off while it runs,
so its time does not depend on how much the program keeps alive.

Times are read from the thread's CPU clock: while a process-wide CPU
timer is armed, Linux updates the process clock only at scheduler ticks.
"""

from __future__ import annotations

import gc
import signal
from contextlib import contextmanager
from fractions import Fraction
from time import thread_time

# fixed scale: about the CPU seconds of one slice run by the timer, amid
# the program's work, on a quiet 2-vCPU Sapphire Rapids guest under
# Python 3.11.7 (back to back, with warm caches, it takes 0.75-0.95 ms)
REFERENCE_S = 0.001
# CPU seconds between two timed slices
INTERVAL_S = 0.01


def _slice() -> int:
    """Fraction elimination, small-integer loops and dict work: the mix
    the bishops kernels spend their time in."""
    size = 6
    rows = [[Fraction(1, i + j + 1) for j in range(size)] for i in range(size)]
    for col in range(size):
        pivot = rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / pivot
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    table: dict[int, int] = {}
    for k in range(3_000):
        table[k & 255] = table.get(k & 255, 0) + (k ^ (k >> 3))
    return rows[-1][-1].denominator + sum(table.values())


class Sampler:
    """Count and total CPU time of the slices run so far."""

    def __init__(self) -> None:
        self.count = 0
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        """Run and time one slice; also the SIGPROF handler."""
        if self._busy:  # the timer fired during a slice
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = thread_time()
            _slice()
            self.spent += thread_time() - start
            self.count += 1
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def mark(self) -> tuple[int, float]:
        return self.count, self.spent

    def scale(self, since: tuple[int, float], slices: int) -> float:
        """Factor from CPU seconds to reference seconds for the work done
        since the mark ``since``: REFERENCE_S over the mean time of the
        slices run since then, first topped up to ``slices`` of them."""
        count, spent = since
        while self.count - count < slices:
            self.sample()
        return REFERENCE_S * (self.count - count) / (self.spent - spent)

    @contextmanager
    def running(self):
        """Run a slice every INTERVAL_S of the process's CPU time."""
        previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, previous)
