"""Machine speed, sampled all through a run.

The shared host runs the same Python code at two speeds about 1.8x apart
and switches between them several times a second, so two runs of the same
code can differ by a third in wall time.  ``Sampler`` runs a fixed piece of
exact-fraction work from a SIGALRM handler every ``PERIOD_S`` seconds and
records how long it took.  ``Sampler.work_s`` turns an interval into the
seconds of program work it held at the reference speed, which is
``REF_KERNEL_S`` per kernel: its wall time less the handler's own, times the
mean speed of the samples within ``MARGIN_S`` of it.

This is a signal handler, not a thread: it runs on the benchmark's one
thread, between the program's bytecodes.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction

PERIOD_S = 0.05
REF_KERNEL_S = 0.001
MARGIN_S = 0.5


def _kernel() -> int:
    total = 0
    for i in range(1, 150):
        x = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3) + Fraction(1, i % 7 + 1)
        total += x.numerator % 7
    return total


class Sampler:
    def __init__(self):
        self.times: list[float] = []  # start of each sample, increasing
        self.kernels: list[float] = []  # its duration
        self._previous = None
        self._busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a stall let the next tick land inside this sample
            return
        self._busy = True
        start = time.perf_counter()
        _kernel()
        self.kernels.append(time.perf_counter() - start)
        self.times.append(start)
        self._busy = False

    def __enter__(self) -> Sampler:
        for _ in range(5):  # every interval then has samples to draw on
            self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def work_s(self, start: float, end: float) -> float:
        """Seconds of program work in [start, end), at the reference speed."""
        lo, hi = bisect_left(self.times, start), bisect_left(self.times, end)
        work = end - start - sum(self.kernels[lo:hi])
        lo, hi = bisect_left(self.times, start - MARGIN_S), bisect_left(self.times, end + MARGIN_S)
        near = self.kernels[lo:hi] or self.kernels
        return work * statistics.fmean(REF_KERNEL_S / k for k in near)
