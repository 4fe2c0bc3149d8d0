"""How fast the machine runs right now, gauged by a fixed kernel.

On a shared machine the speed of one core drifts by up to 2x within
seconds and over minutes, so raw wall times of the same commands spread
widely from run to run. A ``Gauge`` times a small fixed pure-Python
kernel (Fractions, floats, tuples; no seqlab) in thread CPU time: on
demand between commands, and from a SIGALRM interval timer while a
command runs, so a long command is sampled throughout. ``scale(t0, t1)``
is REF_S over the mean kernel cost of the samples taken in [t0, t1] and
of the samples next to it; a wall time multiplied by it reads as
seconds at the reference speed.

Thread CPU time keeps a sample honest when the main thread has to wait
for the interpreter lock (the ``--jobs`` worker holds it in the fleet).
"""
from __future__ import annotations

import bisect
import gc
import math
import signal
import statistics
import time
from fractions import Fraction

#: kernel cost (thread CPU seconds) at the speed all times are scaled to
REF_S = 0.002
#: samples beyond each end of an interval that ``scale`` also uses
EDGE = 3
#: seconds between timer samples while a command runs
INTERVAL = 0.2


def kernel() -> None:
    acc = Fraction(0)
    xs = []
    for i in range(1, 600):
        acc += Fraction(i % 7 - 3, i % 13 + 1)
        xs.append(float(i) * 0.5 + abs(float(acc)))
    math.fsum(x * x for x in xs)
    tuple(v * 2 for v in xs)


class Gauge:
    def __init__(self):
        self.at: list[float] = []    # perf_counter when each sample ended
        self.cost: list[float] = []  # its kernel's thread CPU seconds
        self._busy = False

    def sample(self, reps: int = EDGE) -> None:
        if self._busy:  # a timer tick inside an explicit sample
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(reps):
                c0 = time.thread_time()
                kernel()
                cost = time.thread_time() - c0
                self.at.append(time.perf_counter())
                self.cost.append(cost)
        finally:
            if enabled:
                gc.enable()
            self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample(1)

    def __enter__(self) -> "Gauge":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, t0: float, t1: float) -> float:
        lo = max(0, bisect.bisect_left(self.at, t0) - EDGE)
        hi = bisect.bisect_right(self.at, t1) + EDGE
        return REF_S / statistics.fmean(self.cost[lo:hi])
