"""How fast the machine runs at the moment, so that times can be scaled to
one reference speed.

The shared virtual machines this benchmark runs on change speed by up to
1.7 times, in phases that last from seconds to many minutes, and for every
process alike (CPU time slows as much as wall time).  A run that falls in a
slow phase would read slower than one in a fast phase of the same code,
by more than any bound a change could be judged by.  So the measuring loop
times a fixed piece of pure-Python work, ``reference_work``, every few
hundred milliseconds between the timed steps, and each time the benchmark
reports is divided by how much slower than ``REFERENCE_MS`` that work ran
around it.  A reported millisecond is a millisecond on a machine where
``reference_work`` takes ``REFERENCE_MS``.  The unscaled times are printed
and stored alongside.
"""

from __future__ import annotations

import bisect
import statistics
import time

REFERENCE_MS = 0.25     # reference_work's time at the reference speed
EVERY_S = 0.2           # least time between two samples
WINDOW_S = 2.0          # a span is scaled by the samples this close to it
REPEATS = 3             # each sample is the fastest of this many runs


def reference_work() -> int:
    """Fixed pure-Python work: integer arithmetic in a loop and a dict of
    string keys, the interpreter paths that slow down as the program does."""
    total = 0
    for i in range(3000):
        total += i * i
    table = {}
    for i in range(500):
        table[str(i)] = i
    return total + len(table)


class Gauge:
    """Samples of ``reference_work``'s time, and the slowdown they give
    for a timed span."""

    def __init__(self) -> None:
        self.at: list[float] = []       # perf_counter at each sample
        self.sample_ms: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            reference_work()
            best = min(best, time.perf_counter() - start)
        self.last = time.perf_counter()
        self.at.append(self.last)
        self.sample_ms.append(best * 1e3)

    def tick(self) -> None:
        """Sample when the last sample is EVERY_S old."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def slowdown(self, start: float, end: float) -> float:
        """How many times slower than the reference speed the machine ran
        from ``start`` to ``end``: the median of the samples within
        WINDOW_S of that span, or of the one nearest to it."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        near = self.sample_ms[lo:hi]
        if not near:
            i = min(bisect.bisect_left(self.at, start), len(self.at) - 1)
            if i and start - self.at[i - 1] < self.at[i] - end:
                i -= 1
            near = [self.sample_ms[i]]
        return statistics.median(near) / REFERENCE_MS

    def ms(self, spans, scaled: bool = True) -> list[float]:
        """Each ``(start, end)`` span in milliseconds, at the reference
        speed unless ``scaled`` is false."""
        if not scaled:
            return [(end - start) * 1e3 for start, end in spans]
        return [(end - start) * 1e3 / self.slowdown(start, end)
                for start, end in spans]
