"""Machine-speed reference for the benchmark's timings.

The shared host this benchmark was built on changes speed by up to 1.6x
within seconds.  A fixed interpreter-bound task that never touches rayform
(Fraction arithmetic and small-object churn, like the engine's own inner
loops and mpmath's at moderate precision) is timed between jobs,
at most every EVERY_S seconds, on the same CPU as the jobs.  A job's time is
scaled by REF_S over the median probe time within WINDOW_S of the job, which
reports it at a fixed reference speed: the machine's drift cancels, while a
change to rayform moves the jobs and not the probe.
"""

from __future__ import annotations

import os
import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.005
EVERY_S = 0.05
WINDOW_S = 0.5


def probe_task() -> int:
    acc = 0
    for i in range(1, 400):
        x = Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3) - Fraction(1, i)
        acc += x.numerator % 7
    table = {}
    for i in range(3000):
        key = (i % 101, i & 7)
        table[key] = [key, (i, -i)]
    return acc + len(table)


class Pace:
    """Probes (start, end) taken during one run, in time order."""

    def __init__(self):
        self.marks: list[tuple[float, float]] = []

    def probe(self) -> None:
        start = perf_counter()
        probe_task()
        self.marks.append((start, perf_counter()))

    def tick(self) -> None:
        """Probe if the last probe ended more than EVERY_S ago."""
        if not self.marks or perf_counter() - self.marks[-1][1] >= EVERY_S:
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """REF_S over the median probe within WINDOW_S of [start, end],
        counting at least the last probe before it and the first after it."""
        before = [m for m in self.marks if m[1] <= start]
        after = [m for m in self.marks if m[0] >= end]
        if not before or not after:
            raise ValueError("a timed interval needs a probe on each side")
        near = [b - a for a, b in before if a >= start - WINDOW_S] or [before[-1][1] - before[-1][0]]
        near += [b - a for a, b in after if b <= end + WINDOW_S] or [after[0][1] - after[0][0]]
        return REF_S / statistics.median(near)


def pin_to_one_cpu() -> None:
    """Run this process and the children it starts on one CPU, so the probes
    measure the CPU the jobs run on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
