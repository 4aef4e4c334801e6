"""How fast the machine runs Python during a run, from a fixed loop timed
between pieces of the workload's work.

On a shared host the speed of a core changes from second to second and
drifts over minutes, by more than a throughput bound can absorb, and the
change is common to the Python code that runs on that core. So a run times a
fixed loop of integer arithmetic, which calls no labelloop code and keeps no
objects, about every 0.1 s between pieces of the workload's own work, and
scales its throughput by the loop's mean time:

    studies_per_s = studies / work_s * mean(loop_s) / REFERENCE_LOOP_S

That is the throughput the run would have had on a core where the loop takes
``REFERENCE_LOOP_S``. The loop's time does not depend on the program, so a
program change moves the scaled rate as it moves the raw one; the host's
speed moves the loop and the work alike and cancels. The time spent in the
loop is left out of ``work_s``.
"""

from __future__ import annotations

import statistics
import time

LOOP_N = 100_000
# the loop's time on the core the baseline was measured on, rounded
REFERENCE_LOOP_S = 0.01


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class SpeedProbe:
    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0  # wall time inside sample(), to leave out of work

    def sample(self) -> None:
        started = time.perf_counter()
        _loop(LOOP_N)
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def burst(self, n: int) -> None:
        for _ in range(n):
            self.sample()

    def scale(self) -> float:
        """Factor from the measured rate to the rate at the reference speed."""
        return statistics.fmean(self.samples) / REFERENCE_LOOP_S
