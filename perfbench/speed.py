"""The CPU-speed probe that the end-to-end times are scaled by.

On a shared VM the speed of one vCPU drifts by 10-20% within a run and by
more between runs a few minutes apart (steal time stays near zero, so
process CPU time drifts with wall time). The probe is a fixed loop of
pure-Python integer work. The benchmark runs it just before and just
after every timed op, and scales each op's wall time by NOMINAL_S over
the median probe time of the nearby ops: a window of WINDOW_OPS ops on
either side, because a single probe now and then runs up to 1.7x faster
for a moment, and one probe pair cannot speak for a seconds-long op. The
figures reported are then times at the speed at which the probe takes
NOMINAL_S: a program change moves them as it moves wall time, while the
host's drift mostly cancels. The probe allocates no container objects,
so it never triggers a garbage collection and does not slow down when the
program keeps more objects alive.
"""

from __future__ import annotations

import math
import statistics
import time

NOMINAL_S = 0.002   # about the probe's time on a 2-vCPU x86-64 VM, Python 3.11
ITERATIONS = 3000
WINDOW_OPS = 10


def _step(a: int, i: int) -> int:
    return (a * 2654435761 + i) % 4294967311


def probe_s() -> float:
    """Wall seconds for one fixed pass of integer arithmetic and calls."""
    t0 = time.perf_counter()
    a = 1
    for i in range(ITERATIONS):
        a = _step(a, i)
        if a & 1:
            a = math.gcd(a * 1000003, i + 77) + a // 7
    return time.perf_counter() - t0


def probe_median_s() -> float:
    return statistics.median(probe_s() for _ in range(11))


def scales(probes: list[tuple[float, float]]) -> list[float]:
    """One factor per op, from the (before, after) probe times of the ops:
    NOMINAL_S over the median of the probe times of op i - WINDOW_OPS to
    op i + WINDOW_OPS."""
    flat = [t for pair in probes for t in pair]
    out = []
    for i in range(len(probes)):
        lo, hi = 2 * max(0, i - WINDOW_OPS), 2 * (i + WINDOW_OPS + 1)
        out.append(NOMINAL_S / statistics.median(flat[lo:hi]))
    return out
