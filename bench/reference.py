"""The host's speed, measured between jobs with a fixed routine.

On a shared host the speed this process gets drifts by tens of percent
within minutes, as neighbours on the same cores come and go, and two runs of
the same code a few minutes apart differ by as much.  `run.py` therefore
times this routine, which never touches boxagree, before every job and after
the last one of a pass (about 4 ms each time), and scales each job's time by
(NOMINAL_S / r) ** EXPONENT, where r is the median of the routine's times
taken from WINDOW_S before the job to WINDOW_S after it.  A change to
boxagree moves the scaled times as it moves the measured ones; most of a
change in the host's speed cancels out.

The routine's time follows the jobs' only in part: on this kind of host it
also swings with load that leaves the jobs alone, and the other way round.
Regressing the log of single jobs' times on the log of the routine's times
around them under a loaded neighbour gave slopes of 0.4 to 1.1, median 0.6;
the least-squares factor is that slope, hence EXPONENT.  Over two sets of
runs of every workload, recorded with an exponent of 1 and rescaled, the
largest spread of a workload's median pass time was 0.19 unscaled, 0.15
with an exponent of 1 and 0.11 with 0.6 (see bench/README.md).  The
window is wide because a single timing is noisy: scaled by the two timings
around it alone, the 5 s job of `orderly` spread more than it did unscaled.

The routine mixes what boxagree's own code does most: comparisons and sums
of Fractions stored in frozen dataclasses, as in the geometry (about 60% of
its time), recursion over integer bitsets, small tuples, dicts and sets of
ints, sorting.  The routine takes about
NOMINAL_S on the hardware the benchmark was written on (see
bench/baseline.json) and runs with the collector off, so that collections of
objects the library left behind are not charged to the host.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 1e-3
WINDOW_S = 2.0  # timings this close to a job, before or after it, give its speed
EXPONENT = 0.6  # how far job times follow the routine's (see above)
_N = 30
_GRAPH = [sum(1 << j for j in range(_N) if j != i and (i * 7 + j * 13) % 5 < 3)
          for i in range(_N)]


def _cliques(cand: int, depth: int) -> int:
    total = 1
    if depth:
        while cand:
            v = cand.bit_length() - 1
            cand &= ~(1 << v)
            total += _cliques(cand & _GRAPH[v], depth - 1)
    return total


@dataclass(frozen=True)
class _Interval:
    lo: Fraction
    hi: Fraction


_ENDS = [(Fraction(i * 7 % 23, 2), Fraction(i * 7 % 23 + 9, 2)) for i in range(24)]


def _overlaps() -> int:
    met = 0
    for a_lo, a_hi in _ENDS[:4]:
        for b_lo, b_hi in _ENDS:
            lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
            if lo <= hi:
                met += _Interval(lo, hi).hi >= (lo + hi) / 2
    return met


def routine() -> int:
    counts: dict[tuple, int] = {}
    for i in range(300):
        key = ((i * 37) % 101, i % 3)
        counts[key] = counts.get(key, 0) + i
    values = sorted(set(counts.values()) | {i * i % 97 for i in range(200)})
    return _cliques((1 << _N) - 1, 3) + len(values) + _overlaps()


def timed() -> float:
    """Seconds one call of `routine` takes now: the median of three calls,
    so that an interrupt during one of them does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            start = perf_counter()
            routine()
            times.append(perf_counter() - start)
        return sorted(times)[1]
    finally:
        if enabled:
            gc.enable()


class Speed:
    """The routine's timings of one run, each with the moment it was taken."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        self.seconds.append(timed())
        self.times.append(perf_counter())

    def scale(self, start: float, seconds: float) -> float:
        """A job's `seconds`, begun at `start`, scaled to the nominal speed by
        the median of the timings from WINDOW_S before it to WINDOW_S after."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, start + seconds + WINDOW_S)
        return seconds * (NOMINAL_S / statistics.median(self.seconds[lo:hi])) ** EXPONENT
