"""Timing in seconds at a fixed reference host speed.

On a shared host the speed Python runs at is not constant: on a
two-core shared VM it switched between two levels about 1.5x apart
several times a second, and the share of time spent at the slow level
drifted from minute to minute (busy sibling threads on the same cores,
frequency changes).
Raw wall times then follow the host as much as the program, by more
than any useful regression bound.

:class:`HostClock` samples the host's speed between the operations a
run times: :meth:`HostClock.probe` times a short fixed loop (best of
three). :meth:`HostClock.seconds` then scales a wall-clock interval by
``REFERENCE_PROBE_S / probe time``, with the probe time interpolated
linearly between the samples around the interval. The result is the
interval in seconds of a host that runs the probe loop in
``REFERENCE_PROBE_S``; a change to the program moves it, a change of
host speed largely does not. The probe also moves the process, at most
once a second, to the CPU that runs the loop fastest.
"""

import bisect
import os
import time
from typing import List

#: The probe loop's best time on the host the benchmark was tuned on (s).
REFERENCE_PROBE_S = 1.3e-3
#: Least wall seconds between two speed samples, unless one is forced.
PROBE_EVERY_S = 0.1
#: Least wall seconds between two moves to the fastest CPU.
REPIN_EVERY_S = 1.0

#: The CPUs this process may run on, before it pins itself to one.
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []


def probe_loop() -> float:
    """Best of three timings of a fixed dict-filling loop (seconds)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        table = {}
        for i in range(20_000):
            table[i] = i * 7 % 13
        best = min(best, time.perf_counter() - started)
    return best


def _probe_on(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    return probe_loop()


class HostClock:
    """Speed samples over a run, and intervals converted with them."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.factors: List[float] = []
        self.pinned = -float("inf")

    def probe(self, force: bool = False) -> None:
        """Take a speed sample if the last is ``PROBE_EVERY_S`` old (or
        ``force``). Call it only between timed operations."""
        now = time.perf_counter()
        if not force and self.times and now - self.times[-1] < PROBE_EVERY_S:
            return
        if len(CPUS) > 1 and now - self.pinned >= REPIN_EVERY_S:
            os.sched_setaffinity(0, {min(CPUS, key=_probe_on)})
            self.pinned = now
        self.factors.append(REFERENCE_PROBE_S / probe_loop())
        self.times.append(time.perf_counter())

    def _factor(self, at: float) -> float:
        times, factors = self.times, self.factors
        index = bisect.bisect_left(times, at)
        if index == 0:
            return factors[0]
        if index == len(times):
            return factors[-1]
        left, right = times[index - 1], times[index]
        weight = (at - left) / (right - left)
        return factors[index - 1] + weight * (factors[index] - factors[index - 1])

    def seconds(self, start: float, end: float) -> float:
        """Reference seconds of the wall interval ``[start, end]``.

        Exact integral of the interpolated factor; take a sample after
        ``end`` first, or the interval is scaled by the last sample.
        """
        lo = bisect.bisect_right(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        points = [start, *self.times[lo:hi], end]
        return sum(
            (b - a) * (self._factor(a) + self._factor(b)) / 2
            for a, b in zip(points, points[1:])
        )
