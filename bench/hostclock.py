"""Scaling measured times to a fixed host speed.

The benchmark runs on a few vCPUs of a shared machine whose speed drifts,
from one second to the next and in phases of up to a minute: a fixed
pure-Python loop alternated between about 47 and 67 ms, and raw wall times
of whole 30-second runs scattered by 30 to 50% from seed to seed.  Every
time the benchmark reports is therefore scaled to a fixed host speed.

A clock interrupts the process every EVERY_S seconds of wall time (SIGALRM,
handled between bytecodes of whatever is running, ops included) and times a
short reference loop that does not touch the program.  An interval's work is
its wall time less the time spent in those samples, and its scaled time is

    work * REF_S / (median reference time near the interval)

where "near" is the samples inside the interval if there are at least NEAR
of them, else those plus up to NEAR on each side.  One reference loop counts
as REF_S of scaled time; on a 2-vCPU virtual machine it takes 1.5 to 2.5 ms,
so scaled times read close to wall times.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

REF_S = 0.002       # scaled duration of one reference loop
REF_ITERS = 20_000  # the loop's fixed amount of work
EVERY_S = 0.1       # wall time between samples
NEAR = 3


def reference_loop() -> int:
    s = 0
    for i in range(REF_ITERS):
        s += i * i % 7
    return s


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class HostClock:
    """Reference-loop samples taken on a timer while the clock runs.

    Use as a context manager; `mark()` stamps a point in time, and
    `scaled(a, b)` is the scaled work between two marks."""

    def __init__(self):
        self.times: list[float] = []  # sample midpoints, increasing
        self.refs: list[float] = []   # sample durations
        self.spent = 0.0              # wall time spent in samples so far

    def sample(self, _signum=None, _frame=None) -> None:
        t = perf_counter()
        reference_loop()
        end = perf_counter()
        self.times.append((t + end) / 2)
        self.refs.append(end - t)
        self.spent += perf_counter() - t

    def __enter__(self) -> "HostClock":
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple[float, float]:
        """(now, time spent in samples so far), read with no sample between."""
        while True:
            spent = self.spent
            now = perf_counter()
            if self.spent == spent:
                return now, spent

    def work(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        """Wall time between two marks, less the samples taken in between."""
        return (b[0] - a[0]) - (b[1] - a[1])

    def scale(self, start: float, end: float) -> float:
        i = bisect_left(self.times, start)
        j = bisect_right(self.times, end)
        near = self.refs[i:j]
        if len(near) < NEAR:
            near = self.refs[max(0, i - NEAR):i] + near + self.refs[j:j + NEAR]
        if not near:
            raise ValueError("no reference sample was taken")
        return REF_S / _median(near)

    def scaled(self, a: tuple[float, float], b: tuple[float, float]) -> float:
        return self.work(a, b) * self.scale(a[0], b[0])
