"""A gauge of the machine's current speed, sampled all through a run.

The benchmark runs on shared hosts whose speed swings by up to a factor of
two within seconds, for minutes at a time.  The oracle's time swings with
it, so raw timings of runs made minutes apart spread far more than any
change worth detecting.  While a `Gauge` is active, a timer signal runs a
fixed kernel every `PERIOD_S` seconds and records how long it took.  A
step timed with `Gauge.timed` is reported in reference seconds: its time,
less the kernel runs inside it, scaled by `REFERENCE_S` over the mean
kernel time during the step (the last run before it included):

    scaled = (elapsed - kernel time inside) * REFERENCE_S / mean(kernel runs)

So a step reads as the time it would take at the speed at which the kernel
takes `REFERENCE_S`.  Sampling inside the step, not only around it, follows
swings that happen while the step runs.

The kernel is exact Gaussian elimination with `fractions.Fraction` on a
fixed 9 x 9 matrix, the same mix of small-object allocation and integer
gcds that the oracle spends its time on.  It uses no code of `gwa`, so no
change to the program moves it, and it must not change either: every scaled
time of the benchmark is in its units.
"""

from __future__ import annotations

import array
import random
import signal
import statistics
import time
from fractions import Fraction
from typing import Callable

#: The kernel's time on the baseline machine (see README.md), in seconds.
#: It only sets the scale of the reported times.
REFERENCE_S = 0.001

#: Seconds between kernel runs while a gauge is active.
PERIOD_S = 0.025

_SIZE = 9


def _matrix(seed: int) -> list[list[Fraction]]:
    rng = random.Random(seed)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(_SIZE)]
            for _ in range(_SIZE)]


_MATRIX = _matrix(0)


def _rank(m: list[list[Fraction]]) -> int:
    m = [row[:] for row in m]
    rank = 0
    for col in range(_SIZE):
        pivot = next((i for i in range(rank, _SIZE) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(rank + 1, _SIZE):
            f = m[i][col] / m[rank][col]
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def scaled(elapsed: float, kernel_times: list[float]) -> float:
    """`elapsed` in reference seconds, given the kernel's times during it."""
    return elapsed * REFERENCE_S / statistics.fmean(kernel_times)


class Gauge:
    """Samples the kernel every `PERIOD_S` from `__enter__` to `__exit__`."""

    def __init__(self):
        # The kernel's times, oldest first.  An array, not a list of floats,
        # so that samples taken in the middle of a job leave no long-lived
        # objects among the job's own, which would pin their memory.
        self.samples = array.array("d")

    def _sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        _rank(_MATRIX)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> Gauge:
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def timed(self, step: Callable):
        """Run `step`; return its result and its time in reference seconds."""
        first = len(self.samples)
        t0 = time.perf_counter()
        result = step()
        elapsed = time.perf_counter() - t0
        inside = self.samples[first:]
        return result, scaled(elapsed - sum(inside), self.samples[first - 1:])
