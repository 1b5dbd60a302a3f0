"""Reference seconds: timings scaled by the machine's current speed.

The machine this benchmark was tuned on switches between speed states that
differ by up to 2x and last a few seconds each, so raw medians of two
30-second runs can differ by 20 %.  A fixed reference pass, written like
the program's inner loops (exact rationals, sorted inserts, span lists)
but never changed with it, slows down in step with the program.  While a
Speed is active, a SIGALRM handler in the benchmark's own thread times
that pass every PERIOD_S, with the garbage collector off, so that a
collection set off by the program's allocations is paid in the program's
time and not in a sample.  An interval is then reported as its raw length,
less the time the handler took inside it, times the mean of REFERENCE_NS /
(pass time) over the samples from PERIOD_S before its start to PERIOD_S
after its end: a reference second is a second on a machine that runs the
pass in exactly REFERENCE_NS.
"""

from __future__ import annotations

import gc
import random
import signal
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from statistics import mean
from time import perf_counter_ns

REFERENCE_NS = 1_000_000
PERIOD_S = 0.05


def reference_pass() -> list:
    rng = random.Random(7)
    xs: list[Fraction] = []
    for _ in range(100):
        insort(xs, Fraction(rng.randint(1, 2 ** 20), 2 ** 20))
    spans = [(a, b) for a, b in zip(xs, xs[1:]) if b - a > Fraction(1, 2 ** 12)]
    return sorted({a + b for a, b in spans})


class Speed:
    """Context manager sampling the reference pass; ``now()`` marks a point
    in time and ``seconds(a, b)`` turns two marks into reference seconds.
    Call ``seconds`` after the Speed has ended, so that every interval has
    its samples from both sides."""

    def __init__(self):
        self.times: list[int] = []          # end of each sample
        self.factors: list[float] = []
        self.spent_ns = 0                   # inside the handler, in total
        self._previous = None

    def _sample(self, *_):
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter_ns()
        reference_pass()
        end = perf_counter_ns()
        if collecting:
            gc.enable()
        self.spent_ns += end - start
        self.times.append(end)
        self.factors.append(REFERENCE_NS / (end - start))

    def __enter__(self) -> "Speed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def now(self) -> tuple[int, int]:
        return perf_counter_ns(), self.spent_ns

    def factor(self, a: tuple[int, int], b: tuple[int, int]) -> float:
        """Mean speed factor around the interval from mark a to mark b."""
        margin = int(PERIOD_S * 1e9)
        lo = bisect_left(self.times, a[0] - margin)
        hi = bisect_right(self.times, b[0] + margin)
        if lo == hi:                    # a signal held back by a long C call
            lo, hi = max(lo - 1, 0), hi + 1
        return mean(self.factors[lo:hi])

    def seconds(self, a: tuple[int, int], b: tuple[int, int]) -> float:
        raw = (b[0] - a[0]) - (b[1] - a[1])
        return raw / 1e9 * self.factor(a, b)
