"""A machine-speed reference that the benchmark's timings are scaled by.

On a small shared host the cores' speed is not constant: with neighbours'
load it switches between a fast and a slow state within milliseconds, and
the share of time spent fast drifts over minutes (on a 2-core Xeon host,
one run's op latencies moved by about 25 % between 20-second windows).  A
run that lands in a slow stretch then reads up to half again slower, whatever
the program does.

So the benchmark interleaves a fixed pure-Python reference computation with
its timed work, about SHARE of the work's time and spread evenly over it
(a little after every op and every set-up).  The reference does not touch
``ksbound``, so its time tracks only the machine.  ``factor(start, end)``
is the reference's mean time within WINDOW_S of an interval over its value
at the baseline, and a timing divided by its factor estimates the time the
work would have taken at the baseline speed.  A window of a second follows the
slow stretches, which last up to several seconds, without letting one
slice decide.  Raw times are printed beside the scaled ones.

How far a timing follows the reference depends on the kind of work, so
each workload raises the factor to its own sensitivity (run.py), the slope
of log time on log factor fitted over the baseline's runs: about 1 for the
exact arithmetic of ``ingest``, 0.5 for numpy-bound ``simulate_model``, and
0.25 for ``cli`` children, which start processes and may run on the other
core.  The scaling removes most of the drift between runs made minutes
apart, and less of the noise within one.
"""
from __future__ import annotations

import bisect
import gc
import time
from fractions import Fraction

#: Reference time added per second of timed work.
SHARE = 0.05
#: Mean time of one slice at the baseline (bench/baseline.json), in seconds.
NOMINAL_SLICE_S = 0.55e-3
#: Slices this close to an interval, in seconds, give its factor.
WINDOW_S = 1.0


def _slice() -> Fraction:
    """About half a millisecond of exact arithmetic, the kind ksbound spends most time in."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    return total


class Pace:
    """Samples the machine's speed alongside the timed work of one run."""

    def __init__(self) -> None:
        self.ends: list[float] = []  # perf_counter() at the end of each slice
        self.total = [0.0]  # running sum of slice durations
        self._owed = 0.0

    @property
    def slices(self) -> int:
        return len(self.ends)

    def after(self, seconds: float) -> float:
        """Run reference slices for SHARE of ``seconds`` of work just timed
        (carrying any remainder); returns the time they took."""
        self._owed += SHARE * seconds
        spent = 0.0
        enabled = gc.isenabled()
        gc.disable()  # the slices make no cycles; a collection would time the program's heap
        try:
            while self._owed > 0 or not self.ends:
                a = time.perf_counter()
                _slice()
                b = time.perf_counter()
                self._owed -= b - a
                spent += b - a
                self.ends.append(b)
                self.total.append(self.total[-1] + b - a)
        finally:
            if enabled:
                gc.enable()
        return spent

    def factor(self, start: float = -float("inf"), end: float = float("inf")) -> float:
        """Mean slice time within WINDOW_S of [start, end] (of the whole run
        by default, or when no slice is that close) over the baseline's:
        above 1 when the machine ran slower."""
        i = bisect.bisect_left(self.ends, start - WINDOW_S)
        j = bisect.bisect_right(self.ends, end + WINDOW_S)
        if j <= i:
            i, j = 0, len(self.ends)
        return (self.total[j] - self.total[i]) / (j - i) / NOMINAL_SLICE_S
