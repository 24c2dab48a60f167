"""The machine's momentary speed, sampled during a timed phase.

On a shared machine the same pure-Python work takes up to 50% longer in one
2-second window than in the next, with CPU time tracking wall time: the
processor gets slower, the process is not descheduled.  A fixed burst of
pure-Python arithmetic, timed every ``PERIOD_S`` from a timer signal while
the program runs, measures that speed.  ``calibrated`` rescales a measured
interval to the time it would have taken at the reference speed, at which one
burst takes ``REF_BURST_S``; the signal handler's own time is taken out.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

BURST_ITERATIONS = 20_000
REF_BURST_S = 0.0015  # a burst in the fast phases of the 2-vCPU machine the figures come from
PERIOD_S = 0.1


def burst() -> float:
    """Seconds taken by one fixed burst of pure-Python arithmetic."""
    t = perf_counter()
    s = 0
    for i in range(BURST_ITERATIONS):
        s += i * i % 7
    return perf_counter() - t


def setup_speed(samples: int = 5) -> float:
    """Median burst time, for an interval that has just ended."""
    return statistics.median(burst() for _ in range(samples))


class SpeedProbe:
    """Bursts every ``PERIOD_S`` seconds from SIGALRM, plus one at each end.

    With ``sampling=False`` it takes no samples and ``calibrated`` returns
    the raw interval; traced rounds use that, since bursts would land in the
    program's spans.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.samples: list[tuple[float, float]] = []  # (midpoint, burst seconds)
        self.busy = 0.0  # seconds spent in bursts so far
        self._previous = None

    def sample(self, *_) -> None:
        t = perf_counter()
        d = burst()
        self.samples.append((t + d / 2, d))
        self.busy += perf_counter() - t

    def __enter__(self):
        if not self.sampling:
            return self
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        if not self.sampling:
            return False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def calibrated(self, start: float, end: float, busy: float) -> float:
        """Reference-speed seconds for [start, end], which included ``busy``
        seconds of bursts.  The speed is the mean over the bursts inside the
        interval, or over the nearest burst on each side when none fell in it.
        """
        if not self.sampling:
            return end - start - busy
        inside = [d for t, d in self.samples if start <= t <= end]
        if not inside:
            before = [d for t, d in self.samples if t < start][-1:]
            after = [d for t, d in self.samples if t > end][:1]
            inside = before + after
        speed = statistics.fmean(REF_BURST_S / d for d in inside)
        return (end - start - busy) * speed
