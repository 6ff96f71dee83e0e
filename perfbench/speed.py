"""Reference kernel that tracks the host's momentary speed.

On a shared host the same code runs up to 1.5x slower for stretches of ten
to thirty seconds while neighbours load the machine.  The timed loops call
``SpeedProbe.maybe_sample`` between operations, which runs a fixed ~1 ms
kernel (a pure-Python dict loop and small numpy array operations, the two
kinds of work the workloads do) every 0.1 s.  Each operation's time is then
rescaled by NOMINAL_KERNEL_S over the median kernel time around it, which
reports it as it would have taken at the reference speed.  On the reference
host this cut the spread of 5-second throughput windows from 16-17% to
6-7% on both the book and the limit workloads.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# kernel time on the reference host while uncontended: a 2-vCPU x86-64
# container with Python 3.11.7 and numpy 2.4.6
NOMINAL_KERNEL_S = 0.65e-3
CADENCE_S = 0.1
WINDOW_MARGIN_S = 1.0
# kernel runs taken on each side of an operation that lasts seconds
BURST = 5

_X = np.random.default_rng(0).standard_normal(4000)
_GRID = np.linspace(0.0, 1.0, _X.size)


def kernel() -> float:
    """Fixed work: about half pure-Python dict updates, half numpy calls."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(2000):
        k = i & 15
        counts[k] = counts.get(k, 0) + i
        total += k * 3 + (i >> 2)
    acc = float(total)
    for _ in range(14):
        y = np.cumsum(_X)
        acc += float(np.interp(0.5, _GRID, y)) + float(np.where(y > 0.0, 1.0, 2.0).sum())
    return acc


class SpeedProbe:
    """Samples the kernel between timed operations and rescales their times."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self._due = 0.0

    def sample(self, count: int = 1) -> None:
        """Run the kernel ``count`` times, recording each run."""
        for _ in range(count):
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at.append(t0)
            self.took.append(t1 - t0)
        self._due = t1 + CADENCE_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def factor(self, start: float, duration: float) -> float:
        """Slowdown around [start, start + duration] relative to nominal.

        Uses the kernel samples within WINDOW_MARGIN_S of the interval, or
        all samples when none fall there.
        """
        lo = bisect.bisect_left(self.at, start - WINDOW_MARGIN_S)
        hi = bisect.bisect_right(self.at, start + duration + WINDOW_MARGIN_S)
        near = self.took[lo:hi] or self.took
        return statistics.median(near) / NOMINAL_KERNEL_S

    def normalize(self, start: float, duration: float) -> float:
        """``duration`` rescaled to the nominal host speed."""
        return duration / self.factor(start, duration)


def raw(start: float, duration: float) -> float:
    """The identity rescaling, for reporting unnormalized times."""
    return duration
