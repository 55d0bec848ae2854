"""Host-speed calibration of measured times.

The virtual CPUs this benchmark is built for share a host and change speed
with other load, by a third or more for minutes at a time. A fixed
calibration loop, shaped like the library's scalar code (Python calls, float
powers, small objects, a list and a small numpy reduction), is timed between
operations. Each operation's latency is then scaled by ``REFERENCE_S`` over
the median loop time around it, so reported times are milliseconds at the
reference speed, the speed at which the loop takes ``REFERENCE_S`` seconds.

The loop is benchmark code: a change to the library cannot change it.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
from typing import List

import numpy as np

#: loop seconds that define the reference speed (about this host's median)
REFERENCE_S = 1.5e-3
#: the loop runs between operations at most this often, in seconds
EVERY_S = 0.1
#: loop timings taken on each side of an operation to scale it
WINDOW = 3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _term(t: float, s: float = 0.5) -> float:
    return 1.5 * t**s + 0.25


def loop_seconds() -> float:
    """Time one run of the calibration loop."""
    t0 = time.perf_counter()
    acc = []
    for i in range(1, 1500):
        t = i * 1e-3
        p = _Point(_term(t), abs(math.sqrt(t) - 0.5))
        acc.append(p.x * p.y)
    arr = np.asarray(acc)
    math.fsum(acc) + float(arr @ arr)
    return time.perf_counter() - t0


def scale_now(repeats: int = 3) -> float:
    """REFERENCE_S over the median of a few loops run now."""
    return REFERENCE_S / statistics.median(loop_seconds() for _ in range(repeats))


class Calibrator:
    """Loop timings taken between operations, and the scale they give."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []
        self.sample()

    def sample(self) -> None:
        self.times.append(time.perf_counter())
        self.seconds.append(loop_seconds())

    def between_ops(self) -> None:
        if time.perf_counter() - self.times[-1] >= EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """REFERENCE_S over the median loop time of the samples nearest t."""
        j = bisect.bisect(self.times, t)
        return REFERENCE_S / statistics.median(self.seconds[max(0, j - WINDOW): j + WINDOW])
