"""Host speed along a run, for scaling measured times to a reference host.

The hosts the benchmark runs on share cores with other tenants; their speed
can swing by a factor of two from one second to the next and drift for
minutes. Between requests (never inside a timed region) the benchmark times
`calibration_work`, a fixed task with the mix of work eudoxus requests do but
none of eudoxus's code. Each measured time is multiplied by CAL_REF_S over
the median calibration time of the samples taken within CAL_WINDOW_S of it,
so every reported time is a time on a host on which the calibration takes
CAL_REF_S. A change to eudoxus cannot move the calibration.
"""

from __future__ import annotations

import argparse
import bisect
import math
import statistics
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

CAL_REF_S = 0.001  # calibration time that defines the reference host
CAL_INTERVAL_S = 0.01  # least time between two calibration samples
CAL_WINDOW_S = 0.05  # samples this close to a timed stretch set its scale


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def calibration_work():
    """About a millisecond of argument parsing, small frozen objects,
    Fraction and big-integer arithmetic, and bit strings combined character
    by character."""
    parser = argparse.ArgumentParser(prog="calibration", add_help=False)
    commands = parser.add_subparsers(dest="command")
    for name in ("alpha", "beta", "gamma"):
        command = commands.add_parser(name)
        command.add_argument("value")
        command.add_argument("-p", type=int)
    parser.parse_args(["beta", "v", "-p", "3"])
    tree, acc = None, Fraction(0)
    for i in range(1, 60):
        tree = _Node(tree, (i, str(i * 31)))
        acc += Fraction(i, i + 2) + math.isqrt(i**9) // 7
    bits, other = "10" * 120, "110" * 80
    for shift in range(3):
        rotated = other[shift:] + other[:shift]
        bits = "".join("1" if a == "1" or b == "1" else "0" for a, b in zip(bits, rotated))
    return tree, acc, bits


class Speed:
    """Calibration samples of one process, and the scale they give."""

    def __init__(self):
        self.times: list[float] = []  # sample midpoints, increasing
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self, force: bool = False):
        """Time the calibration unless a sample was taken just now."""
        gap = perf_counter() - self._last
        if force or gap >= CAL_INTERVAL_S:
            # After a long request, take three samples to pin its scale.
            for _ in range(3 if gap >= 5 * CAL_INTERVAL_S else 1):
                start = perf_counter()
                calibration_work()
                self._last = perf_counter()
                self.times.append((start + self._last) / 2)
                self.durations.append(self._last - start)

    def scale(self, start: float, end: float) -> float:
        """Scale for the stretch of time [start, end], from nearby samples."""
        lo = bisect.bisect_left(self.times, start - CAL_WINDOW_S)
        hi = bisect.bisect_right(self.times, end + CAL_WINDOW_S)
        if lo == hi:  # no sample that close: take the nearest ones
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return CAL_REF_S / statistics.median(self.durations[lo:hi])
