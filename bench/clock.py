"""Reference clock: operation times scaled to a fixed machine speed.

The benchmark runs on a shared host whose speed drifts: the same pure-Python
work takes up to 40% longer from one half-minute to the next.  A raw
wall-clock time then measures the neighbours as much as the program.

So the run times a fixed reference kernel (`reference_work`, which calls
nothing in ultrafix) every `INTERVAL` seconds between operations.  An
operation's time is scaled by REFERENCE_S / k, where k is the median kernel
time within `WINDOW` seconds of the operation.  A reported millisecond is
thus a millisecond on a machine that runs the kernel in REFERENCE_S seconds
(the 2-vCPU reference VM at its median speed).  A change to ultrafix moves
the operation times and not the kernel, so it moves the scaled times by the
same share.

The kernel is a polynomial product over `Fraction`s in a dict keyed by
exponent tuples.  Of the kernels tried (this one, sums of small and of
growing `Fraction`s, big-integer products and remainders, and mixes of
these), its time followed the drift of the operation times most closely, on
`deep_padic` as on `identity_sampling`: scaled by it, the time of a fixed
set of operations repeated for five minutes varied by about 1% between
half-minute blocks, against 10-13% raw and 6-8% when scaled by the
big-integer kernel.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0030  # kernel time on the reference machine
INTERVAL = 0.1  # seconds between kernel samples during a run
WINDOW = 0.25  # kernel samples within this many seconds scale an operation
MIN_SAMPLES = 3  # fewer in the window: take the nearest ones instead

_BASE = {
    (0, 0, 0): Fraction(1, 2),
    (1, 0, 0): Fraction(1, 3),
    (0, 1, 0): Fraction(-2, 5),
    (0, 0, 1): Fraction(3, 7),
}
_POWER = 6


def reference_work() -> None:
    """The sixth power of a fixed 3-variable polynomial, term by term."""
    power = _BASE
    for _ in range(_POWER - 1):
        product = {}
        for ea, ca in power.items():
            for eb, cb in _BASE.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                product[e] = product.get(e, 0) + ca * cb
        power = product


class ReferenceClock:
    """Kernel samples taken along a run, and the scale they give at a time."""

    def __init__(self):
        self.times: list[float] = []  # midpoint of each sample
        self.seconds: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        start = perf_counter()
        reference_work()
        end = perf_counter()
        self.times.append((start + end) / 2)
        self.seconds.append(end - start)
        self._last = end

    def tick(self) -> None:
        """Sample if INTERVAL has passed since the last sample."""
        if perf_counter() - self._last >= INTERVAL:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S / the median kernel time around [start, end]."""
        lo = bisect_left(self.times, start - WINDOW)
        hi = bisect_right(self.times, end + WINDOW)
        if hi - lo < MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.times)), key=lambda i: abs(self.times[i] - mid))
            window = [self.seconds[i] for i in nearest[:MIN_SAMPLES]]
        else:
            window = self.seconds[lo:hi]
        return REFERENCE_S / statistics.median(window)
