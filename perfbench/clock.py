"""Op times at a reference machine speed.

The shared machines this benchmark runs on change speed by up to 2x from
one second to the next (other tenants' load on the same cores). A
calibration block, a fixed piece of pure-Python work that does not touch
scforge, runs before every op and after every pass; an op's time is divided
by how much slower than the reference the calibration blocks around it ran.
The reference speed is the one at which a calibration unit takes CAL_REF_S.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

CAL_REF_S = 100e-6
CAL_UNITS = 5
# The calibration blocks within one op duration (at least MIN_REACH_S) of an
# op, on each side, set its speed: for a short op the blocks just before and
# after it, for a long one also its neighbours' blocks. The machine's speed
# moves within a second, so nearer blocks track it better.
MIN_REACH_S = 0.005


def _calibration_unit():
    d = {}
    for i in range(200):
        k = (i * 7919) % 1013
        d[(k, i & 7)] = (k, str(k))
    items = sorted(d.items(), key=lambda kv: kv[1])
    return sum(1 for (a, _), (c, _) in items if a == c)


class Clock:
    def __init__(self):
        self.times: list = []  # when each block ran, increasing
        self.unit_s: list = []  # its median seconds per unit

    def calibrate(self):
        """Run one calibration block. The cyclic garbage collector is paused
        meanwhile: a collection of an op's garbage belongs to the op."""
        samples = []
        gc.disable()
        try:
            for _ in range(CAL_UNITS):
                t0 = time.perf_counter()
                _calibration_unit()
                samples.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.times.append(time.perf_counter())
        self.unit_s.append(statistics.median(samples))

    def slowdown(self, t0: float, t1: float) -> float:
        """How much slower than the reference the machine ran around [t0, t1]."""
        reach = max(t1 - t0, MIN_REACH_S)
        lo = bisect.bisect_left(self.times, t0 - reach)
        hi = bisect.bisect_right(self.times, t1 + reach)
        return statistics.median(self.unit_s[lo:hi]) / CAL_REF_S

    def reference_seconds(self, t0: float, t1: float) -> float:
        return (t1 - t0) / self.slowdown(t0, t1)
