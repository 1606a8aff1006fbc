"""Host speed, sampled while the program runs.

The machine is a share of a host whose speed drifts: a fixed CPU loop runs
up to 2x slower for stretches of seconds to minutes, longer than a run, and
switches speed within a second too.  While a pass runs, an interval timer
interrupts it every PERIOD_S seconds and runs one unit of fixed calibration
work.  The units timed during a case, and within WINDOW_S either side of
it, give the host's speed while that case ran.  Its times are scaled by
NOMINAL_UNIT_S over their mean: times are reported in seconds at a host
speed where one unit takes NOMINAL_UNIT_S.

clock() leaves out the time spent in calibration units, so no measured span
includes it.  The calibration work calls no program code, so no change to
the program moves it.
"""

from __future__ import annotations

import bisect
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
WINDOW_S = PERIOD_S
# about the unit's time, sampled this way, on a calm stretch of a 2-vCPU KVM
# guest (Intel Xeon, family 6 model 143)
NOMINAL_UNIT_S = 0.001

_samples = []     # (clock() when taken, unit time) in the current block
_spent = 0.0
_busy = False


def clock() -> float:
    """perf_counter() less the time spent in calibration units."""
    return perf_counter() - _spent


def calibration_unit() -> None:
    """Fixed pure-Python work of the kinds the program does: tuple-keyed
    dict updates, rational arithmetic and big-integer products."""
    table = {}
    for i in range(1500):
        key = (i % 31, i % 17, i % 5)
        table[key] = table.get(key, 0) + i * i % 13
    q = Fraction(1)
    for i in range(1, 40):
        q = q * Fraction(i + 1, i + 3) + Fraction(1, i)
    x = 3 ** 200
    for _ in range(150):
        x = x * x % (10 ** 150 + 7)


def _sample(signum=None, frame=None) -> None:
    global _spent, _busy
    if _busy:
        return
    _busy = True
    try:
        start = perf_counter()
        calibration_unit()
        took = perf_counter() - start
        _samples.append((start - _spent, took))
        _spent += took
    finally:
        _busy = False


class Sampler:
    """Samples host speed while its block runs.  Afterwards scale() turns
    clock() times taken in the block into times at nominal speed."""

    def __enter__(self):
        _samples.clear()
        self._handler = signal.signal(signal.SIGALRM, _sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        if not _samples:
            _sample()           # a block shorter than one period
        self.samples = list(_samples)
        self._times = [t for t, _ in self.samples]
        self.spent = sum(u for _, u in self.samples)
        self.unit_s = self.spent / len(self.samples)
        return False

    def scale(self, start: float = None, end: float = None) -> float:
        """NOMINAL_UNIT_S over the mean unit time of the samples taken from
        WINDOW_S before `start` to WINDOW_S after `end`, the interval's
        local host speed; over all the block's samples if no interval is
        given or none falls in it."""
        units = []
        if start is not None:
            lo = bisect.bisect_left(self._times, start - WINDOW_S)
            hi = bisect.bisect_right(self._times, end + WINDOW_S)
            units = [u for _, u in self.samples[lo:hi]]
        if not units:
            return NOMINAL_UNIT_S / self.unit_s
        return NOMINAL_UNIT_S * len(units) / sum(units)
