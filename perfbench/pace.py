"""Host-speed calibration, taken between the items of a pass.

The speed of a shared host drifts by 20% and more, in dips of a few
tenths of a second and in shifts over tens of seconds, and no amount of
repetition within a run averages that out. So a fixed pure-Python loop
that runs no zdg code is timed between items, at least every PACE_S of
item time, and the items between two such loops are scaled by the host
speed they measured: reference loop time over the mean of the two.

The loop is small-integer arithmetic in the interpreter, allocating
nothing. Of the loops tried it tracked the workloads best: over eight
rounds of a whole audit-raw5 pass, a check-examples pass, the first
10,000 raw and the first 100 canonical order-6 tables, each bracketed by
calibrations, it took the coefficient of variation of their times from
0.12, 0.10-0.11, 0.13-0.22 and 0.16-0.18 to 0.06-0.09, 0.07-0.11,
0.04-0.10 and 0.07-0.08 in two such experiments (2-vCPU Xeon VM), so it
helps check-examples least. Loops that build tuples, sets and dicts
swing twice as much as the workloads do and made check-examples worse.

An item that runs longer than PACE_S by itself (a whole audit-raw5
pass is one call of several seconds) gets calibrations of a tenth of
its length, since the noise of a short calibration would fall on the
whole item.

This module imports nothing from zdg or from the rest of the harness,
so that set-up children can load it without warming any import zdg
makes.
"""

from __future__ import annotations

import time

CALIBRATION_S = 0.1
CALIBRATION_REF_S = 6.0e-4  # seconds per unit on the reference machine (2-vCPU Xeon VM)
PACE_S = 0.5
CALIBRATION_SHARE = 0.1  # of the item time since the last calibration, if longer


def _calibration_unit() -> int:
    """Fixed pure-Python work that runs no zdg code: small-integer arithmetic."""
    s = 0
    for i in range(5000):
        s = (s + i * i) % 1000003
    return s


def calibrate(seconds: float = CALIBRATION_S) -> float:
    """Seconds per calibration unit, timed over `seconds`."""
    n = 0
    start = time.perf_counter()
    while True:
        _calibration_unit()
        n += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed / n


class Pacer:
    """Called with each item's time, outside it; calibrates between items
    once PACE_S of item time has gathered, and keeps for every item the
    factor that scales it to the reference host speed.

    The last calibration of a pass is the first of the next one.
    """

    def __init__(self):
        self._last = calibrate()
        self._pending = 0
        self._pending_s = 0.0
        self._factors: list[float] = []

    def __call__(self, seconds: float) -> None:
        self._pending += 1
        self._pending_s += seconds
        if self._pending_s >= PACE_S:
            self._flush()

    def _flush(self) -> None:
        now = calibrate(max(CALIBRATION_S, CALIBRATION_SHARE * self._pending_s))
        factor = CALIBRATION_REF_S / ((self._last + now) / 2)
        self._factors.extend([factor] * self._pending)
        self._last = now
        self._pending = 0
        self._pending_s = 0.0

    def finish(self) -> list[float]:
        """The factor of every item since the last finish()."""
        if self._pending:
            self._flush()
        out, self._factors = self._factors, []
        return out
