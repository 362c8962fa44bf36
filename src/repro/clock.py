"""The injectable clock (``monotonic()`` and ``sleep(seconds)``) every
layer reads time through.  It imports nothing from :mod:`repro`, so any
layer may import it."""

from __future__ import annotations

import time


class SystemClock:
    """The real monotonic clock (production default)."""

    monotonic = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)


class FakeClock:
    """A manually advanced clock: ``sleep`` records and advances instead
    of blocking, so retry/backoff tests run instantly in CI."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = float(start)
        self.sleeps: list[float] = []

    def monotonic(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.now += seconds

    def advance(self, seconds: float) -> None:
        self.now += seconds
