"""Admission-control primitives: token bucket, watermark gate, deadline.

Every class here is a pure control-plane state machine over an
injectable clock (:class:`~repro.clock.SystemClock` /
:class:`~repro.clock.FakeClock`), so the unit tests in
``tests/service/test_admission.py`` drive refill, hysteresis and expiry
without ever sleeping.  None of them know about asyncio or tenants —
:class:`~repro.service.service.AnalysisService` composes them.
"""

from __future__ import annotations

from typing import Optional

from repro.clock import SystemClock
from repro.errors import MachineError


class TokenBucket:
    """A bounded per-tenant request budget.

    ``burst`` tokens maximum, refilled continuously at ``rate`` tokens
    per second (lazy accounting: the refill happens on access, from the
    elapsed clock time, so an idle bucket costs nothing).  The bucket
    starts full — a fresh tenant gets its burst immediately.
    """

    def __init__(self, rate: float, burst: float,
                 clock=None) -> None:
        if rate <= 0:
            raise MachineError(f"token rate {rate} must be positive")
        if burst < 1:
            raise MachineError(f"burst {burst} must be >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self._clock = clock if clock is not None else SystemClock()
        self._tokens = self.burst
        self._last = self._clock.monotonic()

    def _refill(self) -> None:
        now = self._clock.monotonic()
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last = now

    @property
    def available(self) -> float:
        """Current token balance (after lazy refill)."""
        self._refill()
        return self._tokens

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if the balance covers them; never blocks."""
        self._refill()
        if self._tokens >= n:
            self._tokens -= n
            return True
        return False


class WatermarkGate:
    """Queue-depth hysteresis: pause intake at ``high``, resume at ``low``.

    Plain hysteresis (not a single threshold) so a queue hovering around
    the limit doesn't flap the paused state — once paused, the tenant
    stays paused until the worker has drained the backlog down to
    ``low``.
    """

    def __init__(self, high: int, low: int) -> None:
        if not 0 <= low < high:
            raise MachineError(
                f"watermarks need 0 <= low < high, got low={low} "
                f"high={high}")
        self.high = high
        self.low = low
        self.paused = False
        self.pause_count = 0

    def update(self, depth: int) -> bool:
        """Fold the current queue depth in; returns the paused state."""
        if not self.paused and depth >= self.high:
            self.paused = True
            self.pause_count += 1
        elif self.paused and depth <= self.low:
            self.paused = False
        return self.paused


class DeadlineBudget:
    """A session's remaining wall-clock allowance.

    Created at admission (the clock starts ticking while the request is
    still queued — a deadline is a promise to the tenant, not to the
    executor).  ``deadline=None`` never expires.
    """

    def __init__(self, deadline: Optional[float], clock=None) -> None:
        if deadline is not None and deadline <= 0:
            raise MachineError(f"deadline {deadline} must be positive")
        self._clock = clock if clock is not None else SystemClock()
        self.deadline = deadline
        self.started = self._clock.monotonic()

    def elapsed(self) -> float:
        return self._clock.monotonic() - self.started

    def remaining(self) -> Optional[float]:
        """Seconds left (``None`` = unbounded; never negative)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.elapsed())

    def expired(self) -> bool:
        return self.deadline is not None and self.elapsed() >= self.deadline
