"""Circuit breaker guarding the process-backend pool.

Classic three-state breaker over the injectable clock:

* **closed** — process backend healthy; infrastructure failures
  (``WorkerLost``, receive timeouts, deadline cancellations of
  process-backed slots) count against ``failure_threshold``.
* **open** — the service sheds the process backend: new runtime slots
  are built on the serial in-process backend (correct but slower,
  surfaced as ``degraded=True`` on session results).  After
  ``reset_timeout`` seconds the breaker half-opens.
* **half_open** — exactly one probe slot may try the process backend;
  its success closes the breaker, its failure re-opens (re-arming the
  timer).

The breaker never *blocks* work — it only steers backend selection —
so a tripped breaker converts outages into slow-but-correct service
rather than errors.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.clock import SystemClock
from repro.errors import MachineError

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Numeric gauge encoding (``service.breaker`` metric).
STATE_CODES = {CLOSED: 0, HALF_OPEN: 1, OPEN: 2}


class CircuitBreaker:
    def __init__(self, failure_threshold: int = 3,
                 reset_timeout: float = 5.0, clock=None,
                 on_transition: Optional[Callable[[str, str], None]] = None
                 ) -> None:
        if failure_threshold < 1:
            raise MachineError(
                f"failure threshold {failure_threshold} must be >= 1")
        if reset_timeout <= 0:
            raise MachineError(
                f"reset timeout {reset_timeout} must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock if clock is not None else SystemClock()
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        #: called with ``(old, new)`` on every transition (the service
        #: records each as a ``breaker`` ledger event)
        self._on_transition = on_transition

    # ------------------------------------------------------------------
    def _transition(self, new: str) -> None:
        old = self._state
        if old == new:
            return
        self._state = new
        if self._on_transition is not None:
            self._on_transition(old, new)

    @property
    def state(self) -> str:
        """Current state, folding in the open→half-open timer."""
        if self._state == OPEN and (self._clock.monotonic() - self._opened_at
                                    >= self.reset_timeout):
            self._transition(HALF_OPEN)
            self._probe_inflight = False
        return self._state

    @property
    def failures(self) -> int:
        return self._failures

    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the *next* slot may use the guarded (process) backend.

        In ``half_open`` exactly one caller gets True (the probe);
        everyone else builds serial until the probe resolves.
        """
        state = self.state
        if state == CLOSED:
            return True
        if state == HALF_OPEN and not self._probe_inflight:
            self._probe_inflight = True
            return True
        return False

    def record_success(self) -> None:
        """A guarded-backend session completed cleanly."""
        if self.state == HALF_OPEN:
            self._probe_inflight = False
            self._transition(CLOSED)
        self._failures = 0

    def record_failure(self) -> None:
        """A guarded-backend session failed for infrastructure reasons."""
        state = self.state
        if state == HALF_OPEN:
            self._probe_inflight = False
            self._opened_at = self._clock.monotonic()
            self._transition(OPEN)
            return
        self._failures += 1
        if state == CLOSED and self._failures >= self.failure_threshold:
            self._opened_at = self._clock.monotonic()
            self._transition(OPEN)

    def __repr__(self) -> str:
        return (f"CircuitBreaker(state={self.state!r}, "
                f"failures={self._failures}/{self.failure_threshold})")
