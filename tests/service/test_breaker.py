"""Sleep-free circuit-breaker state-machine tests (FakeClock-driven)."""

import pytest

from repro.distributed.faults import FakeClock
from repro.errors import MachineError
from repro.service.breaker import (CLOSED, HALF_OPEN, OPEN, STATE_CODES,
                                   CircuitBreaker)


def make(threshold=3, reset=5.0):
    clock = FakeClock()
    return CircuitBreaker(failure_threshold=threshold, reset_timeout=reset,
                          clock=clock), clock


class TestTransitions:
    def test_closed_until_threshold(self):
        breaker, _ = make(threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker, _ = make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # never two consecutive failures

    def test_open_to_half_open_on_timer(self):
        breaker, clock = make(threshold=1, reset=5.0)
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(4.9)
        assert breaker.state == OPEN
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN

    def test_half_open_probe_success_closes(self):
        seen = []
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                                 clock=clock, on_transition=lambda a, b:
                                 seen.append((a, b)))
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()       # the probe
        breaker.record_success()
        assert breaker.state == CLOSED
        assert seen == [(CLOSED, OPEN), (OPEN, HALF_OPEN),
                        (HALF_OPEN, CLOSED)]

    def test_half_open_probe_failure_reopens_and_rearms(self):
        breaker, clock = make(threshold=1, reset=5.0)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(4.9)
        assert breaker.state == OPEN   # timer re-armed at probe failure
        clock.advance(0.2)
        assert breaker.state == HALF_OPEN

    def test_single_probe_in_half_open(self):
        breaker, clock = make(threshold=1, reset=1.0)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert not breaker.allow()   # second caller builds serial
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.allow()       # closed again: everyone allowed


class TestSurface:
    def test_transition_callback_and_codes(self):
        seen = []
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=1.0,
                                 clock=clock,
                                 on_transition=lambda a, b: seen.append(
                                     (a, b)))
        breaker.record_failure()
        clock.advance(1.0)
        _ = breaker.state
        assert seen == [(CLOSED, OPEN), (OPEN, HALF_OPEN)]
        assert STATE_CODES[CLOSED] == 0
        assert STATE_CODES[HALF_OPEN] == 1
        assert STATE_CODES[OPEN] == 2

    def test_validation(self):
        with pytest.raises(MachineError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(MachineError):
            CircuitBreaker(reset_timeout=0.0)
