"""Unit tests for the fault-injection primitives (no subprocesses).

FaultPlan draws must be deterministic, seed-sensitive and
incarnation-independent; RetryPolicy backoff and the fake clock drive the
supervision tests in test_recovery.py without any real sleeping.
"""

import pickle
from dataclasses import fields

import pytest

from repro.distributed.faults import (FAULT_KINDS, NO_FAULTS, FakeClock,
                                      FaultEvent, FaultPlan, RecoveryReport,
                                      RetryPolicy, WorkerCrashed, WorkerFault,
                                      WorkerHung)
from repro.errors import MachineError

#: Exponential backoff 0.1, 0.2, 0.4, capped at 0.5.
CAPPED = RetryPolicy(max_retries=5, base_delay=0.1, multiplier=2.0,
                     max_delay=0.5)

class TestFaultPlan:
    def test_default_plan_never_fires(self):
        assert not NO_FAULTS.active
        for worker in range(4):
            for op in range(50):
                assert NO_FAULTS.draw(worker, 0, op) is None

    def test_draws_are_deterministic(self):
        plan = FaultPlan(seed=7, rate=0.3)
        a = [plan.draw(w, i, op)
             for w in range(3) for i in range(2) for op in range(20)]
        b = [plan.draw(w, i, op)
             for w in range(3) for i in range(2) for op in range(20)]
        assert a == b
        assert any(e is not None for e in a)

    def test_different_seeds_draw_differently(self):
        a = FaultPlan(seed=1, rate=0.3)
        b = FaultPlan(seed=2, rate=0.3)
        outcomes_a = [a.draw(0, 0, op) for op in range(64)]
        outcomes_b = [b.draw(0, 0, op) for op in range(64)]
        assert outcomes_a != outcomes_b

    def test_incarnations_draw_independently(self):
        """A respawned worker must not be doomed to the same faults."""
        plan = FaultPlan(seed=5, rate=0.5)
        first = [plan.draw(0, 0, op) is not None for op in range(64)]
        second = [plan.draw(0, 1, op) is not None for op in range(64)]
        assert first != second

    def test_rate_statistics_roughly_calibrated(self):
        plan = FaultPlan(seed=11, rate=0.25)
        n = 2000
        hits = sum(plan.draw(w, 0, op) is not None
                   for w in range(4) for op in range(n // 4))
        assert 0.15 * n < hits < 0.35 * n

    def test_explicit_events_match_exactly(self):
        event = FaultEvent("crash", worker=1, op=3, incarnation=2)
        plan = FaultPlan(events=(event,))
        assert plan.active
        assert plan.draw(1, 2, 3) is event
        assert plan.draw(1, 2, 4) is None
        assert plan.draw(1, 1, 3) is None
        assert plan.draw(0, 2, 3) is None

    def test_kinds_restriction(self):
        plan = FaultPlan(seed=3, rate=0.8, kinds=("hang",))
        kinds = {e.kind for w in range(4) for op in range(32)
                 if (e := plan.draw(w, 0, op)) is not None}
        assert kinds == {"hang"}

    def test_delay_and_slow_carry_seconds(self):
        plan = FaultPlan(seed=9, rate=1.0, kinds=("delay", "slow"))
        events = [plan.draw(0, 0, op) for op in range(16)]
        assert all(e is not None and e.seconds > 0 for e in events)

    def test_plans_pickle(self):
        plan = FaultPlan(seed=7, rate=0.1,
                         events=(FaultEvent("hang", 0, 2),))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert [clone.draw(0, 0, op) for op in range(32)] == \
            [plan.draw(0, 0, op) for op in range(32)]

    def test_validation(self):
        with pytest.raises(MachineError, match="outside"):
            FaultPlan(rate=1.5)
        with pytest.raises(MachineError, match="unknown fault kind"):
            FaultPlan(kinds=("explode",))
        with pytest.raises(MachineError, match="unknown fault kind"):
            FaultEvent("explode", 0, 0)


class TestRetryPolicy:
    def test_exponential_backoff_with_cap(self):
        retry = CAPPED
        assert retry.delay(0) == 0.0
        assert retry.delay(1) == pytest.approx(0.1)
        assert retry.delay(2) == pytest.approx(0.2)
        assert retry.delay(3) == pytest.approx(0.4)
        assert retry.delay(4) == pytest.approx(0.5)  # capped
        assert retry.delay(5) == pytest.approx(0.5)

    def test_defaults_are_bounded(self):
        retry = RetryPolicy()
        total = sum(retry.delay(k) for k in range(retry.max_retries + 1))
        assert total < 10.0

    def test_jitter_default_off_preserves_schedule(self):
        """No jitter and no seed: the policy is its four fields, and every
        worker backs off on the pure exponential schedule."""
        assert [f.name for f in fields(RetryPolicy)] \
            == ["max_retries", "base_delay", "multiplier", "max_delay"]
        assert [CAPPED.delay(k) for k in range(6)] \
            == pytest.approx([0.0, 0.1, 0.2, 0.4, 0.5, 0.5])


class TestFakeClock:
    def test_sleep_advances_without_blocking(self):
        clock = FakeClock()
        clock.sleep(2.5)
        clock.advance(1.0)
        assert clock.monotonic() == pytest.approx(3.5)
        assert clock.sleeps == [2.5]


class TestRecoveryReport:
    def test_counters_are_the_nonzero_totals(self):
        report = RecoveryReport()
        for kind in ("crash", "crash", "hang", "crash"):
            report.record_fault(kind)
        report.retries = 4
        report.recovery_seconds = 1.5
        assert report.total_faults == 4
        counters = report.counters()
        assert counters["fault.crash"] == 3
        assert counters["fault.hang"] == 1
        assert counters["retries"] == 4
        assert counters["seconds"] == 1.5
        assert "respawns" not in counters  # zero counters are omitted

    def test_has_activity(self):
        report = RecoveryReport()
        assert not report.has_activity
        report.checkpoints = 5  # routine, not activity
        assert not report.has_activity
        report.record_fault("hang")
        assert report.has_activity

    def test_render_mentions_key_counters(self):
        report = RecoveryReport()
        report.record_fault("crash")
        report.retries = 2
        report.replayed_tasks = 8
        text = report.render()
        assert "crash:1" in text and "retries=2" in text
        assert "replayed=8" in text


class TestExceptionFamily:
    def test_kinds_and_hierarchy(self):
        assert issubclass(WorkerCrashed, WorkerFault)
        assert issubclass(WorkerFault, MachineError)
        assert WorkerCrashed.kind == "crash"
        assert WorkerHung.kind == "hang"
        assert set(FAULT_KINDS) >= {"crash", "hang", "corrupt"}
