"""SLO burn-rate alerting: spec validation, burn math, and the
deterministic fire/resolve state machine — all on a FakeClock hub."""

import math

import pytest

from repro.errors import MachineError
from repro.distributed.faults import FakeClock
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import (AVAILABILITY, FAST, LATENCY, REJECTION, SLOW,
                           SloEvaluator, SloSpec, default_service_slos)
from repro.obs.telemetry import TelemetryHub
from repro.service.errors import ServiceLedger

WINDOWS = {"10s": 10.0, "1m": 60.0, "5m": 300.0}

AVAIL = SloSpec(name="availability", kind=AVAILABILITY, objective=0.99,
                good=("service.completed",),
                bad=("service.errors", "service.expired"))


def make_hub(**kwargs):
    registry = MetricsRegistry()
    clock = FakeClock()
    hub = TelemetryHub(registry, clock=clock, interval=1.0,
                       windows=WINDOWS, **kwargs)
    return hub, registry, clock


def tick(hub, clock, seconds=1.0):
    clock.advance(seconds)
    return hub.sample()


# ----------------------------------------------------------------------
# spec validation + burn math
# ----------------------------------------------------------------------
def test_spec_validation():
    with pytest.raises(MachineError):
        SloSpec(name="x", kind="bogus", objective=0.9,
                good=("a",), bad=("b",))
    with pytest.raises(MachineError):
        SloSpec(name="x", kind=AVAILABILITY, objective=1.0,
                good=("a",), bad=("b",))
    with pytest.raises(MachineError):
        SloSpec(name="x", kind=AVAILABILITY, objective=0.9)  # no counters
    with pytest.raises(MachineError):
        SloSpec(name="x", kind=LATENCY, objective=0.9)  # no histogram
    with pytest.raises(MachineError):
        SloEvaluator([AVAIL, AVAIL])  # duplicate names
    assert AVAIL.budget == pytest.approx(0.01)


def test_burn_rate_sums_counters_across_labels():
    hub, registry, clock = make_hub()
    registry.counter("service.completed", tenant="t0").inc(90)
    registry.counter("service.completed", tenant="t1").inc(8)
    registry.counter("service.errors", tenant="t0").inc(2)
    tick(hub, clock)
    # bad fraction 2/100 over a 1% budget -> burn 2x
    assert AVAIL.bad_fraction(hub, "10s") == pytest.approx(0.02)
    assert AVAIL.burn_rate(hub, "10s") == pytest.approx(2.0)


def test_no_data_is_not_an_outage():
    hub, registry, clock = make_hub()
    tick(hub, clock)
    assert AVAIL.bad_fraction(hub, "10s") is None
    assert AVAIL.burn_rate(hub, "10s") == 0.0
    latency = SloSpec(name="lat", kind=LATENCY, objective=0.95,
                      histogram="service.latency_seconds", threshold=1.0)
    assert latency.bad_fraction(hub, "10s") is None


def test_latency_kind_reads_the_digest():
    hub, registry, clock = make_hub()
    hist = registry.histogram("service.latency_seconds",
                              buckets=(0.1, 1.0))
    for value in (0.05, 0.05, 0.05, 5.0):
        hist.observe(value)
    tick(hub, clock)
    spec = SloSpec(name="lat", kind=LATENCY, objective=0.95,
                   histogram="service.latency_seconds", threshold=1.0)
    # 1 of 4 over the threshold against a 5% budget -> burn 5x
    assert spec.bad_fraction(hub, "10s") == pytest.approx(0.25)
    assert spec.burn_rate(hub, "10s") == pytest.approx(5.0)


# ----------------------------------------------------------------------
# acceptance: fast-burn fires and resolves, no sleeps
# ----------------------------------------------------------------------
def test_fast_burn_fires_and_resolves_deterministically():
    ledger = ServiceLedger()
    registry = MetricsRegistry()
    clock = FakeClock()
    evaluator = SloEvaluator([AVAIL], ledger=ledger, registry=registry)
    hub = TelemetryHub(registry, clock=clock, interval=1.0,
                       windows=WINDOWS, evaluator=evaluator)
    done = registry.counter("service.completed")
    errs = registry.counter("service.errors")

    # healthy baseline: no alert
    for _ in range(5):
        done.inc(10)
        tick(hub, clock)
    assert evaluator.firing() == []

    # a total outage: every session errors; fast burn = 100x > 14x
    # over both the 10s and 1m windows -> fires
    for _ in range(12):
        errs.inc(10)
        tick(hub, clock)
    assert "availability[fast]" in evaluator.firing()
    assert hub.firing_alerts()
    fired = [line for line in hub.alerts
             if line["name"] == "availability[fast]"]
    assert fired[0]["state"] == "firing"
    assert fired[0]["burn"]["short"] > 14.0

    # recovery: the 10s window clears first, resolving the fast alert
    # even while the 1m window still remembers the outage
    for _ in range(12):
        done.inc(10)
        tick(hub, clock)
    assert "availability[fast]" not in evaluator.firing()
    states = [line["state"] for line in hub.alerts
              if line["name"] == "availability[fast]"]
    assert states == ["firing", "resolved"]

    # every transition became a structured ledger event
    alerts = ledger.events(kind="alert")
    assert len(alerts) >= 2
    assert "availability[fast] firing" in alerts[0].detail
    assert any("availability[fast] resolved" in e.detail for e in alerts)
    assert clock.sleeps == []  # the whole march never slept


def test_slow_burn_needs_both_long_windows():
    hub, registry, clock = make_hub()
    evaluator = SloEvaluator([AVAIL])
    hub.evaluator = evaluator
    errs = registry.counter("service.errors")
    done = registry.counter("service.completed")
    # a 3% error rate: burn 3x -- over slow_factor=2, under fast=14
    for _ in range(70):
        errs.inc(3)
        done.inc(97)
        tick(hub, clock)
    assert evaluator.firing() == ["availability[slow]"]


def test_evaluator_publishes_slo_gauges():
    registry = MetricsRegistry()
    clock = FakeClock()
    evaluator = SloEvaluator([AVAIL], registry=registry)
    hub = TelemetryHub(registry, clock=clock, interval=1.0,
                       windows=WINDOWS, evaluator=evaluator)
    registry.counter("service.errors").inc(10)
    tick(hub, clock)
    burn = registry.find("slo.burn", slo="availability", window="10s")
    assert burn is not None and burn.value > 14.0
    firing = registry.find("slo.firing", slo="availability",
                           severity=FAST)
    assert firing is not None and firing.value == 1.0
    resolved = registry.find("slo.firing", slo="availability",
                             severity=SLOW)
    assert resolved is not None


def test_default_service_slos_cover_the_service_counters():
    specs = default_service_slos()
    assert [s.kind for s in specs] == [AVAILABILITY, LATENCY, REJECTION]
    names = {s.name for s in specs}
    assert names == {"availability", "latency-1s", "rejection"}
    for spec in specs:
        assert 0.0 < spec.objective < 1.0
        assert spec.fast_factor > spec.slow_factor


def test_alert_resolves_when_the_metric_stops_reporting():
    """Silence is 'no data', not an outage: when a source stops
    publishing mid-window the firing alert must resolve as the bad
    deltas age out — never page on the silence itself."""
    ledger = ServiceLedger()
    registry = MetricsRegistry()
    clock = FakeClock()
    evaluator = SloEvaluator([AVAIL], ledger=ledger, registry=registry)
    hub = TelemetryHub(registry, clock=clock, interval=1.0,
                       windows=WINDOWS, evaluator=evaluator)
    errs = registry.counter("service.errors")
    for _ in range(12):
        errs.inc(10)
        tick(hub, clock)
    assert "availability[fast]" in evaluator.firing()

    # the source goes dark: no completions, no errors, only empty ticks
    for _ in range(70):
        tick(hub, clock)
    assert evaluator.firing() == []
    assert AVAIL.bad_fraction(hub, "1m") is None
    assert AVAIL.burn_rate(hub, "1m") == 0.0
    states = [line["state"] for line in hub.alerts
              if line["name"] == "availability[fast]"]
    assert states == ["firing", "resolved"]
    resolved = [e for e in ledger.events(kind="alert")
                if "availability[fast] resolved" in e.detail]
    assert resolved
    assert clock.sleeps == []


def test_burn_rate_survives_a_counter_reset():
    """A restarted source republishes totals from zero; ``publish`` moves
    the counters forward by each new total, so the burn math stays
    finite and correct — no negative deltas, no phantom outage from the
    missing history."""
    hub, registry, clock = make_hub()
    evaluator = SloEvaluator([AVAIL])
    hub.evaluator = evaluator

    def serve(ticks):
        for k in range(1, ticks + 1):
            registry.publish("service", {"completed": 98 * k,
                                         "errors": 2 * k})
            tick(hub, clock)

    serve(10)
    assert AVAIL.burn_rate(hub, "10s") == pytest.approx(2.0)

    # the serving process restarts: its totals fall back to zero
    serve(10)
    # every post-restart delta is non-negative and the window holds
    # exactly the post-restart traffic
    assert hub.delta("service.completed", "10s") \
        == pytest.approx(10 * 98.0)
    assert hub.delta("service.errors", "10s") >= 0
    assert AVAIL.bad_fraction(hub, "10s") == pytest.approx(0.02)
    assert AVAIL.burn_rate(hub, "10s") == pytest.approx(2.0)
    assert evaluator.firing() == []  # 2x burn is under the 14x fast gate
