"""Sleep-free control-plane tests for :class:`AnalysisService`.

Every test here injects a :class:`FakeClock` and an ``analyze_fn`` so
the whole service — admission, queueing, deadlines, breaker — runs
inline on the event loop with manually advanced time.  No executors, no
worker processes, no real sleeping: these are state-machine tests of
the service itself, with the analysis stubbed out.

Real-runtime behaviour (fingerprints, isolation, recovery) lives in
``test_integration.py`` and ``test_chaos_service.py``.
"""

import asyncio

import pytest

from repro.distributed.faults import FakeClock
from repro.errors import MachineError
from repro.obs.census import census, validate_census
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryHub
from repro.service import (DEADLINE_EXCEEDED, ERROR, OK, OVERLOADED,
                           AnalysisService, SessionRequest)
from repro.service.breaker import CLOSED, HALF_OPEN, OPEN
from repro.service.errors import (REJECT_BACKPRESSURE, REJECT_CAPACITY,
                                  REJECT_RATE)


def run(coro):
    return asyncio.run(coro)


def fake_analyze(request, backend, tenant):
    return f"fp-{tenant}-{request.app}"


def make_service(clock, analyze_fn=fake_analyze, **kw):
    defaults = dict(backend="process", clock=clock, analyze_fn=analyze_fn,
                    rate=1000.0, burst=1000.0)
    defaults.update(kw)
    return AnalysisService(**defaults)


class TestAdmission:
    def test_rate_limit_rejects_then_refills(self):
        clock = FakeClock()

        async def scenario():
            async with make_service(clock, rate=1.0, burst=2.0) as svc:
                a = await svc.submit(SessionRequest(tenant="t"))
                b = await svc.submit(SessionRequest(tenant="t"))
                c = await svc.submit(SessionRequest(tenant="t"))
                clock.advance(1.0)  # one token back
                d = await svc.submit(SessionRequest(tenant="t"))
                return svc, [a, b, c, d]

        svc, (a, b, c, d) = run(scenario())
        assert [r.status for r in (a, b, c, d)] == [OK, OK, OVERLOADED, OK]
        assert c.reason == REJECT_RATE
        assert svc.counts["rejected"] == 1
        assert svc.ledger.events("rejected")[0].detail == REJECT_RATE

    def test_inflight_cap_rejects_concurrent_submissions(self):
        clock = FakeClock()

        async def scenario():
            async with make_service(clock, max_inflight=1) as svc:
                results = await asyncio.gather(
                    svc.submit(SessionRequest(tenant="a")),
                    svc.submit(SessionRequest(tenant="b")))
                return svc, results

        svc, results = run(scenario())
        statuses = sorted(r.status for r in results)
        assert statuses == [OK, OVERLOADED]
        rejected = next(r for r in results if r.status == OVERLOADED)
        assert rejected.reason == REJECT_CAPACITY

    def test_backpressure_high_water_pauses_intake(self):
        clock = FakeClock()

        async def scenario():
            async with make_service(clock, queue_limit=10, high_water=2,
                                    low_water=1, max_inflight=100) as svc:
                # gathered submissions enqueue before the drain runs:
                # depth hits the high-water mark and the gate pauses
                results = await asyncio.gather(*[
                    svc.submit(SessionRequest(tenant="t"))
                    for _ in range(4)])
                late = await svc.submit(SessionRequest(tenant="t"))
                return svc, results, late

        svc, results, late = run(scenario())
        statuses = [r.status for r in results]
        assert statuses.count(OK) == 2
        assert statuses.count(OVERLOADED) == 2
        for r in results:
            if r.status == OVERLOADED:
                assert r.reason == REJECT_BACKPRESSURE
        # after the queue drained below low water the gate reopened
        assert late.status == OK
        assert svc._tenants["t"].gate.pause_count == 1

    def test_submit_after_stop_raises(self):
        clock = FakeClock()

        async def scenario():
            svc = make_service(clock)
            await svc.start()
            await svc.stop()
            with pytest.raises(MachineError):
                await svc.submit(SessionRequest(tenant="t"))

        run(scenario())


class TestDeadlines:
    def test_expired_in_queue_is_cancelled_before_running(self):
        clock = FakeClock()
        ran = []

        def analyze(request, backend, tenant):
            ran.append(request.tenant)
            clock.advance(2.0)  # the first session burns the budget
            return "fp"

        async def scenario():
            async with make_service(clock, analyze_fn=analyze) as svc:
                first, second = await asyncio.gather(
                    svc.submit(SessionRequest(tenant="t")),
                    svc.submit(SessionRequest(tenant="t", deadline=1.0)))
                return svc, first, second

        svc, first, second = run(scenario())
        assert first.status == OK
        assert second.status == DEADLINE_EXCEEDED
        assert second.reason == "expired in queue"
        assert ran == ["t"]  # the expired session never analyzed
        assert svc.counts["expired"] == 1
        assert svc.ledger.count("expired") == 1
        # queue expiry is not the slot's fault: no poisoning, no breaker
        assert svc.ledger.count("slot_poisoned") == 0
        assert svc.breaker.state == CLOSED

    def test_expiry_mid_analysis_poisons_slot(self):
        clock = FakeClock()

        def analyze(request, backend, tenant):
            clock.advance(5.0)  # analysis overruns the deadline
            return "fp"

        async def scenario():
            async with make_service(clock, analyze_fn=analyze,
                                    breaker_threshold=10) as svc:
                late = await svc.submit(
                    SessionRequest(tenant="t", deadline=1.0))
                failures = svc.breaker._failures
                rebuilt = await svc.submit(SessionRequest(tenant="t"))
                return svc, late, rebuilt, failures

        svc, late, rebuilt, failures = run(scenario())
        assert late.status == DEADLINE_EXCEEDED
        assert late.reason == "finished past deadline"
        assert late.seconds == pytest.approx(5.0)
        assert svc.ledger.count("cancelled") == 1
        assert svc.ledger.count("slot_poisoned") == 1
        # deadline miss on a process slot counts against the breaker
        assert failures == 1
        # the poisoned slot is gone: the next session starts a new epoch
        assert rebuilt.status == OK
        assert rebuilt.fresh
        assert rebuilt.epoch == late.epoch + 1 == 1

    def test_default_deadline_applies_when_request_has_none(self):
        clock = FakeClock()

        def analyze(request, backend, tenant):
            clock.advance(3.0)
            return "fp"

        async def scenario():
            async with make_service(clock, analyze_fn=analyze,
                                    default_deadline=1.0) as svc:
                return await svc.submit(SessionRequest(tenant="t"))

        result = run(scenario())
        assert result.status == DEADLINE_EXCEEDED


class TestDegradation:
    def test_breaker_trips_to_serial_and_probe_recovers(self):
        clock = FakeClock()
        healthy = {"process": False}

        def analyze(request, backend, tenant):
            if backend == "process" and not healthy["process"]:
                raise RuntimeError("worker lost")
            return f"fp-{backend}"

        async def scenario():
            async with make_service(clock, analyze_fn=analyze,
                                    breaker_threshold=2,
                                    breaker_reset=5.0) as svc:
                req = SessionRequest(tenant="t")
                failures = [await svc.submit(req) for _ in range(2)]
                assert svc.breaker.state == OPEN
                degraded = [await svc.submit(req) for _ in range(2)]
                healthy["process"] = True
                clock.advance(5.0)
                assert svc.breaker.state == HALF_OPEN
                recovered = await svc.submit(req)
                after = await svc.submit(req)
                return svc, failures, degraded, recovered, after

        svc, failures, degraded, recovered, after = run(scenario())
        assert all(r.status == ERROR for r in failures)
        assert "worker lost" in failures[0].error
        for r in degraded:
            assert r.status == OK
            assert r.backend == "serial"
            assert r.degraded
        # the half-open probe retired the degraded slot and rebuilt on
        # the process backend; its success closed the breaker
        assert recovered.status == OK
        assert recovered.backend == "process"
        assert not recovered.degraded
        assert recovered.fresh
        assert after.backend == "process" and not after.fresh
        assert svc.breaker.state == CLOSED
        assert svc.counts["degraded_sessions"] == 2
        assert svc.ledger.count("degraded") == 2
        assert svc.ledger.count("slot_retired") == 1
        transitions = [e.detail for e in svc.ledger.events("breaker")]
        assert transitions == ["closed->open", "open->half_open",
                               "half_open->closed"]

    def test_failed_probe_reopens_and_stays_serial(self):
        clock = FakeClock()

        def analyze(request, backend, tenant):
            if backend == "process":
                raise RuntimeError("worker lost")
            return "fp-serial"

        async def scenario():
            async with make_service(clock, analyze_fn=analyze,
                                    breaker_threshold=1,
                                    breaker_reset=5.0) as svc:
                req = SessionRequest(tenant="t")
                first = await svc.submit(req)          # trips the breaker
                clock.advance(5.0)                     # half-open
                probe = await svc.submit(req)          # probe fails
                assert svc.breaker.state == OPEN
                fallback = await svc.submit(req)
                return first, probe, fallback

        first, probe, fallback = run(scenario())
        assert first.status == ERROR
        assert probe.status == ERROR
        assert fallback.status == OK
        assert fallback.backend == "serial" and fallback.degraded

    def test_serial_configured_service_never_touches_breaker(self):
        clock = FakeClock()

        def analyze(request, backend, tenant):
            raise RuntimeError("analysis bug")

        async def scenario():
            async with make_service(clock, analyze_fn=analyze,
                                    backend="serial",
                                    breaker_threshold=1) as svc:
                result = await svc.submit(SessionRequest(tenant="t"))
                return svc, result

        svc, result = run(scenario())
        assert result.status == ERROR
        assert svc.breaker.state == CLOSED  # tenant bugs are not infra


class TestObservability:
    def test_metrics_surface(self):
        clock = FakeClock()
        registry = MetricsRegistry()

        def analyze(request, backend, tenant):
            clock.advance(0.02)
            return "fp"

        async def scenario():
            async with make_service(clock, analyze_fn=analyze,
                                    registry=registry, rate=1.0,
                                    burst=1.0) as svc:
                await svc.submit(SessionRequest(tenant="t"))
                await svc.submit(SessionRequest(tenant="t"))  # rate-reject
                return svc

        svc = run(scenario())
        snap = registry.snapshot()
        assert snap['service.admitted{tenant="t"}'] == 1
        assert snap['service.completed{tenant="t"}'] == 1
        assert snap['service.rejected{reason="rate",tenant="t"}'] == 1
        assert snap["service.tenants"] == 1
        assert snap["service.inflight"] == 0
        assert snap["service.breaker"] == 0
        assert snap["service.latency_seconds"]["count"] == 1
        quantiles = svc.metrics.latency_quantiles()
        assert quantiles["p50"] >= 0.02
        assert set(quantiles) == {"p50", "p95", "p99"}
        assert "service:" in svc.render()

    def test_census_service_block_validates(self):
        from repro import Runtime
        from tests.conftest import (fig1_initial, fig1_stream,
                                    make_fig1_tree)

        clock = FakeClock()

        async def scenario():
            async with make_service(clock) as svc:
                await svc.submit(SessionRequest(tenant="a"))
                await svc.submit(SessionRequest(tenant="b"))
                return svc

        svc = run(scenario())
        block = svc.census_block()
        assert block["tenants"] == 2
        assert block["completed"] == 2
        assert all(isinstance(v, int) for v in block.values())
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="raycast")
        rt.replay(fig1_stream(tree, P, G, 1))
        registry = MetricsRegistry()
        doc = census(rt, registry=registry, service=block)
        validate_census(doc)
        assert doc["service"]["sessions"] == 2
        assert "census.service.sessions" in registry.snapshot()

    def test_ledger_snapshot_is_bounded(self):
        from repro.service.errors import ServiceLedger

        ledger = ServiceLedger(capacity=8)
        for i in range(50):
            ledger.record("rejected", "t", i, "rate")
        assert len(ledger) <= 8
        assert ledger.count("rejected") == 50  # counts stay exact


class TestSamplerAcrossSlots:
    def test_tenant_totals_survive_two_slot_keys_and_a_rebuild(self):
        """Real serial runtimes.  At PR 20 the second tick died with
        "counter 'profile.calls' cannot move backwards (2 -> 1)", and so
        did the first tick after any poisoned slot."""
        clock, registry = FakeClock(), MetricsRegistry()
        analyze = 'profile.calls{phase="analyze",tenant="t"}'

        def boom(stream):
            raise RuntimeError("analysis blew up")

        async def scenario():
            async with AnalysisService(backend="serial", clock=clock,
                                       registry=registry, rate=1000.0,
                                       burst=1000.0) as svc:
                hub = TelemetryHub(registry, clock=clock, interval=1.0)
                hub.add_sampler(svc.telemetry_sampler())

                async def tick(pieces):
                    result = await svc.submit(
                        SessionRequest(tenant="t", pieces=pieces))
                    clock.advance(1.0)
                    hub.sample()
                    return result.status, hub.delta(analyze, 1.0)

                ticks = [await tick(2), await tick(3), await tick(2)]
                slots = svc._tenants["t"].slots
                windows = sorted(slot.windows for slot in slots.values())
                # drop the pieces=2 slot the way a failed session does
                slots[("stencil", 2, "raycast")].runtime.analyze = boom
                ticks += [await tick(2), await tick(2)]
                return ticks, windows, svc

        ticks, windows, svc = run(scenario())
        assert windows == [1, 2]  # two live slots, one tenant series
        # every ok session is in exactly one tick, the rebuilt slot's too
        assert ticks == [(OK, 1), (OK, 1), (OK, 1), (ERROR, 0), (OK, 1)]
        assert svc.ledger.count("slot_poisoned") == 1
        assert registry.find("profile.calls", phase="analyze",
                             tenant="t").value == svc.counts["completed"] == 4
