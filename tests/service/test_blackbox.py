"""The incident pipeline end to end: a seeded outage fires the
fast-burn availability alert, the flight recorder writes a
trace-event dump whose evidence attributes the offending
tenant and resolves a latency exemplar back to a dumped span.  Same
seed -> byte-identical dump; arming the recorder never perturbs
analysis fingerprints on any backend.  All on a FakeClock, sleep-free
(the fingerprint matrix spawns real workers for the process backend).
"""

import asyncio
import itertools

import pytest

from repro.distributed import ShardedRuntime
from repro.distributed.faults import FakeClock, RetryPolicy
from repro.obs import tracer as tracing
from repro.obs.export import load_trace
from repro.obs.flight import RING_CAPACITY, FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import AVAILABILITY, SloEvaluator, SloSpec
from repro.obs.telemetry import TelemetryHub
from repro.service import ERROR, OK, AnalysisService, SessionRequest

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

WINDOWS = {"10s": 10.0, "1m": 60.0, "5m": 300.0}

AVAIL = SloSpec(name="availability", kind=AVAILABILITY, objective=0.99,
                good=("service.completed",),
                bad=("service.errors", "service.expired"))

FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.01, multiplier=2.0,
                         max_delay=0.05)


def run(coro):
    return asyncio.run(coro)


def outage_analyze(request, backend, tenant):
    """Injected analysis: the victim tenant hard-fails, everyone else
    completes (and feeds the latency exemplar reservoirs)."""
    if tenant == "victim":
        raise RuntimeError("synthetic outage")
    return 4242


def run_incident(directory, seed):
    """Drive the seeded incident: five healthy ticks, then an outage
    that burns the error budget ~20x — the fast availability alert
    fires and trips the one blackbox dump.  Returns the recorder."""
    clock = FakeClock()
    # fresh span ids so same-seed runs produce identical trace refs
    tracing._span_ids = itertools.count(1)
    registry = MetricsRegistry()
    recorder = FlightRecorder(
        tracing.Tracer(clock=clock, capacity=RING_CAPACITY), directory,
        cooldown=3600.0)
    previous_tracer = tracing.set_tracer(recorder.tracer)
    hub = TelemetryHub(registry, clock=clock, interval=1.0,
                       windows=WINDOWS,
                       evaluator=SloEvaluator([AVAIL], registry=registry))

    async def scenario():
        async with AnalysisService(
                backend="serial", clock=clock, analyze_fn=outage_analyze,
                rate=1000.0, burst=1000.0, breaker_threshold=10 ** 6,
                registry=registry, recorder=recorder,
                exemplar_seed=seed) as svc:
            hub.evaluator.ledger = svc.ledger
            for _ in range(5):  # healthy baseline
                for _ in range(2):
                    result = await svc.submit(
                        SessionRequest(tenant="steady"))
                    assert result.status == OK
                clock.advance(1.0)
                hub.sample()
            for _ in range(8):  # the outage
                ok = await svc.submit(SessionRequest(tenant="steady"))
                assert ok.status == OK
                for _ in range(3):
                    bad = await svc.submit(SessionRequest(tenant="victim"))
                    assert bad.status == ERROR
                clock.advance(1.0)
                hub.sample()

    try:
        run(scenario())
    finally:
        tracing.set_tracer(previous_tracer)
    return recorder


class TestIncidentEndToEnd:
    def test_outage_fires_alert_and_dumps_a_valid_blackbox(self, tmp_path):
        recorder = run_incident(tmp_path, seed=7)
        assert recorder.dumps_written == 1
        assert recorder.triggers_seen >= 1

        data, _ = load_trace(recorder.last_dump)  # raises if invalid
        trigger = data["otherData"]["trigger"]
        assert trigger["kind"] == "slo"
        assert "firing" in trigger["detail"]
        assert "availability" in trigger["detail"]

    def test_dump_attributes_the_offending_tenant(self, tmp_path):
        recorder = run_incident(tmp_path, seed=7)
        data, spans = load_trace(recorder.last_dump)

        # the victim's session spans are in the ring, shard-keyed by
        # tid (injected analysis runs on the driver thread: tid 0)
        victims = [s for s in spans if s.args.get("tenant") == "victim"]
        assert victims
        assert all(s.category == "service.session" for s in victims)
        assert {s.tid for s in spans} == {0}

        # ... and its control-plane events rode along, tagged by tenant
        events = [e for e in data["traceEvents"] if e.get("cat") == "ledger"
                  and e["args"]["tenant"] == "victim"]
        assert any(e["name"] == "errored" for e in events)

    def test_at_least_one_exemplar_resolves_to_a_dumped_span(
            self, tmp_path):
        recorder = run_incident(tmp_path, seed=7)
        data, spans = load_trace(recorder.last_dump)

        by_id = {s.span_id: s for s in spans}
        exemplars = data["otherData"]["exemplars"]
        assert exemplars
        resolved = [row for row in exemplars if row["trace"] in by_id]
        assert resolved
        # exemplars only come from completions: the steady tenant
        assert all(row["tenant"] == "steady" for row in resolved)
        for row in resolved:
            assert by_id[row["trace"]].args["session"] == row["session"]


class TestSeededDeterminism:
    def test_same_seed_gives_byte_identical_dumps(self, tmp_path):
        run_incident(tmp_path / "a", seed=11)
        run_incident(tmp_path / "b", seed=11)
        first = (tmp_path / "a" / "blackbox-00000.json").read_bytes()
        again = (tmp_path / "b" / "blackbox-00000.json").read_bytes()
        assert first == again

    def test_different_seed_samples_different_exemplars(self, tmp_path):
        a = run_incident(tmp_path / "a", seed=11)
        c = run_incident(tmp_path / "c", seed=12)
        rows_a = load_trace(a.last_dump)[0]["otherData"]["exemplars"]
        rows_c = load_trace(c.last_dump)[0]["otherData"]["exemplars"]
        assert rows_a and rows_c
        assert rows_a != rows_c


# ----------------------------------------------------------------------
# observer effect: recorder on/off must not change analysis results
# ----------------------------------------------------------------------
BACKENDS = [("serial", {}), ("thread", {"max_workers": 2}),
            ("process", {"recv_timeout": 10.0, "retry": FAST_RETRY})]


def fig1_fingerprints(backend, kwargs):
    tree, P, G = make_fig1_tree()
    srt = ShardedRuntime(tree, fig1_initial(tree), shards=3,
                         checkpoint_interval=2, backend=backend, **kwargs)
    with srt:
        reports = srt.analyze(fig1_stream(tree, P, G, iterations=1))
    return {r.fingerprint for r in reports}


class TestObserverEffect:
    @pytest.mark.parametrize("backend,kwargs", BACKENDS,
                             ids=[b for b, _ in BACKENDS])
    def test_fingerprints_identical_recorder_on_and_off(
            self, backend, kwargs):

        def fingerprints(armed):
            if not armed:
                return fig1_fingerprints(backend, kwargs)
            # no directory: triggers are counted, nothing is written
            recorder = FlightRecorder(tracing.Tracer(capacity=RING_CAPACITY))
            previous = tracing.set_tracer(recorder.tracer)
            try:
                return fig1_fingerprints(backend, kwargs)
            finally:
                tracing.set_tracer(previous)

        off = fingerprints(armed=False)
        on = fingerprints(armed=True)
        assert len(off) == 1
        assert on == off
