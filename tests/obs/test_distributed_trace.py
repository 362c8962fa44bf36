"""End-to-end tracing through the sharded backends.

Worker-side spans must ship back with the analyze replies and land in the
driver tracer with shard-attributed pid/tid, re-numbered into the
driver's span-id space; recovery incidents must appear as instant events.
"""

import pytest

from repro.distributed import ShardedRuntime
from repro.distributed.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.apps import APPS
from repro.obs import tracer as obs
from repro.obs.critpath import critical_path

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.01, multiplier=2.0,
                         max_delay=0.05)


@pytest.fixture
def driver_tracer():
    """Install a fresh enabled tracer for the test, restore after."""
    tracer = obs.Tracer()
    previous = obs.set_tracer(tracer)
    yield tracer
    obs.set_tracer(previous)


def analyze_fig1(driver_tracer, **kwargs):
    tree, P, G = make_fig1_tree()
    srt = ShardedRuntime(tree, fig1_initial(tree), shards=3,
                         checkpoint_interval=2, **kwargs)
    with srt:
        reports = srt.analyze(fig1_stream(tree, P, G, iterations=1))
    return reports, driver_tracer.snapshot()


class TestBackendAttribution:
    def test_serial_backend_reference_spans(self, driver_tracer):
        reports, buffer = analyze_fig1(driver_tracer, backend="serial")
        replica = [s for s in buffer.spans
                   if s.category == "distributed.replica"]
        assert {s.name for s in replica} == {
            "analyze.shard0", "analyze.shard1", "analyze.shard2"}
        # Reference replica runs on the driver process.
        assert all(s.pid == 0 for s in replica
                   if s.name == "analyze.shard0")
        # Hosted replicas 1..n-1 are attributed pid shard+1 / tid shard.
        others = {(s.pid, s.tid) for s in replica
                  if s.name != "analyze.shard0"}
        assert others == {(2, 1), (3, 2)}

    def test_thread_backend_spans(self, driver_tracer):
        reports, buffer = analyze_fig1(driver_tracer, backend="thread",
                                       max_workers=2)
        replica = {s.name: (s.pid, s.tid) for s in buffer.spans
                   if s.category == "distributed.replica"}
        assert replica["analyze.shard1"] == (2, 1)
        assert replica["analyze.shard2"] == (3, 2)

    def test_task_spans_cover_the_stream(self, driver_tracer):
        reports, buffer = analyze_fig1(driver_tracer, backend="serial")
        tasks = [s for s in buffer.spans if s.category == "task"]
        assert {s.args["task_id"] for s in tasks} == set(range(6))
        assert all("deps" in s.args for s in tasks)


class TestProcessBackend:
    def test_worker_spans_ship_back_and_attach_to_reports(
            self, driver_tracer):
        reports, buffer = analyze_fig1(driver_tracer, backend="process",
                                       recv_timeout=10.0, retry=FAST_RETRY)
        replica = [s for s in buffer.spans
                   if s.category == "distributed.replica"]
        by_shard = {s.args["shard"]: s for s in replica}
        assert set(by_shard) == {0, 1, 2}
        for shard in (1, 2):
            span = by_shard[shard]
            assert (span.pid, span.tid) == (shard + 1, shard)
        # Worker clocks are offset-aligned into the driver timeline:
        # shipped spans must overlap the driver's own span window.
        driver_end = max(s.end for s in buffer.spans if s.pid == 0)
        driver_start = min(s.start for s in buffer.spans if s.pid == 0)
        for shard in (1, 2):
            assert driver_start <= by_shard[shard].start <= driver_end
        # every shard's task spans came home, on that shard's track
        for shard in (1, 2):
            tasks = [s for s in buffer.spans
                     if s.category == "task" and s.tid == shard]
            assert len(tasks) == 6, f"shard {shard} shipped no task spans"

    def test_disabled_tracer_ships_nothing(self, monkeypatch):
        # The default process-global tracer is disabled — workers must
        # not pay for or ship span buffers.
        absorbed = []
        monkeypatch.setattr(obs.Tracer, "absorb",
                            lambda self, fragment: absorbed.append(fragment))
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=3,
                             backend="process", recv_timeout=10.0,
                             retry=FAST_RETRY)
        with srt:
            srt.analyze(fig1_stream(tree, P, G, iterations=1))
        assert absorbed == []

    def test_merged_buffer_is_keyed_by_span_id(self, driver_tracer):
        """Span ids are per-process counters; absorbing worker buffers
        must leave the merged buffer keyed by ``span_id`` — unique ids,
        every parent link resolving inside the buffer — or the critical
        path credits one task's children to another process's task and
        exemplar trace ids resolve against the wrong span."""
        app = APPS["stencil"](pieces=4)
        with ShardedRuntime(app.tree, app.initial, shards=3,
                            backend="process", recv_timeout=10.0,
                            retry=FAST_RETRY) as srt:
            srt.analyze(app.init_stream())
            srt.analyze(app.iteration_stream())
        spans = driver_tracer.snapshot().spans
        assert {s.pid for s in spans} == {0, 2, 3}
        ids = [s.span_id for s in spans]
        assert len(set(ids)) == len(ids)
        known = set(ids)
        assert all(s.parent_id in known for s in spans
                   if s.parent_id is not None)
        # a worker's replica span hangs under a driver span
        by_id = {s.span_id: s for s in spans}
        for s in spans:
            if s.category == "distributed.replica" and s.pid != 0:
                assert by_id[s.parent_id].pid == 0
        report = critical_path(spans)
        children = sum(seconds for phase, seconds in report.per_phase.items()
                       if phase != "runtime.other")
        assert 0.0 < children <= report.total

    def test_recovery_instants_for_pinned_crash(self, driver_tracer):
        # op 0 is the first (and only) analyze request this single-window
        # run sends worker 0 — the crash fires mid-analysis.
        plan = FaultPlan(events=(FaultEvent("crash", worker=0, op=0),))
        reports, buffer = analyze_fig1(
            driver_tracer, backend="process", faults=plan,
            recv_timeout=10.0, retry=FAST_RETRY)
        names = [i.name for i in buffer.instants]
        assert "fault.crash" in names
        assert "respawn" in names
        crash = next(i for i in buffer.instants if i.name == "fault.crash")
        assert crash.category == "recovery"
        assert crash.args["worker"] == 0
        respawn = next(i for i in buffer.instants if i.name == "respawn")
        assert respawn.args["incarnation"] >= 1
        # Determinism contract still holds through the recovery.
        assert len({r.fingerprint for r in reports}) == 1
