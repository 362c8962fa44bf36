"""Flight recorder: the bounded tracer it reads, triggers, cooldown,
rotation, size cap, the dump as a trace-event file, and the incident
report.  Everything runs on a FakeClock — no sleeps, no real incidents
required."""

import json
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.distributed.faults import FakeClock
from repro.obs import tracer as tracing
from repro.obs.export import load_trace, spans_from_events, validate_trace
from repro.obs.flight import BLACKBOX_SCHEMA, FlightRecorder, render_blackbox
from repro.obs.tracer import Instant, Span, TraceBuffer, Tracer


def make_span(n, tid=0, start=0.0, dur=0.01, category="task", **args):
    return Span(name=f"s{n}", category=category, start=start,
                end=start + dur, pid=tid + 1, tid=tid, span_id=n,
                parent_id=None, args=args)


def make_instant(name="crash", category="recovery", ts=1.0, tid=0):
    return Instant(name=name, category=category, ts=ts, pid=tid + 1,
                   tid=tid, args={})


def make_event(kind, tenant="t0", session=0, detail="", at=1.0):
    return SimpleNamespace(kind=kind, tenant=tenant, session=session,
                           detail=detail, at=at)


def make_recorder(directory=None, clock=None, capacity=256, **kw):
    tracer = Tracer(clock=clock or FakeClock(), capacity=capacity)
    return FlightRecorder(tracer, directory, **kw)


def spans_of(dump):
    return spans_from_events(dump["traceEvents"])


def instants_of(dump, category=None):
    """A dump's instant events: the ledger's (``category="ledger"``) or
    the tracer's (``None``)."""
    return [e for e in dump["traceEvents"] if e["ph"] == "i"
            and (e["cat"] == "ledger") == (category == "ledger")]


def trigger_of(path):
    return load_trace(path)[0]["otherData"]["trigger"]


def record(rec, *events):
    """Put finished spans / instants on the recorder's tracer the way a
    worker's reply fragment arrives (ids are re-issued on the way in)."""
    rec.tracer.absorb(TraceBuffer(
        spans=[e for e in events if isinstance(e, Span)],
        instants=[e for e in events if isinstance(e, Instant)]))


# ----------------------------------------------------------------------
# rings
# ----------------------------------------------------------------------
def test_disarmed_recorder_records_nothing():
    """The tracer's ``enabled`` is the one switch: over a disabled tracer
    no span or instant is kept and no recovery instant reaches the
    trigger."""
    rec = FlightRecorder(Tracer(clock=FakeClock(), enabled=False,
                                capacity=4))
    with rec.tracer.span("work", "task"):
        pass
    rec.tracer.instant("crash", "recovery")
    snap = rec.snapshot()
    assert [e["ph"] for e in snap["traceEvents"]] == ["M"]  # driver name
    assert rec.triggers_seen == 0


def test_rings_are_bounded_per_shard():
    rec = make_recorder(capacity=4)
    for n in range(10):
        record(rec, make_span(n, tid=n % 2, start=n * 0.01))
    spans = spans_of(rec.snapshot())
    for tid in (0, 1):
        kept = [s.name for s in spans if s.tid == tid]
        # the ring kept the newest spans, oldest evicted
        assert kept == [f"s{n}" for n in range(tid + 2, 10, 2)]


def test_event_rings_are_keyed_per_tenant():
    rec = make_recorder(event_capacity=2)
    for k in range(5):
        rec.record_event(make_event("rejected", tenant="a", session=k))
    rec.record_event(make_event("rejected", tenant="b"))
    events = instants_of(rec.snapshot(), "ledger")
    assert [e["args"]["session"] for e in events
            if e["args"]["tenant"] == "a"] == [3, 4]
    assert sum(e["args"]["tenant"] == "b" for e in events) == 1


# ----------------------------------------------------------------------
# triggers + cooldown
# ----------------------------------------------------------------------
def test_anomaly_events_trigger_dumps(tmp_path):
    cases = [
        (make_event("alert", detail="availability[fast] firing: ..."),
         "slo"),
        (make_event("breaker", detail="closed->open"), "breaker"),
        (make_event("expired", detail="expired in queue"), "deadline"),
        (make_event("cancelled", detail="finished past deadline"),
         "deadline"),
    ]
    for event, kind in cases:
        rec = make_recorder(tmp_path / kind, cooldown=0.0)
        rec.record_event(event)
        assert rec.dumps_written == 1, kind
        trigger = trigger_of(rec.last_dump)
        assert trigger["kind"] == kind
        assert trigger["tenant"] == "t0"


def test_benign_events_do_not_trigger(tmp_path):
    rec = make_recorder(tmp_path)
    rec.record_event(make_event("alert", detail="x resolved"))
    rec.record_event(make_event("breaker", detail="open->half_open"))
    rec.record_event(make_event("rejected", detail="rate"))
    rec.record_event(make_event("errored", detail="boom"))
    assert rec.dumps_written == 0
    assert rec.triggers_seen == 0


def test_recovery_instant_triggers(tmp_path):
    rec = make_recorder(tmp_path, cooldown=0.0)
    rec.tracer.instant("respawn", "recovery")
    assert rec.dumps_written == 1
    trigger = trigger_of(rec.last_dump)
    assert trigger["kind"] == "recovery"
    assert trigger["name"] == "respawn"
    # non-recovery instants land in the ring without dumping
    rec.clock.advance(1.0)
    rec.tracer.instant("note", "service")
    assert rec.dumps_written == 1
    assert [i["name"] for i in instants_of(rec.snapshot())] \
        == ["respawn", "note"]


def test_cooldown_debounces_alert_storms(tmp_path):
    clock = FakeClock()
    rec = make_recorder(tmp_path, clock=clock, cooldown=5.0)
    for _ in range(4):
        rec.record_event(make_event("expired"))
    assert rec.dumps_written == 1
    assert rec.dumps_suppressed == 3
    assert rec.triggers_seen == 4
    clock.advance(6.0)
    rec.record_event(make_event("expired"))
    assert rec.dumps_written == 2


def test_manual_dump_ignores_cooldown(tmp_path):
    rec = make_recorder(tmp_path, cooldown=1e9)
    rec.record_event(make_event("expired"))
    path = rec.dump("operator requested")
    assert rec.dumps_written == 2
    assert trigger_of(path)["detail"] == "operator requested"


# ----------------------------------------------------------------------
# files: rotation + size cap
# ----------------------------------------------------------------------
def test_rotation_keeps_newest_max_dumps(tmp_path):
    rec = make_recorder(tmp_path, max_dumps=3)
    for _ in range(7):
        rec.dump()
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["blackbox-00004.json", "blackbox-00005.json",
                     "blackbox-00006.json"]


def test_size_cap_sheds_oldest_evidence_and_accounts(tmp_path):
    rec = make_recorder(tmp_path, capacity=512, max_bytes=4096)
    record(rec, *(make_span(n, start=n * 0.001, note="x" * 64)
                  for n in range(200)))
    path = rec.dump()
    assert path.stat().st_size <= 4096 + 2  # trailing newline
    data, kept = load_trace(path)
    assert data["otherData"]["dropped"]["spans"] == 200 - len(kept)
    assert kept  # newest spans survive the shedding
    assert kept[-1].name == "s199"


# ----------------------------------------------------------------------
# the dump is a trace-event file
# ----------------------------------------------------------------------
def valid_dump():
    rec = make_recorder()
    record(rec, make_span(0), make_instant())
    rec.record_event(make_event("expired"))
    return rec.snapshot()


def index_of(data, name):
    return next(k for k, e in enumerate(data["traceEvents"])
                if e["name"] == name)


def test_snapshot_validates():
    data = valid_dump()
    assert data["otherData"]["schema"] == BLACKBOX_SCHEMA
    assert validate_trace(data) == []


def test_load_blackbox_raises_with_problem_list(tmp_path):
    data = valid_dump()
    del data["traceEvents"][index_of(data, "s0")]["dur"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=r"traceEvents\[\d+\] \('s0'\)"):
        load_trace(path)


def test_snapshot_survives_a_raising_exemplar_source():
    def broken():
        raise RuntimeError("registry gone")

    rec = make_recorder(exemplar_source=broken)
    record(rec, make_span(0))
    data = rec.snapshot()
    assert data["otherData"]["exemplars"] == []
    assert validate_trace(data) == []


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def test_render_blackbox_sections():
    rec = make_recorder()
    base = 0.0
    record(rec,
           *(make_span(n, start=base + n * 0.01, task_id=n, deps=[])
             for n in range(3)),
           make_span(99, category="service.session", start=base, dur=0.05,
                     tenant="t0", session=4, app="stencil", pieces=4,
                     iterations=1, algorithm="raycast", backend="process"),
           make_instant("fault.crash", "recovery", ts=0.02))
    rec.record_event(make_event("expired", tenant="t0", session=4,
                                detail="expired in queue", at=0.03))
    session = next(s for s in rec.tracer.snapshot().spans
                   if s.category == "service.session")
    rec.exemplar_source = lambda: [
        {"metric": "service.latency_seconds", "value": 0.05, "seq": 1,
         "trace": session.span_id, "tenant": "t0", "session": 4,
         "bucket": 0.1},
        {"metric": "service.latency_seconds", "value": 0.01, "seq": 2,
         "trace": 12345, "tenant": "t0", "session": 5, "bucket": 0.1},
    ]
    data = rec.snapshot({"kind": "deadline", "name": "expired",
                         "detail": "expired in queue", "tenant": "t0",
                         "session": 4, "ts": 0.03})
    assert validate_trace(data) == []
    report = render_blackbox(data)
    assert "trigger    : deadline" in report
    assert "tenant=t0 session=4" in report
    assert "fault.crash" in report
    assert "critical path" in report
    assert "-> span in dump" in report
    assert "(span evicted from ring)" in report
    assert "repro explain" in report
    assert "--app stencil" in report


def test_render_config_section_names_overrides():
    rec = make_recorder(
        config_source=lambda: {"REPRO_PROVENANCE":
                               {"value": "recording", "origin": "env"}})
    report = render_blackbox(rec.snapshot())
    assert "REPRO_PROVENANCE=recording" in report
    rec = make_recorder(
        config_source=lambda: {"REPRO_PROVENANCE":
                               {"value": "off", "origin": "default"}})
    report = render_blackbox(rec.snapshot())
    assert "all escape hatches at defaults" in report


def test_blackbox_spans_round_trip():
    rec = make_recorder()
    original = make_span(7, tid=3, start=1.0, task_id=7)
    record(rec, original)
    spans = spans_of(rec.snapshot())
    assert len(spans) == 1
    assert spans[0] == replace(original, span_id=spans[0].span_id)


# ----------------------------------------------------------------------
# plumbing: the recorder reads the tracer the instrumentation feeds
# ----------------------------------------------------------------------
def test_tracer_hooks_feed_the_installed_recorder():
    rec = make_recorder()
    prev_tracer = tracing.set_tracer(rec.tracer)
    try:
        with tracing.span("work", "task", task_id=3):
            pass
        tracing.instant("note", "service")
    finally:
        tracing.set_tracer(prev_tracer)
    snap = rec.snapshot()
    spans = spans_of(snap)
    assert [s.name for s in spans] == ["work"]
    assert spans[0].args["task_id"] == 3
    assert [i["name"] for i in instants_of(snap)] == ["note"]
