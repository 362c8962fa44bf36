"""Trace-export tests: a FakeClock golden file checked field-by-field
against the trace-event schema, negative validation cases, and the full
CLI round trip (``analyze --trace-out`` → ``prof``)."""

import json

import pytest

from repro.cli import main
from repro.distributed.faults import FakeClock
from repro.obs.export import (load_trace, spans_from_events,
                              to_chrome_trace, trace_events,
                              validate_trace, write_trace)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


def make_buffer():
    """A tiny deterministic trace: driver span nesting a shard-attributed
    span, one recovery instant, one counter sample."""
    t = Tracer(clock=FakeClock(10.0))
    with t.span("analyze", "runtime"):
        t.clock.advance(0.001)
        with t.scope(pid=2, tid=1):
            with t.span("analyze.shard1", "distributed.replica", shard=1):
                t.clock.advance(0.002)
            t.instant("fault.crash", "recovery", worker=1)
        t.clock.advance(0.001)
    t.counter("tasks_analyzed", 4)
    return t.snapshot()


class TestGolden:
    def test_events_are_exact(self):
        events = trace_events(make_buffer())
        meta = [e for e in events if e["ph"] == "M"]
        assert [(m["pid"], m["args"]["name"]) for m in meta] == [
            (0, "driver"), (2, "shard 1")]

        by_name = {e["name"]: e for e in events if e["ph"] != "M"}
        outer = by_name["analyze"]
        inner = by_name["analyze.shard1"]
        crash = by_name["fault.crash"]
        sample = by_name["tasks_analyzed"]

        assert (outer["ph"], outer["ts"], outer["dur"]) == ("X", 0.0, 4000.0)
        assert (outer["pid"], outer["tid"]) == (0, 0)
        assert (inner["ph"], inner["ts"], inner["dur"]) == (
            "X", 1000.0, 2000.0)
        assert (inner["pid"], inner["tid"]) == (2, 1)
        assert inner["args"]["shard"] == 1
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]
        assert (crash["ph"], crash["s"], crash["ts"]) == ("i", "g", 3000.0)
        assert (crash["pid"], crash["tid"]) == (2, 1)
        assert (sample["ph"], sample["args"]["value"]) == ("C", 4.0)

    def test_registry_totals_become_counter_events(self):
        reg = MetricsRegistry()
        reg.counter("meter.ops").inc(7)
        reg.histogram("analysis.shard_seconds").observe(0.5)
        events = trace_events(make_buffer(), registry=reg)
        metrics = {e["name"]: e for e in events if e["ph"] == "C"}
        assert metrics["meter.ops"]["cat"] == "counter"
        assert metrics["meter.ops"]["args"] == {"value": 7}
        assert metrics["analysis.shard_seconds"]["cat"] == "histogram"
        assert metrics["analysis.shard_seconds"]["args"] == {
            "count": 1, "sum": 0.5, "le=1e-06": 0, "le=1e-05": 0,
            "le=0.0001": 0, "le=0.001": 0, "le=0.01": 0, "le=0.1": 0,
            "le=1.0": 1, "le=10.0": 0, "le=60.0": 0, "le=inf": 0}

    def test_emitted_trace_validates(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(1.0)
        assert validate_trace(to_chrome_trace(make_buffer(), reg)) == []

    def test_write_trace_round_trips_spans(self, tmp_path):
        path = write_trace(tmp_path / "t.json", make_buffer())
        raw, spans = load_trace(path)
        assert raw["displayTimeUnit"] == "ms"
        assert [s.name for s in spans] == ["analyze", "analyze.shard1"]
        outer, inner = spans
        assert inner.parent_id == outer.span_id
        assert inner.duration == pytest.approx(0.002)
        assert inner.args == {"shard": 1}  # span_id/parent_id popped out


class TestValidation:
    def test_rejects_non_object(self):
        assert validate_trace([1, 2]) != []
        assert validate_trace({"events": []}) != []

    def test_missing_required_keys(self):
        data = {"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}
        problems = validate_trace(data)
        assert any("'name'" in p for p in problems)
        assert any("'pid'" in p for p in problems)

    def test_unknown_phase(self):
        data = {"traceEvents": [
            {"name": "a", "ph": "Z", "pid": 0, "tid": 0, "ts": 0}]}
        assert any("unknown phase" in p for p in validate_trace(data))

    def test_negative_ts_and_missing_dur(self):
        data = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": -1, "dur": 1},
            {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 0}]}
        problems = validate_trace(data)
        assert any("'ts'" in p for p in problems)
        assert any("'dur'" in p for p in problems)

    def test_non_monotonic_ts(self):
        data = {"traceEvents": [
            {"name": "a", "ph": "X", "pid": 0, "tid": 0, "ts": 5, "dur": 0},
            {"name": "b", "ph": "X", "pid": 0, "tid": 0, "ts": 3, "dur": 0}]}
        assert any("monoton" in p for p in validate_trace(data))

    def test_instant_needs_scope(self):
        data = {"traceEvents": [
            {"name": "a", "ph": "i", "pid": 0, "tid": 0, "ts": 0}]}
        assert any("scope" in p for p in validate_trace(data))

    def test_load_trace_raises_on_invalid(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": [{"ph": "Z"}]}))
        with pytest.raises(ValueError, match="not a valid trace"):
            load_trace(path)

    def test_spans_from_events_skips_non_complete(self):
        events = [{"name": "i", "ph": "i", "pid": 0, "tid": 0, "ts": 0,
                   "s": "g"},
                  {"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1000.0,
                   "dur": 500.0}]
        (span,) = spans_from_events(events)
        assert span.name == "x"
        assert span.duration == pytest.approx(0.0005)


class TestCliRoundTrip:
    def test_analyze_trace_out_then_prof(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["analyze", "--app", "stencil", "--pieces", "4",
                     "--iterations", "1", "--shards", "2",
                     "--trace-out", str(trace), "--critical-path"]) == 0
        out = capsys.readouterr().out
        assert f"trace written: {trace}" in out
        assert "critical path" in out.lower()

        data = json.loads(trace.read_text())
        assert validate_trace(data) == []
        cats = {e.get("cat") for e in data["traceEvents"] if e["ph"] == "X"}
        assert "task" in cats
        assert any(c.startswith("visibility.") for c in cats)
        assert "distributed.replica" in cats

        assert main(["prof", str(trace)]) == 0
        prof_out = capsys.readouterr().out
        assert "spans" in prof_out
        assert "critical path" in prof_out.lower()

    def test_prof_missing_file(self, tmp_path, capsys):
        assert main(["prof", str(tmp_path / "nope.json")]) == 2
        assert "no such" in capsys.readouterr().err.lower()

    def test_prof_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"traceEvents\": [{\"ph\": \"Z\"}]}")
        assert main(["prof", str(bad)]) == 1
        assert "not a valid trace" in capsys.readouterr().err


def test_validate_reports_offending_index_and_key_path():
    events = [
        {"name": "ok", "ph": "X", "pid": 0, "tid": 0, "ts": 10.0,
         "dur": 1.0},
        {"name": "bad-dur", "ph": "X", "pid": 0, "tid": 0, "ts": 12.0,
         "dur": -5},
        {"name": "rewind", "ph": "X", "pid": 0, "tid": 0, "ts": 4.0,
         "dur": 0.0},
        {"ph": "i", "pid": 0, "tid": 0, "ts": 20.0, "s": "q"},
    ]
    problems = validate_trace({"traceEvents": events})
    # the bad duration names the event and the key
    assert any(p.startswith("traceEvents[1] ('bad-dur').dur:")
               for p in problems)
    # the ordering violation names BOTH events involved
    rewind = [p for p in problems if p.startswith("traceEvents[2]")]
    assert rewind and "precedes traceEvents[1] ts 12.0" in rewind[0]
    # the instant is missing 'name' (indexed, nameless prefix) and has
    # a bad scope
    assert "traceEvents[3]: missing required key 'name'" in problems
    assert any(p.startswith("traceEvents[3].s:") and "'q'" in p
               for p in problems)


def test_validate_reports_container_shape_with_path():
    assert validate_trace([]) \
        == ["$: top level must be an object with a 'traceEvents' list"]
    assert validate_trace({"traceEvents": "nope"}) \
        == ["traceEvents: must be a list, got str"]
    problems = validate_trace({"traceEvents": [17]})
    assert problems == ["traceEvents[0]: not an object, got int"]
