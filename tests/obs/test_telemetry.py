"""Streaming telemetry: digests, windowed hub queries over readings,
trace-event segments and their rotation, and replay — all
clock-injected, no real sleeps."""

import json
import math
import random

import pytest

from repro.errors import MachineError
from repro.distributed.faults import FakeClock
from repro.obs.metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from repro.obs.export import load_trace
from repro.obs.telemetry import (META_EVENT, QuantileDigest, TelemetryHub,
                                 TelemetrySink, load_telemetry,
                                 parse_full_name)


# ----------------------------------------------------------------------
# full-name parsing
# ----------------------------------------------------------------------
def test_parse_full_name_round_trips_format_labels():
    from repro.obs.metrics import format_labels

    labels = {"tenant": "t0", "reason": "queue_full"}
    full = "service.rejected" + format_labels(labels)
    assert parse_full_name(full) == ("service.rejected", labels)
    assert parse_full_name("service.inflight") == ("service.inflight", {})


# ----------------------------------------------------------------------
# quantile digest
# ----------------------------------------------------------------------
def test_digest_validates_centroids():
    with pytest.raises(MachineError):
        QuantileDigest([])
    with pytest.raises(MachineError):
        QuantileDigest([1.0, 1.0, 2.0])
    with pytest.raises(MachineError):
        QuantileDigest([2.0, 1.0])


def test_digest_appends_inf_tail():
    digest = QuantileDigest([1.0, 2.0])
    assert digest.centroids == (1.0, 2.0, math.inf)
    # an explicit inf tail is not doubled
    assert QuantileDigest([1.0, math.inf]).centroids == (1.0, math.inf)


def test_digest_empty_quantiles_are_nan():
    digest = QuantileDigest(DEFAULT_BUCKETS)
    assert math.isnan(digest.quantile(0.5))
    assert math.isnan(digest.fraction_at_most(1.0))
    assert all(math.isnan(v) for v in digest.quantiles().values())


def test_digest_quantile_matches_bucket_rule():
    digest = QuantileDigest([0.1, 0.5, 1.0])
    for value in (0.05, 0.05, 0.05, 0.3, 0.7, 0.7, 0.7, 0.7, 0.7, 5.0):
        digest.observe(value)
    assert digest.count == 10
    assert digest.quantile(0.0) == 0.1
    assert digest.quantile(0.5) == 1.0    # 5th obs lands in <=1.0 bucket
    assert digest.quantile(1.0) == math.inf
    assert digest.fraction_at_most(0.5) == pytest.approx(0.4)
    with pytest.raises(MachineError):
        digest.quantile(1.5)
    sparse = QuantileDigest([1, 2, 3])
    sparse.observe(2.5, n=5)  # a quantile names an occupied bucket
    assert {sparse.quantile(q) for q in (0.0, 0.5, 1.0)} == {3.0}


def test_digest_merge_adds_counts():
    a = QuantileDigest([0.1, 1.0])
    b = QuantileDigest([0.1, 1.0])
    a.observe(0.05, n=3)
    b.observe(0.5, n=2)
    a.merge(b)
    assert a.count == 5
    assert a.counts == [3, 2, 0]
    assert a.sum == pytest.approx(0.05 * 3 + 0.5 * 2)
    with pytest.raises(MachineError):
        a.merge(QuantileDigest([0.2, 1.0]))


def test_digest_args_round_trip_key_buckets_by_bound():
    digest = QuantileDigest([0.1, 1.0])
    digest.observe(0.05, n=2)
    digest.observe(9.0)
    args = digest.to_args()
    assert args == {"count": 3, "sum": 9.1, "le=0.1": 2, "le=1.0": 0,
                    "le=inf": 1}
    assert json.loads(json.dumps(args)) == args
    back = QuantileDigest.from_args(args)
    assert back.centroids == digest.centroids
    assert back.counts == digest.counts
    assert back.count == digest.count
    assert back.sum == pytest.approx(digest.sum)
    with pytest.raises(ValueError, match="bound 'le=a'"):
        QuantileDigest.from_args({"le=a": 1})
    with pytest.raises(ValueError, match="at least one"):
        QuantileDigest.from_args({"count": 0})


# ----------------------------------------------------------------------
# the hub: readings, window deltas
# ----------------------------------------------------------------------
def make_hub(**kwargs):
    registry = MetricsRegistry()
    clock = FakeClock()
    hub = TelemetryHub(registry, clock=clock, interval=1.0, **kwargs)
    return hub, registry, clock


def test_hub_counters_become_deltas():
    """A reading holds the registry's totals; a window's delta is the
    newest reading less the one just before the window."""
    hub, registry, clock = make_hub()
    done = registry.counter("service.completed", tenant="t0")
    done.inc(5)
    clock.advance(1.0)
    first = hub.sample()
    assert first.counters['service.completed{tenant="t0"}'] == 5
    done.inc(2)
    clock.advance(1.0)
    second = hub.sample()
    assert second.counters['service.completed{tenant="t0"}'] == 7
    assert hub.delta('service.completed{tenant="t0"}', 1.0) == 2
    assert hub.delta('service.completed{tenant="t0"}', "10s") == 7
    assert hub.delta_matching("service.completed", "10s") == 7


def test_hub_counter_reset_detection():
    """Restarts are ``publish``'s to detect: a source that restarts and
    republishes a lower total moves the counter forward by all of it, so
    the hub's window deltas never go negative."""
    hub, registry, clock = make_hub()
    registry.publish("service", {"completed": 10})
    clock.advance(1.0)
    hub.sample()
    registry.publish("service", {"completed": 3})  # the source restarted
    clock.advance(1.0)
    sample = hub.sample()
    assert sample.counters["service.completed"] == 13
    assert hub.delta("service.completed", 1.0) == 3  # whole total is new
    assert hub.delta("service.completed", "10s") == 13


def test_hub_histogram_becomes_per_tick_digest():
    hub, registry, clock = make_hub()
    hist = registry.histogram("service.latency_seconds",
                              buckets=(0.1, 1.0))
    hist.observe(0.05)
    hist.observe(0.5)
    clock.advance(1.0)
    hub.sample()
    hist.observe(0.5)
    clock.advance(1.0)
    hub.sample()
    merged = hub.digest("service.latency_seconds", "10s")
    assert merged.count == 3
    assert merged.counts == [1, 2, 0]
    assert hub.digest("service.latency_seconds", 1.0).counts == [0, 1, 0]
    q = hub.quantiles("service.latency_seconds", "10s")
    assert q["p50"] == 1.0 and q["p99"] == 1.0
    # an empty window answers NaN, not zero
    assert all(math.isnan(v) for v in
               hub.quantiles("service.other", "10s").values())


def test_hub_windows_slide_and_ring_evicts():
    hub, registry, clock = make_hub(windows={"10s": 10.0, "1m": 60.0})
    done = registry.counter("service.completed")
    for _ in range(70):
        done.inc(1)
        clock.advance(1.0)
        hub.sample()
    # ring capacity = 60/1 + 1; the 10s window sees only its tail
    assert len(hub) == 61
    assert hub.delta("service.completed", "10s") == 10
    assert hub.delta("service.completed", "1m") == 60
    assert hub.span("10s") == pytest.approx(10.0)
    with pytest.raises(MachineError):
        hub.delta("service.completed", "5m")  # window not configured
    assert hub.delta("service.completed", 10.0) == 10  # raw seconds ok
    # a window past the ring is measured from the reading evicted last
    assert hub.delta("service.completed", 1000.0) == 61


def test_hub_requires_positive_interval_and_windows():
    with pytest.raises(MachineError):
        TelemetryHub(MetricsRegistry(), interval=0.0)
    with pytest.raises(MachineError):
        TelemetryHub(MetricsRegistry(), windows={})


# ----------------------------------------------------------------------
# trace-event segments
# ----------------------------------------------------------------------
def counter_event(ts, value, name="service.completed"):
    return {"name": name, "cat": "counter", "ph": "C", "ts": ts,
            "pid": 0, "tid": 0, "args": {"value": value}}


def test_sink_rotates_by_size_with_meta_per_segment(tmp_path):
    sink = TelemetrySink(tmp_path, max_bytes=1024, meta={"seed": 7})
    sink.write([counter_event(k * 1e6, k, name="x" * 80)
                for k in range(40)])
    sink.close()
    paths = sink.paths
    assert len(paths) > 1
    for index, path in enumerate(paths):
        data, _ = load_trace(path)
        first = data["traceEvents"][0]
        assert (first["ph"], first["name"]) == ("M", META_EVENT)
        assert first["args"] == {"seed": 7, "segment": index}
    events = load_trace(tmp_path)[0]["traceEvents"]
    assert sum(e["ph"] == "C" for e in events) == 40


def test_hub_writes_samples_to_sink(tmp_path):
    sink = TelemetrySink(tmp_path, meta={"interval": 1.0})
    hub, registry, clock = make_hub(sink=sink)
    registry.counter("service.completed").inc(3)
    clock.advance(1.0)
    hub.sample()
    (path,) = sink.paths
    # the segment loads while it is still open: "]" is written on close
    assert not path.read_text().rstrip().endswith("]")
    assert load_trace(path)[0]["traceEvents"][1:] == [
        counter_event(1e6, 3)]
    hub.close()
    assert path.read_text().rstrip().endswith("]")
    assert load_telemetry(path).delta("service.completed", "10s") == 3


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def test_load_telemetry_round_trips_window_queries(tmp_path):
    sink = TelemetrySink(tmp_path, max_bytes=1024,
                         meta={"interval": 1.0,
                               "windows": {"10s": 10.0, "1m": 60.0}})
    hub, registry, clock = make_hub(sink=sink,
                                    windows={"10s": 10.0, "1m": 60.0})
    done = registry.counter("service.completed", tenant="t0")
    hist = registry.histogram("service.latency_seconds",
                              buckets=DEFAULT_BUCKETS)
    for k in range(20):
        done.inc(2)
        hist.observe(0.01 * (k + 1))
        clock.advance(1.0)
        hub.sample()
    hub.close()
    assert len(sink.paths) > 1  # the replay reads across rotations

    replay = load_telemetry(tmp_path)
    assert len(replay) == len(hub)
    assert replay.windows == hub.windows
    for window in ("10s", "1m"):
        assert replay.delta('service.completed{tenant="t0"}', window) \
            == hub.delta('service.completed{tenant="t0"}', window)
        assert replay.quantiles("service.latency_seconds", window) \
            == hub.quantiles("service.latency_seconds", window)
        assert replay.span(window) == hub.span(window)
    with pytest.raises(MachineError):
        replay.sample()  # replayed hubs are query-only


def test_load_telemetry_refuses_invalid_stream(tmp_path):
    (tmp_path / "telemetry-00000.json").write_text(
        '[\n{"name":"repro.telemetry","ph":"M","pid":0,"tid":0,'
        '"args":{"interval":0}},\n')
    with pytest.raises(ValueError, match="positive interval"):
        load_telemetry(tmp_path)
    (tmp_path / "telemetry-00000.json").write_text(
        "[\n" + json.dumps(counter_event(2e6, 1)) + ",\n"
        + json.dumps(counter_event(1e6, 1)) + ",\n")
    with pytest.raises(ValueError, match="not a valid trace"):
        load_telemetry(tmp_path)
    with pytest.raises(FileNotFoundError):
        load_telemetry(tmp_path / "absent")


# ----------------------------------------------------------------------
# acceptance: windowed digests vs the offline cumulative histogram
# ----------------------------------------------------------------------
def test_digest_agrees_with_offline_histogram_on_seeded_load():
    """Merging every per-tick digest of the seeded loadgen run must
    reproduce the offline cumulative Histogram exactly (same bucket
    counts), so every windowed quantile bound agrees with the offline
    bound within one bucket width by construction."""
    from repro.service.loadgen import LoadSpec, run_load

    registry = MetricsRegistry()
    hub = TelemetryHub(registry, interval=0.05,
                       windows={"10s": 10.0, "1m": 60.0, "5m": 300.0})
    spec = LoadSpec(seed=2023, tenants=3, sessions=12)
    results, summary = run_load(spec, hub=hub, backend="serial",
                                registry=registry, max_inflight=32,
                                queue_limit=32, rate=1000.0, burst=64)
    assert summary["by_status"] == {"ok": 12}
    assert len(hub) >= 1  # the final flush tick always lands

    offline = registry.find("service.latency_seconds").digest()
    merged = hub.digest("service.latency_seconds", "5m")
    assert merged.centroids == offline.centroids
    assert merged.counts == offline.counts
    assert merged.count == offline.count == 12
    assert merged.sum == pytest.approx(offline.sum)
    for q in (0.5, 0.95, 0.99):
        assert merged.quantile(q) == offline.quantile(q)


def test_minus_ticks_sum_to_the_cumulative_digest_across_a_restart():
    """Folding ``reading.minus(previous reading)`` over every tick gives
    back everything the source observed — and when the source is
    replaced by a fresh one mid-run, everything both observed."""
    rng = random.Random(7)
    first = Histogram("lat", {}, buckets=DEFAULT_BUCKETS)
    second = Histogram("lat", {}, buckets=DEFAULT_BUCKETS)
    folded, everything, last = (QuantileDigest(DEFAULT_BUCKETS),
                                QuantileDigest(DEFAULT_BUCKETS), None)
    for source, ticks in ((first, 6), (second, 3)):  # restart after 6
        for _ in range(ticks):
            for _ in range(rng.randrange(0, 5)):
                value = rng.lognormvariate(-6, 3)
                source.observe(value)
                everything.observe(value)
            reading = source.digest()
            folded.merge(reading.minus(last))
            last = reading
        if source is first:
            assert folded.to_args() == first.digest().to_args()
    assert second.digest().count < first.digest().count  # a real restart
    assert folded.counts == everything.counts
    assert folded.sum == pytest.approx(everything.sum)


# ----------------------------------------------------------------------
# exemplar shipping
# ----------------------------------------------------------------------
def test_hub_ships_only_fresh_exemplars_per_tick():
    hub, registry, clock = make_hub()
    hist = registry.histogram("service.latency_seconds",
                              buckets=(0.1, 1.0), exemplars=4,
                              exemplar_seed=1)
    hist.observe(0.05, {"trace": 1})
    clock.advance(1.0)
    first = hub.sample()
    assert [r["trace"] for r in
            first.exemplars["service.latency_seconds"]] == [1]
    clock.advance(1.0)
    second = hub.sample()  # nothing new offered: no exemplar block
    assert second.exemplars == {}
    hist.observe(0.5, {"trace": 2})
    clock.advance(1.0)
    third = hub.sample()
    assert [r["trace"] for r in
            third.exemplars["service.latency_seconds"]] == [2]
    # window query folds the shipped rows, slowest first
    rows = hub.exemplars_in("service.latency_seconds", "10s")
    assert [r["trace"] for r in rows] == [2, 1]


def test_exemplars_round_trip_through_the_sink(tmp_path):
    sink = TelemetrySink(tmp_path, meta={"interval": 1.0})
    hub, registry, clock = make_hub(sink=sink)
    hist = registry.histogram("service.latency_seconds",
                              buckets=(0.1,), exemplars=2,
                              exemplar_seed=3)
    hist.observe(0.02, {"trace": 7, "tenant": "t0"})
    clock.advance(1.0)
    hub.sample()
    hub.close()
    (exemplar,) = [e for e in load_trace(tmp_path)[0]["traceEvents"]
                   if e.get("cat") == "exemplar"]
    assert (exemplar["ph"], exemplar["name"]) == \
        ("i", "service.latency_seconds")
    replay = load_telemetry(tmp_path)
    rows = replay.exemplars_in("service.latency_seconds", "10s")
    assert rows == [{"trace": 7, "tenant": "t0", "value": 0.02,
                     "seq": 1, "bucket": 0.1}]
