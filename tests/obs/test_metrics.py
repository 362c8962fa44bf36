"""Metrics-registry unit tests, including the ``publish`` bridge the
sources with their own totals reach the registry through."""

import pickle
import threading

import pytest

from repro.distributed.faults import RecoveryReport
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               format_labels)
from repro.visibility.meter import CostMeter, PhaseProfile


class TestInstruments:
    def test_counter_inc_and_set_total(self):
        reg = MetricsRegistry()
        c = reg.counter("ops", shard="0")
        c.inc()
        c.inc(4)
        assert c.value == 5
        c.set_total(9)
        assert c.value == 9
        with pytest.raises(ValueError):
            c.set_total(3)  # counters cannot move backwards
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_value_wins(self):
        g = MetricsRegistry().gauge("depth")
        g.set(3.0)
        g.set(1.5)
        g.add(0.5)
        assert g.value == 2.0

    def test_histogram_buckets_and_quantiles(self):
        h = Histogram("lat", {}, buckets=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.005, 0.05, 5.0):
            h.observe(v)
        d = h.digest()
        assert d.count == 5
        assert d.sum == pytest.approx(5.0605)
        assert d.counts == [1, 2, 1, 1]  # last bucket is +inf overflow
        assert d.quantile(0.5) == 0.01
        assert d.quantile(1.0) == float("inf")
        assert "##" in h.render()
        sparse = Histogram("lat", {}, buckets=(1, 2, 3))
        sparse.observe(2.5)  # a quantile names an occupied bucket
        assert sparse.digest().quantile(0.0) == 3.0

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("bad", {}, buckets=(0.1, 0.01))

    def test_empty_histogram_has_no_quantiles(self):
        """An empty distribution has no quantiles: NaN, not an invented
        bound of zero (zero is a *claim* about latency; NaN is 'no
        data')."""
        import math

        h = Histogram("lat", {})
        assert math.isnan(h.digest().quantile(0.5))
        assert all(math.isnan(v) for v in h.digest().quantiles().values())
        assert h.render() == "(no samples)"
        h.observe(0.005)
        assert h.digest().quantile(0.5) == 0.01
        assert "(no samples)" not in h.render()

    def test_histogram_bucket_counts_snapshot_is_detached(self):
        h = Histogram("lat", {}, buckets=(0.01, 0.1))
        h.observe(0.005)
        d = h.digest()
        assert (d.counts, d.count, d.sum) == ([1, 0, 0], 1, 0.005)
        d.counts[0] = 99  # mutating the snapshot must not touch the metric
        assert h.digest().counts == [1, 0, 0]


class TestRegistry:
    def test_get_or_create_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1") is reg.counter("x", a="1")
        assert reg.counter("x", a="2") is not reg.counter("x", a="1")

    def test_kind_conflict_is_error(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_labels_render_sorted(self):
        assert format_labels({"b": 2, "a": 1}) == '{a="1",b="2"}'
        assert format_labels({}) == ""

    def test_iter_sorted_and_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.gauge("a").set(1.0)
        reg.histogram("c").observe(0.5)
        names = [m.full_name for m in reg]
        assert names == sorted(names)
        snap = reg.snapshot()
        assert snap["a"] == 1.0
        assert snap["b"] == 2
        assert snap["c"] == {"count": 1, "sum": 0.5}

    def test_find_does_not_create(self):
        reg = MetricsRegistry()
        assert reg.find("nope") is None
        assert len(reg) == 0

    def test_metrics_pickle_without_lock(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc(3)
        clone = pickle.loads(pickle.dumps(c))
        assert clone.value == 3
        clone.inc()  # lock was rebuilt
        assert clone.value == 4

    def test_concurrent_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("hits")

        def work():
            for _ in range(1000):
                c.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 8000


class TestPublishBridges:
    def test_cost_meter_publishes_counters(self):
        meter = CostMeter()
        meter.count("entries_scanned", 12)
        reg = MetricsRegistry()
        for _ in range(2):  # idempotent re-publish
            reg.publish("meter", {**meter.snapshot(), "live_sets": 1},
                        gauges=("live_sets",), shard="0")
            assert reg.find("meter.entries_scanned", shard="0").value == 12
            assert reg.find("meter.live_sets", shard="0").value == 1
        assert isinstance(reg.find("meter.live_sets", shard="0"), Gauge)

    def test_phase_profile_publishes(self):
        profile = PhaseProfile()
        profile.add_time("analyze", 1.5, calls=2)
        profile.add_bytes("ship", 2048)
        reg = MetricsRegistry()
        for phase, stat in profile.snapshot().items():
            reg.publish("profile", vars(stat), gauges=("seconds",),
                        phase=phase)
        assert reg.find("profile.calls", phase="analyze").value == 2
        assert reg.find("profile.seconds", phase="analyze").value == 1.5
        assert reg.find("profile.bytes", phase="ship").value == 2048
        # nothing was counted on these: no series
        assert reg.find("profile.bytes", phase="analyze") is None
        assert reg.find("profile.calls", phase="ship") is None

    def test_recovery_report_publishes(self):
        report = RecoveryReport()
        report.record_fault("crash")
        report.recoveries = 1
        report.respawns = 2
        report.recovery_seconds = 0.25
        reg = MetricsRegistry()
        reg.publish("recovery", report.counters(), gauges=("seconds",))
        assert reg.find("recovery.recoveries").value == 1
        assert reg.find("recovery.fault.crash").value == 1
        assert reg.find("recovery.respawns").value == 2
        assert reg.find("recovery.seconds").value == 0.25


    def test_a_lower_total_is_a_restarted_source(self):
        """The bridge owns the restart rule: the series never falls, and
        what a restarted source counts is all new."""
        reg = MetricsRegistry()
        for total, series in ((3, 3), (3, 3), (1, 4), (5, 8), (0, 8), (2, 10)):
            reg.publish("profile", {"calls": total}, tenant="t")
            assert reg.find("profile.calls", tenant="t").value == series


class TestExemplars:
    def test_reservoir_collects_values_with_context(self):
        h = Histogram("lat", {}, buckets=(0.1, 1.0), exemplars=2,
                      exemplar_seed=7)
        h.observe(0.05, {"trace": 1, "tenant": "a"})
        h.observe(0.5, {"trace": 2, "tenant": "b"})
        h.observe(5.0)  # no exemplar offered: counted, not sampled
        rows = h.exemplars()
        assert [r["trace"] for r in rows] == [1, 2]
        assert rows[0]["bucket"] == 0.1 and rows[1]["bucket"] == 1.0
        assert rows[0]["value"] == 0.05
        assert [r["seq"] for r in rows] == [1, 2]
        assert h.digest().count == 3

    def test_reservoir_is_bounded_and_seed_deterministic(self):
        def fill(seed):
            h = Histogram("lat", {}, buckets=(1.0,), exemplars=4,
                          exemplar_seed=seed)
            for n in range(200):
                h.observe(0.5, {"trace": n})
            return h.exemplars()

        a, b = fill(3), fill(3)
        assert len(a) == 4
        assert a == b  # same seed + same stream -> identical reservoirs
        assert fill(4) != a  # a different seed samples differently

    def test_seed_derivation_ignores_pythonhashseed(self):
        # the RNG is seeded from crc32(full_name), not builtin hash():
        # two instruments with the same name and seed must make the
        # same replacement decisions in any interpreter
        import zlib
        h = Histogram("lat", {"t": "x"}, buckets=(1.0,), exemplars=1,
                      exemplar_seed=9)
        assert h._rng.getstate() == __import__("random").Random(
            9 ^ zlib.crc32(b'lat{t="x"}')).getstate()

    def test_zero_capacity_histogram_has_no_reservoirs(self):
        h = Histogram("lat", {})
        h.observe(0.5, {"trace": 1})
        assert h.exemplars() == []

    def test_registry_exemplars_add_the_metric_name(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,), exemplars=2,
                          exemplar_seed=1, tenant="t0")
        h.observe(0.5, {"trace": 9})
        assert reg.exemplars() == [
            {"trace": 9, "value": 0.5, "seq": 1, "bucket": 1.0,
             "metric": 'lat{tenant="t0"}'}]

    def test_exemplar_histogram_pickles(self):
        h = Histogram("lat", {}, buckets=(1.0,), exemplars=2)
        h.observe(0.5, {"trace": 1})
        clone = pickle.loads(pickle.dumps(h))
        assert clone.exemplars() == h.exemplars()
        clone.observe(0.6, {"trace": 2})  # still usable after transit
        assert len(clone.exemplars()) == 2
