"""Span tracer unit tests — all on a FakeClock, so times are exact."""

import threading

import pytest

from repro.distributed.faults import FakeClock
from repro.obs.tracer import (DRIVER_PID, Span, TraceBuffer, Tracer,
                              active_tracer, call_traced, set_tracer,
                              span)


def make_tracer(start=100.0):
    return Tracer(clock=FakeClock(start))


class TestSpans:
    def test_span_times_and_names(self):
        t = make_tracer()
        with t.span("analyze", "distributed", shard=3):
            t.clock.advance(2.5)
        (s,) = t.snapshot().spans
        assert s.name == "analyze"
        assert s.category == "distributed"
        assert (s.start, s.end) == (100.0, 102.5)
        assert s.duration == 2.5
        assert s.args == {"shard": 3}
        assert s.pid == DRIVER_PID

    def test_nesting_links_parents(self):
        t = make_tracer()
        with t.span("outer") as outer:
            with t.span("inner"):
                t.clock.advance(1.0)
        inner_span, outer_span = t.snapshot().spans
        assert inner_span.name == "inner"
        assert inner_span.parent_id == outer.span_id
        assert outer_span.parent_id is None

    def test_set_updates_args_mid_span(self):
        t = make_tracer()
        with t.span("task", "task", task_id=7) as sp:
            sp.set(deps=[1, 2])
        (s,) = t.snapshot().spans
        assert s.args == {"task_id": 7, "deps": [1, 2]}

    def test_exception_recorded_and_propagated(self):
        t = make_tracer()
        with pytest.raises(ValueError):
            with t.span("bad"):
                raise ValueError("boom")
        (s,) = t.snapshot().spans
        assert s.args["error"] == "ValueError"

    def test_current_returns_innermost(self):
        t = make_tracer()
        assert t.current() is None
        with t.span("outer"):
            with t.span("inner") as inner:
                assert t.current() is inner
        assert t.current() is None


class TestDisabled:
    def test_disabled_records_nothing(self):
        t = Tracer(clock=FakeClock(0.0), enabled=False)
        with t.span("a") as sp:
            sp.set(x=1)  # no-op handle accepts set()
        t.instant("i")
        t.counter("c", 1.0)
        assert len(t.snapshot()) == 0

    def test_disabled_span_is_shared_noop(self):
        t = Tracer(enabled=False)
        assert t.span("a") is t.span("b")


class TestAttribution:
    def test_scope_overrides_pid_tid(self):
        t = make_tracer()
        with t.scope(pid=4, tid=3):
            with t.span("shard-work"):
                pass
            t.instant("crash")
        (s,) = t.snapshot().spans
        (i,) = t.snapshot().instants
        assert (s.pid, s.tid) == (4, 3)
        assert (i.pid, i.tid) == (4, 3)

    def test_scope_restores_previous(self):
        t = make_tracer()
        with t.scope(pid=9, tid=9):
            pass
        with t.span("after"):
            pass
        (s,) = t.snapshot().spans
        assert s.pid == DRIVER_PID

    def test_threads_get_distinct_tids(self):
        t = make_tracer()
        # All threads must be alive at once: Python reuses thread idents
        # once a thread exits, which would legitimately share a tid.
        barrier = threading.Barrier(3)

        def work():
            barrier.wait()
            with t.span("w"):
                pass
            barrier.wait()

        threads = [threading.Thread(target=work) for _ in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        tids = {s.tid for s in t.snapshot().spans}
        assert len(tids) == 3


class TestBuffers:
    def test_absorb_shifts_by_offset(self):
        t = make_tracer(start=50.0)
        foreign = [Span("remote", "cat", start=1.0, end=2.0, pid=3, tid=2)]
        # the fragment was drained when its recorder's clock read 1.0
        t.absorb(TraceBuffer(spans=foreign, clock=1.0))
        (s,) = t.snapshot().spans
        assert (s.start, s.end) == (50.0, 51.0)
        assert (s.pid, s.tid) == (3, 2)

    def test_absorb_renumbers_and_reparents(self):
        """Span ids are per-process counters: a fragment's ids may collide
        with the absorber's, so they are re-issued, parent links follow,
        and the fragment's roots hang under the absorbing span."""
        t = make_tracer()
        worker = make_tracer()
        with worker.scope(pid=2, tid=1):
            with worker.span("analyze.shard1") as outer:
                with worker.span("task"):
                    pass
        fragment = worker.drain()
        assert fragment.spans[1].span_id == outer.span_id
        with t.span("analyze") as driver:
            t.absorb(fragment)
        by_name = {s.name: s for s in t.snapshot().spans}
        assert len({s.span_id for s in by_name.values()}) == 3
        assert by_name["analyze.shard1"].span_id != outer.span_id
        assert by_name["task"].parent_id == by_name["analyze.shard1"].span_id
        assert by_name["analyze.shard1"].parent_id == driver.span_id

    def test_drain_empties_buffer(self):
        t = make_tracer()
        with t.span("a"):
            pass
        buf = t.drain()
        assert len(buf.spans) == 1
        assert len(t.snapshot()) == 0

    def test_counter_samples(self):
        t = make_tracer()
        t.counter("tasks", 28)
        (c,) = t.snapshot().counters
        assert (c.name, c.value, c.ts) == ("tasks", 28.0, 100.0)


class TestRing:
    """``capacity`` makes the store a ring of the recent past."""

    @staticmethod
    def record(t):
        for n in range(10):
            with t.scope(tid=n % 2):
                with t.span(f"s{n}"):
                    t.clock.advance(1.0)
                t.instant(f"i{n}")
                t.counter("c", n)

    def test_never_more_than_capacity_per_track_oldest_evicted(self):
        t = Tracer(clock=FakeClock(0.0), capacity=3)
        self.record(t)
        buf = t.snapshot()
        by_track = {}
        for s in buf.spans:
            by_track.setdefault(s.tid, []).append(s.name)
        assert by_track == {0: ["s4", "s6", "s8"], 1: ["s5", "s7", "s9"]}
        assert [i.name for i in buf.instants] == ["i7", "i8", "i9"]
        assert [c.value for c in buf.counters] == [7.0, 8.0, 9.0]

    @pytest.mark.parametrize("take", ["snapshot", "drain"])
    def test_agrees_with_unbounded_on_the_retained_suffix(self, take):
        ring = Tracer(clock=FakeClock(0.0), capacity=3)
        full = Tracer(clock=FakeClock(0.0))
        self.record(ring)
        self.record(full)
        kept, everything = getattr(ring, take)(), getattr(full, take)()

        def rows(spans, tid):
            return [(s.name, s.start, s.end, s.pid, s.args) for s in spans
                    if s.tid == tid]

        for tid in (0, 1):
            assert rows(kept.spans, tid) == rows(everything.spans, tid)[-3:]
        assert kept.instants == everything.instants[-3:]
        assert kept.counters == everything.counters[-3:]


class TestGlobalTracer:
    def test_default_active_tracer_is_disabled(self):
        assert not active_tracer().enabled

    def test_set_tracer_swaps_and_restores(self):
        mine = make_tracer()
        previous = set_tracer(mine)
        try:
            assert active_tracer() is mine
            with span("global", "cat"):
                mine.clock.advance(1.0)
            (s,) = mine.snapshot().spans
            assert s.name == "global"
        finally:
            set_tracer(previous)

    @pytest.mark.parametrize("witnesses", [False, True])
    def test_call_traced_names_span_after_method(self, witnesses):
        class Algo:
            _obs_cat = "visibility.test"

            def materialize(self, x, led=None):
                return x, led

        mine = Tracer(clock=FakeClock(100.0), witnesses=witnesses)
        value, led = call_traced(mine, Algo().materialize, 42)
        (s,) = mine.snapshot().spans
        assert (s.name, s.category, value) == ("materialize",
                                               "visibility.test", 42)
        assert (led is not None) == witnesses
