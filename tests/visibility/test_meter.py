"""Tests for the cost meter."""

import pytest

from repro import ALGORITHMS, CostMeter


class TestCostMeter:
    def test_count_accumulates(self):
        m = CostMeter()
        m.count("e")
        m.count("e", 4)
        assert m.counters["e"] == 5
        assert m.snapshot() == {"e": 5}

    def test_task_brackets(self):
        m = CostMeter()
        m.count("warmup", 10)
        m.touch(("obj", 1))
        m.begin_task()
        m.count("e", 3)
        m.touch(("obj", 2))
        cost = m.end_task()
        assert cost.counters == {"e": 3}
        assert cost.touches == (("obj", 2),)
        assert cost.total_ops == 3
        # lifetime counters keep everything
        assert m.counters["warmup"] == 10

    def test_empty_task(self):
        m = CostMeter()
        m.begin_task()
        cost = m.end_task()
        assert cost.counters == {} and cost.touches == ()
        assert cost.total_ops == 0

    def test_repeated_touch_dedup(self):
        m = CostMeter()
        m.begin_task()
        m.touch("x")
        m.touch("y")
        m.touch("x")
        # each key once, in first-touch order (the simulator charges
        # messages in this order)
        assert m.end_task().touches == ("x", "y")

    def test_charge_is_counts_plus_touches(self):
        """One call, same effect as the count()/touch() calls it stands
        for — and a zero count leaves no key in the hashed snapshot."""
        a, b = CostMeter(), CostMeter()
        for m in (a, b):
            m.begin_task()
        a.charge({"e": 3, "f": 1, "never": 0}, ["x", "y", "x"])
        b.count("e", 3)
        b.count("f")
        for key in ("x", "y", "x"):
            b.touch(key)
        assert a.snapshot() == b.snapshot() == {"e": 3, "f": 1}
        assert a.end_task() == b.end_task()

    def test_reset(self):
        m = CostMeter()
        m.count("e")
        m.touch("x")
        m.reset()
        assert not m.counters and m.end_task().touches == ()

    def test_repr(self):
        m = CostMeter()
        m.count("entries_scanned", 7)
        assert "entries_scanned=7" in repr(m)

    def test_runtime_meter_sharing(self):
        """All per-field algorithm instances share the runtime's meter."""
        import numpy as np
        from repro import Runtime
        from tests.conftest import fig1_initial, make_fig1_tree
        tree, _, _ = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree))
        assert rt.algorithm_for("up").meter is rt.meter
        assert rt.algorithm_for("down").meter is rt.meter

    def test_steady_state_meter_does_not_grow(self):
        """A checkpoint pickles the meter: in steady state it must hold
        what one task needs, not a key per equivalence set ever renewed
        (ray casting takes a fresh set uid per dominating write: ~300
        bytes of touch keys an iteration here).  Only the widths of
        growing ints may differ, a few bytes each."""
        import pickle
        from repro import Runtime
        from repro.apps import APPS
        app = APPS["stencil"](pieces=16)
        rt = Runtime(app.tree, app.initial, algorithm="raycast")
        rt.replay(app.init_stream())
        sizes = []
        for _ in range(25):
            rt.replay(app.iteration_stream())
            sizes.append(len(pickle.dumps(rt.meter)))
        assert abs(sizes[24] - sizes[4]) <= 64, sizes


class TestOneOwner:
    """A meter takes no lock: it belongs to one runtime, and a runtime is
    driven by one thread at a time.  Four thread-backend replicas,
    switching every 10 µs, each charge their own meter, and every one of
    them must land the serial replica's totals and per-task cost log
    (set and view uids masked: they are process-global)."""

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_thread_replicas_meter_like_serial(self, algorithm):
        import sys

        from repro.apps import APPS
        from repro.distributed import ShardedRuntime
        from tests.distributed.test_cost_log_table import masked

        def replicas(backend):
            app = APPS["stencil"](pieces=4)
            with ShardedRuntime(app.tree, app.initial, shards=4,
                                backend=backend,
                                algorithm=algorithm) as srt:
                runtimes = [handle.hosting.runtimes[shard]
                            for handle in srt.backend._local
                            for shard in handle.shards]
                for runtime in runtimes:
                    runtime._record_costs = True
                srt.execute(app.init_stream())
                for _ in range(3):
                    srt.execute(app.iteration_stream())
            return [(rt.meter.snapshot(),
                     [(cost.counters, [masked(k) for k in cost.touches])
                      for cost in rt.cost_log]) for rt in runtimes]

        serial = replicas("serial")[0]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = replicas("thread")
        finally:
            sys.setswitchinterval(interval)
        assert len(threaded) == 4 and serial[1]
        assert all(replica == serial for replica in threaded)


class TestThreadSafety:
    """Regression tests for the locks of UidSource/PhaseProfile, which
    replicas and threads share: without them concurrent mutation lost
    updates (dict read-modify-write races) — 8 hammering threads must
    land exact totals.  (A CostMeter has one owner and no lock.)"""

    THREADS = 8
    ROUNDS = 2000

    def _hammer(self, work):
        import threading
        barrier = threading.Barrier(self.THREADS)

        def run():
            barrier.wait()
            for _ in range(self.ROUNDS):
                work()

        threads = [threading.Thread(target=run)
                   for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_uid_source_never_repeats(self):
        from repro.visibility.meter import UidSource
        source, taken = UidSource(), []
        self._hammer(lambda: taken.append(source.take()))
        assert sorted(taken) == list(range(self.THREADS * self.ROUNDS))

    def test_phase_profile_stat_and_add_time(self):
        from repro.visibility.meter import PhaseProfile
        p = PhaseProfile()

        def work():
            p.add_time("analyze", 0.001)
            p.stat("analyze").bytes += 0  # stat() must not duplicate
            p.add_time("retries", 0.0)

        self._hammer(work)
        stat = p.stat("analyze")
        total = self.THREADS * self.ROUNDS
        assert stat.calls == total
        assert stat.seconds == __import__("pytest").approx(0.001 * total)
        assert p.stat("retries").calls == total

    def test_phase_profile_concurrent_merge(self):
        from repro.visibility.meter import PhaseProfile
        donor = PhaseProfile()
        donor.add_time("ship", 1.0)
        donor.add_bytes("ship", 10)
        target = PhaseProfile()
        self._hammer(lambda: target.merge(donor))
        total = self.THREADS * self.ROUNDS
        assert target.stat("ship").calls == total
        assert target.stat("ship").bytes == 10 * total


class TestInjectableClock:
    def test_phase_times_with_fake_clock(self):
        from repro.distributed.faults import FakeClock
        from repro.visibility.meter import PhaseProfile
        clock = FakeClock(100.0)
        p = PhaseProfile(clock=clock)
        with p.phase("analyze"):
            clock.advance(2.5)
        with p.phase("analyze"):
            clock.advance(0.5)
        stat = p.stat("analyze")
        assert stat.calls == 2
        assert stat.seconds == 3.0

    def test_default_clock_is_monotonic(self):
        from repro.visibility.meter import PhaseProfile
        p = PhaseProfile()
        with p.phase("x"):
            pass
        assert p.stat("x").seconds >= 0.0

    def test_phase_emits_obs_span(self):
        from repro.distributed.faults import FakeClock
        from repro.obs import tracer as obs
        from repro.visibility.meter import PhaseProfile
        tracer = obs.Tracer(clock=FakeClock(0.0))
        previous = obs.set_tracer(tracer)
        try:
            with PhaseProfile(clock=FakeClock(0.0)).phase("verify"):
                pass
        finally:
            obs.set_tracer(previous)
        (span,) = tracer.snapshot().spans
        assert (span.name, span.category) == ("verify", "phase")


class TestRenderAndPickle:
    def test_render_human_bytes_and_total_footer(self):
        from repro.visibility.meter import PhaseProfile
        p = PhaseProfile()
        p.add_time("analyze", 1.25, calls=3)
        p.add_bytes("ship", 4096)
        p.add_time("ship", 0.75)
        lines = p.render().splitlines()
        assert lines[0].split() == ["phase", "calls", "seconds", "bytes"]
        ship = next(l for l in lines if l.startswith("ship"))
        assert "4.0KiB" in ship
        total = lines[-1]
        assert total.startswith("total")
        assert "4" in total and "2.000000" in total and "4.0KiB" in total

    def test_human_bytes_units(self):
        from repro.visibility.meter import _human_bytes
        assert _human_bytes(0) == "0B"
        assert _human_bytes(1023) == "1023B"
        assert _human_bytes(1536) == "1.5KiB"
        assert _human_bytes(5 * 1024 * 1024) == "5.0MiB"
        assert _human_bytes(3 * 1024 ** 3) == "3.0GiB"

    def test_cost_meter_pickle_round_trip(self):
        import pickle
        m = CostMeter()
        m.count("e", 5)
        m.touch("x")
        clone = pickle.loads(pickle.dumps(m))
        assert clone.counters == {"e": 5}
        assert clone.end_task().touches == ("x",)
        clone.count("e")  # lock was rebuilt
        assert clone.counters["e"] == 6

    def test_restored_view_reserves_its_uid(self, monkeypatch):
        """A restored composite view and a new one must not share a
        ``("view", uid)`` touch key (a fresh process's source is at 0)."""
        import pickle
        from repro import IndexSpace
        from repro.visibility import painter_tree
        space = IndexSpace.from_range(0, 4)
        view = painter_tree.CompositeView([], space, space, set())
        blob = pickle.dumps(view)
        monkeypatch.setattr(painter_tree, "_view_uid",
                            type(painter_tree._view_uid)())
        restored = pickle.loads(blob)
        assert restored.uid == view.uid
        fresh = painter_tree.CompositeView([], space, space, set())
        assert fresh.uid > restored.uid

    def test_phase_profile_pickle_round_trip(self):
        import pickle
        from repro.visibility.meter import PhaseProfile
        p = PhaseProfile()
        p.add_time("analyze", 1.0)
        p.add_bytes("ship", 2048)
        clone = pickle.loads(pickle.dumps(p))
        assert clone.stat("analyze").seconds == 1.0
        assert clone.stat("ship").bytes == 2048
        clone.add_time("analyze", 1.0)  # lock and clock were rebuilt
        assert clone.stat("analyze").calls == 2
