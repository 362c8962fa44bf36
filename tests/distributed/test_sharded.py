"""Tests for the executable control-replication model."""

from dataclasses import replace

import numpy as np
import pytest

from repro import (ALGORITHMS, READ_WRITE, IndexSpace, MachineError,
                   RegionRequirement, RegionTree, TaskStream, reduce)
from repro.distributed import ShardedRuntime
from repro.runtime.executor import SequentialExecutor

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import (bump_pieces, fig1_initial, fig1_stream,
                            make_fig1_tree, random_programs)


class TestReplicaDeterminism:
    @pytest.mark.parametrize("algo", list(ALGORITHMS))
    def test_all_algorithms_are_replica_deterministic(self, algo):
        """DCR's contract: every shard's analysis reaches identical
        conclusions.  This is a strong nondeterminism detector for the
        algorithms themselves (set/dict iteration order, uid leakage...)."""
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=3,
                             algorithm=algo)
        for _ in range(3):
            srt.execute(fig1_stream(tree, P, G, 1))  # raises on divergence

    def test_divergence_detected(self):
        """A deliberately shard-dependent sharding of the *analysis* is
        impossible through the public API, so fake a divergence by
        mutating one replica's graph record and re-running the merge."""
        from repro.distributed.verify import (DeterminismError, ShardReport,
                                              analysis_fingerprint,
                                              check_reports)
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=2)
        srt.execute(fig1_stream(tree, P, G, 1))
        # tamper with replica 1's recorded dependences
        backend = srt.backend
        runtimes = [handle.hosting.runtimes[s]
                    for s, handle in enumerate(backend._local)]
        runtimes[1].graph._deps[3] = frozenset()
        reports = [
            ShardReport(s, analysis_fingerprint(runtimes[s], 0, 6), 0.0)
            for s in range(2)]
        with pytest.raises(MachineError, match="not deterministic") as info:
            check_reports(
                reports,
                lambda shard: backend.dump_dependences(shard, 0, 6), 0)
        exc = info.value
        assert isinstance(exc, DeterminismError)
        assert exc.mismatched_shards == (1,)
        assert any(d.task_id == 3 and d.shard_deps == ()
                   for d in exc.divergences)


class TestShardedExecution:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_matches_reference(self, shards):
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, 2)
        reference = SequentialExecutor(tree, fig1_initial(tree))
        reference.run_stream(stream)
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=shards)
        srt.execute(stream)
        for field in ("up", "down"):
            assert np.array_equal(srt.gather_field(field),
                                  reference.field(field)), (shards, field)

    def test_apps_match_reference(self):
        from repro.apps import CircuitApp, session_stream
        app = CircuitApp(pieces=4, nodes_per_piece=8, wires_per_piece=12)
        stream = session_stream(app, 2)
        reference = SequentialExecutor(app.tree, app.initial)
        reference.run_stream(stream)
        srt = ShardedRuntime(app.tree, app.initial, shards=4)
        srt.execute(stream)
        for field in app.tree.field_space.names:
            np.testing.assert_allclose(srt.gather_field(field),
                                       reference.field(field))

    def test_single_shard_never_communicates(self):
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=1)
        srt.execute(fig1_stream(tree, P, G, 3))
        assert srt.log.messages == 0 and srt.log.bytes == 0

    def test_bad_sharding_functor_detected(self):
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=2,
                             sharding=lambda task: 7)
        with pytest.raises(MachineError):
            srt.execute(fig1_stream(tree, P, G, 1))

    @pytest.mark.parametrize("shard", [-1, 2.5, True, False])
    def test_out_of_range_shard_rejected(self, shard):
        """A negative id would alias another shard's memory through numpy
        indexing; a float or a bool is no shard at all.  The raise comes
        once the window's analysis is recorded, with the window rolled
        back."""
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=2,
                             sharding=lambda task: shard)
        with pytest.raises(MachineError, match="sharding functor"):
            srt.execute(fig1_stream(tree, P, G, 1))
        assert srt.backend.tasks_analyzed == 6
        assert srt.log.messages == 0 and not srt.log.by_pair
        for name, values in fig1_initial(tree).items():
            assert np.array_equal(srt.gather_field(name), values)

    def test_shard_count_validated(self):
        tree, _, _ = make_fig1_tree()
        with pytest.raises(MachineError):
            ShardedRuntime(tree, fig1_initial(tree), shards=0)


class TestCommunication:
    def test_ghost_exchange_messages(self):
        """Figure 1's loop moves exactly the ghost data between shards:
        piece i's t1 reduces into neighbours' down fields, so piece
        owners exchange the shared nodes every iteration."""
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=3)
        srt.execute(fig1_stream(tree, P, G, 1))
        srt.log.reset()
        srt.execute(fig1_stream(tree, P, G, 1))
        assert srt.log.messages > 0
        # every pair entry moves whole float64 elements
        assert srt.log.bytes % 8 == 0
        # communication is between distinct shards only
        assert all(src != dst for src, dst in srt.log.by_pair)

    def test_disjoint_work_is_message_free(self):
        """Tasks that each touch only their own shard's piece never
        communicate after the initial writes."""
        tree, _, stream = bump_pieces()
        srt = ShardedRuntime(tree, {"x": np.zeros(12)}, shards=3)
        srt.execute(stream)
        srt.log.reset()
        for _ in range(3):
            srt.execute(stream)
        assert srt.log.messages == 0

    def test_overlapping_reductions_pull_before_their_own_scatter(self):
        """A task holding ``reduce(sum)`` on two overlapping regions pulls
        each one's stale inputs just before that reduction's scatter, so
        the second pulls nothing the first already folded on this shard.
        A copy that pulled every reduction's inputs before the first
        scatter would move [2,4) from shard 0 and [4,6) from shard 1
        twice: 5 messages and 128 B."""
        tree = RegionTree(8, {"x": np.float64})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_range(0, 4), IndexSpace.from_range(4, 8)],
            disjoint=True, complete=True)
        A = tree.root.create_partition(
            "A", [IndexSpace.from_range(0, 6), IndexSpace.from_range(2, 8)])

        def write(values):
            values[:] = values * 2 + 1

        def fold(a, b):
            a += 10
            b += 100

        stream = TaskStream()
        stream.append("w0", [RegionRequirement(P[0], "x", READ_WRITE)],
                      write, point=0)
        stream.append("w1", [RegionRequirement(P[1], "x", READ_WRITE)],
                      write, point=1)
        stream.append("r", [RegionRequirement(A[0], "x", reduce("sum")),
                            RegionRequirement(A[1], "x", reduce("sum"))],
                      fold, point=2)
        initial = {"x": np.arange(8, dtype=np.float64)}
        reference = SequentialExecutor(tree, initial)
        reference.run_stream(stream)
        srt = ShardedRuntime(tree, initial, shards=3)
        srt.execute(stream)
        assert srt.log.messages == 4 and srt.log.bytes == 96
        assert srt.log.by_pair == {(0, 1): 32, (0, 2): 32, (1, 2): 32}
        assert srt.state_fingerprint() == reference.fingerprint()
        assert np.array_equal(srt.gather_field("x"), reference.field("x"))

    def test_weak_scaling_communication_constant_per_piece(self):
        """Circuit's cross-piece wires are a fixed fraction, so bytes per
        piece per iteration stay roughly flat as the machine grows."""
        from repro.apps import CircuitApp
        per_piece = {}
        for pieces in (4, 8):
            app = CircuitApp(pieces=pieces, nodes_per_piece=16,
                             wires_per_piece=24, pct_external=0.25, seed=3)
            srt = ShardedRuntime(app.tree, app.initial, shards=pieces)
            srt.execute(app.init_stream())
            srt.execute(app.iteration_stream())
            srt.log.reset()
            srt.execute(app.iteration_stream())
            per_piece[pieces] = srt.log.bytes / pieces
        ratio = per_piece[8] / per_piece[4]
        assert 0.4 < ratio < 2.5


class TestShardedProperty:
    """Random programs through the executable DCR model: replicated
    analyses must agree and the gathered distributed state must equal
    sequential execution, for every shard count."""

    @settings(max_examples=25,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(random_programs(), st.integers(1, 4))
    def test_random_programs_sharded(self, program, shards):
        tree, initial, stream = program
        # give tasks points so the sharding functor spreads them
        pointed = TaskStream()
        for k, task in enumerate(stream):
            pointed.append(task.name, task.requirements, task.body,
                           point=k)
        reference = SequentialExecutor(tree, initial)
        reference.run_stream(pointed)
        srt = ShardedRuntime(tree, initial, shards=shards)
        srt.execute(pointed)
        assert np.array_equal(srt.gather_field("x"),
                              reference.field("x"))


def _raising_at(stream: TaskStream, index: int) -> TaskStream:
    """``stream`` with the body of task ``index`` replaced by one that
    raises, so the tasks before it have already executed."""
    def boom(*buffers):
        raise RuntimeError("body failed")

    out = TaskStream()
    for k, task in enumerate(stream):
        out.append(task.name, task.requirements,
                   boom if k == index else task.body, point=task.point)
    return out


def _lie_once(backend) -> None:
    """Make shard 1 report a wrong fingerprint for the next window only,
    so ``check_reports`` raises after every replica has replied."""
    real = backend._analyze_replicas

    def lying(*args):
        del backend._analyze_replicas
        return [replace(r, fingerprint="0" * 64) if r.shard == 1 else r
                for r in real(*args)]

    backend._analyze_replicas = lying


def _state(srt):
    return (srt.gather_fields(),
            {name: o.copy() for name, o in srt._owners.items()},
            srt.log.messages, srt.log.bytes, dict(srt.log.by_pair))


def _assert_same_state(a, b):
    for x, y in zip(a[:2], b[:2]):
        assert x.keys() == y.keys()
        assert all(np.array_equal(x[k], y[k]) for k in x)
    assert a[2:] == b[2:]


class TestWindowAllOrNothing:
    """A window whose verification or execution fails leaves field values,
    owners and the message log as they were before it, and the runtime
    goes on: pipes in step, the window's analysis counted, the state that
    of the windows that completed."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("failure", ["diverge", "body"])
    def test_failed_window_rolls_back(self, backend, failure):
        from repro.distributed.verify import DeterminismError
        tree, P, G = make_fig1_tree()
        reference = SequentialExecutor(tree, fig1_initial(tree))
        with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                            backend=backend, recv_timeout=10.0) as srt:
            first = fig1_stream(tree, P, G, 1)
            srt.execute(first)
            reference.run_stream(first)
            before = _state(srt)
            assert before[2] > 0  # the failed window starts mid-exchange
            if failure == "diverge":
                _lie_once(srt.backend)
                failing, error = fig1_stream(tree, P, G, 1), DeterminismError
            else:
                failing = _raising_at(fig1_stream(tree, P, G, 1), 4)
                error = RuntimeError
            with pytest.raises(error):
                srt.execute(failing)
            _assert_same_state(_state(srt), before)
            assert srt.backend.tasks_analyzed == 12
            last = fig1_stream(tree, P, G, 1)
            reports = srt.execute(last)
            reference.run_stream(last)
            assert len({r.fingerprint for r in reports}) == 1
            assert srt.backend.tasks_analyzed == 18
            assert srt.state_fingerprint() == reference.fingerprint()

    def test_crashed_worker_mid_window_recovers(self):
        from repro.distributed.faults import FaultEvent, FaultPlan
        tree, P, G = make_fig1_tree()
        reference = SequentialExecutor(tree, fig1_initial(tree))
        plan = FaultPlan(events=(FaultEvent("crash", worker=0, op=1),))
        with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                            backend="process", faults=plan,
                            recv_timeout=10.0) as srt:
            for _ in range(3):
                stream = fig1_stream(tree, P, G, 1)
                reports = srt.execute(stream)
                reference.run_stream(stream)
                assert len({r.fingerprint for r in reports}) == 1
            assert srt.recovery.recoveries == 1
            assert srt.state_fingerprint() == reference.fingerprint()

    def test_thread_backend_overlap_under_switching(self):
        """The thread backend runs the execution beside four replica
        threads on fewer cores, sharing the task stream and the geometry
        cache; with a tiny switch interval the state still equals the
        sequential executor's and every replica agrees."""
        import sys

        from repro.apps import make_app, session_stream
        app = make_app("stencil", 4)
        reference = SequentialExecutor(app.tree, app.initial)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ShardedRuntime(app.tree, app.initial, shards=4,
                                backend="thread") as srt:
                for _ in range(3):
                    stream = session_stream(app, 1)
                    reports = srt.execute(stream)
                    reference.run_stream(stream)
                    assert len({r.fingerprint for r in reports}) == 1
        finally:
            sys.setswitchinterval(interval)
        assert srt.state_fingerprint() == reference.fingerprint()


class TestForeignRegion:
    """A window naming a region of another tree is refused before any
    replica sees it: nothing is encoded, shipped, journaled or launched,
    so the next window verifies on every backend."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_foreign_window_leaves_every_replica_untouched(self, backend):
        from repro import READ_WRITE, RegionRequirement, TaskError
        tree, P, G = make_fig1_tree()
        _, foreign, _ = make_fig1_tree()
        reference = SequentialExecutor(tree, fig1_initial(tree))
        with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                            backend=backend, recv_timeout=10.0) as srt:
            first = fig1_stream(tree, P, G, 1)
            srt.execute(first)
            reference.run_stream(first)
            before = _state(srt)
            counts = (srt.backend.tasks_analyzed, srt.backend.shipped_bytes,
                      getattr(srt.backend, "_windows", 0))
            window = fig1_stream(tree, P, G, 1)
            window.append("stray", [RegionRequirement(foreign[0], "up",
                                                      READ_WRITE)])
            with pytest.raises(TaskError, match="different tree"):
                srt.execute(window)
            _assert_same_state(_state(srt), before)
            assert (srt.backend.tasks_analyzed, srt.backend.shipped_bytes,
                    getattr(srt.backend, "_windows", 0)) == counts
            for _ in range(2):
                good = fig1_stream(tree, P, G, 1)
                reports = srt.execute(good)
                reference.run_stream(good)
                assert len({r.fingerprint for r in reports}) == 1
            assert srt.backend.tasks_analyzed == counts[0] + 12
            assert srt.state_fingerprint() == reference.fingerprint()
