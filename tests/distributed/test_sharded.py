"""Tests for the executable control-replication model."""

import numpy as np
import pytest

from repro import ALGORITHMS, MachineError, TaskStream
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
        backend._others[0].graph._deps[3] = frozenset()
        reports = [
            ShardReport(s, analysis_fingerprint(backend._runtime_of(s), 0, 6),
                        0.0)
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

    def test_weak_scaling_communication_constant_per_piece(self):
        """Circuit's cross-piece wires are a fixed fraction, so bytes per
        piece per iteration stay roughly flat as the machine grows."""
        from repro.apps import CircuitApp
        per_piece = {}
        for pieces in (4, 8):
            app = CircuitApp(pieces=pieces, nodes_per_piece=16,
                             wires_per_piece=24, pct_external=0.25, seed=3)
            srt = ShardedRuntime(app.tree, app.initial, shards=pieces,
                                 verify_replicas=False)
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
