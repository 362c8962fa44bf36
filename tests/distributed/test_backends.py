"""Tests for the pluggable shard-analysis execution backends.

Each backend must (a) reproduce the sequential reference's execution
results through :class:`ShardedRuntime`, (b) reach the exact same
analysis fingerprints as the in-process serial backend, and (c) surface
the per-phase perf counters.  The process backend additionally ships
pickled task streams and structural deltas — those paths get targeted
coverage here.
"""

import multiprocessing as mp

import numpy as np
import pytest

from repro import (READ, READ_WRITE, IndexSpace, MachineError,
                   RegionRequirement, TaskStream, reduce)
from repro.distributed import BACKENDS, ShardedRuntime, make_backend
from repro.distributed.backends import (ProcessBackend, ThreadBackend,
                                        decode_privilege, encode_privilege,
                                        encode_tasks)
from repro.distributed.verify import (DeterminismError, ShardReport,
                                      check_reports, diff_dependences,
                                      fingerprint_tokens)
from repro.runtime.executor import SequentialExecutor
from repro.runtime.tracing import signature_digest

from tests.conftest import (bump_pieces, fig1_initial, fig1_stream,
                            make_fig1_tree)


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_matches_reference_and_serial_fingerprints(self, backend):
        """All three backends execute fig1 to the same values and produce
        bit-identical per-shard analysis fingerprints."""
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, 2)
        reference = SequentialExecutor(tree, fig1_initial(tree))
        reference.run_stream(stream)
        with ShardedRuntime(tree, fig1_initial(tree), shards=3,
                            backend=backend) as srt:
            reports = srt.execute(stream)
            assert [r.shard for r in reports] == [0, 1, 2]
            assert len({r.fingerprint for r in reports}) == 1
            assert srt.state_fingerprint() == reference.fingerprint()
            for field in ("up", "down"):
                assert np.array_equal(srt.gather_field(field),
                                      reference.field(field))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_incremental_streams_verify(self, backend):
        """Repeated execute() calls verify each stream's window
        separately (task-id bases advance in lockstep on every shard)."""
        tree, P, G = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                            backend=backend) as srt:
            first = srt.execute(fig1_stream(tree, P, G, 1))
            second = srt.execute(fig1_stream(tree, P, G, 1))
        # steady state differs from cold start — different fingerprints
        assert first[0].fingerprint != second[0].fingerprint
        assert len({r.fingerprint for r in second}) == 1

    def test_profile_phases_recorded(self):
        tree, P, G = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=3,
                            backend="process") as srt:
            srt.execute(fig1_stream(tree, P, G, 1))
            profile = srt.profile
        for phase in ("analyze", "verify", "execute",
                      "analyze.shard0", "analyze.shard1", "analyze.shard2"):
            assert phase in profile, phase
            assert profile.stat(phase).seconds >= 0
        assert profile.stat("analyze").calls == 1
        assert profile.stat("ship").bytes > 0
        assert "analyze" in profile.render()

    def test_in_process_backends_ship_nothing(self):
        tree, P, G = make_fig1_tree()
        for backend in ("serial", "thread"):
            with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                                backend=backend) as srt:
                srt.execute(fig1_stream(tree, P, G, 1))
                assert srt.profile.stat("ship").bytes == 0


class TestProcessBackend:
    def test_structure_delta_shipped(self):
        """Partitions created *after* the workers spawn are replayed on
        the worker-side tree replicas (uids align by creation order)."""
        tree, _, stream = bump_pieces()
        bump = stream[0].body
        with ShardedRuntime(tree, {"x": np.zeros(12)}, shards=3,
                            backend="process") as srt:
            srt.execute(stream)
            # now grow the tree mid-life: workers must learn Q
            Q = tree.root.create_partition(
                "Q", [IndexSpace.from_range(0, 6),
                      IndexSpace.from_range(6, 12)],
                disjoint=True, complete=True)
            stream2 = TaskStream()
            for i in range(2):
                stream2.append(f"q[{i}]",
                               [RegionRequirement(Q[i], "x", READ_WRITE)],
                               bump, point=i)
            reports = srt.execute(stream2)
            assert len({r.fingerprint for r in reports}) == 1
            assert np.array_equal(srt.gather_field("x"), np.full(12, 2.0))

    def test_max_workers_hosts_multiple_replicas(self):
        """Fewer workers than remote replicas: each worker hosts several
        shards and the merged reports still cover every shard."""
        tree, P, G = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=5,
                            backend="process", max_workers=2) as srt:
            assert len(srt.backend.handles) == 2
            hosted = sorted(s for handle in srt.backend.handles
                            for s in handle.shards)
            assert hosted == [1, 2, 3, 4]
            reports = srt.execute(fig1_stream(tree, P, G, 1))
        assert [r.shard for r in reports] == [0, 1, 2, 3, 4]
        assert len({r.fingerprint for r in reports}) == 1

    def test_remote_dump_matches_reference(self):
        tree, P, G = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                            backend="process") as srt:
            srt.execute(fig1_stream(tree, P, G, 1))
            backend = srt.backend
            assert backend.dump_dependences(1, 0, 6) == \
                backend.dump_dependences(0, 0, 6)

    def test_replication_disabled_spawns_no_workers(self):
        tree, P, G = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=3,
                            backend="process",
                            replicate_analysis=False) as srt:
            srt.execute(fig1_stream(tree, P, G, 1))
            assert srt.backend.handles == ()
            assert srt.profile.stat("ship").bytes == 0


class TestEncoding:
    def test_privilege_roundtrip(self):
        for privilege in (READ, READ_WRITE, reduce("sum"), reduce("max")):
            desc = encode_privilege(privilege)
            back = decode_privilege(desc)
            assert back.kind == privilege.kind
            if privilege.is_reduce:
                assert back.redop.name == privilege.redop.name

    def test_tasks_encode_without_bodies(self):
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, 1)
        records = encode_tasks(stream)
        assert len(records) == len(stream)
        for (name, reqs, point), task in zip(records, stream):
            assert name == task.name and point == task.point
            assert all(isinstance(uid, int) for uid, _, _ in reqs)

    def test_signature_digest_process_stable(self):
        """Two identical streams share a digest; a privilege change does
        not (the digest is the cross-process stream identity)."""
        tree, P, G = make_fig1_tree()
        a = fig1_stream(tree, P, G, 1)
        b = fig1_stream(tree, P, G, 1)
        assert signature_digest(a) == signature_digest(b)
        c = TaskStream()
        for task in a:
            c.append(task.name,
                     [RegionRequirement(r.region, r.field, READ)
                      for r in task.requirements], task.body, task.point)
        assert signature_digest(a) != signature_digest(c)


class TestVerifyPrimitives:
    def test_fingerprint_tokens_type_tagged(self):
        assert fingerprint_tokens(1) != fingerprint_tokens("1")
        assert fingerprint_tokens(True) != fingerprint_tokens(1)
        assert fingerprint_tokens(None) != fingerprint_tokens(0)
        assert fingerprint_tokens((1, 2)) != fingerprint_tokens((12,))
        assert fingerprint_tokens(b"ab") == fingerprint_tokens(b"ab")

    def test_check_reports_builds_structured_diff(self):
        dumps = {0: [(0,), (0, 1)], 2: [(0,), (1,)]}
        reports = [ShardReport(0, "aaaa", 0.0),
                   ShardReport(1, "aaaa", 0.0),
                   ShardReport(2, "bbbb", 0.0)]
        with pytest.raises(DeterminismError) as info:
            check_reports(reports, lambda s: dumps[s], base=10)
        exc = info.value
        assert exc.mismatched_shards == (2,)
        assert len(exc.divergences) == 1
        d = exc.divergences[0]
        assert (d.task_id, d.shard) == (11, 2)
        assert "shard 0 -> [0, 1]" in str(d)

    def test_check_reports_happy_path_never_dumps(self):
        reports = [ShardReport(s, "same", 0.0) for s in range(4)]

        def explode(shard):
            raise AssertionError("dump called on the happy path")
        check_reports(reports, explode, base=0)

    def test_diff_dependences(self):
        diffs = diff_dependences([(1,), (2,), (3,)], 5,
                                 [(1,), (9,), (3,)], base=100)
        assert len(diffs) == 1
        assert diffs[0].task_id == 101 and diffs[0].shard == 5


class TestFactory:
    def test_unknown_backend_rejected(self):
        tree, _, _ = make_fig1_tree()
        with pytest.raises(MachineError, match="unknown analysis backend"):
            ShardedRuntime(tree, fig1_initial(tree), shards=2,
                           backend="quantum")

    def test_instance_passthrough(self):
        tree, _, _ = make_fig1_tree()
        backend = make_backend("serial", tree, "raycast", 2)
        assert make_backend(backend, tree, "raycast", 2) is backend

    def test_zero_replicas_rejected(self):
        tree, _, _ = make_fig1_tree()
        with pytest.raises(MachineError):
            make_backend("serial", tree, "raycast", 0)

    @pytest.mark.parametrize("build", [
        lambda tree: ThreadBackend(tree, "raycast", 2, max_workers=0),
        lambda tree: ProcessBackend(tree, "raycast", 3, max_workers=-5),
        lambda tree: ProcessBackend(tree, "raycast", 2, recv_timeout=0),
        lambda tree: ProcessBackend(tree, "raycast", 2, recv_timeout=-1),
        lambda tree: ProcessBackend(tree, "raycast", 2,
                                    checkpoint_interval=-3),
        lambda tree: make_backend("serial", tree, "raycast", 2,
                                  max_workers=-5),
        lambda tree: make_backend("process", tree, "raycast", 2,
                                  recv_timeout=0.0)],
        ids=["thread-workers-0", "process-workers-neg", "timeout-0",
             "timeout-neg", "interval-neg", "factory-workers-neg",
             "factory-timeout-0"])
    def test_meaningless_knob_refused_before_spawning(self, build):
        """A worker cap or checkpoint interval below 1, or a receive
        timeout not above 0, means nothing: it is refused before any
        worker spawns."""
        tree, _, _ = make_fig1_tree()
        before = mp.active_children()
        with pytest.raises(MachineError, match="need max_workers >= 1"):
            build(tree)
        assert mp.active_children() == before

    def test_process_backend_repr_name(self):
        tree, _, _ = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                            backend="process") as srt:
            assert isinstance(srt.backend, ProcessBackend)
            assert "process" in repr(srt)
