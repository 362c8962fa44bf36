"""Supervision and recovery tests for the process backend.

The determinism contract makes recovery checkable end-to-end: whatever
faults are injected, the recovered run must reproduce the exact
fingerprints of a fault-free run.  Every test here asserts that, plus
the specific recovery machinery it exercises (timeout detection,
checkpoint restore, journal replay, in-process fallback).

Timeout-sensitive tests use a short real receive timeout (injected hangs
park the worker for an hour — only the supervisor's deadline gets us
out); backoff tests use crash faults with a fake clock so CI never
sleeps.
"""

import pickle

import pytest

from repro.apps import make_app, session_stream
from repro.distributed import ShardedRuntime, make_backend
from repro.distributed.backends import (ProcessBackend, _dispatch,
                                       _open_hosting, dependence_rows,
                                       encode_tasks)
from repro.distributed.faults import (FakeClock, FaultEvent, FaultPlan,
                                      RetryPolicy, WorkerLost)
from repro.distributed.verify import analysis_fingerprint
from repro.errors import MachineError
from repro.privileges import READ, READ_WRITE
from repro.runtime import RegionRequirement, Runtime, TaskStream
from repro.runtime.dependence import DependenceGraph

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

#: Retry policy with tiny real delays (tests that use the real clock).
FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.01, multiplier=2.0,
                         max_delay=0.05)

#: A plan that crashes worker 0 on every request of every incarnation:
#: recovery can never succeed and the worker is declared lost.
ALWAYS_CRASH_W0 = FaultPlan(events=tuple(
    FaultEvent("crash", worker=0, op=op, incarnation=inc)
    for inc in range(12) for op in range(60)))


def run_windows(windows=4, iterations=1, **kwargs):
    """Analyze ``windows`` fig1 streams through one ShardedRuntime;
    returns (per-window fingerprints, recovery report)."""
    tree, P, G = make_fig1_tree()
    srt = ShardedRuntime(tree, fig1_initial(tree), shards=4,
                         checkpoint_interval=2, **kwargs)
    with srt:
        fingerprints = []
        for _ in range(windows):
            reports = srt.analyze(fig1_stream(tree, P, G, iterations))
            assert len({r.fingerprint for r in reports}) == 1
            fingerprints.append(reports[0].fingerprint)
    return fingerprints, srt.recovery


def launch_all(runtime, stream):
    """Analyze a stream on a runtime (bodies are not run)."""
    for task in stream:
        runtime.launch(task.name, task.requirements, None, task.point)


@pytest.fixture(scope="module")
def baseline():
    fingerprints, _ = run_windows(backend="serial")
    return fingerprints


class TestFaultRecovery:
    def test_fault_free_run_has_no_recovery_activity(self, baseline):
        fingerprints, recovery = run_windows(backend="process",
                                                recv_timeout=10.0)
        assert fingerprints == baseline
        assert not recovery.has_activity
        assert recovery.checkpoints > 0  # routine checkpointing ran

    def test_crash_recovered_by_replay(self, baseline):
        plan = FaultPlan(events=(FaultEvent("crash", worker=0, op=1),))
        fingerprints, recovery = run_windows(
            backend="process", faults=plan, recv_timeout=10.0,
            retry=FAST_RETRY)
        assert fingerprints == baseline
        assert recovery.faults == {"crash": 1}
        assert recovery.respawns == 1
        assert recovery.replayed_tasks > 0
        assert recovery.workers_lost == 0
        # the report is the record: one episode, timed, under its names
        assert recovery.recoveries == 1
        assert recovery.recovery_seconds > 0
        assert recovery.counters()["fault.crash"] == 1
        assert recovery.counters()["respawns"] == 1

    def test_corrupt_reply_recovered(self, baseline):
        plan = FaultPlan(events=(FaultEvent("corrupt", worker=1, op=0),))
        fingerprints, recovery = run_windows(
            backend="process", faults=plan, recv_timeout=10.0,
            retry=FAST_RETRY)
        assert fingerprints == baseline
        assert recovery.faults == {"corrupt": 1}
        assert recovery.respawns == 1

    def test_hang_detected_by_receive_timeout(self, baseline):
        """An injected hang parks the worker for an hour; only the
        supervised receive deadline can detect it."""
        plan = FaultPlan(events=(FaultEvent("hang", worker=0, op=2),))
        fingerprints, recovery = run_windows(
            backend="process", faults=plan, recv_timeout=0.3,
            retry=FAST_RETRY)
        assert fingerprints == baseline
        assert recovery.faults == {"hang": 1}
        assert recovery.respawns == 1

    def test_dropped_reply_recovered_as_hang(self, baseline):
        plan = FaultPlan(events=(FaultEvent("drop", worker=0, op=1),))
        fingerprints, recovery = run_windows(
            backend="process", faults=plan, recv_timeout=0.3,
            retry=FAST_RETRY)
        assert fingerprints == baseline
        assert recovery.faults == {"hang": 1}  # parent can't tell apart

    def test_delay_within_timeout_needs_no_recovery(self, baseline):
        plan = FaultPlan(events=(
            FaultEvent("delay", worker=0, op=1, seconds=0.05),))
        fingerprints, recovery = run_windows(
            backend="process", faults=plan, recv_timeout=10.0)
        assert fingerprints == baseline
        assert not recovery.has_activity

    def test_checkpoint_bounds_replay(self, baseline):
        """A late crash replays from the last verified checkpoint, not
        from task 0: with 6 windows, checkpoints every 2 and a crash in
        the last window, the journal suffix is at most 2 windows deep."""
        serial, _ = run_windows(windows=6, backend="serial")
        plan = FaultPlan(events=(FaultEvent("crash", worker=0, op=5),))
        fingerprints, recovery = run_windows(
            windows=6, backend="process", faults=plan,
            recv_timeout=10.0, retry=FAST_RETRY)
        assert fingerprints == serial
        assert recovery.restores == 1  # respawned from a checkpoint
        total = 6 * 12  # windows x tasks per fig1 window
        assert 0 < recovery.replayed_tasks < total
        assert recovery.checkpoints > 0

    def test_multi_shard_hosting_restores_from_checkpoint(self):
        """One worker hosting three replicas crashes late: it is restored
        from a checkpoint of all three, and only the journal since that
        checkpoint replays."""
        serial, _ = run_windows(windows=6, backend="serial")
        plan = FaultPlan(events=(FaultEvent("crash", worker=0, op=5),))
        fingerprints, recovery = run_windows(
            windows=6, backend="process", max_workers=1, faults=plan,
            recv_timeout=10.0, retry=FAST_RETRY)
        assert fingerprints == serial
        assert recovery.restores == 1
        # two 6-task windows since the checkpoint, on each of 3 replicas
        assert recovery.replayed_tasks == 2 * 6 * 3
        # kept on the replies after windows 2 and 4; the crashed reply
        # after window 6 would have carried the third
        assert recovery.checkpoints == 2

    def test_chaos_rate_plan_matches_baseline(self, baseline):
        fingerprints, recovery = run_windows(
            backend="process", faults=FaultPlan(seed=13, rate=0.2),
            recv_timeout=0.5, retry=FAST_RETRY)
        assert fingerprints == baseline


class TestPermanentLoss:
    def test_lost_worker_falls_back_in_process(self, baseline):
        """Retries exhausted with no surviving worker: replicas move to
        an in-process host and the run completes, degraded."""
        fingerprints, recovery = run_windows(
            backend="process", max_workers=1, faults=ALWAYS_CRASH_W0,
            recv_timeout=10.0, retry=FAST_RETRY)
        assert fingerprints == baseline
        assert recovery.workers_lost == 1
        assert recovery.local_fallbacks == 1
        assert recovery.retries == FAST_RETRY.max_retries + 1

    def test_lost_worker_restores_in_process_from_checkpoint(self):
        """Lost after two checkpoints (every respawn dies on its restore
        check): the three replicas are rebuilt in-process from the last
        checkpoint, and only the journal since (two windows) replays."""
        serial, _ = run_windows(windows=6, backend="serial")
        plan = FaultPlan(events=(
            FaultEvent("crash", worker=0, op=5, incarnation=0),
            *(FaultEvent("crash", worker=0, op=0, incarnation=inc)
              for inc in range(1, 4))))
        fingerprints, recovery = run_windows(
            windows=6, backend="process", max_workers=1, faults=plan,
            recv_timeout=10.0, retry=FAST_RETRY, clock=FakeClock())
        assert fingerprints == serial
        assert (recovery.checkpoints, recovery.local_fallbacks,
                recovery.restores, recovery.replayed_tasks) == (2, 1, 1, 36)

    def test_unrestorable_checkpoint_is_worker_lost(self):
        """A checkpoint blob that does not unpickle: every respawn dies on
        it and the in-process fallback cannot open it either, so the
        worker is lost (WorkerLost), not an unpickling error."""
        tree, P, G = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                            backend="process", checkpoint_interval=1,
                            recv_timeout=10.0, retry=FAST_RETRY,
                            clock=FakeClock()) as srt:
            srt.analyze(fig1_stream(tree, P, G, 1))
            handle = srt.backend.handles[0]
            handle.checkpoint = handle.checkpoint._replace(
                live=b"\x80\x04garbage")
            srt.backend._kill(handle)
            with pytest.raises(WorkerLost, match="cannot be restored"):
                srt.analyze(fig1_stream(tree, P, G, 1))

    def test_lost_worker_moves_in_process_beside_survivor(self, baseline):
        """A surviving worker keeps its own shards; the lost worker's
        replicas still move in-process — there is one re-host path."""
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=4,
                             backend="process", max_workers=2,
                             faults=ALWAYS_CRASH_W0, recv_timeout=10.0,
                             retry=FAST_RETRY, checkpoint_interval=2)
        with srt:
            fingerprints = [
                srt.analyze(fig1_stream(tree, P, G, 1))[0].fingerprint
                for _ in range(4)]
            recovery = srt.recovery
            backend = srt.backend
            hosts = {h.remote: sorted(h.shards) for h in backend.handles}
            assert hosts == {True: [2], False: [1, 3]}
        assert fingerprints == baseline
        assert recovery.workers_lost == 1
        assert recovery.local_fallbacks == 1

    def test_degraded_backend_keeps_verifying(self, baseline):
        """After the fallback, later streams still analyze on every
        replica and verify (the local host serves dumps too)."""
        tree, P, G = make_fig1_tree()
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=4,
                             backend="process", max_workers=1,
                             faults=ALWAYS_CRASH_W0, recv_timeout=10.0,
                             retry=FAST_RETRY, checkpoint_interval=2)
        with srt:
            first = srt.analyze(fig1_stream(tree, P, G, 1))
            assert srt.recovery.local_fallbacks == 1
            second = srt.analyze(fig1_stream(tree, P, G, 1))
            assert len({r.fingerprint for r in second}) == 1
            assert srt.backend.dump_dependences(1, 0, 6) == \
                srt.backend.dump_dependences(0, 0, 6)
        assert [first[0].fingerprint, second[0].fingerprint] == baseline[:2]


class TestBackoff:
    def test_backoff_delays_follow_policy_without_sleeping(self):
        """Two consecutive crashes (incarnations 0 and 1) force recovery
        attempts 0 and 1; the fake clock records exactly the policy's
        attempt-1 delay and the test never really sleeps."""
        clock = FakeClock()
        retry = RetryPolicy(max_retries=3, base_delay=7.0, multiplier=3.0,
                            max_delay=100.0)
        plan = FaultPlan(events=(
            FaultEvent("crash", worker=0, op=1, incarnation=0),
            FaultEvent("crash", worker=0, op=0, incarnation=1),
        ))
        fingerprints, recovery = run_windows(
            windows=2, backend="process", faults=plan, recv_timeout=10.0,
            retry=retry, clock=clock)
        serial, _ = run_windows(windows=2, backend="serial")
        assert fingerprints == serial
        assert recovery.retries == 2
        assert clock.sleeps == [retry.delay(1)]
        assert clock.sleeps == [7.0]

    def test_exhaustion_sleeps_every_backoff_step(self):
        clock = FakeClock()
        retry = RetryPolicy(max_retries=2, base_delay=1.0, multiplier=2.0,
                            max_delay=10.0)
        fingerprints, recovery = run_windows(
            windows=2, backend="process", max_workers=1,
            faults=ALWAYS_CRASH_W0, recv_timeout=10.0, retry=retry,
            clock=clock)
        serial, _ = run_windows(windows=2, backend="serial")
        assert fingerprints == serial
        assert recovery.workers_lost == 1
        assert clock.sleeps == [retry.delay(1), retry.delay(2)]


def read_after_read_windows(P) -> list[TaskStream]:
    """A window writing each piece of ``P``, then three reading them."""
    windows = []
    for privilege in (READ_WRITE, READ, READ, READ):
        stream = TaskStream()
        for i in range(3):
            stream.append(f"{privilege!r}[{i}]",
                          [RegionRequirement(P[i], "up", privilege)],
                          point=i)
        windows.append(stream)
    return windows


class TestRestoredPrivileges:
    def test_restored_reads_commute_with_fresh_reads(self):
        """A checkpoint pickles the replicas' histories, read entries and
        all.  A worker restored from one (crashed after the first
        checkpoint) must find each fresh read commuting with a restored
        one — the privilege's ``commutes`` marker unpickles as itself —
        or it adds read-after-read edges the serial replicas lack, and
        the window fails verification."""
        def run(backend, **kwargs):
            tree, P, _ = make_fig1_tree()
            srt = ShardedRuntime(tree, fig1_initial(tree), shards=2,
                                 backend=backend, checkpoint_interval=2,
                                 **kwargs)
            with srt:
                for stream in read_after_read_windows(P):
                    srt.analyze(stream)  # verifies the replicas agree
                return dependence_rows(srt.graph, 0, 12), srt.recovery

        serial, _ = run("serial")
        plan = FaultPlan(events=(FaultEvent("crash", worker=0, op=3),))
        graph, recovery = run("process", faults=plan, recv_timeout=10.0,
                              retry=FAST_RETRY)
        assert recovery.restores == 1
        assert graph == serial
        # the last window's reads depend on the write alone
        assert serial[9:] == [(i,) for i in range(3)]


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("algo", ["painter", "tree_painter", "warnock",
                                      "raycast", "zbuffer"])
    def test_pickled_runtime_analyzes_identically(self, algo):
        """The checkpoint contract, per algorithm: pickling a half-way
        analysis state and continuing on the clone must reach the same
        fingerprint as never pausing.  (Catches id()-keyed or otherwise
        pickle-unstable algorithm state before the chaos matrix does.)"""
        import pickle

        from repro.distributed.verify import analysis_fingerprint
        from repro.runtime.context import Runtime

        tree, P, G = make_fig1_tree()
        first = fig1_stream(tree, P, G, 1)
        second = fig1_stream(tree, P, G, 1)
        rt = Runtime(tree, fig1_initial(tree), algorithm=algo)
        for task in first:
            rt.launch(task.name, task.requirements, None, task.point)
        tree2, rt2 = pickle.loads(pickle.dumps((tree, rt)))
        regions2 = {r.uid: r for r in tree2.regions}
        for task in second:
            rt.launch(task.name, task.requirements, None, task.point)
            reqs2 = [type(req)(regions2[req.region.uid], req.field,
                               req.privilege) for req in task.requirements]
            rt2.launch(task.name, reqs2, None, task.point)
        total = len(first) + len(second)
        assert analysis_fingerprint(rt2, 0, total) == \
            analysis_fingerprint(rt, 0, total)

    @pytest.mark.parametrize("algo", ["warnock", "raycast"])
    def test_restored_uids_are_never_handed_out_again(self, algo,
                                                      monkeypatch):
        """A checkpoint is restored by a process whose uid source has not
        reached the restored uids (a fresh interpreter starts at 0), and
        ``BucketStore`` keys its sets, buckets and spans by uid: a new set
        must not land on a live one's key."""
        import pickle

        from repro.apps import APPS
        from repro.runtime.context import Runtime
        from repro.visibility import eqset

        def fresh_process():
            monkeypatch.setattr(eqset, "_eqset_uid",
                                type(eqset._eqset_uid)())

        fresh_process()  # whatever ran before: the checkpoint's uids are low
        app = APPS["circuit"](pieces=8)
        rt = Runtime(app.tree, app.initial, algorithm=algo)
        for stream in (app.init_stream(), app.iteration_stream()):
            for task in stream:  # bodies are closures: analysis only
                rt.launch(task.name, task.requirements, None, task.point)
        blob = pickle.dumps((app.tree, rt))
        fresh_process()
        tree2, rt2 = pickle.loads(blob)
        regions2 = {r.uid: r for r in tree2.regions}
        for _ in range(8):  # ray casting takes ~24 uids an iteration
            for task in app.iteration_stream():
                reqs2 = [type(req)(regions2[req.region.uid], req.field,
                                   req.privilege)
                         for req in task.requirements]
                rt2.launch(task.name, reqs2, None, task.point)
        for field in tree2.field_space.names:
            rt2.algorithm_for(field).check_invariants()


class TestLiveCheckpoint:
    """A checkpoint is the hosting's live state alone: its runtimes drop
    the verified tasks and dependence rows, and a restore unpickles it."""

    @pytest.mark.parametrize("algo", ["painter", "tree_painter", "warnock",
                                      "raycast", "zbuffer"])
    def test_restore_continues(self, algo):
        """Two replicas checkpointed three times and restored from the last
        blob alone hold no history, and analyze one more stream to the
        window fingerprints of the original and of an untrimmed runtime."""
        tree, P, G = make_fig1_tree()
        genesis = pickle.dumps((tree, algo))
        hosting = _open_hosting({"mode": "fresh", "genesis": genesis,
                                 "shards": [1, 2]})
        untrimmed = Runtime(tree, fig1_initial(tree), algorithm=algo)
        for iterations in (1, 2, 1):
            stream = fig1_stream(tree, P, G, iterations)
            launch_all(untrimmed, stream)
            assert _dispatch(("analyze", [], encode_tasks(stream), 0, False),
                             hosting)[0] == "ok"
            base, digests, live = hosting.checkpoint()
        restored = _open_hosting({"mode": "restore", "live": live})
        assert base == restored.base == 24
        assert restored.digests() == digests
        for runtime in restored.runtimes.values():
            assert (runtime.tasks, len(runtime.graph)) == ((), 0)
        stream = fig1_stream(tree, P, G, 1)
        launch_all(untrimmed, stream)
        expected = analysis_fingerprint(untrimmed, 24, len(stream))
        message = ("analyze", [], encode_tasks(stream), 0, False)
        for host in (restored, hosting):
            assert [row[:2] for row in _dispatch(message, host)[1][0]] \
                == [(1, expected), (2, expected)]

    def test_trim_keeps_ids(self):
        """After a trim, ids continue and a dependence on a trimmed task is
        accepted; one on an unknown id at or above the first kept still
        raises."""
        tree, P, G = make_fig1_tree()
        trimmed, whole = (Runtime(tree, fig1_initial(tree)) for _ in range(2))
        for runtime in (trimmed, whole):
            launch_all(runtime, fig1_stream(tree, P, G, 1))
        trimmed.trim(6)
        for runtime in (trimmed, whole):
            launch_all(runtime, fig1_stream(tree, P, G, 1))
        assert (trimmed.first_task_id, trimmed.next_task_id) == (6, 12)
        assert [task.task_id for task in trimmed.tasks] == list(range(6, 12))
        assert trimmed.graph.task_ids == list(range(6, 12))
        assert dependence_rows(trimmed.graph, 6, 6) \
            == dependence_rows(whole.graph, 6, 6)
        assert any(d < 6 for t in range(6, 12)
                   for d in trimmed.graph.dependences_of(t))
        graph = DependenceGraph()
        for task_id in range(4):
            graph.add_task(task_id, ())
        graph.trim(2)
        graph.add_task(5, {0, 3})
        with pytest.raises(ValueError, match="unknown task 4"):
            graph.add_task(6, {4})

    def test_respawn_payload_stays_flat(self):
        """An 8-piece stencil slot under ray casting, checkpointed every 2
        of 29 streams: what a respawn is sent stays within 1 KiB (with
        every delta kept it grew 34 657 -> 75 374 B).  It is read once a
        checkpoint is kept: on the reply after each marked stream."""
        app = make_app("stencil", 8)
        with ShardedRuntime(app.tree, app.initial, shards=2,
                            backend="process", checkpoint_interval=2,
                            recv_timeout=30.0) as srt:
            handle = srt.backend.handles[0]
            sizes = []
            for session in range(29):
                srt.analyze(session_stream(app, 2, session == 0))
                if session and session % 2 == 0:
                    sizes.append(len(pickle.dumps(
                        srt.backend._host_spec(handle))))
        assert len(sizes) == 14 and max(sizes) - min(sizes) <= 1024


class TestLifecycle:
    def test_close_idempotent_after_recovery(self):
        tree, P, G = make_fig1_tree()
        plan = FaultPlan(events=(FaultEvent("crash", worker=0, op=1),))
        srt = ShardedRuntime(tree, fig1_initial(tree), shards=3,
                             backend="process", faults=plan,
                             recv_timeout=10.0, retry=FAST_RETRY)
        srt.analyze(fig1_stream(tree, P, G, 1))
        srt.close()
        srt.close()
        assert srt.backend.handles == ()

    def test_del_safe_before_and_after_close(self):
        tree, _, _ = make_fig1_tree()
        backend = ProcessBackend(tree, "raycast", 3)
        backend.close()
        backend.__del__()  # double close through the finalizer: no raise
        backend2 = ProcessBackend(tree, "raycast", 3)
        backend2.__del__()  # finalizer without explicit close: no raise
        assert backend2._closed

    def test_serial_backend_has_no_recovery_report(self):
        tree, P, G = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                            backend="serial") as srt:
            srt.analyze(fig1_stream(tree, P, G, 1))
            assert srt.recovery is None

    def test_active_faults_rejected_on_in_process_backends(self):
        tree, _, _ = make_fig1_tree()
        plan = FaultPlan(seed=1, rate=0.5)
        for backend in ("serial", "thread"):
            with pytest.raises(MachineError, match="process backend"):
                make_backend(backend, tree, "raycast", 2, faults=plan)
        # an inactive plan is fine anywhere
        backend = make_backend("serial", tree, "raycast", 2,
                               faults=FaultPlan())
        assert backend.recovery is None
