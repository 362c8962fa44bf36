"""Chaos matrix: real SIGKILLs against the differential-determinism suite.

Unlike the cooperative fault injection in test_recovery.py (where the
worker kills *itself* at a scheduled request), these tests deliver a real
``SIGKILL`` from outside, at seeded random points between and during
analysis windows — the worker gets no chance to flush, reply, or clean
up.  For every algorithm × shard-count cell, the recovered run must
reproduce the exact per-window fingerprints of a fault-free serial run,
and the supervisor must have actually seen and repaired the kills.

Marked ``chaos`` so the matrix can run as its own CI job
(``pytest -m chaos`` / ``make chaos``); the default suite still runs it
unless deselected with ``-m 'not chaos'``.
"""

import os
import random
import signal

import pytest

from repro.distributed import ShardedRuntime

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

pytestmark = pytest.mark.chaos

#: The paper's three headline algorithms (section 8's figures).
CHAOS_ALGORITHMS = ("raycast", "warnock", "tree_painter")
CHAOS_SHARDS = (2, 4, 8)
WINDOWS = 5


def _serial_fingerprints(algo: str) -> list[str]:
    tree, P, G = make_fig1_tree()
    with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                        algorithm=algo, backend="serial") as srt:
        return [srt.analyze(fig1_stream(tree, P, G, 1))[0].fingerprint
                for _ in range(WINDOWS)]


def _sigkill_run(algo: str, shards: int, seed: int) -> tuple:
    """Analyze WINDOWS fig1 streams, SIGKILLing one live worker at
    seeded random windows; returns (fingerprints, recovery copy)."""
    rng = random.Random(seed)
    kill_windows = sorted(rng.sample(range(WINDOWS), 2))
    tree, P, G = make_fig1_tree()
    kills = 0
    with ShardedRuntime(tree, fig1_initial(tree), shards=shards,
                        algorithm=algo, backend="process",
                        recv_timeout=10.0, checkpoint_interval=2) as srt:
        fingerprints = []
        for window in range(WINDOWS):
            if window in kill_windows:
                victims = [h for h in srt.backend.handles
                           if h.remote and h.proc is not None
                           and h.proc.is_alive()]
                if victims:
                    victim = rng.choice(victims)
                    os.kill(victim.proc.pid, signal.SIGKILL)
                    victim.proc.join(timeout=10)
                    kills += 1
            reports = srt.analyze(fig1_stream(tree, P, G, 1))
            assert len(reports) == shards
            assert len({r.fingerprint for r in reports}) == 1
            fingerprints.append(reports[0].fingerprint)
    return fingerprints, srt.recovery, kills


class TestSigkillMatrix:
    @pytest.mark.parametrize("algo", CHAOS_ALGORITHMS)
    @pytest.mark.parametrize("shards", CHAOS_SHARDS)
    def test_sigkilled_worker_recovers_to_baseline(self, algo, shards):
        baseline = _serial_fingerprints(algo)
        fingerprints, recovery, kills = _sigkill_run(
            algo, shards, seed=1000 * shards + len(algo))
        assert kills == 2
        assert fingerprints == baseline, (
            f"{algo} x {shards} shards diverged after SIGKILL recovery")
        # the supervisor really saw the kills and repaired them
        assert recovery.faults.get("crash", 0) >= kills
        assert recovery.respawns >= kills
        assert recovery.replayed_streams >= 1
        assert recovery.workers_lost == 0

    def test_sigkill_mid_receive_detected(self):
        """Kill the worker while the supervisor is blocked waiting for
        its reply (not between windows): the poll loop's liveness probe
        must notice the death without waiting for the full timeout.  A
        ``slow`` fault pins the worker in its second analyze (op 1) for
        5 s so the SIGKILL reliably lands mid-request."""
        import threading
        import time as time_mod

        from repro.distributed import FaultEvent, FaultPlan

        plan = FaultPlan(events=(
            FaultEvent("slow", worker=0, op=1, seconds=5.0),))
        tree, P, G = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                            backend="process", recv_timeout=30.0,
                            faults=plan, checkpoint_interval=3) as srt:
            srt.analyze(fig1_stream(tree, P, G, 1))
            handle = srt.backend.handles[0]
            pid = handle.proc.pid

            def assassinate():
                time_mod.sleep(0.3)
                os.kill(pid, signal.SIGKILL)

            killer = threading.Thread(target=assassinate)
            killer.start()
            start = time_mod.monotonic()
            reports = srt.analyze(fig1_stream(tree, P, G, 1))
            elapsed = time_mod.monotonic() - start
            killer.join()
            assert len({r.fingerprint for r in reports}) == 1
            assert srt.recovery.faults.get("crash", 0) >= 1
            # detection came from the liveness probe: well under both the
            # 5s injected slowness and the 30s receive deadline
            assert elapsed < 4.0
