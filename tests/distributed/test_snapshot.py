"""The checkpoint rides the analyze reply: a worker answers a marked
window first, snapshots its state while the driver executes, and the
snapshot comes home on its next analyze reply.  No request is spent on
it, so a fault on the request after a marked window must still recover
from the previous checkpoint, and a divergent marked window must still
answer its dependence dump (the live rows are dropped only when the next
analyze arrives).

Marked ``chaos``: ``make chaos`` runs them beside the SIGKILL matrix.
"""

from dataclasses import replace

import pytest

from repro.distributed import ShardedRuntime
from repro.distributed.backends import _dispatch, _open_hosting
from repro.distributed.faults import FaultEvent, FaultPlan, RetryPolicy
from repro.distributed.verify import DeterminismError
from repro.runtime.executor import SequentialExecutor

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

pytestmark = pytest.mark.chaos

FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.01, multiplier=2.0,
                         max_delay=0.05)

WINDOWS = 7


def _run(faults=None, recv_timeout=10.0):
    """Execute WINDOWS fig1 windows sharded over 2 shards (one worker),
    checkpointing every 2; returns (state fingerprint, sequential one,
    recovery report, the worker's handle)."""
    tree, P, G = make_fig1_tree()
    reference = SequentialExecutor(tree, fig1_initial(tree))
    with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                        backend="process", faults=faults,
                        recv_timeout=recv_timeout, retry=FAST_RETRY,
                        checkpoint_interval=2) as srt:
        for _ in range(WINDOWS):
            stream = fig1_stream(tree, P, G, 1)
            reports = srt.execute(stream)
            reference.run_stream(stream)
            assert len({r.fingerprint for r in reports}) == 1
        handle = srt.backend.handles[0]
        return (srt.state_fingerprint(), reference.fingerprint(),
                srt.recovery, handle)


def test_checkpoint_rides_the_next_reply():
    """Windows 2, 4 and 6 are marked; each one's checkpoint is kept on
    the reply to the window after it.  No checkpoint request exists."""
    state, serial, recovery, handle = _run()
    assert state == serial
    assert not recovery.has_activity
    assert recovery.checkpoints == 3
    assert len(handle.journal) == 1
    hosting = _open_hosting({"mode": "restore",
                             "live": handle.checkpoint.live})
    assert hosting.base == 36
    assert all(runtime.tasks == () for runtime in hosting.runtimes.values())
    assert _dispatch(("checkpoint",), hosting)[0] == "error"


@pytest.mark.parametrize("kind, timeout, seen", [
    ("crash", 10.0, "crash"),
    ("hang", 0.3, "hang"),
    ("corrupt", 10.0, "corrupt"),
    ("drop", 0.3, "hang"),
])
def test_fault_after_marked_window_recovers(kind, timeout, seen):
    """The request after marked window 4 (op 4) is the one its snapshot
    would ride: a fault there loses the snapshot, so the worker restores
    window 2's checkpoint and replays windows 3 and 4 and the faulted
    fifth; the replay takes no snapshot, the next marked window does."""
    plan = FaultPlan(events=(FaultEvent(kind, worker=0, op=4),))
    state, serial, recovery, handle = _run(plan, timeout)
    assert state == serial
    assert recovery.faults == {seen: 1}
    assert (recovery.restores, recovery.replayed_streams) == (1, 3)
    assert recovery.workers_lost == 0
    # window 2's kept before the fault, window 6's after it
    assert recovery.checkpoints == 2
    assert len(handle.journal) == 1


def test_divergent_marked_window_still_dumps():
    """Every window marked; window 2 diverges.  The worker has already
    snapshotted it, but its live rows stay until the next analyze, so
    the divergence diff reads both shards' rows of the window.  The
    unverified window's snapshot is dropped unread when it rides the
    next reply; the run goes on and matches the sequential state."""
    tree, P, G = make_fig1_tree()
    reference = SequentialExecutor(tree, fig1_initial(tree))
    with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                        backend="process", checkpoint_interval=1,
                        recv_timeout=10.0) as srt:
        backend = srt.backend
        first = fig1_stream(tree, P, G, 1)
        srt.execute(first)
        reference.run_stream(first)
        real, dumps = backend._analyze_replicas, []

        def lying(*args):
            del backend._analyze_replicas
            return [replace(r, fingerprint="0" * 64) if r.shard == 1 else r
                    for r in real(*args)]

        def dumping(shard, base, count):
            dumps.append(type(backend).dump_dependences(backend, shard,
                                                        base, count))
            return dumps[-1]

        backend._analyze_replicas = lying
        backend.dump_dependences = dumping
        with pytest.raises(DeterminismError):
            srt.execute(fig1_stream(tree, P, G, 1))
        assert len(dumps) == 2 and dumps[0] == dumps[1]
        assert len(dumps[1]) == 6 and any(dumps[1])
        for _ in range(2):
            last = fig1_stream(tree, P, G, 1)
            srt.execute(last)
            reference.run_stream(last)
        assert srt.state_fingerprint() == reference.fingerprint()
        assert not srt.recovery.has_activity
        # window 1's on window 2's reply, window 3's on window 4's; the
        # divergent window's was dropped
        assert srt.recovery.checkpoints == 2


#: Prints one line per cell: the sha256 of a hosting's checkpoint blob
#: after init + 4 iterations at 8 pieces, then of the blob a restore of it
#: snapshots again.
_BLOBS = """
import hashlib
from repro.apps import make_app, session_stream
from repro.distributed.backends import _Hosting, _open_hosting
from repro.runtime import Runtime
for name in ("stencil", "circuit", "pennant"):
    for alg in ("painter", "tree_painter", "warnock", "zbuffer", "raycast"):
        app = make_app(name, 8)
        hosting = _Hosting(app.tree, {1: Runtime(app.tree, None, alg)}, 0)
        for it in range(5):
            stream = session_stream(app, 1, it == 0)
            hosting.run([(t.name, t.requirements, t.point) for t in stream],
                        len(stream))
        blob = hosting.checkpoint()[2]
        again = _open_hosting({"mode": "restore", "live": blob}).checkpoint()
        print(name, alg, *(hashlib.sha256(b).hexdigest()
                           for b in (blob, again[2])))
"""


def test_checkpoint_bytes_are_a_function_of_the_state():
    """Every cell's blob is the same in two fresh interpreters, and a
    restored hosting snapshots it again byte for byte: summaries of
    identity-hashed privilege markers and interned access sets pickle
    sorted, and restored arrays share the int64 dtype as fresh ones do."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outputs.append(subprocess.run(
            [sys.executable, "-c", _BLOBS], env=env, check=True,
            capture_output=True, text=True).stdout.splitlines())
    assert len(outputs[0]) == 15 and outputs[0] == outputs[1]
    for line in outputs[0]:
        name, alg, blob, again = line.split()
        assert blob == again, (name, alg)
