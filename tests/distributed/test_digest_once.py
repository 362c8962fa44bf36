"""Each verified state is hashed once: a replica's structure digest is
computed by its analysis of the window, and the checkpoint that follows
reuses it on both sides: the worker's snapshot, and the coordinating
process's verification of that snapshot when it rides the next analyze
reply.  A restore check still hashes
the restored state afresh, so a tampered checkpoint is still refused."""

import pickle

import pytest

from repro.distributed import ShardedRuntime, backends, verify
from repro.distributed.backends import _LocalHandle, _open_hosting
from repro.distributed.faults import CorruptReply

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree


@pytest.fixture
def counted(monkeypatch):
    """``(runtime, window, hashed)``: a 2-shard process-backend run
    checkpointed every window, its remote replica hosted in this process
    (where its hashing can be counted) by a local handle that still gets
    marked windows and snapshots them; ``window()`` analyzes one more
    window; ``hashed`` lists the runtime of every
    ``structure_fingerprint`` call."""
    hashed = []
    real = backends.structure_fingerprint

    def counting(runtime):
        hashed.append(runtime)
        return real(runtime)

    for module in (backends, verify):
        monkeypatch.setattr(module, "structure_fingerprint", counting)
    tree, P, G = make_fig1_tree()
    with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                        backend="process", checkpoint_interval=1,
                        recv_timeout=30.0) as srt:
        backend = srt.backend
        worker = backend.handles[0]
        local = _LocalHandle(_open_hosting(backend._host_spec(worker)),
                             worker.worker_id, worker.checkpoint)
        local.remote = True
        backend._kill(worker)
        backend._handles[:] = [local]
        yield srt, lambda: srt.analyze(fig1_stream(tree, P, G, 1)), hashed


def test_one_digest_per_replica_per_window(counted):
    srt, window, hashed = counted
    backend = srt.backend
    hosted = backend.handles[0].hosting.runtimes[1]
    kept = None
    for k in range(3):
        hashed.clear()
        window()
        # the checkpoint of window k rides window k + 1's reply
        assert backend.recovery.checkpoints == k
        assert sorted(map(id, hashed)) \
            == sorted(map(id, (backend.reference, hosted)))
        assert backend.handles[0].checkpoint.digest == (kept or "")
        kept = backend._local[0].hosting.kept[0]


def test_restore_check_hashes_afresh(counted):
    srt, window, hashed = counted
    backend = srt.backend
    window()
    window()
    local = backend.handles[0]
    # the live hosting's kept digest is not what a digest request answers
    local.hosting.runtimes[1].meter.count("eqsets_split")
    with pytest.raises(CorruptReply):
        backends.AnalysisBackend._ask(backend, local, ("digest",))
    # nor is a kept digest carried into a restore: the blob's meter is
    # tampered with, and the restored state is refused
    tree, runtimes, base = pickle.loads(local.checkpoint.live)
    runtimes[1].meter.count("eqsets_split")
    local.checkpoint = local.checkpoint._replace(
        live=pickle.dumps((tree, runtimes, base)))
    hashed.clear()
    restored = _LocalHandle(_open_hosting(backend._host_spec(local)),
                            local.worker_id, local.checkpoint)
    with pytest.raises(CorruptReply):
        backends.AnalysisBackend._ask(backend, restored, ("digest",))
    assert len(hashed) == 1
