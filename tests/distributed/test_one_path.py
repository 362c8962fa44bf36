"""Every replica is a hosting: shard 0, the serial and thread replicas
and the process backend's workers all analyze through one method,
``_Hosting.run``, once per shard per window, and are asked through one
request path, whose reply check they all meet."""

import multiprocessing as mp
import os

import pytest

from repro.distributed import ShardedRuntime, backends
from repro.distributed.faults import CorruptReply, FakeClock, RetryPolicy
from repro.errors import MachineError

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

FORK = "fork" in mp.get_all_start_methods()


@pytest.mark.parametrize("backend", [
    "serial", "thread",
    pytest.param("process", marks=pytest.mark.skipif(
        not FORK, reason="the count is patched into forked workers"))])
def test_one_run_per_shard_per_window(backend, tmp_path, monkeypatch):
    """Each window calls ``_Hosting.run`` once for every shard, shard 0
    included, wherever the hosting lives (a worker appends its call to
    the same file as the driver)."""
    calls = tmp_path / "calls"
    real = backends._Hosting.run

    def counting(hosting, launches, count):
        with open(calls, "a") as out:
            out.write(f"{sorted(hosting.runtimes)}\n")
        return real(hosting, launches, count)

    monkeypatch.setattr(backends._Hosting, "run", counting)
    tree, P, G = make_fig1_tree()
    with ShardedRuntime(tree, fig1_initial(tree), shards=3,
                        backend=backend, recv_timeout=30.0) as srt:
        for _ in range(3):
            calls.write_text("")
            srt.execute(fig1_stream(tree, P, G, 1))
            assert sorted(calls.read_text().splitlines()) \
                == ["[0]", "[1]", "[2]"]
        assert srt.backend.reference is srt.backend._local[0].hosting \
            .runtimes[0]


@pytest.mark.skipif(not FORK, reason="the lie is patched into forked workers")
def test_lying_dump_worker_is_recovered(monkeypatch):
    """A worker whose every dump reply is one row short (well typed, so
    only the asked count refuses it) is retried, then lost; its
    in-process fallback answers the dump that shard 0's hosting does."""
    parent, real = os.getpid(), backends._dispatch

    def lying(msg, hosting):
        status, result = real(msg, hosting)
        if msg[0] == "dump" and os.getpid() != parent:
            return status, result[:-1]
        return status, result

    monkeypatch.setattr(backends, "_dispatch", lying)
    tree, P, G = make_fig1_tree()
    with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                        backend="process", recv_timeout=10.0,
                        retry=RetryPolicy(max_retries=1),
                        clock=FakeClock()) as srt:
        srt.analyze(fig1_stream(tree, P, G, 1))
        dump = srt.backend.dump_dependences(1, 0, 6)
        assert dump == srt.backend.dump_dependences(0, 0, 6)
        assert len(dump) == 6
        assert srt.recovery.faults == {"corrupt": 3}
        assert srt.recovery.workers_lost == 1


@pytest.mark.parametrize("backend", ["serial", "thread"])
def test_lying_local_dump_is_refused(backend, monkeypatch):
    """The same lie from an in-process host (a dump one row short) meets
    the same check; with no worker to respawn it is raised."""
    real = backends._dispatch

    def lying(msg, hosting):
        status, result = real(msg, hosting)
        return status, result[:-1] if msg[0] == "dump" else result

    monkeypatch.setattr(backends, "_dispatch", lying)
    tree, P, G = make_fig1_tree()
    with ShardedRuntime(tree, fig1_initial(tree), shards=2,
                        backend=backend) as srt:
        srt.analyze(fig1_stream(tree, P, G, 1))
        with pytest.raises(CorruptReply):
            srt.backend.dump_dependences(1, 0, 6)


@pytest.mark.skipif(not FORK, reason="the error is patched into workers")
def test_an_errored_window_leaves_no_reply_queued(monkeypatch):
    """Worker 0 analyzes its second window, then answers it ``("error",
    ...)``: the window raises that error only once every worker's reply is
    read, so no pipe holds a stale reply and the next window verifies."""
    parent, real = os.getpid(), backends._dispatch
    windows = []

    def failing(msg, hosting):
        status, result = real(msg, hosting)
        if msg[0] == "analyze" and os.getpid() != parent \
                and 1 in hosting.runtimes:
            windows.append(msg)
            if len(windows) == 2:
                return "error", "injected replica failure"
        return status, result

    monkeypatch.setattr(backends, "_dispatch", failing)
    tree, P, G = make_fig1_tree()
    with ShardedRuntime(tree, fig1_initial(tree), shards=3,
                        backend="process", max_workers=2,
                        recv_timeout=10.0) as srt:
        workers = [h for h in srt.backend._handles if h.remote]
        assert [h.shards for h in workers] == [[1], [2]]
        srt.analyze(fig1_stream(tree, P, G, 1))
        with pytest.raises(MachineError, match="injected replica failure"):
            srt.analyze(fig1_stream(tree, P, G, 1))
        assert not any(h.conn.poll(0.2) for h in workers)
        srt.analyze(fig1_stream(tree, P, G, 1))
        assert srt.recovery.faults == {}
