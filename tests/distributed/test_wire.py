"""The worker reply is checked by shape before it is trusted: a real
analyze reply (with or without the checkpoint riding it) or digest reply,
lied about or mangled, either parses or is rejected as a
:class:`CorruptReply` (which recovery retries) — never another
exception."""

import multiprocessing as mp
import os
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MachineError
from repro.distributed import ShardedRuntime, backends
from repro.distributed.backends import (ProcessBackend, _dispatch,
                                       _open_hosting, encode_tasks)
from repro.distributed.faults import CorruptReply, FakeClock, RetryPolicy
from repro.obs import tracer as obs

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree

#: Values of every type a frame slot may be swapped for.
VALUES = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                   st.text(max_size=3), st.binary(max_size=3),
                   st.lists(st.integers(), max_size=2))


@pytest.fixture(scope="module")
def reply():
    """``(backend, handle, bytes)``: a real worker's analyze reply, with
    its trace fragment, for shards 1 and 2; absorbed into a spare tracer."""
    tree, P, G = make_fig1_tree()
    previous = obs.set_tracer(obs.Tracer())
    with ProcessBackend(tree, "raycast", 3,
                        max_workers=1) as backend:
        handle = backend.handles[0]
        handle.send(("analyze", [], encode_tasks(fig1_stream(tree, P, G, 1)),
                     1, False))
        blob = handle.recv()
    yield backend, handle, blob
    obs.set_tracer(previous)


def test_real_reply_parses(reply):
    backend, handle, blob = reply
    rows, snapshot = backend._parse(handle, blob, "analyze")
    assert sorted(shard for shard, _, _ in rows) == [1, 2]
    assert snapshot is None


def _fragment(**content):
    return lambda result: ("ok", result, obs.TraceBuffer(**content))


def _span(span_id, parent_id, start=0.0):
    return obs.Span("s", "c", start, 1.0, span_id=span_id,
                    parent_id=parent_id)


@pytest.mark.parametrize("lie", [
    lambda result: "okx",                      # unpacked to status "o"
    lambda result: ("ok", result, "frag"),     # absorb: no .clock
    lambda result: ("ok", result, {"spans": 1}),
    lambda result: ("ok", ([("a",)], None), None),  # ShardReport(*row)
    _fragment(spans=[1]),                      # absorb: no .span_id
    _fragment(spans=[_span(1, None, start="0")]),  # "0" + offset
    _fragment(clock="late"),                   # monotonic() - "late"
    _fragment(instants=[None]),                # replace(None, ...)
    _fragment(spans=[_span(1, 2), _span(2, 1)]),   # a span its own ancestor
], ids=["status-string", "fragment-string", "fragment-dict", "short-row",
        "span-int", "span-start-string", "clock-string", "instant-none",
        "span-parent-cycle"])
def test_well_formed_lie_is_corrupt(reply, lie):
    backend, handle, blob = reply
    result = pickle.loads(blob)[1]
    with pytest.raises(CorruptReply):
        backend._parse(handle, pickle.dumps(lie(result)), "analyze")


@st.composite
def mutated(draw, blob):
    """The reply with one mutation: truncated bytes, or — in the frame or
    its first row — an element dropped, added or swapped for another
    type, or a shard the handle does not host."""
    status, (rows, snapshot), fragment = frame = pickle.loads(blob)
    kind = draw(st.sampled_from(["truncate", "drop", "add", "swap",
                                 "shard"]))
    if kind == "truncate":
        return blob[:draw(st.integers(0, len(blob) - 1))]
    in_row = kind == "shard" or draw(st.booleans())
    target = rows[0] if in_row else frame
    i = 0 if kind == "shard" else draw(st.integers(0, len(target) - 1))
    if kind == "drop":
        target = target[:i] + target[i + 1:]
    elif kind == "add":
        target += (draw(VALUES),)
    else:
        target = target[:i] + (draw(
            st.integers().filter(lambda s: s not in (1, 2))
            if kind == "shard" else
            VALUES.filter(lambda v: type(v) is not type(target[i]))),) \
            + target[i + 1:]
    return pickle.dumps((status, ([target, *rows[1:]], snapshot), fragment)
                        if in_row else target)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_reply_parses_or_is_rejected(reply, data):
    backend, handle, blob = reply
    try:
        backend._parse(handle, data.draw(mutated(blob)), "analyze")
    except MachineError:  # CorruptReply for a bad shape, else "error"
        pass


def test_unresolvable_analyze_message_changes_nothing():
    """A message the host cannot apply whole is refused whole, saying why:
    an unknown region uid in a task or as a structure record's parent, or
    a good record followed by one ``create_partition`` refuses (a name in
    use, also by the message's own earlier record; elements outside its
    parent, which an earlier record made; a false ``disjoint``).  No task
    launched, no partition made, the base unmoved, so the next good
    message reaches a clean host's fingerprint."""
    tree, P, G = make_fig1_tree()
    genesis = pickle.dumps((tree, "raycast"))
    clean, used = (_open_hosting({"mode": "genesis", "genesis": genesis,
                                  "shards": [1, 2]}) for _ in range(2))
    tasks = encode_tasks(fig1_stream(tree, P, G, 1))
    name, reqs, point = tasks[2]
    bad_task = tasks[:2] + [(name, ((99999,) + reqs[0][1:],) + reqs[1:],
                             point)] + tasks[3:]
    root, made = tree.root.uid, len(tree)  # ``made``: the first new uid
    good = (root, "X", [np.arange(2)], True, False)
    for structure, stream, why in (
            ([], bad_task, "99999"),
            ([(99999, "X", [np.arange(2)], True, False)], tasks, "99999"),
            ([good, (root, "P", [np.arange(2)], True, False)], tasks,
             "already has a partition 'P'"),
            ([good, good], tasks, "already has a partition 'X'"),
            ([good, (made, "Y", [np.arange(3)], True, False)], tasks,
             "not a subset"),
            ([good, (root, "Y", [np.arange(2), np.arange(1, 3)], True,
                     False)], tasks, "declared disjoint=True")):
        status, message = _dispatch(("analyze", structure, stream, 0, False),
                                    used)
        assert status == "error" and why in message
        assert used.base == 0 and len(used.tree) == len(tree)
        assert sorted(used.tree.root.partitions) == ["G", "P"]
        assert all(rt.next_task_id == 0 for rt in used.runtimes.values())
    chained = [good, (made, "Y", [np.arange(1)], True, False)]
    for hosting in (used, clean):
        assert _dispatch(("analyze", chained, [], 0, False),
                         hosting)[0] == "ok"
    good = ("analyze", [], tasks, 0, False)
    assert [row[:2] for row in _dispatch(good, used)[1][0]] \
        == [row[:2] for row in _dispatch(good, clean)[1][0]]


@pytest.fixture(scope="module")
def checkpoint():
    """``(backend, handle, frame)``: a real worker's analyze reply for
    shards 1 and 2 carrying the checkpoint of the verified window before
    it (every window marked), as the parent receives it; the checkpoint
    of the window before that is already kept."""
    tree, P, G = make_fig1_tree()
    with ProcessBackend(tree, "raycast", 3,
                        max_workers=1, checkpoint_interval=1) as backend:
        for _ in range(2):
            backend.analyze(fig1_stream(tree, P, G, 1))
            backend.after_verified()
        handle = backend.handles[0]
        handle.send(("analyze", [], encode_tasks(fig1_stream(tree, P, G, 1)),
                     0, True))
        frame = pickle.loads(handle.recv())
        yield backend, handle, frame


def test_real_checkpoint_parses(checkpoint):
    backend, handle, frame = checkpoint
    rows, (base, digests, live) = backend._parse(
        handle, pickle.dumps(frame), "analyze")
    assert sorted(shard for shard, _, _ in rows) == [1, 2]
    assert base == backend.tasks_analyzed == 12
    assert len(handle.journal) == 1  # the window after the kept one
    assert digests == [(1, backend._due[1]),
                       (2, backend._due[1])]
    assert _open_hosting({"mode": "restore", "live": live}).base == 12


@pytest.mark.parametrize("command, lie", [
    ("checkpoint", lambda r: ("not", "a", "checkpoint", "reply")),
    ("checkpoint", lambda r: (r[0] + 1,) + r[1:]),        # a later base
    ("checkpoint", lambda r: (r[0], [(3, r[1][0][1]), r[1][1]], r[2])),
    ("checkpoint", lambda r: (r[0], [r[1][0], (2, "0" * 64)], r[2])),
    ("digest", lambda r: "ab"),                           # unpacked to 2
    ("digest", lambda r: [(1, "x"), (7, "y")]),
    ("digest", lambda r: [(1, r[1][0][1]), (2, "0" * 64)]),
    ("dump", lambda r: r),                                # not a list
    ("dump", lambda r: [r[0]]),                           # a row not a tuple
    ("dump", lambda r: [(1, 2), (3, "4")]),               # a task id str
    ("dump", lambda r: [(True,)]),                        # a task id bool
], ids=["strings", "base", "foreign-shard", "reference-digest",
        "digest-string", "digest-foreign-shard", "digest-not-checkpoint",
        "dump-tuple", "dump-int-row", "dump-string-id", "dump-bool-id"])
def test_lying_checkpoint_or_digest_is_corrupt(checkpoint, command, lie):
    """A checkpoint riding an analyze reply, or a digest result, of the
    wrong shape — a base other than the due checkpoint's, a digest naming
    a shard the handle does not host, or one that is not the reference
    replica's structure digest (for a digest, the handle's checkpoint
    digest) — is a CorruptReply, which recovery retries."""
    backend, handle, (status, (rows, snapshot), fragment) = checkpoint
    result = (rows, lie(snapshot)) if command == "checkpoint" \
        else lie(snapshot)
    with pytest.raises(CorruptReply):
        backend._parse(handle, pickle.dumps((status, result, fragment)),
                       "analyze" if command == "checkpoint" else command)


@pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                    reason="the lie is patched into forked workers")
def test_lying_checkpoint_worker_is_recovered(monkeypatch):
    """End to end: a worker whose every checkpoint rides its analyze
    reply as a well-formed lie is refused on each such reply and
    recovered by a replay, which takes no snapshot; the run keeps the
    serial fingerprints and no lie is ever kept."""
    parent, real = os.getpid(), backends._dispatch

    def lying(msg, hosting):
        status, result = real(msg, hosting)
        if msg[0] == "analyze" and status == "ok" \
                and result[1] is not None and os.getpid() != parent:
            return ("ok", (result[0], ("not", "a", "checkpoint", "reply")))
        return status, result

    monkeypatch.setattr(backends, "_dispatch", lying)
    fingerprints = {}
    for backend in ("serial", "process"):
        tree, P, G = make_fig1_tree()
        with ShardedRuntime(tree, fig1_initial(tree), shards=3,
                            backend=backend, max_workers=1,
                            checkpoint_interval=1, recv_timeout=10.0,
                            retry=RetryPolicy(max_retries=1),
                            clock=FakeClock()) as srt:
            fingerprints[backend] = [
                srt.analyze(fig1_stream(tree, P, G, 1))[0].fingerprint
                for _ in range(3)]
            hosts = list(srt.backend._handles)
    assert fingerprints["process"] == fingerprints["serial"]
    assert srt.recovery.faults == {"corrupt": 2}
    assert (srt.recovery.workers_lost, srt.recovery.checkpoints) == (0, 0)
    assert [(h.remote, h.checkpoint.live) for h in hosts] == [(True, None)]
