"""The worker reply is checked by shape before it is trusted: a real
analyze reply, lied about or mangled, either parses or is rejected as a
:class:`CorruptReply` (which recovery retries) — never another exception."""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MachineError
from repro.distributed.backends import ProcessBackend, encode_tasks
from repro.distributed.faults import CorruptReply, SystemClock
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
    with ProcessBackend(tree, fig1_initial(tree), "raycast", 3,
                        max_workers=1) as backend:
        handle = backend.handles[0]
        handle.send(("analyze", [], encode_tasks(fig1_stream(tree, P, G, 1)),
                     1))
        blob = handle.recv(0.05, SystemClock(), 10.0)
    yield backend, handle, blob
    obs.set_tracer(previous)


def test_real_reply_parses(reply):
    backend, handle, blob = reply
    rows = backend._parse(handle, blob, "analyze")
    assert sorted(shard for shard, _, _ in rows) == [1, 2]


@pytest.mark.parametrize("lie", [
    lambda rows: "okx",                        # unpacked to status "o"
    lambda rows: ("ok", rows, "frag"),         # absorb: no .clock
    lambda rows: ("ok", rows, {"spans": 1}),
    lambda rows: ("ok", [("a",)], None),       # ShardReport(*row) failed
], ids=["status-string", "fragment-string", "fragment-dict", "short-row"])
def test_well_formed_lie_is_corrupt(reply, lie):
    backend, handle, blob = reply
    rows = pickle.loads(blob)[1]
    with pytest.raises(CorruptReply):
        backend._parse(handle, pickle.dumps(lie(rows)), "analyze")


@st.composite
def mutated(draw, blob):
    """The reply with one mutation: truncated bytes, or — in the frame or
    its first row — an element dropped, added or swapped for another
    type, or a shard the handle does not host."""
    status, rows, fragment = frame = pickle.loads(blob)
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
    return pickle.dumps((status, [target, *rows[1:]], fragment) if in_row
                        else target)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_reply_parses_or_is_rejected(reply, data):
    backend, handle, blob = reply
    try:
        backend._parse(handle, data.draw(mutated(blob)), "analyze")
    except MachineError:  # CorruptReply for a bad shape, else "error"
        pass
