"""The fingerprint byte format, held to its spec: ``_spec`` is the
original recursive encoder, the oracle that the fast encoder and the
kept graph rows must reproduce byte for byte (SHA-256 of one stream)."""

import enum
import hashlib
import pickle

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed.verify import (_encode, analysis_fingerprint,
                                      fingerprint_tokens, graph_fingerprint)
from repro.runtime import Runtime
from repro.runtime.dependence import DependenceGraph

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree


def _spec(h, token) -> None:
    """Feed one (possibly nested) token into a hash, type-tagged so that
    e.g. the int 1 and the string "1" cannot collide."""
    if isinstance(token, bytes):
        h.update(b"b" + len(token).to_bytes(8, "little") + token)
    elif isinstance(token, str):
        _spec(h, token.encode("utf-8"))
    elif isinstance(token, bool):
        h.update(b"B1" if token else b"B0")
    elif isinstance(token, int):
        h.update(b"i" + str(token).encode())
    elif token is None:
        h.update(b"n")
    elif isinstance(token, (tuple, list)):
        h.update(b"t" + len(token).to_bytes(8, "little"))
        for item in token:
            _spec(h, item)
    else:
        _spec(h, repr(token))


class _Stream(bytearray):
    """A hash stand-in that keeps the bytes it is fed."""
    update = bytearray.extend


Colour = enum.IntEnum("Colour", {"RED": 1, "BLUE": -7})
Name = type("Name", (str,), {})
Blob = type("Blob", (bytes,), {})
LEAVES = st.one_of(
    st.booleans(), st.none(), st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 90).map(lambda i: -i),
    st.sampled_from(Colour), st.text(), st.text().map(Name),
    st.binary(), st.binary().map(Blob), st.binary().map(bytearray),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.floats(allow_nan=False))
TOKENS = st.recursive(
    LEAVES, lambda inner: st.lists(inner) | st.lists(inner).map(tuple),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(st.lists(TOKENS, max_size=4))
def test_encoder_matches_spec(tokens):
    spec, out = _Stream(), []
    for token in tokens:
        _spec(spec, token)
        _encode(token, out.append)
    assert b"".join(out) == bytes(spec)
    assert fingerprint_tokens(*tokens) == hashlib.sha256(spec).hexdigest()


def _graph(rows):
    graph = DependenceGraph()
    for tid, deps in enumerate(rows):
        graph.add_task(tid, deps)
    return graph


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.integers(0, 20), max_size=4), max_size=20),
       st.lists(st.tuples(st.integers(0, 22), st.none() | st.integers(0, 22),
                          st.integers(0, 25)), max_size=6))
@example([set(), {0}, {0, 1}], [(1, None, 25)])  # start without count
def test_windows_match_spec(rows, queries):
    """Any sequence of windows and rebinds digests what the spec does:
    cached runs reused, cut short and stitched, rebound tasks re-encoded."""
    rows = [sorted(d for d in ds if d < tid) for tid, ds in enumerate(rows)]
    graph = _graph(rows)
    for start, count, rebind in queries:
        if rebind < len(rows):
            rows[rebind] = rows[rebind][1:]
            graph._deps[rebind] = frozenset(rows[rebind])
        stop = len(rows) if count is None else min(start + count, len(rows))
        spec = _Stream()
        _spec(spec, [(t, tuple(rows[t])) for t in range(start, stop)])
        assert graph_fingerprint(graph, start, count) \
            == hashlib.sha256(spec).hexdigest()


def test_rebound_dependences_are_re_encoded():
    rows = [[], [0], [0, 1], [2], [1, 3]]
    graph = _graph(rows)
    before = graph_fingerprint(graph)
    graph._deps[3] = frozenset({0, 1})
    rows[3] = [0, 1]
    assert graph_fingerprint(graph) != before
    assert graph_fingerprint(graph) == graph_fingerprint(_graph(rows))


def test_row_cache_never_reaches_a_pickle():
    tree, P, G = make_fig1_tree()
    rt = Runtime(tree, fig1_initial(tree))
    for task in fig1_stream(tree, P, G, 2):
        rt.launch(task.name, task.requirements, None, task.point)
    before = pickle.dumps(rt)
    analysis_fingerprint(rt, 0, len(rt.graph))
    assert pickle.dumps(rt) == before
