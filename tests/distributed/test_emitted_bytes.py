"""Tokens emitted straight to bytes, held to the tuples they replace:
``_spec_set_tokens`` is the tuple-building ``set_tokens`` the emitter
superseded, and every set's pre-encoded token must be exactly the bytes
``_encode`` gives its spec tuple; likewise a ``graph_fingerprint`` row
and ``_encode((t, tuple(sorted(deps))))``."""

import hashlib
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distributed.verify import (Encoded, _encode, fingerprint_tokens,
                                      graph_fingerprint, int_tuple)
from repro.geometry.index_space import IndexSpace
from repro.privileges import READ, READ_WRITE, reduce
from repro.runtime.dependence import DependenceGraph
from repro.visibility.eqset import set_tokens
from repro.visibility.history import HistoryEntry, RegionValues


def _spec_set_tokens(sets, entry_bounds) -> tuple:
    return tuple(
        ("eqset", s.space.bounds, s.space.size, s.space.indices.tobytes(),
         tuple((repr(e.privilege), e.task_id, tuple(sorted(e.collapsed_ids)),
                entry_bounds(e)) for e in s.history))
        for s in sorted(sets, key=lambda s: (s.space.bounds, s.space.size)))


def _bytes(token) -> bytes:
    out = []
    _encode(token, out.append)
    return b"".join(out)


#: Shared privilege objects, and names for fresh ones: a history holds
#: both (``reduce`` builds a new object each call).
SHARED = [READ, READ_WRITE, reduce("sum"), reduce("max")]
PRIVILEGES = st.sampled_from(SHARED) | st.sampled_from(
    ["sum", "prod", "min", "max"]).map(reduce)
TASK_IDS = st.integers(0, 2 ** 40)


@st.composite
def eqsets(draw):
    """A set on 1..12 sorted indices and a history of 0..5 entries, each
    on a non-empty subset of the set: reads without values, writes and
    reductions with them, some entries summaries with collapsed ids."""
    space = IndexSpace(np.array(sorted(draw(st.sets(
        st.integers(0, 60), min_size=1, max_size=12)))))
    history = []
    for _ in range(draw(st.integers(0, 5))):
        privilege = draw(PRIVILEGES)
        domain = IndexSpace(np.array(sorted(draw(st.sets(
            st.sampled_from(list(space)), min_size=1)))))
        values = None if privilege.is_read else RegionValues(
            domain, np.zeros(domain.size))
        history.append(HistoryEntry(
            privilege, domain, values, draw(TASK_IDS),
            frozenset(draw(st.sets(TASK_IDS, max_size=3)))))
    return SimpleNamespace(space=space, history=history)


@settings(max_examples=200, deadline=None)
@given(st.lists(eqsets(), max_size=5), st.booleans())
def test_set_tokens_are_their_tuples_bytes(sets, aligned):
    """Both entry-bounds modes: Warnock's ``None`` (entries aligned with
    their set) and ray casting's own domain bounds."""
    entry_bounds = ((lambda e: None) if aligned
                    else (lambda e: e.domain.bounds))
    emitted = set_tokens(sets, entry_bounds)
    spec = _spec_set_tokens(sets, entry_bounds)
    assert len(emitted) == len(spec)
    for token, tokens in zip(emitted, spec):
        assert type(token) is Encoded and bytes(token) == _bytes(tokens)
    prefix = ("raycast", "f")
    assert fingerprint_tokens([prefix + emitted], ()) \
        == fingerprint_tokens([prefix + spec], ())


@settings(max_examples=200, deadline=None)
@given(TASK_IDS, st.sets(TASK_IDS, max_size=6))
@example(40, set(range(37)))  # a length byte that reads as "%"
def test_graph_row_is_its_tuples_bytes(tid, deps):
    graph = DependenceGraph()
    graph._deps[tid] = frozenset(deps)
    row = _bytes((tid, tuple(sorted(deps))))
    assert graph_fingerprint(graph, tid, 1) == hashlib.sha256(
        b"t" + (1).to_bytes(8, "little") + row).hexdigest()


@given(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=8)
       | st.integers(0, 10_000).map(range).map(list))
@example(list(range(37)))  # length bytes that read as "%"
@example(list(range(0x2500)))
def test_int_tuple_is_the_tuples_bytes(values):
    assert int_tuple(values) == _bytes(tuple(values))
