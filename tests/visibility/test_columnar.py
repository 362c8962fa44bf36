"""Columnar histories: one dependence scan, two equivalent front-ends.

The tentpole property: for any privilege mix (reads, writes, reductions
with distinct operators, collapsed summaries), any query space, any
pre-collected dependence set and either history container (a list, the
painter's ``ColumnarHistory``), ``scan_dependences`` produces the
dependences, meter totals and provenance edge/prune records of a
brute-force entry-at-a-time spec.  History lengths straddle
``SCAN_VECTOR_MIN``, so both the straight loop and the column-narrowed
walk are covered.  Plus what each regime
must not do: ask a geometry question about an entry already collected in
``deps`` at scan start, or (long regime) touch the entry object of a
bounds-far entry at all; and the columns themselves, a cache of the entry
list filled when a long scan or blend asks, held ≡ entries under any
interleaving of mutation and reads.
"""

import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

import repro.visibility.history as hist_mod
from repro.geometry.fastpath import geometry_cache
from repro.geometry.index_space import IndexSpace
from repro.obs import provenance as prov
from repro.obs.tracer import Tracer
from repro.privileges import READ, READ_WRITE, reduce
from repro.visibility.history import (SCAN_VECTOR_MIN, ColumnarHistory,
                                      HistoryEntry, RegionValues,
                                      interference_mask, paint_into,
                                      scan_dependences)
from repro.visibility.meter import CostMeter

from tests.conftest import index_spaces

PRIVILEGES = [READ, READ_WRITE, reduce("sum"), reduce("max")]
CONTAINERS = {"list": list, "columnar": ColumnarHistory}
COLUMNS = ("kind", "redop", "lo", "hi", "task", "summary")


def columns(history):
    """The synced columns of a ``ColumnarHistory``, by name, as lists."""
    return dict(zip(COLUMNS, history._sync().tolist()))


def make_entry(privilege, indices, task_id, collapsed=frozenset()):
    domain = IndexSpace.from_indices(indices)
    if privilege.is_read:
        values = None
    else:
        values = RegionValues(domain,
                              np.arange(domain.size, dtype=np.float64))
    return HistoryEntry(privilege, domain, values, task_id, collapsed)


def spec_scan(entries, privilege, space, seed_deps=()):
    """Figure 7's dependence scan, one entry at a time — the spec."""
    deps, counts, edges, pruned = set(seed_deps), Counter(), [], []
    points = set(space.indices.tolist())
    for e in entries:
        counts["entries_scanned"] += 1
        if e.task_id in deps and not e.collapsed_ids:
            continue
        if not privilege.interferes(e.privilege):
            continue
        counts["intersection_tests"] += 1
        if points & set(e.domain.indices.tolist()):
            deps |= {e.task_id} | e.collapsed_ids
            edges.append(e)
        else:
            pruned.append(e)
    return deps, dict(counts), edges, pruned


def run_spec(entries, privilege, space, seed_deps=()):
    """The spec's observables in the shape :func:`run_scan` reports."""
    deps, counts, edges, pruned = spec_scan(entries, privilege, space,
                                            seed_deps)
    return (deps, counts,
            [(e.task_id, "summary" if e.collapsed_ids else "history",
              prov.privilege_label(e.privilege), prov.domain_desc(e.domain),
              tuple(sorted(e.collapsed_ids))) for e in edges],
            [(e.task_id, "disjoint", prov.domain_desc(e.domain))
             for e in pruned])


def run_scan(entries, privilege, space, container="columnar", seed_deps=()):
    """One scan under a fresh meter and access span; returns every
    observable."""
    deps = set(seed_deps)
    meter = CostMeter()
    tracer = Tracer()
    with tracer.span("t", "task", task_id=10**6), \
            tracer.span("materialize", "visibility.test") as led:
        prov.describe_access(led, "x", "test", privilege, space,
                             "materialize")
        scan_dependences(privilege, space, CONTAINERS[container](entries),
                         deps, meter, led)
    (record,) = prov.Witnesses(tracer.snapshot()).records
    return (deps, meter.snapshot(),
            [(w.src, w.kind, w.privilege, w.domain, w.collapsed)
             for w in record.edges],
            [(p.src, p.reason, p.domain) for p in record.pruned])


# ----------------------------------------------------------------------
# the equivalence property
# ----------------------------------------------------------------------
entry_spec = st.tuples(
    st.integers(0, len(PRIVILEGES) - 1),
    # an empty domain (summaries included) can never hit but is tested
    st.one_of(st.just([]),
              st.lists(st.integers(0, 40), min_size=0, max_size=10)),
    st.booleans(),   # collapsed summary?
    # own id, the previous entry's, or one of a small pool that recurs
    # anywhere: the skip must find a task by id, not by position
    st.one_of(st.none(), st.just(-1), st.integers(0, 3)))

#: the ids summaries collapse (``1000 + 2 * i``, ``1001 + 2 * i``) are
#: seeded too: a summary whose ids are partly collected is still asked about
seed_deps = st.lists(st.one_of(st.integers(0, 2 * SCAN_VECTOR_MIN),
                               st.integers(1000, 1003 + 4 * SCAN_VECTOR_MIN)),
                     max_size=4)


def build_entry(i, spec):
    pk, indices, collapsed, reuse = spec
    task_id = i if reuse is None else max(0, i - 1) if reuse < 0 else reuse
    if collapsed:
        return make_entry(READ_WRITE, indices, task_id,
                          frozenset({1000 + 2 * i, 1001 + 2 * i}))
    return make_entry(PRIVILEGES[pk], indices, task_id)


def tiled(specs, n, first=0):
    """``n`` entries, positions ``first`` on, cycling through ``specs``: a
    long history costs a short draw."""
    return [build_entry(i, specs[i % len(specs)])
            for i in range(first, first + n)]


@st.composite
def histories(draw):
    """Entry lists whose lengths sit on both sides of the regime
    switch."""
    n = draw(st.sampled_from([0, 1, 2, 3, SCAN_VECTOR_MIN - 1,
                              SCAN_VECTOR_MIN, SCAN_VECTOR_MIN + 1,
                              2 * SCAN_VECTOR_MIN]))
    return tiled(draw(st.lists(entry_spec, min_size=1, max_size=24)), n)


class TestColumnarEquivalence:
    @given(entries=histories(),
           pk=st.integers(0, len(PRIVILEGES) - 1),
           space=index_spaces(max_index=48, min_size=0, max_size=16),
           seed=seed_deps)
    def test_scan_matches_object_walk(self, entries, pk, space, seed):
        privilege = PRIVILEGES[pk]
        want = run_spec(entries, privilege, space, seed)
        for container in CONTAINERS:
            assert run_scan(entries, privilege, space, container,
                            seed) == want, container

    def test_empty_history(self):
        space = IndexSpace.from_indices([1, 2, 3])
        for container in CONTAINERS:
            assert run_scan([], READ_WRITE, space, container) == \
                (set(), {}, [], [])

    def test_single_entry(self):
        space = IndexSpace.from_indices([1, 2, 3])
        entry = make_entry(READ_WRITE, [2, 5], 7)
        for container in CONTAINERS:
            deps, counts, edges, pruned = run_scan(
                [entry], READ, space, container)
            assert deps == {7}
            assert counts == {"entries_scanned": 1,
                              "intersection_tests": 1}
            assert len(edges) == 1 and pruned == []

    def test_single_disjoint_entry(self):
        space = IndexSpace.from_indices([10, 11])
        entry = make_entry(READ_WRITE, [2, 5], 7)
        for container in CONTAINERS:
            deps, counts, edges, pruned = run_scan(
                [entry], READ, space, container)
            assert deps == set()
            assert counts == {"entries_scanned": 1,
                              "intersection_tests": 1}
            assert edges == [] and len(pruned) == 1

    def test_empty_query_space(self):
        space = IndexSpace.from_indices([])
        entries = [make_entry(READ_WRITE, [1, 2], i) for i in range(3)]
        want = run_spec(entries, READ, space)
        assert want[0] == set()
        for container in CONTAINERS:
            assert run_scan(entries, READ, space, container) == want

    def test_long_same_operator_reduction_history(self):
        """Pennant's ``dt`` pattern: one opening write, then 2047
        same-operator reductions.  Only the write interferes: one
        dependence and one intersection test per scan, every entry
        counted, on a meter shared by all the scans."""
        n, length, scans = 4096, 2048, 3
        privilege = reduce("sum")
        entries = [make_entry(READ_WRITE, range(n), 0)]
        for i in range(1, length):
            lo = (i * 17) % (n - 64)
            entries.append(make_entry(privilege, range(lo, lo + 64), i))
        history = ColumnarHistory(entries)
        space = IndexSpace.from_indices(range(128, 256))
        meter = CostMeter()
        for _ in range(scans):
            deps = set()
            scan_dependences(privilege, space, history, deps, meter)
            assert deps == {0}
        assert meter.snapshot() == {"entries_scanned": scans * length,
                                    "intersection_tests": scans}


# ----------------------------------------------------------------------
# the container itself
# ----------------------------------------------------------------------
class TestColumnarHistory:
    def test_list_protocol_and_columns(self):
        entries = [make_entry(READ, [1], 0),
                   make_entry(reduce("sum"), [2, 3], 1),
                   make_entry(READ_WRITE, [4], 2,
                              frozenset({10, 11}))]
        hist = ColumnarHistory(entries)
        assert len(hist) == 3 and bool(hist)
        assert list(hist) == entries
        assert hist[1] is entries[1]
        assert hist[-1] is entries[2]
        cols = columns(hist)
        assert cols["kind"] == [hist_mod.KIND_READ, hist_mod.KIND_REDUCE,
                                hist_mod.KIND_WRITE]
        assert cols["lo"] == [1, 2, 4]
        assert cols["hi"] == [1, 3, 4]
        assert cols["task"] == [0, 1, 2]
        assert cols["summary"] == [0, 0, 1]

    def test_append_grows_the_columns(self):
        hist = ColumnarHistory()
        for i in range(50):
            hist.append(make_entry(READ_WRITE, [i], i))
            if i == 20:  # a filled prefix survives the capacity doubling
                assert columns(hist)["lo"] == list(range(21))
        assert len(hist) == 50
        assert columns(hist)["lo"] == list(range(50))
        assert columns(hist)["kind"] == [hist_mod.KIND_WRITE] * 50

    def test_pickle_roundtrip_rebuilds_columns(self):
        import pickle

        entries = [make_entry(reduce("sum"), [1, 2], 0),
                   make_entry(READ, [3], 1)]
        hist = ColumnarHistory(entries)
        clone = pickle.loads(pickle.dumps(hist))
        assert isinstance(clone, ColumnarHistory)
        assert len(clone) == 2
        assert columns(clone) == columns(hist)
        # the rebuilt redop column must still match the live operator
        mask = interference_mask(reduce("sum"), *clone._sync()[:2])
        assert mask.tolist() == [False, True]

    def test_interference_mask_matches_scalar(self):
        hist = ColumnarHistory([make_entry(READ, [1], 0),
                                make_entry(READ_WRITE, [1], 1),
                                make_entry(reduce("sum"), [1], 2),
                                make_entry(reduce("max"), [1], 3)])
        for privilege in PRIVILEGES:
            mask = interference_mask(privilege, *hist._sync()[:2])
            expected = [privilege.interferes(e.privilege) for e in hist]
            assert mask.tolist() == expected, privilege


def geometry_questions() -> int:
    """Exact overlap questions the process-wide cache has been asked:
    both entry points (``IndexSpace.overlaps``, ``resolve_overlaps``)
    count each as a hit or a miss."""
    stats = geometry_cache().stats()
    return stats["hits"] + stats["misses"]


def far_reads(pad):
    """``pad`` read entries far from every query below: they lengthen a
    history past the regime switch without interfering with a read."""
    return [make_entry(READ, [900 + k], 900 + k) for k in range(pad)]


# ----------------------------------------------------------------------
# regression: pre-collected deps cost no geometry question
# ----------------------------------------------------------------------
class TestDepsAtStartMasking:
    @pytest.mark.parametrize("columnar", (True, False))
    def test_kernel_sees_only_untested_entries(self, columnar):
        """Entries whose task is already a dependence at scan start are
        skipped by the walk, so asking about their overlap is pure
        waste (pre-fix: all six interfering entries were batched) — in
        the straight loop and in the column-narrowed walk."""
        for pad in (0, SCAN_VECTOR_MIN):
            entries = [make_entry(READ_WRITE, [i, i + 1], i)
                       for i in range(6)] + far_reads(pad)
            history = ColumnarHistory(entries) if columnar else entries
            space = IndexSpace.from_indices([0, 1, 2, 3, 4, 5, 6])
            deps = {0, 1, 2, 3}
            asked = geometry_questions()
            meter = CostMeter()
            scan_dependences(READ, space, history, deps, meter)
            assert geometry_questions() - asked == 2, \
                "pre-collected deps must be masked out"
            assert deps == {0, 1, 2, 3, 4, 5}
            # meter totals are those of the unmasked entry-at-a-time walk
            assert meter.snapshot() == {"entries_scanned": 6 + pad,
                                        "intersection_tests": 2}

    def test_collapsed_summaries_still_tested(self):
        """A summary whose max id is already a dependence still carries
        other collapsed ids, so it must still be asked about."""
        for pad in (0, SCAN_VECTOR_MIN):
            summary = make_entry(READ_WRITE, [1, 2], 5, frozenset({3, 4, 5}))
            other = make_entry(READ_WRITE, [2, 3], 7)
            third = make_entry(READ_WRITE, [3, 4], 8)
            space = IndexSpace.from_indices([1, 2, 3, 4])
            deps = {5}
            asked = geometry_questions()
            scan_dependences(READ, space, ColumnarHistory(
                [summary, other, third] + far_reads(pad)), deps, CostMeter())
            assert geometry_questions() - asked == 3
            assert deps == {3, 4, 5, 7, 8}


# ----------------------------------------------------------------------
# op-count guard: a long scan's work follows the entries that can hit
# ----------------------------------------------------------------------
class CountingEntry:
    """A history entry that counts the attribute reads it forwards."""

    def __init__(self, entry):
        self.entry, self.reads = entry, 0

    def __getattr__(self, name):  # reached only for the entry's own fields
        self.reads += 1
        return getattr(self.entry, name)


def near(space, entry):
    return entry.domain.bbox_overlaps(space)


class TestLongScanTouchesOnlyWhatCanHit:
    """Counted, not timed: on a history past ``SCAN_VECTOR_MIN`` the
    geometry questions are exactly the entries that interfere, are
    bounds-near and are not dependences yet, and a bounds-far entry's
    object is never read."""

    def check(self, entries, privilege, space, seed):
        history = ColumnarHistory(CountingEntry(e) for e in entries)
        history.check_columns()  # fills the columns: the reads start here
        for proxy in history:
            proxy.reads = 0
        deps, meter = set(seed), CostMeter()
        asked = geometry_questions()
        scan_dependences(privilege, space, history, deps, meter)
        want_deps, want_counts, _, _ = spec_scan(entries, privilege, space,
                                                 seed)
        assert (deps, meter.snapshot()) == (want_deps, want_counts)
        can_hit = [e for e in entries
                   if privilege.interferes(e.privilege) and near(space, e)
                   and (e.collapsed_ids or e.task_id not in seed)]
        assert geometry_questions() - asked == len(can_hit)
        assert [p.reads for p in history if not near(space, p.entry)] \
            == [0] * sum(not near(space, e) for e in entries)
        return len(can_hit)

    def test_same_operator_reduction_history(self):
        """``test_long_same_operator_reduction_history``'s 2 048 entries:
        only the opening write interferes."""
        n, length = 4096, 2048
        privilege = reduce("sum")
        entries = [make_entry(READ_WRITE, range(n), 0)]
        for i in range(1, length):
            lo = (i * 17) % (n - 64)
            entries.append(make_entry(privilege, range(lo, lo + 64), i))
        space = IndexSpace.from_indices(range(128, 256))
        assert self.check(entries, privilege, space, ()) == 1

    @pytest.mark.parametrize("seed", ((), (2, 66, 4, 3)))
    def test_read_write_history_over_disjoint_tiles(self, seed):
        """512 writes tiling 64 disjoint intervals: every entry interferes
        with a read, 24 are bounds-near the query (8 of them disjoint from
        it all the same), 488 are far."""
        entries = [make_entry(READ_WRITE, range(8 * (i % 64),
                                                8 * (i % 64) + 8), i)
                   for i in range(512)]
        space = IndexSpace.from_indices(list(range(16, 24))
                                        + list(range(32, 40)))
        asked = self.check(entries, READ, space, seed)
        assert asked == 24 - sum(t % 64 in (2, 3, 4) for t in seed)


# ----------------------------------------------------------------------
# the columns are a cache: ≡ entries under any interleaving
# ----------------------------------------------------------------------
class LazyColumnsMachine(RuleBasedStateMachine):
    """``append`` / pickling against long scans and blends (the readers
    that fill the columns): after every step the filled prefix matches the
    entries it was filled from and ``check_columns()`` holds."""

    def __init__(self):
        super().__init__()
        self.history = ColumnarHistory()
        self.model: list[HistoryEntry] = []

    @initialize(specs=st.lists(entry_spec, min_size=1, max_size=8),
                n=st.sampled_from([0, SCAN_VECTOR_MIN]))
    def start(self, specs, n):
        self.append(specs, n)

    @rule(specs=st.lists(entry_spec, min_size=1, max_size=8),
          n=st.sampled_from([1, 8, SCAN_VECTOR_MIN]))
    def append(self, specs, n):
        for entry in tiled(specs, n, first=len(self.model)):
            self.history.append(entry)
            self.model.append(entry)

    @rule()
    def pickled(self):
        self.history = pickle.loads(pickle.dumps(self.history))
        assert isinstance(self.history, ColumnarHistory)

    @precondition(lambda self: len(self.model) >= SCAN_VECTOR_MIN)
    @rule(pk=st.integers(0, len(PRIVILEGES) - 1),
          space=index_spaces(max_index=48, min_size=0, max_size=16),
          seed=seed_deps)
    def long_scan(self, pk, space, seed):
        deps, meter = set(seed), CostMeter()
        scan_dependences(PRIVILEGES[pk], space, self.history, deps, meter)
        want_deps, want_counts, _, _ = spec_scan(self.model, PRIVILEGES[pk],
                                                 space, seed)
        assert (deps, meter.snapshot()) == (want_deps, want_counts)

    @precondition(lambda self: len(self.model) >= SCAN_VECTOR_MIN)
    @rule(clip=index_spaces(max_index=40, min_size=1, max_size=16))
    def long_paint(self, clip):
        got, want = (np.zeros(clip.size) for _ in "ab")
        metered, charged = CostMeter(), CostMeter()
        paint_into(got, clip, clip, self.history, metered)
        paint_into(want, clip, clip, list(self.model), charged)
        assert np.array_equal(got, want)
        assert metered.snapshot() == charged.snapshot()

    @invariant()
    def columns_match_entries(self):
        history = self.history
        # by content: a pickle makes equal, fresh entries
        assert [(e.privilege, e.domain, e.task_id, e.collapsed_ids)
                for e in history] == [
            (e.privilege, e.domain, e.task_id, e.collapsed_ids)
            for e in self.model]
        filled = history._filled
        assert filled <= len(self.model)
        if filled:  # before any sync: the cached prefix, as it stands
            assert np.array_equal(
                history._cols[:, :filled],
                ColumnarHistory(self.model[:filled])._sync())
        history.check_columns()
        cols = columns(history)
        assert cols["lo"] == [e.domain.bounds[0] for e in self.model]
        assert cols["kind"] == [
            hist_mod.KIND_REDUCE if e.privilege.is_reduce
            else hist_mod.KIND_READ if e.privilege.is_read
            else hist_mod.KIND_WRITE for e in self.model]


LazyColumnsMachine.TestCase.settings = settings(max_examples=25,
                                                stateful_step_count=16)
TestLazyColumns = LazyColumnsMachine.TestCase


# ----------------------------------------------------------------------
# equivalence-set histories are plain lists
# ----------------------------------------------------------------------
class TestEqsetHistoriesAreLists:
    def test_split_keeps_entry_order_and_alignment(self):
        from repro.visibility.eqset import EquivalenceSet

        s = EquivalenceSet(IndexSpace.from_indices([0, 1, 2]))
        assert type(s.history) is list
        s.record(READ_WRITE, np.array([5.0, 6.0, 7.0]), 1)
        s.record(reduce("sum"), np.array([1.0, 2.0, 3.0]), 2)
        inside, outside = s.split(IndexSpace.from_indices([0]))
        assert outside is not None
        for part, values in ((inside, [[5.0], [1.0]]),
                             (outside, [[6.0, 7.0], [2.0, 3.0]])):
            assert type(part.history) is list
            assert [(e.task_id, e.privilege) for e in part.history] == \
                [(e.task_id, e.privilege) for e in s.history]
            assert [e.values.tolist() for e in part.history] == values

    def test_minus_keeps_entry_order_and_alignment(self):
        from repro.visibility.eqset import LooseEquivalenceSet

        space = IndexSpace.from_indices([0, 1, 2, 3])
        s = LooseEquivalenceSet(space)
        assert type(s.history) is list
        s.record(make_entry(READ_WRITE, [0, 1, 2, 3], 1))
        s.record(make_entry(reduce("sum"), [0, 1], 2))  # dropped: disjoint
        s.record(make_entry(reduce("sum"), [1, 2], 3))
        remainder = s.minus(IndexSpace.from_indices([0, 1]))
        assert remainder is not None
        assert type(remainder.history) is list
        assert [e.task_id for e in remainder.history] == [1, 3]
        assert [e.domain.indices.tolist() for e in remainder.history] == \
            [[2, 3], [2]]
        assert [e.values.values.tolist() for e in remainder.history] == \
            [[2.0, 3.0], [1.0]]
