"""Tests for RegionValues, HistoryEntry, the blending kernel and the
dependence scan.

Both executable specs of Figure 7 live here — and only here — each with
its own geometry.  ``figure7_walk`` is the value path: the entry-at-a-time
object walk that ``paint_into`` replaced (``paint_entry`` over
``write_onto``/``fold_in``, then a scatter into the target buffer), held
to the kernel on values, dtype and meter totals, and to the count-only
``paint_into(None, ...)`` of an analysis-only store on meter totals.
``spec_scan`` is the dependence path, held to ``scan_dependences`` on
dependences, meter totals and provenance edge/prune records, for any
privilege mix (reads, writes, reductions with distinct operators,
collapsed summaries), any query space and any pre-collected dependence
set.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import READ, READ_WRITE, CoherenceError, IndexSpace, reduce
from repro.geometry.fastpath import geometry_cache
from repro.obs import provenance as prov
from repro.obs.tracer import Tracer
from repro.visibility.history import (UNVALUED, HistoryEntry, RegionValues,
                                      paint_into, scan_dependences)
from repro.visibility.meter import CostMeter

from tests.conftest import index_spaces


def rv(indices, values):
    return RegionValues(IndexSpace.from_indices(indices),
                        np.asarray(values, dtype=np.int64))


def as_dict(r: RegionValues) -> dict[int, int]:
    return {int(i): int(v) for i, v in zip(r.domain.indices, r.values)}


def figure7_walk(out, target, clip, entries, meter):
    """Figure 7, one new value array per visible entry (the spec)."""
    at = clip.indices
    current = np.zeros(at.size, dtype=out.dtype)
    for entry in entries:
        meter.count("entries_scanned")
        if entry.values is None or not clip.bbox_overlaps(entry.domain):
            continue
        meter.count("elements_moved", min(clip.size, entry.domain.size))
        common = np.intersect1d(at, entry.domain.indices)
        mine = np.searchsorted(at, common)
        theirs = entry.values.values[
            np.searchsorted(entry.domain.indices, common)]
        nxt = current.copy()
        if entry.privilege.is_write:
            nxt[mine] = theirs
        else:
            nxt[mine] = entry.privilege.redop.fold(nxt[mine], theirs)
        current = nxt
    out[np.searchsorted(target.indices, at)] = current


def spec_scan(entries, privilege, space, seed_deps=()):
    """Figure 7's dependence scan, one entry at a time (the spec)."""
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


def run_scan(entries, privilege, space, seed_deps=()):
    """One scan under a fresh meter and access span; returns every
    observable."""
    deps = set(seed_deps)
    meter = CostMeter()
    tracer = Tracer()
    with tracer.span("t", "task", task_id=10**6), \
            tracer.span("materialize", "visibility.test") as led:
        prov.describe_access(led, "x", "test", privilege, space,
                             "materialize")
        scan_dependences(privilege, space, entries, deps, meter, led)
    (record,) = prov.Witnesses(tracer.snapshot()).records
    return (deps, meter.snapshot(),
            [(w.src, w.kind, w.privilege, w.domain, w.collapsed)
             for w in record.edges],
            [(p.src, p.reason, p.domain) for p in record.pruned])


def painted(current: RegionValues, entry: HistoryEntry) -> RegionValues:
    """One entry blended onto ``current`` by the kernel, checked against
    the spec on the way."""
    out, want = current.values.copy(), current.values.copy()
    paint_into(out, current.domain, current.domain, [entry])
    walked = np.zeros_like(want)
    figure7_walk(walked, current.domain, current.domain,
                 [HistoryEntry(READ_WRITE, current.domain, current, -1),
                  entry], CostMeter())
    assert np.array_equal(out, walked)
    return RegionValues(current.domain, out)


def blend(current: RegionValues, privilege, values: RegionValues):
    return painted(current,
                   HistoryEntry(privilege, values.domain, values, 0))


class TestRegionValues:
    def test_shape_validated(self):
        with pytest.raises(CoherenceError):
            RegionValues(IndexSpace.from_indices([1, 2]), np.zeros(3))

    def test_filled(self):
        r = RegionValues.filled(IndexSpace.from_indices([3, 7]), 5, np.int64)
        assert as_dict(r) == {3: 5, 7: 5}

    # the lifted operators live on as arms of ``paint_into``
    def test_fold_in(self):
        a = rv([1, 2, 3], [10, 20, 30])
        b = rv([2, 3, 9], [1, 2, 3])
        assert as_dict(blend(a, reduce("sum"), b)) == {1: 10, 2: 21, 3: 32}

    def test_fold_in_disjoint_noop(self):
        a = rv([1], [10])
        assert as_dict(blend(a, reduce("sum"), rv([5], [1]))) == {1: 10}

    def test_write_onto(self):
        a = rv([1, 2, 3], [10, 20, 30])
        b = rv([2, 9], [77, 88])
        assert as_dict(blend(a, READ_WRITE, b)) == {1: 10, 2: 77, 3: 30}

    def test_gather_into(self):
        """A clip inside the target: only the clip's elements of the
        target-aligned buffer are painted."""
        target = IndexSpace.from_indices([1, 2, 3, 4])
        clip = IndexSpace.from_indices([2, 4])
        out = np.zeros(4, dtype=np.int64)
        src = rv([2, 3, 4], [20, 30, 40])
        paint_into(out, target, clip,
                   [HistoryEntry(READ_WRITE, src.domain, src, 0)])
        assert list(out) == [0, 20, 0, 40]


class TestHistoryEntry:
    """The entry rules are proved where outside data enters: the checked
    constructor here, ``EquivalenceSet.record`` and ``check_invariants``
    in ``test_loose_eqsets.py``."""

    def test_read_entries_carry_no_values(self):
        space = IndexSpace.from_indices([1])
        with pytest.raises(CoherenceError, match="must not carry values"):
            HistoryEntry.checked(READ, space, rv([1], [5]), 0)
        entry = HistoryEntry.checked(READ, space, None, 0)
        assert not entry.is_visible

    def test_visible_entries_need_aligned_values(self):
        space = IndexSpace.from_indices([1, 2])
        with pytest.raises(CoherenceError, match="live on the entry domain"):
            HistoryEntry.checked(READ_WRITE, space, None, 0)
        with pytest.raises(CoherenceError, match="live on the entry domain"):
            HistoryEntry.checked(READ_WRITE, space, rv([1], [5]), 0)

    def test_plain_constructor_proves_nothing(self):
        """The stores' constructor: a bad entry is built, and ``check``
        names what is wrong with it."""
        entry = HistoryEntry(READ, IndexSpace.from_indices([1]),
                             rv([1], [5]), 0)
        with pytest.raises(CoherenceError, match="must not carry values"):
            entry.check()


class TestPaintEntry:
    """The blending function ``b`` of section 3.1, one entry at a time."""

    def test_write_opaque(self):
        cur = rv([1, 2], [0, 0])
        entry = HistoryEntry(READ_WRITE, IndexSpace.from_indices([2, 3]),
                             rv([2, 3], [9, 9]), 0)
        assert as_dict(painted(cur, entry)) == {1: 0, 2: 9}

    def test_reduce_translucent(self):
        cur = rv([1, 2], [5, 5])
        entry = HistoryEntry(reduce("sum"), IndexSpace.from_indices([2]),
                             rv([2], [3]), 0)
        assert as_dict(painted(cur, entry)) == {1: 5, 2: 8}

    def test_read_transparent(self):
        cur = rv([1], [5])
        entry = HistoryEntry(READ, IndexSpace.from_indices([1]), None, 0)
        assert as_dict(painted(cur, entry)) == {1: 5}

    def test_disjoint_noop(self):
        cur = rv([1], [5])
        entry = HistoryEntry(READ_WRITE, IndexSpace.from_indices([9]),
                             rv([9], [7]), 0)
        assert as_dict(painted(cur, entry)) == {1: 5}


PRIVILEGES = [READ, READ_WRITE, reduce("sum"), reduce("max")]


@st.composite
def paint_cases(draw):
    """``(dtype, target, clip, entries)``: a clip inside its target and a
    history of reads, writes and two reduction operators whose domains are
    the clip itself, the target, empty, or anything (partial, disjoint)."""
    target = draw(index_spaces(32, min_size=1))
    clip = draw(st.one_of(st.just(target), st.lists(
        st.sampled_from(list(target)), max_size=target.size).map(
            IndexSpace.from_indices)))
    domains = st.one_of(st.just(clip), st.just(target),
                        st.just(IndexSpace.empty()), index_spaces(40))
    entries = []
    for task_id in range(draw(st.integers(0, 6))):
        privilege = draw(st.sampled_from(PRIVILEGES))
        domain = draw(domains)
        values = None if privilege.is_read else RegionValues(
            domain, np.asarray(draw(st.lists(
                st.integers(-9, 9), min_size=domain.size,
                max_size=domain.size)), dtype=draw(st.sampled_from(
                    [np.int64, np.float64]))))
        entries.append(HistoryEntry(privilege, domain, values, task_id))
    dtype = draw(st.sampled_from([np.int64, np.float64, np.float32]))
    return dtype, target, clip, entries


class TestPaintInto:
    @given(paint_cases())
    def test_equals_the_figure7_walk(self, case):
        dtype, target, clip, entries = case
        # a zero canvas on the clip; the 3s outside it must survive
        got = np.full(target.size, 3, dtype=dtype)
        got[np.searchsorted(target.indices, clip.indices)] = 0
        want = got.copy()
        metered, charged = CostMeter(), CostMeter()
        paint_into(got, target, clip, entries, metered)
        figure7_walk(want, target, clip, entries, charged)
        assert got.dtype == want.dtype == dtype
        assert np.array_equal(got, want)
        assert metered.snapshot() == charged.snapshot()
        # an analysis-only store's walk: the same charges, nothing blended
        counted = CostMeter()
        paint_into(None, target, clip, [
            HistoryEntry(e.privilege, e.domain, UNVALUED, e.task_id)
            if e.is_visible else e for e in entries], counted)
        assert counted.snapshot() == charged.snapshot()


def make_entry(privilege, indices, task_id, collapsed=frozenset()):
    domain = IndexSpace.from_indices(indices)
    values = None if privilege.is_read else RegionValues(
        domain, np.arange(domain.size, dtype=np.float64))
    return HistoryEntry(privilege, domain, values, task_id, collapsed)


#: A painter's global history after a few iterations of an application.
PAINTER_LENGTH = 300

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
seed_deps = st.lists(st.one_of(st.integers(0, PAINTER_LENGTH),
                               st.integers(1000, 1001 + 2 * PAINTER_LENGTH)),
                     max_size=4)


def build_entry(i, spec):
    pk, indices, collapsed, reuse = spec
    task_id = i if reuse is None else max(0, i - 1) if reuse < 0 else reuse
    if collapsed:
        return make_entry(READ_WRITE, indices, task_id,
                          frozenset({1000 + 2 * i, 1001 + 2 * i}))
    return make_entry(PRIVILEGES[pk], indices, task_id)


@st.composite
def histories(draw):
    """An equivalence set's length (0-3) or a painter's: ``n`` entries
    cycling through a short drawn block, so a long history costs a short
    draw."""
    n = draw(st.sampled_from([0, 1, 2, 3, PAINTER_LENGTH]))
    specs = draw(st.lists(entry_spec, min_size=1, max_size=24))
    return [build_entry(i, specs[i % len(specs)]) for i in range(n)]


def geometry_questions() -> int:
    """Exact overlap questions the process-wide cache has been asked,
    each counted as a hit or a miss."""
    stats = geometry_cache().stats()
    return stats["hits"] + stats["misses"]


class TestScanDependences:
    @given(entries=histories(),
           pk=st.integers(0, len(PRIVILEGES) - 1),
           space=index_spaces(max_index=48, min_size=0, max_size=16),
           seed=seed_deps)
    def test_scan_matches_object_walk(self, entries, pk, space, seed):
        privilege = PRIVILEGES[pk]
        assert run_scan(entries, privilege, space, seed) == \
            run_spec(entries, privilege, space, seed)

    def test_empty_history(self):
        space = IndexSpace.from_indices([1, 2, 3])
        assert run_scan([], READ_WRITE, space) == (set(), {}, [], [])

    def test_single_entry(self):
        space = IndexSpace.from_indices([1, 2, 3])
        entry = make_entry(READ_WRITE, [2, 5], 7)
        deps, counts, edges, pruned = run_scan([entry], READ, space)
        assert deps == {7}
        assert counts == {"entries_scanned": 1, "intersection_tests": 1}
        assert len(edges) == 1 and pruned == []

    def test_single_disjoint_entry(self):
        space = IndexSpace.from_indices([10, 11])
        entry = make_entry(READ_WRITE, [2, 5], 7)
        deps, counts, edges, pruned = run_scan([entry], READ, space)
        assert deps == set()
        assert counts == {"entries_scanned": 1, "intersection_tests": 1}
        assert edges == [] and len(pruned) == 1

    def test_empty_query_space(self):
        space = IndexSpace.from_indices([])
        entries = [make_entry(READ_WRITE, [1, 2], i) for i in range(3)]
        want = run_spec(entries, READ, space)
        assert want[0] == set()
        assert run_scan(entries, READ, space) == want

    def test_long_same_operator_reduction_history(self):
        """Pennant's ``dt`` pattern: one opening write, then 2047
        same-operator reductions.  Only the write interferes: one
        dependence and one intersection test per scan, every entry
        counted, on a meter shared by all the scans."""
        n, length, scans = 4096, 2048, 3
        privilege = reduce("sum")
        history = [make_entry(READ_WRITE, range(n), 0)]
        for i in range(1, length):
            lo = (i * 17) % (n - 64)
            history.append(make_entry(privilege, range(lo, lo + 64), i))
        space = IndexSpace.from_indices(range(128, 256))
        meter = CostMeter()
        for _ in range(scans):
            deps = set()
            scan_dependences(privilege, space, history, deps, meter)
            assert deps == {0}
        assert meter.snapshot() == {"entries_scanned": scans * length,
                                    "intersection_tests": scans}

    def test_interference_and_overlap_required(self):
        entries = [
            HistoryEntry(READ_WRITE, IndexSpace.from_indices([1, 2]),
                         rv([1, 2], [0, 0]), 0),
            HistoryEntry(READ, IndexSpace.from_indices([1]), None, 1),
            HistoryEntry(READ_WRITE, IndexSpace.from_indices([8]),
                         rv([8], [0]), 2),
        ]
        deps: set[int] = set()
        scan_dependences(READ, IndexSpace.from_indices([1]), entries, deps)
        # depends on the write (0); not on the read (read/read);
        # not on the disjoint write (2)
        assert deps == {0}

    def test_same_reduction_no_dep(self):
        entries = [HistoryEntry(reduce("sum"), IndexSpace.from_indices([1]),
                                rv([1], [3]), 0)]
        deps: set[int] = set()
        scan_dependences(reduce("sum"), IndexSpace.from_indices([1]),
                         entries, deps)
        assert deps == set()
        scan_dependences(reduce("max"), IndexSpace.from_indices([1]),
                         entries, deps)
        assert deps == {0}


class TestDepsAtStartMasking:
    """Regression: a pre-collected dependence costs no geometry
    question."""

    def test_kernel_sees_only_untested_entries(self):
        """Entries whose task is already a dependence at scan start are
        skipped by the walk, so asking about their overlap is pure waste
        (it once asked about all six interfering entries)."""
        entries = [make_entry(READ_WRITE, [i, i + 1], i) for i in range(6)]
        space = IndexSpace.from_indices([0, 1, 2, 3, 4, 5, 6])
        deps = {0, 1, 2, 3}
        asked = geometry_questions()
        meter = CostMeter()
        scan_dependences(READ, space, entries, deps, meter)
        assert geometry_questions() - asked == 2, \
            "pre-collected deps must be masked out"
        assert deps == {0, 1, 2, 3, 4, 5}
        # meter totals are those of the unmasked entry-at-a-time walk
        assert meter.snapshot() == {"entries_scanned": 6,
                                    "intersection_tests": 2}

    def test_collapsed_summaries_still_tested(self):
        """A summary whose max id is already a dependence still carries
        other collapsed ids, so it must still be asked about."""
        entries = [make_entry(READ_WRITE, [1, 2], 5, frozenset({3, 4, 5})),
                   make_entry(READ_WRITE, [2, 3], 7),
                   make_entry(READ_WRITE, [3, 4], 8)]
        space = IndexSpace.from_indices([1, 2, 3, 4])
        deps = {5}
        asked = geometry_questions()
        scan_dependences(READ, space, entries, deps, CostMeter())
        assert geometry_questions() - asked == 3
        assert deps == {3, 4, 5, 7, 8}
