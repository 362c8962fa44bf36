"""Tests for RegionValues, HistoryEntry, and the blending kernel.

``figure7_walk`` below is the executable spec of the value path: the
entry-at-a-time object walk of Figure 7 that ``paint_into`` replaced
(``paint_entry`` over ``write_onto``/``fold_in``, then a scatter into the
target buffer), kept here — and only here — with its own geometry, so the
kernel is held to it on values, dtype and meter totals.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import READ, READ_WRITE, CoherenceError, IndexSpace, reduce
from repro.visibility.eqset import EqEntry
from repro.visibility.history import (SCAN_VECTOR_MIN, ColumnarHistory,
                                      HistoryEntry, RegionValues, paint_into,
                                      scan_dependences)
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

    def test_restrict(self):
        r = rv([1, 2, 3], [10, 20, 30])
        out = r.restrict(IndexSpace.from_indices([2, 3, 9]))
        assert as_dict(out) == {2: 20, 3: 30}

    def test_restrict_full_is_shared(self):
        r = rv([1, 2], [10, 20])
        assert r.restrict(IndexSpace.from_indices([1, 2, 3])) is r

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
    def test_read_entries_carry_no_values(self):
        space = IndexSpace.from_indices([1])
        with pytest.raises(CoherenceError):
            HistoryEntry(READ, space, rv([1], [5]), 0)
        entry = HistoryEntry(READ, space, None, 0)
        assert not entry.is_visible

    def test_visible_entries_need_aligned_values(self):
        space = IndexSpace.from_indices([1, 2])
        with pytest.raises(CoherenceError):
            HistoryEntry(READ_WRITE, space, None, 0)
        with pytest.raises(CoherenceError):
            HistoryEntry(READ_WRITE, space, rv([1], [5]), 0)

    def test_restricted(self):
        entry = HistoryEntry(READ_WRITE, IndexSpace.from_indices([1, 2, 3]),
                             rv([1, 2, 3], [10, 20, 30]), 4)
        sub = entry.restricted(IndexSpace.from_indices([2, 5]))
        assert sub is not None and as_dict(sub.values) == {2: 20}
        assert entry.restricted(IndexSpace.from_indices([9])) is None
        assert entry.restricted(IndexSpace.from_indices([1, 2, 3, 4])) is entry


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
    the clip itself, the target, empty, or anything (partial, disjoint);
    sometimes long enough, and columnar, to take the bounds prefilter."""
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
    if draw(st.booleans()):
        entries = ColumnarHistory(entries * draw(st.sampled_from(
            [1, 1 + SCAN_VECTOR_MIN // max(1, len(entries))])))
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

    @pytest.mark.parametrize("seed", range(4))
    def test_long_columnar_history_is_prefiltered_to_the_same(self, seed):
        """Past ``SCAN_VECTOR_MIN`` entries the kind/bounds columns pick
        the candidates; values and charges stay those of the walk."""
        rng = np.random.default_rng(seed)
        target = IndexSpace.from_range(10, 40)
        clip = IndexSpace.from_range(14, 30)
        history = ColumnarHistory()
        for task_id in range(SCAN_VECTOR_MIN + 16):
            privilege = PRIVILEGES[rng.integers(len(PRIVILEGES))]
            start = int(rng.integers(0, 50))
            domain = IndexSpace.from_range(start,
                                           start + int(rng.integers(0, 9)))
            values = None if privilege.is_read else RegionValues(
                domain, rng.integers(-9, 9, domain.size))
            history.append(HistoryEntry(privilege, domain, values, task_id))
        got, want = (np.zeros(target.size, dtype=np.int64) for _ in "ab")
        metered, charged = CostMeter(), CostMeter()
        paint_into(got, target, clip, history, metered)
        figure7_walk(want, target, clip, history, charged)
        assert np.array_equal(got, want) and got.any()
        assert metered.snapshot() == charged.snapshot()

    @given(paint_cases())
    def test_aligned_entries_are_entries_on_the_clip(self, case):
        """An ``EqEntry`` (bare array aligned with the set) paints, and
        is charged, like a ``HistoryEntry`` whose domain is the clip."""
        dtype, target, clip, entries = case
        on_clip = [e for e in entries
                   if e.values is None or e.domain is clip]
        aligned = [EqEntry(e.privilege,
                           None if e.values is None else e.values.values,
                           e.task_id) for e in on_clip]
        got, want = (np.zeros(target.size, dtype=dtype) for _ in "ab")
        metered, charged = CostMeter(), CostMeter()
        paint_into(got, target, clip, aligned, metered)
        paint_into(want, target, clip, on_clip, charged)
        assert np.array_equal(got, want)
        assert metered.snapshot() == charged.snapshot()


class TestScanDependences:
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
