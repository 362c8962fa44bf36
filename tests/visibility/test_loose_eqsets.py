"""Unit tests for the ray-casting loose equivalence sets and bucket store."""

import numpy as np
import pytest

from repro import (READ, READ_WRITE, CoherenceError, IndexSpace, RegionTree,
                   reduce)
from repro.geometry.fastpath import batch_overlaps
from repro.visibility.base import INITIAL_TASK_ID
from repro.visibility.eqset import BucketStore, LooseEquivalenceSet
from repro.visibility.history import HistoryEntry, RegionValues
from repro.visibility.meter import CostMeter


def entry(privilege, indices, values, task_id):
    space = IndexSpace.from_indices(indices)
    rv = None if values is None else RegionValues(
        space, np.asarray(values, dtype=np.float64))
    return HistoryEntry(privilege, space, rv, task_id)


class TestLooseEquivalenceSet:
    def make(self, lo=0, hi=8):
        s = LooseEquivalenceSet(IndexSpace.from_range(lo, hi))
        s.record(entry(READ_WRITE, range(lo, hi), np.arange(lo, hi), -1))
        return s

    def test_empty_space_rejected(self):
        with pytest.raises(CoherenceError):
            LooseEquivalenceSet(IndexSpace.empty())

    def test_record_guards(self):
        s = self.make()
        with pytest.raises(CoherenceError):   # escapes the set
            s.record(entry(READ, [9], None, 1))
        with pytest.raises(CoherenceError):   # partial write
            s.record(entry(READ_WRITE, [1, 2], [0, 0], 1))

    def test_write_occludes_history(self):
        s = self.make()
        s.record(entry(reduce("sum"), [1, 2], [5, 5], 1))
        s.record(entry(READ, [0, 1], None, 2))
        assert len(s.history) == 3
        s.record(entry(READ_WRITE, range(8), np.zeros(8), 3))
        assert len(s.history) == 1
        assert s.history[0].task_id == 3

    def test_paint_blends_subdomain_entries(self):
        s = self.make()
        s.record(entry(reduce("sum"), [2, 3], [10, 10], 1))
        painted = s.paint(IndexSpace.from_range(0, 8), np.float64)
        assert list(painted.values) == [0, 1, 12, 13, 4, 5, 6, 7]

    def test_paint_restricted_window(self):
        s = self.make()
        painted = s.paint(IndexSpace.from_indices([3, 5, 99]), np.float64)
        assert list(painted.domain) == [3, 5]
        assert list(painted.values) == [3, 5]

    def test_minus_restricts_entries(self):
        s = self.make()
        s.record(entry(reduce("sum"), [1, 6], [10, 20], 1))
        rest = s.minus(IndexSpace.from_range(0, 4))
        assert rest is not None
        assert list(rest.space) == [4, 5, 6, 7]
        # the reduction entry survives only at index 6
        red = [e for e in rest.history if e.privilege.is_reduce]
        assert len(red) == 1 and list(red[0].domain) == [6]

    def test_minus_contained_is_none(self):
        s = self.make()
        assert s.minus(IndexSpace.from_range(0, 100)) is None

    def test_minus_drops_disjoint_entries(self):
        s = self.make()
        s.record(entry(READ, [0], None, 1))
        rest = s.minus(IndexSpace.from_range(0, 1))
        assert rest is not None
        assert all(not e.privilege.is_read for e in rest.history)


def make_store(pieces=4, size=16):
    tree = RegionTree(size, {"x": np.float64})
    P = tree.root.create_partition(
        "P", [IndexSpace.from_range(i * size // pieces,
                                    (i + 1) * size // pieces)
              for i in range(pieces)], disjoint=True, complete=True)
    root = LooseEquivalenceSet(tree.root.space)
    root.record(HistoryEntry(
        READ_WRITE, tree.root.space,
        RegionValues(tree.root.space, np.zeros(size)), INITIAL_TASK_ID))
    return tree, P, BucketStore(root, P)


class TestBucketStoreLocalization:
    def test_first_touch_carves_only_queried_buckets(self):
        tree, P, store = make_store()
        out = store.overlapping(P[1].space, P[1].uid)
        assert len(out) == 1
        assert out[0].space == P[1].space
        # the untouched remainder stays one multi-bucket set
        sizes = sorted(s.space.size for s in store.all_sets())
        assert sizes == [4, 12]

    def test_progressive_localization(self):
        tree, P, store = make_store()
        for i in range(4):
            store.overlapping(P[i].space, P[i].uid)
        assert store.num_sets() == 4
        store.check_invariants(tree.root.space)

    def test_root_query_localizes_everything(self):
        tree, P, store = make_store()
        out = store.overlapping(tree.root.space, tree.root.uid)
        assert len(out) == 4
        store.check_invariants(tree.root.space)

    def test_localization_preserves_values(self):
        tree, P, store = make_store()
        sets = store.overlapping(P[2].space, P[2].uid)
        painted = sets[0].paint(P[2].space, np.float64)
        assert list(painted.values) == [0.0] * 4

    def test_memo_stable_when_sets_unchanged(self):
        tree, P, store = make_store()
        a = store.overlapping(P[0].space, P[0].uid)
        b = store.overlapping(P[0].space, P[0].uid)
        assert [s.uid for s in a] == [s.uid for s in b]

    def test_memo_invalidated_by_dominating_write(self):
        tree, P, store = make_store()
        first = store.overlapping(P[0].space, P[0].uid)
        fresh = store.dominate_write(P[0].space, first, P[0].uid)
        again = store.overlapping(P[0].space, P[0].uid)
        assert again == [fresh]
        store.check_invariants(tree.root.space)

    def test_dominating_write_trims_straddlers(self):
        tree, P, store = make_store()
        # write a region straddling two buckets
        straddle = IndexSpace.from_range(2, 6)
        sets = store.overlapping(straddle, None)
        fresh = store.dominate_write(straddle, sets, None)
        assert fresh.space == straddle
        store.check_invariants(tree.root.space)

    def test_single_bucket_sets_not_relocalized(self):
        """Sets whose bbox spans several buckets but whose contents live in
        one bucket must not churn (the 2-D tile case)."""
        tree = RegionTree(16, {"x": np.float64})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_indices([0, 1, 8, 9]),
                  IndexSpace.from_indices([2, 3, 10, 11]),
                  IndexSpace.from_indices([4, 5, 12, 13]),
                  IndexSpace.from_indices([6, 7, 14, 15])],
            disjoint=True, complete=True)
        root = LooseEquivalenceSet(tree.root.space)
        root.record(HistoryEntry(
            READ_WRITE, tree.root.space,
            RegionValues(tree.root.space, np.zeros(16)), INITIAL_TASK_ID))
        store = BucketStore(root, P)
        first = store.overlapping(P[0].space, P[0].uid)
        uids = {s.uid for s in store.all_sets()}
        store.overlapping(P[0].space, None)  # bypass memo: no churn allowed
        assert {s.uid for s in store.all_sets()} == uids


class TestBucketStoreEdges:
    def test_insert_outside_buckets_raises(self):
        """The partition is complete, so a set fitting no bucket can only
        mean a stale bucket list; the store must fail loudly."""
        tree, P, store = make_store()
        stray = LooseEquivalenceSet(IndexSpace.from_range(100, 104))
        with pytest.raises(CoherenceError, match="fits no bucket"):
            store._index_insert(stray)

    def test_stale_bucket_list_detected(self):
        """Simulate rebucketing mid-flight: the bucket regions no longer
        cover a live set's space."""
        tree, P, store = make_store()
        store._set_bucket_regions([P[0]])  # stale: only the first bucket
        with pytest.raises(CoherenceError, match="fits no bucket"):
            store._index_insert(LooseEquivalenceSet(P[2].space))

    def test_localize_remainder_keeps_restricted_history(self):
        """Carving one bucket out of a multi-bucket set must re-index the
        remainder's history to the remainder's domain."""
        tree, P, store = make_store()  # 4 buckets of 4 elements over 16
        root_set = store.all_sets()[0]
        dom = IndexSpace.from_indices([1, 14])  # rides buckets 0 and 3
        root_set.record(HistoryEntry(
            reduce("sum"), dom,
            RegionValues(dom, np.array([10.0, 20.0])), 5))
        out = store.overlapping(P[0].space, P[0].uid)  # carve bucket 0
        store.check_invariants(tree.root.space)
        # the carved piece kept only the index-1 part of the reduction
        carved_red = [e for e in out[0].history if e.privilege.is_reduce]
        assert len(carved_red) == 1
        assert list(carved_red[0].domain) == [1]
        # the remainder spans buckets 1..3 and kept the index-14 part
        rem = next(s for s in store.all_sets() if s.space.size == 12)
        assert list(rem.space) == list(range(4, 16))
        rem_red = [e for e in rem.history if e.privilege.is_reduce]
        assert len(rem_red) == 1
        assert list(rem_red[0].domain) == [14]
        painted = rem.paint(IndexSpace.from_range(12, 16), np.float64)
        assert list(painted.values) == [0.0, 0.0, 20.0, 0.0]

    def test_localize_carves_only_touched_buckets(self):
        """A query straddling two of four buckets carves exactly those two
        and leaves one remainder set for the rest."""
        tree, P, store = make_store()
        straddle = IndexSpace.from_range(2, 6)  # buckets 0 and 1
        out = store.overlapping(straddle, None)
        assert sorted(s.space.size for s in out) == [4, 4]
        sizes = sorted(s.space.size for s in store.all_sets())
        assert sizes == [4, 4, 8]
        store.check_invariants(tree.root.space)


class RederivingStore(BucketStore):
    """The spec of the span memo: the derivation it replaced, run afresh
    (bounds filter, then the exact test) on every localization and
    removal."""

    def _span_of(self, eqset):
        regions = self._buckets_overlapping(eqset.space)
        hits = batch_overlaps(eqset.space, [r.space for r in regions])
        return [r for r, hit in zip(regions, hits) if hit]


class TestBucketSpanMemo:
    """What placing a set found is read back, not re-derived: same sets,
    same meter (fingerprints hash ``bvh_nodes_visited``)."""

    def tiled(self, cls):
        """4x4 grid, 2x2 tiles in row-major order: every tile's bounding
        interval meets two buckets' bounds, its elements one bucket."""
        tree = RegionTree(16, {"x": np.float64})
        tiles = [IndexSpace.from_indices([r * 4 + c, r * 4 + c + 1,
                                          r * 4 + c + 4, r * 4 + c + 5])
                 for r in (0, 2) for c in (0, 2)]
        P = tree.root.create_partition("P", tiles, disjoint=True,
                                       complete=True)
        halves = tree.root.create_partition(
            "H", [IndexSpace.from_range(0, 8), IndexSpace.from_range(8, 16)],
            disjoint=True, complete=True)
        root = LooseEquivalenceSet(tree.root.space)
        root.record(HistoryEntry(
            READ_WRITE, tree.root.space,
            RegionValues(tree.root.space, np.zeros(16)), INITIAL_TASK_ID))
        return tree, P, halves, cls(root, P, CostMeter())

    def drive(self, cls):
        tree, P, halves, store = self.tiled(cls)
        trace = []

        def step(label):
            store.check_invariants(tree.root.space)
            trace.append((label, store.meter.snapshot(), sorted(
                (tuple(s.space), len(s.history))
                for s in store.all_sets())))

        store.overlapping(P[1].space, P[1].uid)       # carve one tile
        step("first touch")
        store.overlapping(P[1].space, None)           # single-bucket: no churn
        step("repeat")
        straddle = IndexSpace.from_range(5, 11)       # rides all four tiles
        sets = store.overlapping(straddle, None)
        step("straddling query")
        store.dominate_write(straddle, sets, None)    # trims four sets
        step("dominating write")
        store.overlapping(tree.root.space, tree.root.uid)
        step("root query")
        store.rebucket(halves)
        step("rebucket")
        store.overlapping(halves[0].space, halves[0].uid)
        step("localize to the new buckets")
        store.rebucket(None)                          # the K-d fallback
        assert store._span == {}
        store.overlapping(P[2].space, None)
        step("k-d fallback")
        store.rebucket(P)
        store.overlapping(P[3].space, P[3].uid)
        step("back to buckets")
        return trace

    def test_memo_equals_rederivation(self):
        assert self.drive(BucketStore) == self.drive(RederivingStore)

    def test_memo_follows_the_live_sets(self):
        tree, P, halves, store = self.tiled(BucketStore)
        assert set(store._span) == {s.uid for s in store.all_sets()}
        visited, placed = store._span[store.all_sets()[0].uid]
        assert visited == 4 and placed == list(P.subregions)
        tile = store.overlapping(P[0].space, P[0].uid)[0]
        # bounds meet tiles 0 and 1, elements only tile 0
        assert store._span[tile.uid] == (2, [P[0]])
        store.dominate_write(P[0].space, [tile], P[0].uid)
        assert tile.uid not in store._span
        assert set(store._span) == {s.uid for s in store.all_sets()}
