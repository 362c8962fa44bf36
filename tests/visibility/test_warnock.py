"""Structural tests for Warnock's algorithm (section 6, Figures 9/10)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (READ, READ_WRITE, CoherenceError, IndexSpace,
                   RegionRequirement, Runtime, WarnockAlgorithm, reduce)
from repro.visibility.eqset import EquivalenceSet, RefinementStore
from repro.visibility.history import HistoryEntry, RegionValues
from repro.visibility.meter import CostMeter

from tests.conftest import (fig1_initial, fig1_stream, make_fig1_tree,
                            nonempty_index_spaces, record_over, subsets_of)
from tests.visibility.test_loose_eqsets import checkpoint_round_trip


class TestEquivalenceSetObject:
    def test_split_partitions_domain(self):
        s = EquivalenceSet(IndexSpace.from_range(0, 10))
        record_over(s, READ_WRITE, np.arange(10), 0)
        inside, outside = s.split(IndexSpace.from_range(3, 7))
        assert list(inside.space) == [3, 4, 5, 6]
        assert list(outside.space) == [0, 1, 2, 7, 8, 9]
        assert list(inside.history[0].values.values) == [3, 4, 5, 6]
        assert list(outside.history[0].values.values) == [0, 1, 2, 7, 8, 9]

    def test_split_contained_returns_none_remainder(self):
        s = EquivalenceSet(IndexSpace.from_range(0, 4))
        inside, outside = s.split(IndexSpace.from_range(0, 10))
        assert inside is s and outside is None

    def test_split_requires_overlap(self):
        s = EquivalenceSet(IndexSpace.from_range(0, 4))
        with pytest.raises(CoherenceError):
            s.split(IndexSpace.from_range(10, 12))

    def test_write_clears_history(self):
        s = EquivalenceSet(IndexSpace.from_range(0, 3))
        record_over(s, READ_WRITE, np.zeros(3), 0)
        record_over(s, reduce("sum"), np.ones(3), 1)
        record_over(s, READ, None, 2)
        assert len(s.history) == 3
        record_over(s, READ_WRITE, np.full(3, 7.0), 3)
        assert len(s.history) == 1
        assert s.history[0].task_id == 3

    def test_misaligned_values_rejected(self):
        s = EquivalenceSet(IndexSpace.from_range(0, 3))
        with pytest.raises(CoherenceError):
            record_over(s, READ_WRITE, np.zeros(2), 0)

    def test_empty_space_rejected(self):
        with pytest.raises(CoherenceError):
            EquivalenceSet(IndexSpace.empty())

    def test_paint_folds_reductions(self):
        s = EquivalenceSet(IndexSpace.from_range(0, 3))
        record_over(s, READ_WRITE, np.array([1.0, 2.0, 3.0]), 0)
        record_over(s, reduce("sum"), np.array([10.0, 10.0, 10.0]), 1)
        assert list(s.paint(np.float64)) == [11.0, 12.0, 13.0]


class TestRefinementStore:
    def make(self, n=16):
        root = EquivalenceSet(IndexSpace.from_range(0, n))
        record_over(root, READ_WRITE, np.arange(n, dtype=np.int64), -1)
        return RefinementStore(root)

    def test_locate_whole(self):
        store = self.make()
        sets = store.locate(IndexSpace.from_range(0, 16))
        assert len(sets) == 1
        store.check_invariants(IndexSpace.from_range(0, 16))

    def test_locate_refines(self):
        store = self.make()
        sets = store.locate(IndexSpace.from_range(4, 8))
        assert len(sets) == 1 and list(sets[0].space) == [4, 5, 6, 7]
        assert len(store.all_sets()) == 2
        store.check_invariants(IndexSpace.from_range(0, 16))

    def test_narrowed_entry_breaks_the_invariant(self):
        """Every entry covers its set: one narrowed below a live set (a
        mutant of the section 6 invariant) must not pass the check."""
        store = self.make()
        [s] = store.locate(IndexSpace.from_range(4, 8))
        sub = IndexSpace.from_range(4, 6)
        s.history[0] = HistoryEntry(READ_WRITE, sub, RegionValues(
            sub, s.history[0].values.values[:2]), -1)
        with pytest.raises(CoherenceError, match="narrower"):
            store.check_invariants(IndexSpace.from_range(0, 16))

    def test_columns_are_checked_against_the_sets(self):
        """The owner column is a cache of the sets: one flipped owner is a
        divergence ``check_invariants`` names."""
        store = self.make()
        store.locate(IndexSpace.from_range(4, 8))
        store.check_invariants(IndexSpace.from_range(0, 16))
        store._owner[5] = 1 - store._owner[5]
        with pytest.raises(CoherenceError, match="columns diverged"):
            store.check_invariants(IndexSpace.from_range(0, 16))

    def test_monotone_refinement_only(self):
        store = self.make()
        store.locate(IndexSpace.from_range(0, 8))
        store.locate(IndexSpace.from_range(4, 12))
        store.locate(IndexSpace.from_range(0, 8))  # repeat: no new splits
        assert len(store.all_sets()) == 4  # [0,4) [4,8) [8,12) [12,16)
        store.check_invariants(IndexSpace.from_range(0, 16))

    def test_memoization_returns_same_sets(self):
        store = self.make()
        first = store.locate(IndexSpace.from_range(4, 8), region_uid=7)
        second = store.locate(IndexSpace.from_range(4, 8), region_uid=7)
        assert [s.uid for s in first] == [s.uid for s in second]

    def test_memo_survives_later_refinement(self):
        store = self.make()
        store.locate(IndexSpace.from_range(0, 8), region_uid=1)
        # an overlapping query splits the memoized leaf
        store.locate(IndexSpace.from_range(6, 10), region_uid=2)
        sets = store.locate(IndexSpace.from_range(0, 8), region_uid=1)
        covered = IndexSpace.union_all([s.space for s in sets])
        assert covered == IndexSpace.from_range(0, 8)

    def test_walk_charges_by_hand(self):
        """Section 6.1's walk is a charge (counted by hand over [0,16)): a
        region's first lookup pays a balanced BVH over the L live sets,
        ⌈log₂ L⌉ + 1 nodes and a test per set met; a stale memo of m sets
        pays 2k − m nodes for the k sets now under it; a memo hit pays a
        node and a test per set and answers the same list."""
        root = EquivalenceSet(IndexSpace.from_range(0, 16))
        record_over(root, READ_WRITE, np.arange(16, dtype=np.int64), -1)
        store = RefinementStore(root, CostMeter())

        def walk(lo, hi, uid):
            before = store.meter.snapshot()
            sets = store.locate(IndexSpace.from_range(lo, hi), uid)
            store.check_invariants(IndexSpace.from_range(0, 16))
            after = store.meter.snapshot()
            return sets, tuple(after.get(e, 0) - before.get(e, 0) for e in
                               ("bvh_nodes_visited", "intersection_tests"))

        assert walk(2, 10, 1)[1] == (1, 1)              # L = 1
        store = pickle.loads(pickle.dumps(store))
        assert store._owner is None                     # rebuilt when asked
        assert walk(2, 4, 4)[1] == (2, 1)               # L = 2
        stale, cost = walk(2, 10, 1)                    # k = 2, m = 1
        assert cost == (3, 2)
        # by first element, not by row: [2,4) took the fresh row
        assert [tuple(s.space) for s in stale] \
            == [(2, 3), (4, 5, 6, 7, 8, 9)]
        again, cost = walk(2, 10, 1)
        assert again is stale and cost == (2, 2)
        # a stale memo of m = 3 sets, two of them split by another region
        assert walk(0, 16, 9)[1] == (9, 3)              # L = 3
        assert walk(6, 12, 7)[1] == (6, 2)
        whole, cost = walk(0, 16, 9)                    # k = 5, m = 3
        assert cost == (7, 5)
        assert [s.space.indices[0] for s in whole] == [0, 2, 4, 6, 10]
        # and the invariant is what notices a memo that is not the answer
        store._memo[1].sets = stale[:-1]
        with pytest.raises(CoherenceError, match="region memo diverged"):
            store.check_invariants(IndexSpace.from_range(0, 16))

    def test_in_order_first_touch_is_charged_a_balanced_bvh(self):
        """Pieces first touched in order cost ⌈log₂ L⌉ + 1 nodes each, not
        the depth of the refinement chain they leave behind."""
        from repro import RegionTree
        n = 1200
        tree = RegionTree(n, {"x": np.int64})
        pieces = tree.root.create_partition(
            "P", [IndexSpace.from_range(i, i + 1) for i in range(n)],
            disjoint=True, complete=True)
        algo = WarnockAlgorithm(tree, "x", np.zeros(n, dtype=np.int64))
        for piece in pieces:
            algo.materialize(READ, piece)
        assert algo.num_equivalence_sets() == n
        assert algo.meter.counters["bvh_nodes_visited"] \
            <= n * ((n - 1).bit_length() + 1)


class TestOwnerColumn:
    """The walk finds candidates, the owner column tests them."""

    @settings(max_examples=60)
    @given(st.data())
    def test_locate_equals_brute_force(self, data):
        """Over sparse roots (positions are not indices), aligned
        write/reduce/read histories and random query sequences with a
        checkpoint thrown in: the columns ≡ the leaves after every step,
        the answer is the live sets overlapping the query, its union is
        exactly the query, and every value stays with its element."""
        root_space = data.draw(nonempty_index_spaces(200, max_size=40))
        n = root_space.size
        root = EquivalenceSet(root_space)
        record_over(root, READ_WRITE, root_space.indices * 10.0, -1)
        record_over(root, reduce("sum"), np.ones(n), 0)
        record_over(root, READ, None, 1)
        store = RefinementStore(root, CostMeter())
        regions = data.draw(st.lists(subsets_of(root_space), min_size=1,
                                     max_size=4))
        for _ in range(data.draw(st.integers(1, 8))):
            uid = data.draw(st.integers(0, len(regions) - 1))
            named = data.draw(st.booleans())
            if data.draw(st.integers(0, 3)) == 0:
                store = pickle.loads(pickle.dumps(store))
                assert store._owner is None and not store._positions
            space = regions[uid]
            sets = store.locate(space, uid if named else None)
            store.check_invariants(root_space)
            brute = [s for s in store.all_sets() if s.space.overlaps(space)]
            assert sorted(tuple(s.space) for s in sets) \
                == sorted(tuple(s.space) for s in brute)
            assert IndexSpace.union_all([s.space for s in sets]) == space
            for s in store.all_sets():
                assert [e.task_id for e in s.history] == [-1, 0, 1]
                assert list(s.paint(np.float64)) \
                    == [i * 10.0 + 1 for i in s.space]

    def test_checkpoint_carries_no_column(self, monkeypatch):
        """The Warnock twin of the ray-casting case: the sets' positions
        and the owner column are rebuilt after a load — a checkpoint is no
        larger than the parent commit's 122 355 bytes, and continues
        identically."""
        checkpoint_round_trip("warnock", 122_355, monkeypatch)


class TestWarnockOnFig1:
    def test_fig10_eqset_refinement(self):
        """Figure 10: after one loop iteration, the equivalence sets of the
        up field are the P pieces refined by their ghost overlaps, and the
        second iteration adds no further refinements."""
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="warnock")
        rt.replay(fig1_stream(tree, P, G, iterations=1))
        algo = rt.algorithm_for("up")
        assert isinstance(algo, WarnockAlgorithm)
        count_after_one = algo.num_equivalence_sets()
        algo.check_invariants()

        # every equivalence set is contained in exactly one P piece
        for s in algo.store.all_sets():
            assert sum(s.space.issubset(p.space) for p in P) == 1

        rt.replay(fig1_stream(tree, P, G, iterations=1))
        assert algo.num_equivalence_sets() == count_after_one
        algo.check_invariants()

    def test_eqsets_never_coalesce(self):
        """Warnock only refines — set count is monotone nondecreasing."""
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="warnock")
        counts = []
        algo = rt.algorithm_for("up")
        for _ in range(3):
            rt.replay(fig1_stream(tree, P, G, iterations=1))
            counts.append(algo.num_equivalence_sets())
        assert counts == sorted(counts)

    def test_invariants_under_overlapping_partitions(self):
        tree = RegionTreeFactory.overlapping()
        rt = Runtime(tree, {"x": np.zeros(20, dtype=np.int64)},
                     algorithm="warnock")
        part = tree.root.partition("S")

        def w(arr):
            arr[:] = 1
        rt.launch("a", [RegionRequirement(part[0], "x", READ_WRITE)], w)
        rt.launch("b", [RegionRequirement(part[1], "x", READ_WRITE)], w)
        algo = rt.algorithm_for("x")
        algo.check_invariants()


class RegionTreeFactory:
    @staticmethod
    def overlapping():
        from repro import RegionTree
        tree = RegionTree(20, {"x": np.int64})
        tree.root.create_partition(
            "S", [IndexSpace.from_indices(list(range(0, 20, 2))),
                  IndexSpace.from_indices(list(range(0, 20, 3)))])
        return tree
