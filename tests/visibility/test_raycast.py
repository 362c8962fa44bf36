"""Structural tests for ray casting (section 7, Figure 11)."""

import numpy as np
import pytest

from repro import (READ, READ_WRITE, IndexSpace, RayCastAlgorithm,
                   RegionRequirement, RegionTree, Runtime, reduce)
from repro.visibility.eqset import BucketStore

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree


def get_algo(rt, field="up") -> RayCastAlgorithm:
    algo = rt.algorithm_for(field)
    assert isinstance(algo, RayCastAlgorithm)
    return algo


class TestDominatingWrites:
    def test_write_coalesces_ghost_refinements(self):
        """Section 7: the first task of each loop writes P[i].up, which
        discards the ghost-induced refinements under P[i] — equivalence
        sets coalesce back to the P pieces."""
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="raycast")
        rt.replay(fig1_stream(tree, P, G, iterations=1))
        algo = get_algo(rt)
        after_one = algo.num_equivalence_sets()

        # the t2 phase reduced through G.up, refining P pieces; the next
        # t1 phase writes P[i].up and coalesces them back
        def t1_body(pup, gdown):
            pup += 1
            gdown += 2
        for i in range(3):
            rt.launch(f"t1[{i}]",
                      [RegionRequirement(P[i], "up", READ_WRITE),
                       RegionRequirement(G[i], "down", reduce("sum"))],
                      t1_body)
        # after the write phase, up has exactly the 3 P-piece sets
        assert algo.num_equivalence_sets() == 3
        assert algo.num_equivalence_sets() <= after_one
        algo.check_invariants()

    def test_write_history_is_single_entry(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="raycast")

        def w(arr):
            arr[:] = 5
        rt.launch("w", [RegionRequirement(P[1], "up", READ_WRITE)], w)
        algo = get_algo(rt)
        covering = [s for s in algo.store.all_sets()
                    if s.space.overlaps(P[1].space)]
        assert len(covering) == 1
        assert len(covering[0].history) == 1
        assert covering[0].history[0].task_id == 0

    def test_steady_state_set_count_bounded(self):
        """Ray casting's set count stabilizes across iterations instead of
        growing (contrast with Warnock's monotone refinement)."""
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="raycast")
        algo = get_algo(rt)
        counts = []
        for _ in range(4):
            rt.replay(fig1_stream(tree, P, G, iterations=1))
            counts.append(algo.num_equivalence_sets())
        assert len(set(counts)) == 1  # steady state from iteration 1 on
        algo.check_invariants()

    def test_raycast_fewer_sets_than_warnock(self):
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, iterations=3)
        counts = {}
        for algo_name in ("warnock", "raycast"):
            rt = Runtime(tree, fig1_initial(tree), algorithm=algo_name)
            rt.replay(stream)
            counts[algo_name] = rt.algorithm_for(
                "up").num_equivalence_sets()
        assert counts["raycast"] <= counts["warnock"]


class TestBucketSelection:
    def test_uses_disjoint_complete_partition(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="raycast")
        algo = get_algo(rt)
        # P is the disjoint+complete partition of the tree
        assert algo.bucket_partition is P

    def test_partition_created_after_runtime_adopted_lazily(self):
        tree = RegionTree(16, {"x": np.int64})
        rt = Runtime(tree, {"x": np.zeros(16, dtype=np.int64)},
                     algorithm="raycast")
        algo = rt.algorithm_for("x")
        assert algo.bucket_partition is None
        P = tree.root.create_partition(
            "P", [IndexSpace.from_range(i * 4, (i + 1) * 4) for i in range(4)],
            disjoint=True, complete=True)

        def w(arr):
            arr[:] = 1
        rt.launch("w", [RegionRequirement(P[0], "x", READ_WRITE)], w)
        assert algo.bucket_partition is P

    def test_kd_fallback_when_no_disjoint_complete(self):
        """Section 7.1: with no disjoint-and-complete partition the runtime
        builds a K-d tree instead."""
        tree = RegionTree(16, {"x": np.int64})
        part = tree.root.create_partition(
            "O", [IndexSpace.from_range(0, 10), IndexSpace.from_range(6, 16)])
        rt = Runtime(tree, {"x": np.arange(16, dtype=np.int64)},
                     algorithm="raycast")
        algo = rt.algorithm_for("x")
        assert algo.bucket_partition is None
        store = algo.store
        assert isinstance(store, BucketStore) and store._kd is not None

        def w(arr):
            arr[:] = 3
        rt.launch("a", [RegionRequirement(part[0], "x", READ_WRITE)], w)
        rt.launch("b", [RegionRequirement(part[1], "x", READ_WRITE)], w)
        out = rt.read_field("x")
        assert list(out) == [3] * 16
        algo.check_invariants()

    def test_rebucket_to_new_partition(self):
        tree = RegionTree(16, {"x": np.int64})
        P1 = tree.root.create_partition(
            "P1", [IndexSpace.from_range(0, 8), IndexSpace.from_range(8, 16)],
            disjoint=True, complete=True)
        rt = Runtime(tree, {"x": np.arange(16, dtype=np.int64)},
                     algorithm="raycast")
        algo = rt.algorithm_for("x")
        assert algo.bucket_partition is P1

        def w(arr):
            arr[:] = 1
        rt.launch("w", [RegionRequirement(P1[0], "x", READ_WRITE)], w)

        P2 = tree.root.create_partition(
            "P2", [IndexSpace.from_range(i * 4, (i + 1) * 4)
                   for i in range(4)], disjoint=True, complete=True)
        algo.rebucket(P2)
        assert algo.bucket_partition is P2
        algo.check_invariants()

        rt.launch("w2", [RegionRequirement(P2[3], "x", READ_WRITE)], w)
        expected = [1] * 8 + list(range(8, 12)) + [1] * 4
        assert list(rt.read_field("x")) == expected

    def test_rebucket_to_kd(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="raycast")
        rt.replay(fig1_stream(tree, P, G, iterations=1))
        algo = get_algo(rt)
        before = rt.read_field("up")
        algo.rebucket(None)
        algo.check_invariants()
        assert np.array_equal(rt.read_field("up"), before)


class TestCommitKeepsItsOwnCopy:
    """``_record`` stores one copy of the committed values — ``copy()``
    where a set covers the whole region, a gather where it covers part —
    and never a view of the task's buffer."""

    @pytest.mark.parametrize("privilege, partition, sets", [
        (READ_WRITE, "P", 1),       # a write settles one set over P[1]
        (reduce("sum"), "P", 1),    # one set covers the whole region
        (reduce("sum"), "G", 3),    # G[1] = {0, 7, 8}: part of three sets
    ], ids=["write-whole", "reduce-whole", "reduce-partial"])
    def test_store_never_aliases_the_task_buffer(self, privilege, partition,
                                                 sets):
        tree, P, G = make_fig1_tree()
        algo = RayCastAlgorithm(tree, "up", np.arange(12, dtype=np.int64))
        for i in range(3):  # one set per piece
            piece = algo.materialize(READ_WRITE, P[i]).values
            algo.commit(READ_WRITE, P[i], piece, task_id=i)
        region = {"P": P, "G": G}[partition][1]
        assert len(algo.store.overlapping(region.space)) == sets
        buffer = algo.materialize(privilege, region).values
        buffer += 100
        algo.commit(privilege, region, buffer, task_id=7)
        want = np.arange(12, dtype=np.int64)
        want[region.space.indices] += 100
        assert np.array_equal(algo.read_root(), want)
        buffer[:] = -1  # the task reuses its buffer after the commit
        assert np.array_equal(algo.read_root(), want)
        algo.check_invariants()
