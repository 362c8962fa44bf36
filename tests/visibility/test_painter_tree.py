"""Structural tests for the optimized painter (section 5.1, Figure 8)."""

import numpy as np
import pytest

from repro import (READ, READ_WRITE, IndexSpace, RegionRequirement,
                   RegionTree, Runtime, TreePainterAlgorithm, reduce)
from repro.errors import CoherenceError
from repro.visibility.history import HistoryEntry
from repro.visibility.painter_tree import CompositeView

from tests.conftest import fig1_initial, make_fig1_tree


def launch_fig5(rt, P, G, count=9):
    """Launch the first `count` tasks of Figure 5."""
    def t1_body(pup, gdown):
        pup += 1
        gdown += 2

    def t2_body(pdown, gup):
        pdown *= 2
        gup += 3

    launches = []
    for i in range(3):
        launches.append(("t1", i, t1_body, "up", "down"))
    for i in range(3):
        launches.append(("t2", i, t2_body, "down", "up"))
    for i in range(3):
        launches.append(("t1", i, t1_body, "up", "down"))
    for name, i, body, pf, gf in launches[:count]:
        rt.launch(f"{name}[{i}]",
                  [RegionRequirement(P[i], pf, READ_WRITE),
                   RegionRequirement(G[i], gf, reduce("sum"))], body)
    return rt


class TestFig8Narrative:
    """Figure 8: the region tree state evolves exactly as the paper shows
    for the up field."""

    def _algo(self, rt) -> TreePainterAlgorithm:
        algo = rt.algorithm_for("up")
        assert isinstance(algo, TreePainterAlgorithm)
        return algo

    def test_after_t0_2_no_views(self):
        """Figure 8(a): tasks recorded at P.up[i]; P is disjoint so no
        composite view is created."""
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="tree_painter")
        launch_fig5(rt, P, G, count=3)
        algo = self._algo(rt)
        for i in range(3):
            entries = algo.node_entries(P[i])
            assert len(entries) == 1
            assert isinstance(entries[0], HistoryEntry)
            assert entries[0].task_id == i
        # root holds only the initial write — no composite views yet
        root_entries = algo.node_entries(tree.root)
        assert not any(isinstance(e, CompositeView) for e in root_entries)

    def test_t3_creates_composite_view_of_P(self):
        """Figure 8(b): t3 (reduce through G.up[1]) interferes with the
        read-write history under P.up, so a composite view V0 of the P
        subtree is appended at the root and P's histories are cleared."""
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="tree_painter")
        launch_fig5(rt, P, G, count=4)
        algo = self._algo(rt)
        root_views = [e for e in algo.node_entries(tree.root)
                      if isinstance(e, CompositeView)]
        assert len(root_views) == 1
        v0 = root_views[0]
        captured_tasks = {item.task_id for item in v0.items
                          if isinstance(item, HistoryEntry)}
        assert captured_tasks == {0, 1, 2}
        # P subtree is now closed for the up field
        for i in range(3):
            assert algo.node_entries(P[i]) == []
        # t3 itself recorded at G.up[0] (paper indexes from 1)
        g_entries = algo.node_entries(G[0])
        assert [e.task_id for e in g_entries] == [3]

    def test_t4_t5_no_more_views(self):
        """t4/t5 use the same reduction privilege as t3: aliased G
        subregions do not interfere, so no further views are created."""
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="tree_painter")
        launch_fig5(rt, P, G, count=6)
        algo = self._algo(rt)
        root_views = [e for e in algo.node_entries(tree.root)
                      if isinstance(e, CompositeView)]
        assert len(root_views) == 1

    def test_t6_creates_second_view_of_G(self):
        """Figure 8(c): t6 (rw on P.up[1]) interferes with the reductions
        in the G subtree, creating composite view V1 of G.up."""
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="tree_painter")
        launch_fig5(rt, P, G, count=7)
        algo = self._algo(rt)
        root_views = [e for e in algo.node_entries(tree.root)
                      if isinstance(e, CompositeView)]
        assert len(root_views) == 2
        v1 = root_views[1]
        captured_tasks = {item.task_id for item in v1.items
                          if isinstance(item, HistoryEntry)}
        assert captured_tasks == {3, 4, 5}

    def test_counts_stay_consistent(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="tree_painter")
        launch_fig5(rt, P, G, count=9)
        algo = self._algo(rt)

        def raw_items(region):
            total = len(algo.node_entries(region))
            for part in region.partitions.values():
                for sub in part.subregions:
                    total += raw_items(sub)
            return total
        assert algo.total_items() == raw_items(tree.root)


class TestOcclusion:
    def test_write_clears_own_subhistory(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="tree_painter")
        algo = rt.algorithm_for("up")

        def w(arr):
            arr[:] = 1
        for _ in range(5):
            rt.launch("w", [RegionRequirement(P[0], "up", READ_WRITE)], w)
        # repeated writes to the same region occlude each other
        assert len(algo.node_entries(P[0])) == 1

    def test_view_occludes_fully_overwritten_items(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="tree_painter")
        algo = rt.algorithm_for("up")

        def w(arr):
            arr[:] = 2
        # write the whole root through P (hoists nothing yet)...
        for i in range(3):
            rt.launch("w", [RegionRequirement(P[i], "up", READ_WRITE)], w)
        # a root-level write occludes the initial entry and views
        rt.launch("big", [RegionRequirement(tree.root, "up", READ_WRITE)], w)
        entries = algo.node_entries(tree.root)
        assert len(entries) == 1
        assert isinstance(entries[0], HistoryEntry)
        assert entries[0].task_id == 3


class TestHoistCountRule:
    """The hoist charges one intersection test per off-path open child
    whose summary interferes, up to and including the first that overlaps
    — on a bucket wider than the cost-log table's 4-piece ones."""

    @pytest.mark.parametrize("layout", ["interleaved", "blocked"])
    def test_counting_stops_at_the_overlapping_child(self, layout):
        # interleaved: every child's bounds meet the access, so only the
        # exact test tells them apart; blocked: bounds reject all but k
        k = 3
        if layout == "interleaved":
            pieces = [IndexSpace.from_indices(range(i, 64, 8))
                      for i in range(8)]
            access = IndexSpace.from_indices([k, k + 56])
        else:
            pieces = [IndexSpace.from_range(8 * i, 8 * i + 8)
                      for i in range(8)]
            access = IndexSpace.from_indices([8 * k + 1, 8 * k + 6])
        tree = RegionTree(64, {"x": np.int64})
        P = tree.root.create_partition("P", pieces, disjoint=True,
                                       complete=True)
        Q = tree.root.create_partition("Q", [access])
        algo = TreePainterAlgorithm(tree, "x", np.zeros(64, dtype=np.int64))

        def run(privilege, region, task_id):
            out = algo.materialize(privilege, region)
            algo.commit(privilege, region,
                        None if privilege.is_read else out.values, task_id)

        plus = reduce("sum")
        opened = [(5, plus), (2, READ_WRITE), (7, READ), (0, plus),
                  (k, READ), (6, READ_WRITE), (1, plus), (4, READ)]
        for task_id, (i, privilege) in enumerate(opened):
            run(privilege, P[i], task_id)
        # opens the on-path child with a summary that interferes with the
        # access; P[k] is a read too, so nothing is hoisted yet
        run(READ, Q[0], len(opened))
        root_items = len(algo.node_entries(tree.root))
        assert not any(isinstance(e, CompositeView)
                       for e in algo.node_entries(tree.root))

        expected = 0
        for i, privilege in opened:
            if not privilege.is_reduce:  # reduce(sum) is compatible
                expected += 1
            if i == k:
                break
        assert expected == 3
        # plus the occlusion test the new view makes per root item
        expected += root_items
        before = algo.meter.counters["intersection_tests"]
        algo.materialize(plus, Q[0], scan=False)
        assert algo.meter.counters["intersection_tests"] - before == expected
        assert isinstance(algo.node_entries(tree.root)[-1], CompositeView)
        for i in range(8):
            assert algo.node_entries(P[i]) == []


class TestGuards:
    def test_foreign_region_rejected(self):
        tree, P, G = make_fig1_tree()
        other_tree, P2, _ = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm="tree_painter")
        algo = rt.algorithm_for("up")
        with pytest.raises(CoherenceError):
            algo.materialize(READ, P2[0])
