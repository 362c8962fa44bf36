"""Structural tests for the optimized painter (section 5.1, Figure 8)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (READ, READ_WRITE, IndexSpace, RegionRequirement,
                   RegionTree, Runtime, TreePainterAlgorithm, reduce)
from repro.errors import CoherenceError
from repro.visibility.history import (HistoryEntry, paint_into,
                                      scan_dependences)
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


# ----------------------------------------------------------------------
# one walk per access, against the two walks it replaced
# ----------------------------------------------------------------------
def two_walk_path_entries(algo, region, privilege=None):
    """The oracle: the path walk as ``_collect`` and ``_paint`` each made
    it before one walk served both — root to ``region``, a stack of item
    iterators, a view unfolded when its bounds meet the region's and (for
    a scan, ``privilege`` given) its summary can interfere; each walk
    counts and touches what it enters."""
    space = region.space
    mark = None if privilege is None else privilege.commutes
    compatible = set() if mark is None else {mark}
    out = []
    for node in region.path_from_root():
        st = algo._states.get(node.uid)
        if st is None or not st.entries:
            continue
        algo.meter.touch(("treenode", node.uid))
        stack = [iter(st.entries)]
        while stack:
            for item in stack[-1]:
                if type(item) is not CompositeView:
                    out.append(item)
                elif item.domain.bbox_overlaps(space) and \
                        not item.priv_summary <= compatible:
                    algo.meter.count("views_traversed")
                    algo.meter.touch(("view", item.uid))
                    stack.append(iter(item.items))
                    break
            else:
                stack.pop()
    return out


class TwoWalkPainter(TreePainterAlgorithm):
    """The tree painter with the oracle's two walks, logging each list."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.walked = []

    def _collect(self, privilege, region, found, deps, led):
        path = two_walk_path_entries(self, region, privilege)
        self.walked.append(("scan", path))
        scan_dependences(privilege, region.space, path, deps, self.meter)

    def _paint(self, region, found):
        entries = two_walk_path_entries(self, region)
        self.walked.append(("paint", entries))
        values = self._canvas(region)
        paint_into(values, region.space, region.space, entries, self.meter)
        return values


class OneWalkPainter(TreePainterAlgorithm):
    """The product, logging the lists its one walk hands on."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.walked = []

    def _collect(self, privilege, region, found, deps, led):
        super()._collect(privilege, region, found, deps, led)
        # the scan list is the walk's, or the part the scan did not skip
        self.walked.append(("scan", self._last_scan))

    def _walk(self, *args):
        entries, scan, later = super()._walk(*args)
        self._last_scan = scan
        self._last_entries = entries
        return entries, scan, later

    def _paint(self, region, found):
        values = super()._paint(region, found)
        self.walked.append(("paint", self._last_entries))
        return values


def ladder_tree():
    """Figure 1's disjoint P and aliased G over 12 elements, each P[i]
    cut again in two, so paths are up to three nodes long."""
    tree, P, G = make_fig1_tree()
    halves = [P[i].create_partition(
        "H", [IndexSpace.from_indices(P[i].space.indices[:2]),
              IndexSpace.from_indices(P[i].space.indices[2:])],
        disjoint=True, complete=True) for i in range(3)]
    regions = ([tree.root] + [P[i] for i in range(3)] +
               [G[i] for i in range(3)] +
               [h[j] for h in halves for j in range(2)])
    return tree, regions


def run_side_by_side(tree, accesses, sides=None):
    """Run ``accesses`` (``(region, privilege, scan)``) on a one-walk and
    a two-walk painter over the same tree (new ones unless ``sides`` are
    given); per access, the scan list, the paint list and the meter's
    task slice (counters, touches) of each."""
    initial = np.arange(tree.root.space.size, dtype=np.int64)
    sides = sides or [OneWalkPainter(tree, "up", initial),
                      TwoWalkPainter(tree, "up", initial)]
    logs = [[], []]
    for task_id, (region, privilege, scan) in enumerate(accesses):
        for algo, log in zip(sides, logs):
            algo.walked = []
            algo.meter.begin_task()
            out = algo.materialize(privilege, region, scan=scan)
            cost = algo.meter.end_task()
            values = None if privilege.is_read else out.values + 1 \
                if privilege.is_write else out.values
            algo.commit(privilege, region, values, task_id)
            log.append((algo.walked, cost))
    return sides, logs


def views_ranked(logs):
    """Each view uid touched in ``logs`` -> its creation rank (uids are
    process-wide and taken in creation order)."""
    uids = sorted({key[1] for _, cost in logs for key in cost.touches
                   if key[0] == "view"})
    return {uid: rank for rank, uid in enumerate(uids)}


def normalized(logs):
    """The logs with entries as ``(task, privilege, domain)`` and view
    uids as creation ranks, comparable across two painters."""
    rank = views_ranked(logs)

    def entry(e):
        return e.task_id, repr(e.privilege), tuple(e.domain.indices)

    return [([(kind, [entry(e) for e in entries]) for kind, entries in walked],
             cost.counters,
             [(key[0], rank[key[1]]) if key[0] == "view" else key
              for key in cost.touches])
            for walked, cost in logs]


PRIVS = [READ, READ_WRITE, reduce("sum"), reduce("max")]


@st.composite
def ladder_programs(draw):
    tree, regions = ladder_tree()
    accesses = draw(st.lists(st.tuples(
        st.sampled_from(regions), st.sampled_from(PRIVS),
        st.sampled_from([True, True, True, False])), min_size=8, max_size=48))
    return tree, accesses


class TestOneWalk:
    """One walk per access hands the scan and the paint what the two
    walks it replaced did, and charges the same counts and touches in the
    same order."""

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ladder_programs())
    def test_one_walk_equals_two(self, program):
        tree, accesses = program
        (one, two), (a, b) = run_side_by_side(tree, accesses)
        assert normalized(a) == normalized(b)
        one.check_invariants()

    def test_skipped_view_before_an_interfering_one(self):
        """A read at P[0] after a view of reads (V1: the scan skips it,
        the paint does not) and a view of a write (V2: both enter it)
        at the root: the paint owes V1's touch, after the scan's V2."""
        tree, P, G = make_fig1_tree()
        accesses = [(P[i], READ, True) for i in range(3)]
        accesses.append((G[1], READ_WRITE, True))   # V1: P's reads
        accesses.append((P[1], READ_WRITE, True))   # V2: G's write
        accesses.append((P[0], READ, True))
        (one, _), (a, b) = run_side_by_side(tree, accesses)
        assert normalized(a) == normalized(b)
        walked, cost = a[-1]
        (_, scan), (_, paint) = walked
        assert len(scan) < len(paint)
        views = [key for key in cost.touches if key[0] == "view"]
        v1, v2 = [item.uid for item in one.node_entries(tree.root)
                  if isinstance(item, CompositeView)]
        assert views == [("view", v2), ("view", v1)]
        assert cost.counters["views_traversed"] == 3

    def test_skipped_view_holding_a_view(self):
        """No program nests a view the scan skips (a view that captures a
        view also holds the access that triggered it, whose key differs),
        so one is made by hand: the reads-only V1 wrapped in a view with
        one of V1's reads beside it."""
        tree, P, G = make_fig1_tree()
        accesses = [(P[i], READ, True) for i in range(3)]
        accesses += [(G[1], READ_WRITE, True), (P[1], READ_WRITE, True)]
        sides, _ = run_side_by_side(tree, accesses)
        for algo in sides:
            entries = algo.node_entries(tree.root)
            at = next(k for k, item in enumerate(entries)
                      if isinstance(item, CompositeView))
            v1 = entries[at]
            assert v1.flat and v1.priv_summary == {READ.commutes}
            algo._states[tree.root.uid].entries[at] = CompositeView(
                [v1.items[0], v1], v1.domain, v1.write_domain,
                set(v1.priv_summary))
        _, (a, b) = run_side_by_side(tree, [(P[0], READ, True)], sides)
        assert normalized(a) == normalized(b)
        (_, scan), (_, paint) = a[0][0]
        assert len(scan) < len(paint)
