"""Tests for dependence graphs, the oracle, and schedule metrics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (READ, READ_WRITE, DependenceGraph, RegionRequirement,
                   Runtime, TaskStream, oracle_dependences, reduce)
from repro.analysis import profile_graph
from repro.runtime.dependence import schedule_levels
from repro.visibility.base import INITIAL_TASK_ID

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree


@st.composite
def random_dags(draw, max_tasks: int = 28):
    """Dependence lists of a random DAG in program order: task ``t``
    depends on a random subset of ``0..t-1``."""
    n = draw(st.integers(1, max_tasks))
    edges: list[list[int]] = []
    for t in range(n):
        k = draw(st.integers(0, min(4, t)))
        deps = draw(st.sets(st.integers(0, t - 1), min_size=k, max_size=k)) \
            if t else set()
        edges.append(sorted(deps))
    return edges


def diamond() -> DependenceGraph:
    g = DependenceGraph()
    g.add_task(0, [])
    g.add_task(1, [0])
    g.add_task(2, [0])
    g.add_task(3, [1, 2])
    return g


class TestDependenceGraph:
    def test_add_and_query(self):
        g = diamond()
        assert g.dependences_of(3) == {1, 2}
        assert g.task_ids == [0, 1, 2, 3]
        assert len(g) == 4
        assert g.edge_count() == 4

    def test_forward_dependence_rejected(self):
        g = DependenceGraph()
        g.add_task(0, [])
        with pytest.raises(ValueError):
            g.add_task(1, [2])
        with pytest.raises(ValueError):
            g.add_task(1, [1])

    def test_unknown_dependence_rejected(self):
        g = DependenceGraph()
        g.add_task(5, [])
        with pytest.raises(ValueError):
            g.add_task(6, [4])

    def test_levels_and_critical_path(self):
        g = diamond()
        assert g.levels() == {0: 0, 1: 1, 2: 1, 3: 2}
        assert g.critical_path_length() == 3
        assert g.max_width() == 2
        assert schedule_levels(g) == [[0], [1, 2], [3]]

    def test_empty_graph(self):
        g = DependenceGraph()
        assert g.critical_path_length() == 0
        assert g.max_width() == 0
        assert schedule_levels(g) == []

    def test_ancestors(self):
        g = diamond()
        assert g.ancestors_of(3) == {0, 1, 2}
        assert g.ancestors_of(0) == set()

    @given(random_dags(), st.sampled_from([0, INITIAL_TASK_ID]))
    @example([[], [0], [1]], 0)  # (0, 2) holds only transitively
    @example([[], []], 0)        # (0, 1) does not hold at all
    @settings(max_examples=40)
    def test_transitive_containment(self, edges, first):
        """``missing_pairs`` / ``contains_transitively`` ≡ the closure
        accumulated edge by edge, over every ordered pair — the
        ``a >= b`` ones included, which no path covers — whether ids start
        at 0 or at the initial task's negative id."""
        g = DependenceGraph()
        closure: dict[int, set[int]] = {}
        for tid, deps in enumerate(edges, first):
            deps = [first + d for d in deps]
            g.add_task(tid, deps)
            closure[tid] = set(deps).union(*(closure[d] for d in deps))
            assert g.ancestors_of(tid) == closure[tid]
        pairs = [(a, b) for a in closure for b in closure]
        missing = [(a, b) for a, b in pairs if a not in closure[b]]
        assert all((a, b) in missing for a, b in pairs if a >= b)
        assert g.missing_pairs(pairs) == missing
        assert g.contains_transitively(set(pairs) - set(missing))
        assert not g.contains_transitively(pairs)

    def test_profile(self):
        p = profile_graph(diamond())
        assert p.tasks == 4 and p.edges == 4
        assert p.critical_path == 3 and p.max_width == 2
        assert p.avg_parallelism == pytest.approx(4 / 3)
        assert "4 tasks" in str(p)

    @given(random_dags())
    @settings(max_examples=40)
    def test_levels_respect_every_edge(self, edges):
        """A task's level strictly exceeds each dependence's level, and
        equals exactly 1 + the deepest one (longest path, not hop
        count)."""
        g = DependenceGraph()
        for tid, deps in enumerate(edges):
            g.add_task(tid, deps)
        levels = g.levels()
        for tid, deps in enumerate(edges):
            for d in deps:
                assert levels[d] < levels[tid]
            want = 0 if not deps else 1 + max(levels[d] for d in deps)
            assert levels[tid] == want


class CountingLevelsGraph(DependenceGraph):
    """Counts full longest-path passes — the unit the cache memoizes."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.computes = 0

    def _compute_levels(self):
        self.computes += 1
        return super()._compute_levels()


class TestLevelsCache:
    def test_consumers_share_one_pass(self):
        g = CountingLevelsGraph()
        for tid, deps in enumerate([[], [0], [0], [1, 2]]):
            g.add_task(tid, deps)
        g.levels()
        g.critical_path_length()
        g.max_width()
        schedule_levels(g)
        assert g.computes == 1

    def test_add_task_invalidates(self):
        g = CountingLevelsGraph()
        g.add_task(0, [])
        assert g.levels() == {0: 0}
        g.add_task(1, [0])
        assert g.levels() == {0: 0, 1: 1}
        assert g.computes == 2
        # repeated queries after mutation still cost one pass
        g.critical_path_length()
        g.max_width()
        assert g.computes == 2


class TestOracle:
    def test_read_read_not_dependent(self):
        tree, P, _ = make_fig1_tree()
        s = TaskStream()
        s.append("a", [RegionRequirement(P[0], "up", READ)])
        s.append("b", [RegionRequirement(P[0], "up", READ)])
        assert oracle_dependences(list(s)) == set()

    def test_write_chains(self):
        tree, P, _ = make_fig1_tree()
        s = TaskStream()
        s.append("a", [RegionRequirement(P[0], "up", READ_WRITE)])
        s.append("b", [RegionRequirement(P[0], "up", READ_WRITE)])
        s.append("c", [RegionRequirement(P[1], "up", READ_WRITE)])
        assert oracle_dependences(list(s)) == {(0, 1)}

    def test_cross_partition_overlap(self):
        tree, P, G = make_fig1_tree()
        s = TaskStream()
        s.append("w", [RegionRequirement(P[0], "up", READ_WRITE)])
        s.append("g", [RegionRequirement(G[0], "up", reduce("sum"))])
        # G[0] = {3,4} overlaps P[0] = {0..3}
        assert oracle_dependences(list(s)) == {(0, 1)}

    def test_field_isolation(self):
        tree, P, _ = make_fig1_tree()
        s = TaskStream()
        s.append("a", [RegionRequirement(P[0], "up", READ_WRITE)])
        s.append("b", [RegionRequirement(P[0], "down", READ_WRITE)])
        assert oracle_dependences(list(s)) == set()
