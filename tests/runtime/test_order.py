"""Property suite for the order-maintenance labels.

The central claims under test, mirroring the module contract of
``repro.runtime.order``:

* **Exactness** — ``OrderMaintainer.precedes(a, b)`` agrees with the
  brute-force BFS answer ``a in graph.ancestors_of(b)`` on arbitrary
  random DAGs and on the graphs produced by running random task streams
  through the real runtime.
* **No traversal** — a ``precedes`` query costs a constant number of
  label-store lookups (at most two ``dict.get`` calls) and zero BFS
  walks, independent of graph size.
* **Scaling** — the soundness-harness helpers (``missing_pairs`` /
  ``contains_transitively``) stop issuing per-pair BFS traversals once
  labels are available: a 2k-task check performs zero ``ancestors_of``
  calls, where the BFS fallback performs one per distinct later task.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Runtime
from repro.runtime.dependence import DependenceGraph
from repro.runtime.order import OrderMaintainer
from repro.visibility.base import INITIAL_TASK_ID

from tests.conftest import random_programs


# ----------------------------------------------------------------------
# strategies and helpers
# ----------------------------------------------------------------------
@st.composite
def random_dags(draw, max_tasks: int = 28):
    """Dependence lists of a random DAG in program order: task ``t``
    depends on a random subset of ``0..t-1``."""
    n = draw(st.integers(1, max_tasks))
    edges: list[list[int]] = []
    for t in range(n):
        upper = min(4, t)
        k = draw(st.integers(0, upper))
        deps = draw(st.sets(st.integers(0, t - 1), min_size=k, max_size=k)) \
            if t else set()
        edges.append(sorted(deps))
    return edges


def build_graph(edges, graph: DependenceGraph | None = None,
                bfs_only: bool = False) -> DependenceGraph:
    """``bfs_only`` first records a negative task id, which has no bit
    position: the graph drops its labels and answers by BFS."""
    g = DependenceGraph() if graph is None else graph
    if bfs_only:
        g.add_task(INITIAL_TASK_ID, [])
        assert g.order_maintainer is None
    for tid, deps in enumerate(edges):
        g.add_task(tid, deps)
    return g


class CountingGraph(DependenceGraph):
    """DependenceGraph that counts BFS traversals (the operation the
    label fast path exists to eliminate)."""

    def __init__(self) -> None:
        super().__init__()
        self.bfs_calls = 0

    def ancestors_of(self, task_id: int) -> set[int]:
        self.bfs_calls += 1
        return super().ancestors_of(task_id)


class CountingLabelStore(dict):
    """Label dict instrumented to count lookups — the *only* data
    structure a query is allowed to touch."""

    gets = 0

    def get(self, key, default=None):
        CountingLabelStore.gets += 1
        return super().get(key, default)


# ----------------------------------------------------------------------
# exactness: labels agree with brute-force BFS
# ----------------------------------------------------------------------
class TestExactness:
    @given(random_dags())
    def test_precedes_matches_bfs_on_random_dags(self, edges):
        g = build_graph(edges)
        om = g.order_maintainer
        assert om is not None
        n = len(edges)
        for b in range(n):
            bfs_ancestors = g.ancestors_of(b)
            for a in range(n):
                want = a in bfs_ancestors
                assert om.precedes(a, b) is want, (a, b, edges)
            # the decoded bitmap is the whole ancestor set at once
            assert om.ancestors(b) == bfs_ancestors

    @given(random_dags())
    def test_label_invariants(self, edges):
        g = build_graph(edges)
        om = g.order_maintainer
        levels = g.levels()
        for tid, deps in enumerate(edges):
            label = om.label(tid)
            assert label.index == tid
            assert label.level == levels[tid]
            ancestors = g.ancestors_of(tid)
            assert label.low == min(ancestors | {tid})
            # reach includes the task's own bit
            assert (label.reach >> tid) & 1

    @given(random_programs())
    @settings(max_examples=20,
              suppress_health_check=[HealthCheck.too_slow])
    def test_runtime_labels_match_bfs(self, program):
        """Labels assigned during real launches (through every coherence
        algorithm's reported dependences) decode to the BFS closure."""
        tree, initial, stream = program
        rt = Runtime(tree, initial, algorithm="raycast")
        rt.replay(stream)
        om = rt.graph.order_maintainer
        assert om is not None
        for tid in rt.graph.task_ids:
            assert om.ancestors(tid) == rt.graph.ancestors_of(tid)

    def test_unlabelled_and_negative_ids(self):
        om = OrderMaintainer()
        om.assign(0, [])
        assert om.precedes(0, 5) is None       # unlabelled target: fall back
        assert om.precedes(5, 0) is False      # unlabelled source: exact no
        assert om.precedes(INITIAL_TASK_ID, 0) is False
        assert om.ancestors(7) is None
        assert om.precedes(0, 0) is False      # strict order: irreflexive


# ----------------------------------------------------------------------
# the no-traversal proof: constant lookups per query, zero BFS
# ----------------------------------------------------------------------
class TestNoTraversal:
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_constant_lookups_per_query(self, n):
        """Cost per query must not grow with the graph: at most two label
        lookups (source + target), never a walk over the structure."""
        om = OrderMaintainer()
        om._labels = CountingLabelStore()
        for t in range(n):
            om.assign(t, [t - 1] if t else [])
        CountingLabelStore.gets = 0
        queries = 0
        for a in range(0, n, 7):
            for b in range(0, n, 5):
                om.precedes(a, b)
                queries += 1
        assert CountingLabelStore.gets <= 2 * queries

    def test_oracle_never_walks_the_graph(self):
        g = build_graph([[t - 1] if t else [] for t in range(200)],
                        CountingGraph())
        pairs = [(a, b) for a in range(0, 200, 3) for b in range(0, 200, 3)]
        assert g.missing_pairs(pairs) == [(a, b) for a, b in pairs if a >= b]
        assert g.bfs_calls == 0

    def test_soundness_check_scaling_2k_chain(self):
        """The 2k-task soundness check: zero BFS with labels, one BFS per
        distinct later task without — and measurably faster wall-clock."""
        n = 2048
        chain = [[t - 1] if t else [] for t in range(n)]
        pairs = [(0, j) for j in range(1, n)]

        labelled = build_graph(chain, CountingGraph())
        t0 = time.perf_counter()
        assert labelled.missing_pairs(pairs) == []
        labelled_seconds = time.perf_counter() - t0
        assert labelled.bfs_calls == 0

        plain = build_graph(chain, CountingGraph(), bfs_only=True)
        t0 = time.perf_counter()
        assert plain.missing_pairs(pairs) == []
        plain_seconds = time.perf_counter() - t0
        assert plain.bfs_calls == n - 1

        # On a 2k chain the BFS path does ~n²/2 node visits versus the
        # label path's n bit tests; any sane machine shows the gap.
        assert labelled_seconds < plain_seconds


# ----------------------------------------------------------------------
# graph integration
# ----------------------------------------------------------------------
class TestConfiguration:
    def test_negative_ids_degrade_to_bfs(self):
        g = DependenceGraph()
        g.add_task(-1, [])
        assert g.order_maintainer is None
        g.add_task(0, [])
        g.add_task(1, [0])
        # helpers still answer correctly via the BFS fallback
        assert g.contains_transitively([(0, 1)])
        assert g.missing_pairs([(1, 0)]) == [(1, 0)]

    @given(random_dags())
    @settings(max_examples=25)
    def test_helpers_agree_with_and_without_labels(self, edges):
        with_labels = build_graph(edges)
        without = build_graph(edges, bfs_only=True)
        n = len(edges)
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        assert with_labels.missing_pairs(pairs) == without.missing_pairs(pairs)
        covered = [p for p in pairs if p not in set(without.missing_pairs(pairs))]
        if covered:
            assert with_labels.contains_transitively(covered)
