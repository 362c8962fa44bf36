"""Tests specific to the Z-buffer coherence algorithm (the extension).

The cross-algorithm batteries (equivalence, stateful, failure injection,
tracing, parallel execution) already cover the z-buffer through the
ALGORITHMS registry; this file pins its *distinguishing* property —
maximal dependence precision — and its structural details.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import (READ, READ_WRITE, IndexSpace, RegionRequirement,
                   RegionTree, Runtime, oracle_dependences, reduce)
from repro.visibility.base import INITIAL_TASK_ID
from repro.visibility.zbuffer import ZBufferAlgorithm, _distinct

from tests.conftest import (fig1_initial, fig1_stream, make_fig1_tree,
                            random_programs)


class TestMaximalPrecision:
    """Every z-buffer edge is a true oracle pair (no conservative false
    positives — per-element tracking never over-approximates domains) and
    the occluded oracle pairs it prunes are always covered by a path."""

    @settings(max_examples=60,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(random_programs())
    def test_no_spurious_edges_and_sound(self, program):
        tree, initial, stream = program
        rt = Runtime(tree, initial, algorithm="zbuffer")
        rt.replay(stream)
        oracle = oracle_dependences(list(stream))
        got = {(d, t) for t in rt.graph.task_ids
               for d in rt.graph.dependences_of(t)}
        assert got <= oracle                       # zero false positives
        assert rt.graph.missing_pairs(oracle) == []  # full coverage

    def test_fig1_edges_exact_modulo_occlusion(self):
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, 2)
        rt = Runtime(tree, fig1_initial(tree), algorithm="zbuffer")
        rt.replay(stream)
        oracle = oracle_dependences(list(stream))
        got = {(d, t) for t in rt.graph.task_ids
               for d in rt.graph.dependences_of(t)}
        assert got <= oracle
        assert rt.graph.missing_pairs(oracle) == []
        # within one loop iteration nothing is occluded: iteration 1's
        # pairs appear verbatim
        first_iter = {(a, b) for a, b in oracle if b < 6}
        assert first_iter <= got


class TestStructure:
    def make(self, n=12):
        tree = RegionTree(n, {"x": np.int64})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_range(i * 4, (i + 1) * 4)
                  for i in range(n // 4)], disjoint=True, complete=True)
        rt = Runtime(tree, {"x": np.zeros(n, dtype=np.int64)},
                     algorithm="zbuffer")
        return tree, P, rt

    def test_interning_shares_sets(self):
        """Region-granular reads over many elements intern one set."""
        tree, P, rt = self.make()
        algo = rt.algorithm_for("x")
        assert isinstance(algo, ZBufferAlgorithm)
        before = algo.interned_sets()
        rt.launch("r", [RegionRequirement(tree.root, "x", READ)], None)
        assert algo.interned_sets() == before + 1  # one set for all 12

    def test_write_clears_tracking(self):
        tree, P, rt = self.make()
        algo = rt.algorithm_for("x")
        rt.launch("r", [RegionRequirement(P[0], "x", READ)], None)

        def w(arr):
            arr[:] = 1
        rt.launch("w", [RegionRequirement(P[0], "x", READ_WRITE)], w)
        # a writer after the write does NOT depend on the pre-write reader
        t = rt.launch("w2", [RegionRequirement(P[0], "x", READ_WRITE)], w)
        assert rt.graph.dependences_of(t.task_id) == {1}

    def test_mixed_operator_chain_precise(self):
        """sum, max, sum: the third depends on the second only via the
        oracle (different ops), and on the first NOT at all."""
        tree, P, rt = self.make()

        def add(arr):
            arr += 1

        def mx(arr):
            np.maximum(arr, 5, out=arr)
        rt.launch("s1", [RegionRequirement(P[0], "x", reduce("sum"))], add)
        rt.launch("m", [RegionRequirement(P[0], "x", reduce("max"))], mx)
        t = rt.launch("s2", [RegionRequirement(P[0], "x", reduce("sum"))],
                      add)
        assert rt.graph.dependences_of(1) == {0}
        assert rt.graph.dependences_of(t.task_id) == {1}

    def test_eager_reductions(self):
        """Unlike the lazy algorithms, the z-buffer folds immediately —
        observable through identical final values (the protocol hides the
        eagerness) but also through its internal canonical array."""
        tree, P, rt = self.make()

        def add(arr):
            arr += 7
        rt.launch("s", [RegionRequirement(P[0], "x", reduce("sum"))], add)
        algo = rt.algorithm_for("x")
        assert list(algo._values[:4]) == [7] * 4  # applied, not pending
        assert list(rt.read_field("x")[:4]) == [7] * 4

    @settings(max_examples=100, deadline=None)
    @given(st.builds(
        lambda n, k, seed: np.random.default_rng(seed).integers(
            INITIAL_TASK_ID, k, size=n, dtype=np.int64),
        st.integers(0, 4096), st.integers(0, 4096),
        st.integers(0, 2**32 - 1)))
    @example(np.array([], dtype=np.int64))
    @example(np.full(64, INITIAL_TASK_ID, dtype=np.int64))
    @example(np.full(300, 7, dtype=np.int64))
    @example(np.random.default_rng(0).permutation(4096).astype(np.int64))
    def test_distinct_is_sorted_unique(self, ids):
        """The one way the table reads a region's ids: ``np.unique``'s
        answer, ascending, so interned set ids are handed out in the
        same order."""
        assert _distinct(ids) == np.unique(ids).tolist()

    @pytest.mark.parametrize("privilege", [READ, READ_WRITE, reduce("sum")])
    def test_empty_region_adds_no_counter(self, privilege):
        """An access that scans no ids leaves no zero ``entries_scanned``
        key in the (hashed) lifetime snapshot."""
        tree = RegionTree(12, {"x": np.int64})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_range(0, 12), IndexSpace.from_range(0, 0)])
        rt = Runtime(tree, {"x": np.zeros(12, dtype=np.int64)},
                     algorithm="zbuffer")
        rt.launch("e", [RegionRequirement(P[1], "x", privilege)])
        assert rt.meter.snapshot() == {"elements_moved": 0}

    def test_centralized_table_touch(self):
        """Every analysis touches the one canonical table — the
        distribution bottleneck the module docstring documents."""
        tree, P, rt = self.make()
        rt.meter.begin_task()
        rt.launch("r", [RegionRequirement(P[1], "x", READ)], None)
        cost = rt.meter.end_task()
        assert ("zbuffer_table", "x") in cost.touches
