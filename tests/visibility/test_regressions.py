"""Regression tests for bugs found during development.

Each test pins the exact scenario that exposed a defect, so refactors
cannot silently reintroduce it.
"""

import numpy as np
import pytest

from repro import (ALGORITHMS, READ, READ_WRITE, IndexSpace,
                   RegionRequirement, RegionTree, Runtime, reduce)
from repro.visibility import make_algorithm


class TestSubregionPartitionBuckets:
    """Found by the stateful hypothesis machine: ray casting adopted a
    disjoint-and-complete partition of a *subregion* as its bucket
    structure.  Those buckets do not cover the root, so equivalence sets
    outside the subregion either fit no bucket (CoherenceError) or were
    lost from queries (silent value divergence)."""

    def make(self):
        tree = RegionTree(20, {"x": np.int64})
        # an aliased root partition (NOT disjoint+complete)...
        outer = tree.root.create_partition(
            "O", [IndexSpace.from_range(0, 12),
                  IndexSpace.from_range(8, 20)])
        # ...whose first subregion has a disjoint+complete partition
        inner = outer[0].create_partition(
            "I", [IndexSpace.from_range(0, 6), IndexSpace.from_range(6, 12)],
            disjoint=True, complete=True)
        return tree, outer, inner

    def test_subregion_partition_not_adopted(self):
        tree, outer, inner = self.make()
        rt = Runtime(tree, {"x": np.arange(20, dtype=np.int64)},
                     algorithm="raycast")
        algo = rt.algorithm_for("x")
        assert algo.bucket_partition is None  # K-d fallback, not inner

    def test_writes_outside_subregion_not_lost(self):
        tree, outer, inner = self.make()
        rt = Runtime(tree, {"x": np.zeros(20, dtype=np.int64)},
                     algorithm="raycast")

        def w(arr):
            arr[:] = 7
        # touch the inner partition first (the old trigger), then write
        # through the outer region that escapes it
        rt.launch("inner", [RegionRequirement(inner[0], "x", READ)], None)
        rt.launch("outer", [RegionRequirement(outer[1], "x", READ_WRITE)], w)
        out = rt.read_field("x")
        assert list(out[8:]) == [7] * 12
        assert list(out[:8]) == [0] * 8
        rt.algorithm_for("x").check_invariants()

    def test_partition_created_later_still_requires_root(self):
        tree = RegionTree(16, {"x": np.int64})
        sub_parent = tree.root.create_partition(
            "O", [IndexSpace.from_range(0, 8)])
        rt = Runtime(tree, {"x": np.zeros(16, dtype=np.int64)},
                     algorithm="raycast")
        # a disjoint+complete partition of the subregion appears later
        sub_parent[0].create_partition(
            "I", [IndexSpace.from_range(0, 4), IndexSpace.from_range(4, 8)],
            disjoint=True, complete=True)

        def w(arr):
            arr[:] = 3
        rt.launch("w", [RegionRequirement(tree.root, "x", READ_WRITE)], w)
        assert rt.algorithm_for("x").bucket_partition is None
        assert list(rt.read_field("x")) == [3] * 16


class TestBBoxRelocalizationChurn:
    """Single-bucket sets whose *bounding box* spans several buckets (2-D
    tiles in row-major order) were re-localized into themselves on every
    query, creating split/create churn that inverted the Warnock/raycast
    steady-state ordering."""

    def test_no_structural_churn_in_steady_state(self):
        from collections import Counter
        from repro.apps import StencilApp, session_stream

        app = StencilApp(pieces=4, tile=4)
        rt = Runtime(app.tree, app.initial, algorithm="raycast")
        rt.replay(session_stream(app, 2))
        before = Counter(rt.meter.counters)
        rt.replay(app.iteration_stream())
        delta = Counter(rt.meter.counters)
        delta.subtract(before)
        # the only structural activity allowed per steady iteration is the
        # dominating-write coalesce/create pair per written piece-field
        writes = 2 * app.pieces  # stencil out-write + increment in-write
        assert delta["eqsets_split"] == 0
        assert delta["eqsets_created"] == writes
        assert delta["eqsets_coalesced"] == writes


class TestAbortedDominatingWrite:
    """A task body raising after the dominating write (which happens at
    materialize time) used to leave an empty-history equivalence set —
    subsequent reads saw zeros instead of the pre-write values."""

    def test_values_survive_aborted_write(self):
        tree = RegionTree(8, {"x": np.int64})
        tree.root.create_partition(
            "P", [IndexSpace.from_range(0, 4), IndexSpace.from_range(4, 8)],
            disjoint=True, complete=True)
        rt = Runtime(tree, {"x": np.arange(8, dtype=np.int64)},
                     algorithm="raycast")
        part = tree.root.partition("P")

        def boom(arr):
            raise RuntimeError("injected")
        with pytest.raises(RuntimeError):
            rt.launch("bad", [RegionRequirement(part[0], "x", READ_WRITE)],
                      boom)
        assert list(rt.read_field("x")) == list(range(8))


class TestNeverWrittenFieldLocalization:
    """Pennant's dt field is reduced and read but never written: without
    localization to bucket granularity every piece's reductions pile into
    one root-covering set and each analysis scans all of them."""

    def test_reductions_localize_to_pieces(self):
        tree = RegionTree(16, {"dt": np.float64})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_range(i * 4, (i + 1) * 4)
                  for i in range(4)], disjoint=True, complete=True)
        rt = Runtime(tree, {"dt": np.full(16, np.inf)}, algorithm="raycast")

        def shrink(arr):
            np.minimum(arr, 1.0, out=arr)
        for _ in range(3):
            for i in range(4):
                rt.launch(f"dt[{i}]",
                          [RegionRequirement(P[i], "dt", reduce("min"))],
                          shrink, point=i)
            rt.launch("global", [RegionRequirement(tree.root, "dt", READ)],
                      None)
        algo = rt.algorithm_for("dt")
        assert algo.num_equivalence_sets() == 4
        # each piece-set's history holds only its own piece's entries
        # (plus restricted global reads): bounded per piece per iteration
        for s in algo.store.all_sets():
            assert len(s.history) <= 1 + 3 * 2
        assert list(rt.read_field("dt")) == [1.0] * 16


class TestMaterializedDtypeIsTheFieldDtype:
    """On a ``float32`` field, a commit whose buffer was ``float64`` made
    ``painter`` and ``tree_painter`` materialize ``float64``: the
    same-domain arm of the old object walk adopted the entry's array
    instead of writing into the region's.  Every algorithm paints into a
    buffer of the field's dtype."""

    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_wider_commit_buffers_do_not_widen_reads(self, name):
        tree = RegionTree(8, {"x": np.float32})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_range(0, 4), IndexSpace.from_range(4, 8)],
            disjoint=True, complete=True)
        algo = make_algorithm(name, tree, "x", np.zeros(8, dtype=np.float32))
        algo.materialize(READ_WRITE, P[0])
        algo.commit(READ_WRITE, P[0], np.arange(4, dtype=np.float64), 0)
        algo.materialize(reduce("sum"), tree.root)
        algo.commit(reduce("sum"), tree.root, np.ones(8), 1)
        assert algo.dtype == np.float32
        for region, want in ((P[0], [1, 2, 3, 4]), (P[1], [1, 1, 1, 1]),
                             (tree.root, [1, 2, 3, 4, 1, 1, 1, 1])):
            values = algo.materialize(READ, region).values
            assert values.dtype == algo.dtype
            assert list(values) == want


class TestEmptyRegionAccess:
    """Ray casting once read a region's answer back out of the store's
    region memo, which an empty query never fills: a READ or reduction
    of an empty subregion raised ``KeyError``.  A write of one raised
    ``CoherenceError`` (its dominating write made an empty set).  Every
    algorithm accepts an access to an empty subregion and leaves the
    field as it was."""

    @pytest.mark.parametrize("privilege", [READ, READ_WRITE, reduce("sum")])
    @pytest.mark.parametrize("name", sorted(ALGORITHMS))
    def test_empty_subregion(self, name, privilege):
        tree = RegionTree(12, {"x": np.int64})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_range(0, 12), IndexSpace.from_range(0, 0)])
        rt = Runtime(tree, {"x": np.arange(12, dtype=np.int64)},
                     algorithm=name)
        for _ in range(2):
            rt.launch("e", [RegionRequirement(P[1], "x", privilege)])
        assert list(rt.read_field("x")) == list(range(12))
        rt.algorithm_for("x").check_invariants()
