"""Tests for bounded-history compaction.

Fields that are reduced or read forever without an occluding write
(Pennant's ``dt``) would grow per-set histories without bound; compaction
collapses a long history into one summary write holding the blended
values and the collapsed task ids.  Values must be unchanged; dependence
scans must still reach every collapsed task (directly, via the summary's
id set).
"""

import numpy as np
import pytest

from repro import (READ, READ_WRITE, IndexSpace, RegionRequirement,
                   RegionTree, Runtime, oracle_dependences, TaskStream,
                   reduce)
from repro.runtime.executor import SequentialExecutor
from repro.visibility import eqset as eqset_mod

from tests.conftest import record_over


def reduce_forever_stream(tree, P, iterations):
    stream = TaskStream()
    for it in range(iterations):
        for i in range(len(P)):
            def body(arr, it=it):
                arr += it + 1
            stream.append(f"r{it}[{i}]",
                          [RegionRequirement(P[i], "x", reduce("sum"))],
                          body, point=i)
        stream.append(f"obs{it}",
                      [RegionRequirement(tree.root, "x", READ)], None)
    return stream


def make_tree():
    tree = RegionTree(16, {"x": np.int64})
    P = tree.root.create_partition(
        "P", [IndexSpace.from_range(i * 4, (i + 1) * 4) for i in range(4)],
        disjoint=True, complete=True)
    return tree, P


@pytest.mark.parametrize("algo", ["warnock", "raycast"])
class TestCompaction:
    def test_history_stays_bounded(self, algo):
        tree, P = make_tree()
        rt = Runtime(tree, {"x": np.zeros(16, dtype=np.int64)},
                     algorithm=algo)
        iterations = 3 * eqset_mod.HISTORY_COMPACTION_LIMIT
        rt.replay(reduce_forever_stream(tree, P, iterations))
        for s in rt.algorithm_for("x").store.all_sets():
            assert len(s.history) <= eqset_mod.HISTORY_COMPACTION_LIMIT + 1

    def test_values_unchanged_across_compaction(self, algo):
        tree, P = make_tree()
        iterations = 2 * eqset_mod.HISTORY_COMPACTION_LIMIT
        stream = reduce_forever_stream(tree, P, iterations)
        reference = SequentialExecutor(tree,
                                       {"x": np.zeros(16, dtype=np.int64)})
        reference.run_stream(stream)
        rt = Runtime(tree, {"x": np.zeros(16, dtype=np.int64)},
                     algorithm=algo)
        rt.replay(stream)
        assert np.array_equal(rt.read_field("x"), reference.field("x"))

    def test_dependences_stay_sound(self, algo):
        tree, P = make_tree()
        iterations = eqset_mod.HISTORY_COMPACTION_LIMIT + 8
        stream = reduce_forever_stream(tree, P, iterations)
        rt = Runtime(tree, {"x": np.zeros(16, dtype=np.int64)},
                     algorithm=algo)
        rt.replay(stream)
        oracle = oracle_dependences(list(stream))
        assert rt.graph.missing_pairs(oracle) == []

    def test_summary_carries_collapsed_ids(self, algo):
        """A reader arriving after compaction must still depend on every
        collapsed reduction, not just on a representative."""
        tree, P = make_tree()
        rt = Runtime(tree, {"x": np.zeros(16, dtype=np.int64)},
                     algorithm=algo)
        limit = eqset_mod.HISTORY_COMPACTION_LIMIT
        n = limit + 4

        def body(arr):
            arr += 1
        for k in range(n):
            rt.launch(f"r{k}", [RegionRequirement(P[0], "x",
                                                  reduce("sum"))], body,
                      point=0)
        reader = rt.launch("obs", [RegionRequirement(P[0], "x", READ)],
                           None)
        deps = rt.graph.dependences_of(reader.task_id)
        assert deps == set(range(n))


class TestCompactionUnits:
    def test_eqset_compact(self):
        from repro.visibility.eqset import EquivalenceSet
        s = EquivalenceSet(IndexSpace.from_range(0, 4))
        record_over(s, READ_WRITE, np.arange(4.0), 0)
        for k in range(1, 6):
            record_over(s, reduce("sum"), np.full(4, 1.0), k)
        s.compact()
        assert len(s.history) == 1
        summary = s.history[0]
        assert summary.privilege.is_write
        assert summary.collapsed_ids == frozenset(range(6))
        assert summary.task_id == 5
        assert np.array_equal(summary.values.values, np.arange(4.0) + 5.0)

    def test_loose_set_compact(self):
        from repro.visibility.eqset import EquivalenceSet
        from repro.visibility.history import HistoryEntry, RegionValues
        space = IndexSpace.from_range(0, 4)
        s = EquivalenceSet(space)
        s.record(HistoryEntry(READ_WRITE, space,
                              RegionValues(space, np.zeros(4)), 0))
        sub = IndexSpace.from_range(1, 3)
        for k in range(1, 5):
            s.record(HistoryEntry(reduce("sum"), sub,
                                  RegionValues(sub, np.full(2, 2.0)), k))
        s.compact()
        assert len(s.history) == 1
        summary = s.history[0]
        assert summary.domain == space
        assert summary.collapsed_ids == frozenset(range(5))
        assert list(summary.values.values) == [0.0, 8.0, 8.0, 0.0]

    def test_limit_is_read_at_call_time(self, monkeypatch):
        from repro.visibility.eqset import EquivalenceSet
        monkeypatch.setattr(eqset_mod, "HISTORY_COMPACTION_LIMIT", 10 ** 6)
        s = EquivalenceSet(IndexSpace.from_range(0, 2))
        record_over(s, READ_WRITE, np.zeros(2), 0)
        for k in range(1, 200):
            record_over(s, reduce("sum"), np.ones(2), k)
        assert len(s.history) == 200
        monkeypatch.setattr(eqset_mod, "HISTORY_COMPACTION_LIMIT", 8)
        record_over(s, reduce("sum"), np.ones(2), 200)
        assert len(s.history) == 1


class TestEqsetHistoriesAreLists:
    """A set's history stays a plain list, in order and aligned, through
    the operations that rebuild it."""

    def test_split_keeps_entry_order_and_alignment(self):
        from repro.visibility.eqset import EquivalenceSet

        s = EquivalenceSet(IndexSpace.from_indices([0, 1, 2]))
        assert type(s.history) is list
        record_over(s, READ_WRITE, np.array([5.0, 6.0, 7.0]), 1)
        record_over(s, reduce("sum"), np.array([1.0, 2.0, 3.0]), 2)
        inside, outside = s.split(IndexSpace.from_indices([0]))
        assert outside is not None
        for part, values in ((inside, [[5.0], [1.0]]),
                             (outside, [[6.0, 7.0], [2.0, 3.0]])):
            assert type(part.history) is list
            assert [(e.task_id, e.privilege) for e in part.history] == \
                [(e.task_id, e.privilege) for e in s.history]
            assert [e.values.values.tolist() for e in part.history] == values

    def test_minus_keeps_entry_order_and_alignment(self):
        """The remainder of a set outside a dominating write."""
        from repro.visibility.eqset import EquivalenceSet
        from repro.visibility.history import HistoryEntry, RegionValues

        def entry(privilege, indices, task_id):
            domain = IndexSpace.from_indices(indices)
            return HistoryEntry(privilege, domain, RegionValues(
                domain, np.arange(domain.size, dtype=np.float64)), task_id)

        s = EquivalenceSet(IndexSpace.from_indices([0, 1, 2, 3]))
        assert type(s.history) is list
        s.record(entry(READ_WRITE, [0, 1, 2, 3], 1))
        s.record(entry(reduce("sum"), [0, 1], 2))  # dropped: disjoint
        s.record(entry(reduce("sum"), [1, 2], 3))
        [remainder] = s.pieces([np.array([False, False, True, True])])
        assert type(remainder.history) is list
        assert [e.task_id for e in remainder.history] == [1, 3]
        assert [e.domain.indices.tolist() for e in remainder.history] == \
            [[2, 3], [2]]
        assert [e.values.values.tolist() for e in remainder.history] == \
            [[2.0, 3.0], [1.0]]
