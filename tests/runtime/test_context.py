"""Tests for the Runtime context and the sequential reference executor."""

import pickle
import sys

import numpy as np
import pytest

from repro import (ALGORITHMS, READ, READ_WRITE, CoherenceAlgorithm,
                   IndexSpace, RegionRequirement, RegionTree, Runtime,
                   SequentialExecutor, TaskError, TaskStream, reduce)
from repro.runtime import task as task_module

from tests.conftest import fig1_initial, fig1_stream, make_fig1_tree


class TestSequentialExecutor:
    def test_missing_initial_rejected(self):
        tree, _, _ = make_fig1_tree()
        with pytest.raises(TaskError):
            SequentialExecutor(tree, {"up": np.zeros(12, dtype=np.int64)})

    def test_bad_shape_rejected(self):
        tree, _, _ = make_fig1_tree()
        with pytest.raises(TaskError):
            SequentialExecutor(tree, {"up": np.zeros(5),
                                      "down": np.zeros(12)})

    def test_read_buffers_protected(self):
        tree, P, _ = make_fig1_tree()
        ex = SequentialExecutor(tree, fig1_initial(tree))
        stream = TaskStream()

        def evil(arr):
            arr[:] = 0
        stream.append("evil", [RegionRequirement(P[0], "up", READ)], evil)
        with pytest.raises(ValueError):
            ex.run_stream(stream)

    def test_reduction_applied_eagerly(self):
        tree, P, _ = make_fig1_tree()
        ex = SequentialExecutor(tree, fig1_initial(tree))
        stream = TaskStream()

        def add5(arr):
            arr += 5
        stream.append("r", [RegionRequirement(P[0], "up", reduce("sum"))],
                      add5)
        ex.run_stream(stream)
        assert list(ex.field("up")[:4]) == [5, 6, 7, 8]

    def test_fields_snapshot_isolated(self):
        tree, _, _ = make_fig1_tree()
        ex = SequentialExecutor(tree, fig1_initial(tree))
        snap = ex.fields()
        snap["up"][:] = -1
        assert ex.field("up")[0] == 0


class TestRuntime:
    def test_unknown_algorithm(self):
        tree, _, _ = make_fig1_tree()
        from repro import CoherenceError
        with pytest.raises(CoherenceError):
            Runtime(tree, fig1_initial(tree), algorithm="z-buffer")

    def test_initial_validation(self):
        tree, _, _ = make_fig1_tree()
        with pytest.raises(TaskError):
            Runtime(tree, {"up": np.zeros(12)})
        with pytest.raises(TaskError):
            Runtime(tree, {"up": np.zeros(3), "down": np.zeros(12)})

    def test_launch_records_graph(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree))
        t = rt.launch("first", [RegionRequirement(P[0], "up", READ_WRITE)])
        assert t.task_id == 0
        assert rt.graph.dependences_of(0) == set()
        assert rt.tasks[0] is t

    def test_read_buffer_write_protected(self):
        tree, P, _ = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree))

        def evil(arr):
            arr[:] = 0
        with pytest.raises(ValueError):
            rt.launch("evil", [RegionRequirement(P[0], "up", READ)], evil)

    def test_foreign_region_rejected(self):
        tree, _, _ = make_fig1_tree()
        other, P2, _ = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree))
        with pytest.raises(TaskError):
            rt.launch("x", [RegionRequirement(P2[0], "up", READ)])

    def test_interfering_args_rejected_at_launch(self, monkeypatch):
        """Aliasing is rejected before any analysis: no materialize runs
        and the meter, the stores and the task list stay as they were."""
        tree, P, G = make_fig1_tree()

        def analysed(*args, **kwargs):
            raise AssertionError("materialize ran before validation")
        for algo in sorted(ALGORITHMS):
            rt = Runtime(tree, fig1_initial(tree), algorithm=algo)
            rt.launch("w", [RegionRequirement(P[0], "up", READ_WRITE)])

            def state():
                stores = [rt.algorithm_for(f) for f in ("up", "down")]
                return (rt.meter.snapshot(), len(rt.tasks),
                        [pickle.dumps(s) for s in stores])
            before = state()
            with monkeypatch.context() as m:
                m.setattr(CoherenceAlgorithm, "materialize", analysed)
                with pytest.raises(TaskError):
                    rt.launch("bad",
                              [RegionRequirement(P[0], "up", READ_WRITE),
                               RegionRequirement(G[0], "up", READ)])
            assert state() == before, algo

    def test_launch_validates_once(self, monkeypatch):
        """One aliasing check per launch, traced replays included."""
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, iterations=1)
        checked = []
        validate = task_module.validate_requirements

        def counting(requirements, task_name="<task>"):
            checked.append(task_name)
            validate(requirements, task_name)
        # wherever the check is reachable, not only where it is defined
        for module in list(sys.modules.values()):
            if getattr(module, "validate_requirements", None) is validate:
                monkeypatch.setattr(module, "validate_requirements", counting)
        rt = Runtime(tree, fig1_initial(tree))
        rt.replay(stream)
        for _ in range(3):  # untraced, capture, replay
            rt.execute_trace("loop", stream)
        assert rt.tracer.trace("loop").replays == 1
        assert checked == [t.name for t in stream] * 4

    def test_index_launch(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree))

        def body_factory(i):
            def body(parr, garr):
                parr += i
                garr += 1
            return body
        tasks = rt.index_launch(
            "t1", P, "up", READ_WRITE,
            body_factory=body_factory,
            extra=lambda i: [RegionRequirement(G[i], "down", reduce("sum"))])
        assert len(tasks) == 3
        assert [t.name for t in tasks] == ["t1[0]", "t1[1]", "t1[2]"]
        up = rt.read_field("up")
        assert list(up[4:8]) == [5, 6, 7, 8]  # arange + i=1

    def test_cost_log(self):
        tree, P, G = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), record_costs=True)
        rt.replay(fig1_stream(tree, P, G, iterations=1))
        assert len(rt.cost_log) == 6
        assert all(c.total_ops > 0 for c in rt.cost_log)
        assert all(c.touches for c in rt.cost_log)

    def test_replay_equals_manual_launches(self):
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, iterations=2)
        rt1 = Runtime(tree, fig1_initial(tree))
        rt1.replay(stream)
        rt2 = Runtime(tree, fig1_initial(tree))
        for task in stream:
            rt2.launch(task.name, task.requirements, task.body)
        assert np.array_equal(rt1.read_field("up"), rt2.read_field("up"))
        assert np.array_equal(rt1.read_field("down"), rt2.read_field("down"))

    @pytest.mark.parametrize("algo", ["painter", "tree_painter", "warnock",
                                      "raycast"])
    def test_algorithm_for(self, algo):
        tree, _, _ = make_fig1_tree()
        rt = Runtime(tree, fig1_initial(tree), algorithm=algo)
        assert rt.algorithm_for("up").name == algo
        assert rt.algorithm_name == algo
