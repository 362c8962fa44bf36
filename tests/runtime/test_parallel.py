"""Tests for the parallel executor: any dependence-respecting schedule must
match sequential execution."""

import threading
import time

import numpy as np
import pytest

from repro import (ALGORITHMS, READ_WRITE, DependenceGraph, IndexSpace,
                   RegionRequirement, RegionTree, Runtime, TaskError,
                   TaskStream, reduce)
from repro.runtime.executor import SequentialExecutor
from repro.runtime.parallel import ExecutionLog, ParallelExecutor

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests.conftest import (fig1_initial, fig1_stream, make_fig1_tree,
                            random_programs)


def analyzed(tree, initial, stream, algorithm="raycast"):
    """Run the analysis (bodies stripped — dependences are value
    independent) and return the stream's tasks plus the graph."""
    rt = Runtime(tree, initial, algorithm=algorithm)
    for task in stream:
        rt.launch(task.name, task.requirements, None, task.point)
    return list(stream), rt.graph


class TestParallelCorrectness:
    @pytest.mark.parametrize("algo", list(ALGORITHMS))
    def test_matches_sequential_fig1(self, algo):
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, iterations=3)
        tasks, graph = analyzed(tree, fig1_initial(tree), stream, algo)

        reference = SequentialExecutor(tree, fig1_initial(tree))
        reference.run_stream(stream)

        for _ in range(5):  # shake several schedules
            px = ParallelExecutor(tree, fig1_initial(tree), max_workers=4)
            px.run(tasks, graph)
            for field in ("up", "down"):
                assert np.array_equal(px.field(field),
                                      reference.field(field)), (algo, field)

    def test_matches_sequential_on_apps(self):
        from repro.apps import CircuitApp, session_stream
        app = CircuitApp(pieces=4, nodes_per_piece=8, wires_per_piece=12)
        stream = session_stream(app, 2)
        tasks, graph = analyzed(app.tree, app.initial, stream)
        reference = SequentialExecutor(app.tree, app.initial)
        reference.run_stream(stream)
        px = ParallelExecutor(app.tree, app.initial, max_workers=4)
        px.run(tasks, graph)
        for field in app.tree.field_space.names:
            np.testing.assert_allclose(px.field(field),
                                       reference.field(field))

    def test_parallelism_actually_happens(self):
        """Independent slow tasks must overlap in time."""
        tree = RegionTree(16, {"x": np.int64})
        P = tree.root.create_partition(
            "P", [IndexSpace.from_range(i * 4, (i + 1) * 4)
                  for i in range(4)], disjoint=True, complete=True)
        barrier = threading.Barrier(4, timeout=10)
        stream = TaskStream()

        def body(arr):
            barrier.wait()  # deadlocks unless all 4 run concurrently
            arr += 1
        for i in range(4):
            stream.append(f"t[{i}]",
                          [RegionRequirement(P[i], "x", READ_WRITE)], body)
        tasks, graph = analyzed(tree, {"x": np.zeros(16, dtype=np.int64)},
                                stream)
        px = ParallelExecutor(tree, {"x": np.zeros(16, dtype=np.int64)},
                              max_workers=4)
        log = ExecutionLog()
        px.run(tasks, graph, log)
        assert log.max_in_flight == 4
        assert list(px.field("x")) == [1] * 16

    def test_dependences_respected(self):
        """A chain of writes must execute in order even with many workers."""
        tree = RegionTree(4, {"x": np.int64})
        part = tree.root.create_partition("P", [tree.root.space])
        stream = TaskStream()
        for k in range(8):
            def body(arr, k=k):
                arr[:] = arr * 10 + k
            stream.append(f"w{k}",
                          [RegionRequirement(part[0], "x", READ_WRITE)],
                          body)
        tasks, graph = analyzed(tree, {"x": np.zeros(4, dtype=np.int64)},
                                stream)
        px = ParallelExecutor(tree, {"x": np.zeros(4, dtype=np.int64)},
                              max_workers=8)
        px.run(tasks, graph)
        assert list(px.field("x")) == [1234567] * 4

    def test_body_exception_propagates(self):
        tree = RegionTree(4, {"x": np.int64})
        part = tree.root.create_partition("P", [tree.root.space])
        stream = TaskStream()

        def boom(arr):
            raise ValueError("injected")
        stream.append("bad", [RegionRequirement(part[0], "x", READ_WRITE)],
                      boom)
        tasks, graph = analyzed(tree, {"x": np.zeros(4, dtype=np.int64)},
                                stream)
        px = ParallelExecutor(tree, {"x": np.zeros(4, dtype=np.int64)})
        with pytest.raises(ValueError, match="injected"):
            px.run(tasks, graph)


class TestParallelValidation:
    def test_graph_task_mismatch(self):
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, 1)
        tasks, graph = analyzed(tree, fig1_initial(tree), stream)
        px = ParallelExecutor(tree, fig1_initial(tree))
        with pytest.raises(TaskError):
            px.run(tasks[:-1], graph)

    def test_initial_validation(self):
        tree, _, _ = make_fig1_tree()
        with pytest.raises(TaskError):
            ParallelExecutor(tree, {"up": np.zeros(12)})
        with pytest.raises(TaskError):
            ParallelExecutor(tree, fig1_initial(tree), max_workers=0)

    def test_empty_run(self):
        tree, _, _ = make_fig1_tree()
        px = ParallelExecutor(tree, fig1_initial(tree))
        px.run([], DependenceGraph())
        assert np.array_equal(px.field("up"), np.arange(12))

    def test_execution_log(self):
        tree, P, G = make_fig1_tree()
        stream = fig1_stream(tree, P, G, 2)
        tasks, graph = analyzed(tree, fig1_initial(tree), stream)
        log = ExecutionLog()
        px = ParallelExecutor(tree, fig1_initial(tree), max_workers=3)
        px.run(tasks, graph, log)
        assert sorted(log.finish_order) == [t.task_id for t in tasks]
        assert len(log.start_order) == len(tasks)
        assert log.max_in_flight >= 1


class TestParallelProperty:
    """Any dependence-respecting schedule of a random program must match
    sequential execution (the executable definition of graph soundness)."""

    @settings(max_examples=20,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large])
    @given(random_programs(), st.sampled_from(["raycast", "warnock",
                                               "zbuffer"]))
    def test_random_programs_parallel(self, program, algo):
        tree, initial, stream = program
        tasks, graph = analyzed(tree, initial, stream, algorithm=algo)
        reference = SequentialExecutor(tree, initial)
        reference.run_stream(stream)
        px = ParallelExecutor(tree, initial, max_workers=4)
        px.run(tasks, graph)
        assert np.array_equal(px.field("x"), reference.field("x"))
