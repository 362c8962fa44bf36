"""The runtime context: Figure 6's ``run_task`` loop made concrete.

A :class:`Runtime` owns one coherence-algorithm instance per field (all
sharing one :class:`~repro.visibility.meter.CostMeter`) and processes task
launches: materialize every region argument, execute the body on the
materialized buffers, commit every argument, and record the reported
dependences in a :class:`~repro.runtime.dependence.DependenceGraph`.

The runtime is the public entry point applications use::

    tree = RegionTree(Extent((64,)), {"x": np.float64})
    part = tree.root.create_partition("P", tiles)
    rt = Runtime(tree, {"x": np.zeros(64)}, algorithm="raycast")
    rt.launch("init", [RegionRequirement(part[0], "x", READ_WRITE)], body)
    values = rt.read_field("x")
"""

from __future__ import annotations

import copy
from contextlib import nullcontext
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from repro.errors import TaskError
from repro.obs import tracer as obs
from repro.privileges import Privilege
from repro.regions.partition import Partition
from repro.regions.tree import RegionTree
from repro.runtime.dependence import DependenceGraph
from repro.runtime.executor import initial_fields
from repro.runtime.task import (RegionRequirement, Task, TaskBody,
                                check_tree)
from repro.visibility.base import CoherenceAlgorithm, make_algorithm
from repro.visibility.meter import CostMeter, TaskCost

_UNTRACED = nullcontext()


class Runtime:
    """An implicitly-parallel runtime analyzing one region tree.

    Parameters
    ----------
    tree:
        The region tree applications name their data through.
    initial:
        Initial values per field, aligned with the root space; ``None``
        makes an *analysis-only* runtime (every shard replica is one): the
        same analysis and meter counts, no values kept, no body run.
    algorithm:
        Registry name of the coherence algorithm: ``painter``,
        ``tree_painter``, ``warnock``, ``zbuffer`` or ``raycast`` (the
        default — the algorithm the paper's results put in production).
    meter:
        Optional shared :class:`CostMeter`; created when omitted.  The
        meter takes no lock: drive a runtime (and anything sharing its
        meter) from one thread at a time.
    record_costs:
        When True, keep a per-task :class:`TaskCost` log (used by the
        machine simulator).
    """

    def __init__(self, tree: RegionTree,
                 initial: Optional[Mapping[str, np.ndarray]],
                 algorithm: str = "raycast",
                 meter: Optional[CostMeter] = None,
                 record_costs: bool = False) -> None:
        self.tree = tree
        self.algorithm_name = algorithm
        self.meter = meter if meter is not None else CostMeter()
        self._algorithms: dict[str, CoherenceAlgorithm] = {}
        self.analysis_only = initial is None
        fields = {} if initial is None else initial_fields(tree, initial)
        for name in tree.field_space.names:
            self._algorithms[name] = make_algorithm(
                algorithm, tree, name, fields.get(name), self.meter)
        self.graph = DependenceGraph()
        self._tasks: list[Task] = []
        self._record_costs = record_costs
        self.cost_log: list[TaskCost] = []
        self._tracer = None

    #: Id of the first task kept: :meth:`trim` forgets the tasks before
    #: it.  A class default, so an untrimmed runtime pickles as before.
    first_task_id = 0

    # ------------------------------------------------------------------
    @property
    def tasks(self) -> tuple[Task, ...]:
        """Every kept task, in program order: every launched task unless
        :meth:`trim` dropped the ones before :attr:`first_task_id`."""
        return tuple(self._tasks)

    @property
    def next_task_id(self) -> int:
        """The id the next launched task will receive.

        Dense and len-aligned in this runtime, but exposed as the single
        allocation authority: the trace recorder rebases dependence
        offsets against *this* (and against launched tasks' actual ids),
        never against ``len(tasks)``, so runtimes whose internal
        operations consume ids stay traceable.
        """
        return self.first_task_id + len(self._tasks)

    def trim(self, first: int) -> None:
        """Forget the tasks and dependence rows before id ``first`` (a
        verified history nothing reads again); ids continue unchanged."""
        del self._tasks[:first - self.first_task_id]
        self.first_task_id = first
        self.graph.trim(first)

    def trimmed(self, first: int) -> "Runtime":
        """A shallow copy :meth:`trim`-med behind ``first``, for pickling:
        this runtime keeps its tasks and rows."""
        view = copy.copy(self)
        view._tasks, view.graph = list(self._tasks), copy.copy(self.graph)
        view.trim(first)
        return view

    def algorithm_for(self, field: str) -> CoherenceAlgorithm:
        """The coherence-algorithm instance tracking one field."""
        return self._algorithms[field]

    # ------------------------------------------------------------------
    def launch(self, name: str,
               requirements: Sequence[RegionRequirement],
               body: Optional[TaskBody] = None,
               point: Optional[int] = None) -> Task:
        """Launch one task: analyze, execute, commit.

        Returns the recorded :class:`Task`; its dependences are available
        via ``runtime.graph.dependences_of(task.task_id)``.
        """
        # the Task validates its requirements, once, before any analysis
        task = Task(self.next_task_id, name, tuple(requirements), body,
                    point)
        check_tree(task, self.tree)
        return self._run(task)

    def _run(self, task: Task,
             replayed: Optional[frozenset[int]] = None) -> Task:
        """Figure 6's ``run_task`` for a validated task that carries the
        next task id; records and returns it.

        ``replayed`` is a traced replay's memoized dependence set
        (:mod:`repro.runtime.tracing`): the same path, with every
        materialize told to skip its dependence scan.
        """
        if task.body is not None and self.analysis_only:
            raise TaskError(f"an analysis-only runtime runs no body: {task}")
        scan = replayed is None
        task_id, requirements = task.task_id, task.requirements

        self.meter.begin_task(mark=self._record_costs)
        deps: set[int] = set() if scan else set(replayed)
        buffers: list[Optional[np.ndarray]] = []
        # The launch's one tracer check.  Task spans carry the task id and
        # (once the scan finishes) the dependence list, so the critical-
        # path analyzer can rebuild the task DAG from a trace file alone;
        # the materialize/commit spans under them are the dependence
        # witnesses' access records.
        tracer = obs.active_tracer()
        if not tracer.enabled:
            tracer = None
        with _UNTRACED if tracer is None else \
                tracer.span(task.name, "task", task_id=task_id) as sp:
            for req in requirements:
                algorithm = self._algorithms[req.field]
                if tracer is None:
                    outcome = algorithm.materialize(req.privilege,
                                                    req.region, scan)
                else:
                    outcome = obs.call_traced(tracer, algorithm.materialize,
                                              req.privilege, req.region, scan)
                deps.update(outcome.dependences)
                buf = outcome.values
                if req.privilege.is_read and buf is not None:
                    buf.setflags(write=False)
                buffers.append(buf)
            if tracer is not None:
                sp.set(deps=sorted(deps))
                if not scan:
                    sp.set(replayed=True)

            if task.body is not None:
                task.body(*buffers)

            for req, buf in zip(requirements, buffers):
                algorithm = self._algorithms[req.field]
                commit_values = None if req.privilege.is_read else buf
                if tracer is None:
                    algorithm.commit(req.privilege, req.region,
                                     commit_values, task_id)
                else:
                    obs.call_traced(tracer, algorithm.commit, req.privilege,
                                    req.region, commit_values, task_id)
        if self._record_costs:
            self.cost_log.append(self.meter.end_task())

        self._tasks.append(task)
        # a replayed task's dependences are the memoized ones
        self.graph.add_task(task_id, deps)
        return task

    def index_launch(self, name: str, partition: Partition, field: str,
                     privilege: Privilege,
                     body_factory: Optional[Callable[[int], TaskBody]] = None,
                     extra: Optional[Callable[[int], Sequence[RegionRequirement]]]
                     = None) -> list[Task]:
        """Launch one task per subregion of a partition (Legion-style index
        launch, the ``for i = 1..3 t1(P[i], G[i])`` pattern of Figure 1).

        ``extra(i)`` may supply additional requirements per point task (the
        ghost-region argument); ``body_factory(i)`` supplies each body.
        """
        out: list[Task] = []
        for i, sub in enumerate(partition.subregions):
            reqs: list[RegionRequirement] = [
                RegionRequirement(sub, field, privilege)]
            if extra is not None:
                reqs.extend(extra(i))
            body = None if body_factory is None else body_factory(i)
            out.append(self.launch(f"{name}[{i}]", reqs, body, point=i))
        return out

    # ------------------------------------------------------------------
    def execute_trace(self, name: str, stream,
                      validate: bool = False) -> list[Task]:
        """Run a :class:`TaskStream` under dynamic tracing.

        The first structurally-identical execution runs untraced, the
        second captures the dependence template, and later executions
        replay it, skipping the dependence scans (see
        :mod:`repro.runtime.tracing`).  ``validate=True`` replays with
        full analysis and cross-checks the template.
        """
        from repro.runtime.tracing import TraceRecorder

        if self._tracer is None:
            self._tracer = TraceRecorder(self)
        return self._tracer.execute(name, stream, validate=validate)

    @property
    def tracer(self):
        """The trace registry, if any trace has been executed."""
        return self._tracer

    # ------------------------------------------------------------------
    def read_field(self, field: str) -> np.ndarray:
        """Coherent values of a field over the whole root region.

        Counts as an observation, not a task: it does not enter the task
        stream (but does exercise the algorithm's materialize path).
        """
        if self.analysis_only:
            raise TaskError("an analysis-only runtime keeps no values")
        return self._algorithms[field].read_root()

    def replay(self, stream) -> list[Task]:
        """Launch every task of a :class:`TaskStream` in order; returns
        the launched tasks.  A loop, not a comprehension: before 3.12 a
        comprehension is a frame of its own, one more call per stream."""
        tasks = []
        for t in stream:
            tasks.append(self.launch(t.name, t.requirements, t.body, t.point))
        return tasks

    def __repr__(self) -> str:
        return (f"Runtime(algorithm={self.algorithm_name!r}, "
                f"tasks={self.next_task_id})")
