"""Parallel execution of analyzed task streams.

Dependence analysis exists so the runtime can *relax* program order
(section 3.2).  This module closes the loop: given a task stream and the
dependence graph some coherence algorithm computed for it, execute the
tasks on a thread pool, releasing each task the moment its dependences
complete.  If the graph is sound, the result is identical to sequential
execution for **every** schedule the pool happens to pick — which is
exactly what the tests assert, many schedules at a time.

This module owns only the scheduler and a state lock: each task runs
through a held reference :class:`~repro.runtime.executor.SequentialExecutor`,
which gathers and scatters under the lock and runs the body outside it.
Dependences guarantee gather-after-commit ordering between interfering
tasks; the lock only protects the physical arrays from torn
scatter/gather, not the logical ordering.
"""

from __future__ import annotations

import threading
from contextlib import nullcontext
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors import TaskError
from repro.regions.tree import RegionTree
from repro.runtime.dependence import DependenceGraph
from repro.runtime.executor import SequentialExecutor
from repro.runtime.task import Task
from repro.visibility.meter import PhaseProfile


@dataclass
class ExecutionLog:
    """What actually happened during one parallel run."""

    start_order: list[int] = field(default_factory=list)
    finish_order: list[int] = field(default_factory=list)
    max_in_flight: int = 0

    @property
    def reordered(self) -> bool:
        """Whether execution deviated from program order at all."""
        return self.finish_order != sorted(self.finish_order)


class ParallelExecutor:
    """Execute analyzed tasks concurrently, respecting a dependence graph."""

    def __init__(self, tree: RegionTree,
                 initial: Mapping[str, np.ndarray],
                 max_workers: int = 4) -> None:
        if max_workers < 1:
            raise TaskError("max_workers must be positive")
        self.tree = tree
        self.max_workers = max_workers
        self._store = SequentialExecutor(tree, initial)
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task], graph: DependenceGraph,
            log: Optional[ExecutionLog] = None,
            profile: Optional[PhaseProfile] = None) -> None:
        """Execute every task, releasing each when its dependences finish.

        ``graph`` must contain exactly the tasks' ids.  Raises if the
        graph references unknown tasks or contains a cycle (impossible for
        graphs built by the runtime, possible for hand-built ones).
        ``profile``, when given, records the run under the
        ``parallel.execute`` phase (wall clock and task count).
        """
        with nullcontext() if profile is None else \
                profile.phase("parallel.execute"):
            self._run(tasks, graph, ExecutionLog() if log is None else log)

    def _run(self, tasks: Sequence[Task], graph: DependenceGraph,
             log: ExecutionLog) -> None:
        by_id = {t.task_id: t for t in tasks}
        if set(by_id) != set(graph.task_ids):
            raise TaskError("graph and task list disagree on task ids")

        children: dict[int, list[int]] = {tid: [] for tid in by_id}
        indegree: dict[int, int] = {}
        for tid in by_id:
            deps = graph.dependences_of(tid)
            indegree[tid] = len(deps)
            for d in deps:
                children[d].append(tid)

        done = threading.Event()
        dispatch_lock = threading.Lock()
        in_flight = 0
        remaining = len(by_id)
        failure: list[BaseException] = []
        pool = ThreadPoolExecutor(max_workers=self.max_workers)

        def submit(tid: int) -> None:
            nonlocal in_flight
            in_flight += 1
            log.max_in_flight = max(log.max_in_flight, in_flight)
            log.start_order.append(tid)
            pool.submit(execute, tid)

        def execute(tid: int) -> None:
            nonlocal in_flight, remaining
            try:
                self._store._run(by_id[tid], self._state_lock)
            except BaseException as exc:  # propagate to the caller
                with dispatch_lock:
                    failure.append(exc)
                    done.set()
                return
            with dispatch_lock:
                in_flight -= 1
                remaining -= 1
                log.finish_order.append(tid)
                for child in children[tid]:
                    indegree[child] -= 1
                    if indegree[child] == 0:
                        submit(child)
                if remaining == 0:
                    done.set()

        with dispatch_lock:
            ready = [tid for tid, deg in indegree.items() if deg == 0]
            if not ready and by_id:
                raise TaskError("dependence graph has no ready task (cycle?)")
            for tid in sorted(ready):
                submit(tid)
            if not by_id:
                done.set()
        done.wait()
        pool.shutdown(wait=True)
        if failure:
            raise failure[0]
        if remaining != 0:
            raise TaskError("deadlock: tasks left unexecuted "
                            "(cycle in dependence graph?)")

    # ------------------------------------------------------------------
    # ------------------------------------------------------------------
    def field(self, name: str) -> np.ndarray:
        """Current values of a field over the root region (copy)."""
        return self._store.field(name)

    def fields(self) -> dict[str, np.ndarray]:
        """Snapshot of every field."""
        return self._store.fields()
