"""Dependence graphs and the exact interference oracle (section 3.2).

Dependence analysis relaxes the sequential program order into a partial
order.  The graph built by the runtime records, per task, the earlier tasks
each coherence algorithm reported; the **oracle** recomputes the exact
relation pairwise (O(n²), content-based: privileges interfere *and*
domains truly intersect).

Soundness criterion (used throughout the tests): every oracle pair must lie
in the *transitive closure* of the algorithm's graph — algorithms are free
to report a path instead of a direct edge (e.g. after a write clears a
history, later tasks depend on the write, which depends on what it
occluded).
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Mapping, Optional, Sequence

from repro.obs import tracer as obs
from repro.runtime.task import Task


class DependenceGraph:
    """A DAG over task ids with edges pointing from a task to the earlier
    tasks it depends on.

    The edges are all that is kept per task: ``add_task`` validates and
    stores, and the transitive-closure helpers (``contains_transitively`` /
    ``missing_pairs``) walk them with :meth:`ancestors_of`, one BFS per
    distinct later task of a call.

    :meth:`trim` drops the rows before a first-kept id; a dependence on a
    trimmed id is then taken as known.  The walks (levels, ancestors)
    need an untrimmed graph.
    """

    #: Tasks before this id were trimmed.  A class default, so an
    #: untrimmed graph pickles as before.
    first = 0

    def __init__(self) -> None:
        self._deps: dict[int, frozenset[int]] = {}
        self._levels: Optional[dict[int, int]] = None

    # ------------------------------------------------------------------
    def add_task(self, task_id: int, dependences: Iterable[int]) -> None:
        """Record a task and its dependences (all ids must be earlier)."""
        deps = frozenset(dependences)
        for d in deps:
            if d >= task_id:
                raise ValueError(
                    f"task {task_id} cannot depend on later task {d}")
            if d not in self._deps and d >= self.first:
                raise ValueError(f"dependence on unknown task {d}")
        self._deps[task_id] = deps
        self._levels = None

    def trim(self, first: int) -> None:
        """Forget the rows of the tasks before ``first``."""
        self._deps = {t: d for t, d in self._deps.items() if t >= first}
        self.first = first
        self._levels = None

    def dependences_of(self, task_id: int) -> frozenset[int]:
        """Direct dependences of one task."""
        return self._deps[task_id]

    @property
    def task_ids(self) -> list[int]:
        """All recorded tasks, in program order."""
        return sorted(self._deps)

    def __len__(self) -> int:
        return len(self._deps)

    def edge_count(self) -> int:
        """Total direct edges (a precision metric: fewer is sharper)."""
        return sum(len(d) for d in self._deps.values())

    # ------------------------------------------------------------------
    def levels(self) -> dict[int, int]:
        """Longest-path level of each task: level 0 tasks have no
        dependences; a task's level is 1 + max level of its dependences.

        Tasks sharing a level can run concurrently — the parallel schedule
        of section 3.2's example assigns t0–2, t3–5, t6–8 to levels 0,1,2.

        Cached until the next ``add_task``: ``critical_path_length``,
        ``max_width`` and ``schedule_levels`` all consume the same pass.
        Callers must treat the returned mapping as read-only.
        """
        if self._levels is None:
            self._levels = self._compute_levels()
        return self._levels

    def _compute_levels(self) -> dict[int, int]:
        """One full longest-path pass (the unit the cache memoizes —
        overridable by counting subclasses in the regression tests)."""
        out: dict[int, int] = {}
        for tid in sorted(self._deps):
            deps = self._deps[tid]
            out[tid] = 0 if not deps else 1 + max(out[d] for d in deps)
        return out

    def critical_path_length(self) -> int:
        """Number of levels (1 + max level); the serial fraction."""
        if not self._deps:
            return 0
        return 1 + max(self.levels().values())

    def max_width(self) -> int:
        """Largest number of tasks on one level (peak parallelism)."""
        if not self._deps:
            return 0
        counts: dict[int, int] = {}
        for level in self.levels().values():
            counts[level] = counts.get(level, 0) + 1
        return max(counts.values())

    def ancestors_of(self, task_id: int) -> set[int]:
        """Every task reachable through dependences (transitive)."""
        seen: set[int] = set()
        queue = deque(self._deps[task_id])
        while queue:
            t = queue.popleft()
            if t in seen:
                continue
            seen.add(t)
            queue.extend(self._deps[t] - seen)
        return seen

    def missing_pairs(self, pairs: Iterable[tuple[int, int]]
                      ) -> list[tuple[int, int]]:
        """The subset of (earlier, later) pairs *not* covered by a path —
        empty for a sound analysis (diagnostics for test failures)."""
        closure: dict[int, set[int]] = {}
        out = []
        for earlier, later in pairs:
            if later not in closure:
                closure[later] = self.ancestors_of(later)
            if earlier not in closure[later]:
                out.append((earlier, later))
        return out

    def contains_transitively(self, pairs: Iterable[tuple[int, int]]) -> bool:
        """Whether each (earlier, later) pair is connected by a path."""
        return not self.missing_pairs(pairs)


def oracle_dependences(tasks: Sequence[Task]) -> set[tuple[int, int]]:
    """The exact content-based interference relation, computed pairwise.

    Returns (earlier_id, later_id) for every ordered pair of tasks with at
    least one pair of requirements on the same field whose privileges
    interfere and whose domains intersect.
    """
    pairs: set[tuple[int, int]] = set()
    with obs.span("oracle_dependences", "runtime.dependence",
                  tasks=len(tasks)):
        for i, earlier in enumerate(tasks):
            for later in tasks[i + 1:]:
                if _tasks_interfere(earlier, later):
                    pairs.add((earlier.task_id, later.task_id))
    return pairs


def _tasks_interfere(a: Task, b: Task) -> bool:
    for ra in a.requirements:
        for rb in b.requirements:
            if ra.interferes(rb):
                return True
    return False


def schedule_levels(graph: DependenceGraph) -> list[list[int]]:
    """Group task ids into parallel waves by dependence level."""
    with obs.span("schedule_levels", "runtime.dependence"):
        waves: dict[int, list[int]] = {}
        for tid, level in graph.levels().items():
            waves.setdefault(level, []).append(tid)
        return [sorted(waves[level]) for level in sorted(waves)]
