"""Offline critical-path analysis over recorded task spans.

DePa (Westrick et al., PPoPP 2022) shows that order reasoning over the
dynamic task DAG is cheap enough to do online; here we do the offline
variant over exactly the structures this repository already produces: the
per-task analysis spans recorded by :class:`~repro.obs.tracer.Tracer`
(category ``"task"``, tagged with ``task_id`` and the dependence list)
and the :class:`~repro.runtime.dependence.DependenceGraph`.

The longest *weighted* path — weights are real measured span durations,
not unit hop counts like
:meth:`~repro.runtime.dependence.DependenceGraph.critical_path_length` —
is the analysis-time lower bound no amount of parallelism can beat.  The
report attributes it per task (top-k spans on the path) and per phase
(child-span categories: which visibility algorithm, materialize vs
commit), turning the ROADMAP's "fast as the hardware allows" goal into a
measurable, attributable quantity.

Dependences come either from a live graph or from the ``deps`` list the
runtime stores in each task span's args — so ``repro-cli prof`` can
recompute the critical path from a trace file alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from repro.obs.tracer import Span

#: Span category the runtime records one span per task launch under.
TASK_CATEGORY = "task"


def select_task_spans(spans: Iterable[Span]) -> dict[int, Span]:
    """Pick one span per task id.

    Replicated analyses (N shards) record N spans per task; they are
    grouped by ``(pid, tid)`` and the group covering the most distinct
    tasks wins (ties break toward the smallest attribution — the
    reference replica on the driver, pid 0 / tid 0).  Within the group
    the earliest span per task id is kept.
    """
    groups: dict[tuple[int, int], dict[int, Span]] = {}
    for span in spans:
        if span.category != TASK_CATEGORY:
            continue
        task_id = span.args.get("task_id")
        if not isinstance(task_id, int):
            continue
        group = groups.setdefault((span.pid, span.tid), {})
        best = group.get(task_id)
        if best is None or span.start < best.start:
            group[task_id] = span
    if not groups:
        return {}
    winner = min(groups, key=lambda key: (-len(groups[key]), key))
    return groups[winner]


def deps_from_spans(task_spans: Mapping[int, Span]) -> dict[int, tuple]:
    """Dependence lists recovered from span args (trace-file mode)."""
    out = {}
    for tid, span in task_spans.items():
        deps = span.args.get("deps")
        out[tid] = tuple(d for d in deps if isinstance(d, int)) \
            if isinstance(deps, (list, tuple)) else ()
    return out


@dataclass
class PathStep:
    """One task on the critical path."""

    task_id: int
    name: str
    seconds: float
    cumulative: float  #: longest-path cost ending at (and including) this task


@dataclass
class CritPathReport:
    """The longest weighted path through the analyzed task DAG."""

    steps: list[PathStep] = field(default_factory=list)
    total: float = 0.0          #: summed span time along the path
    span_total: float = 0.0     #: summed time of *all* task spans
    tasks: int = 0              #: total tasks considered
    #: child-span seconds along the path, grouped by category
    #: (e.g. ``visibility.raycast`` materialize/commit time).
    per_phase: dict[str, float] = field(default_factory=dict)

    @property
    def parallel_fraction(self) -> float:
        """1 − path/total: the share of span time off the critical path
        (what perfect parallelism could hide)."""
        if self.span_total <= 0.0:
            return 0.0
        return max(0.0, 1.0 - self.total / self.span_total)

    def render(self, top_k: int = 10) -> str:
        if not self.steps:
            return "(no task spans recorded — was the tracer enabled?)"
        lines = [
            f"critical path: {len(self.steps)} of {self.tasks} tasks, "
            f"{self.total:.6f}s of {self.span_total:.6f}s total span time "
            f"({self.parallel_fraction * 100:.1f}% parallelizable)"]
        ranked = sorted(self.steps, key=lambda s: -s.seconds)[:top_k]
        rows = [("task", "name", "seconds", "path%")]
        for step in ranked:
            share = 100.0 * step.seconds / self.total if self.total else 0.0
            rows.append((str(step.task_id), step.name,
                         f"{step.seconds:.6f}", f"{share:.1f}"))
        widths = [max(len(r[k]) for r in rows) for k in range(4)]
        lines.append(f"top {len(ranked)} spans on the critical path:")
        for row in rows:
            lines.append("  " + "  ".join(
                col.ljust(w) if k == 1 else col.rjust(w)
                for k, (col, w) in enumerate(zip(row, widths))))
        if self.per_phase:
            lines.append("per-phase attribution along the path:")
            width = max(len(cat) for cat in self.per_phase)
            for cat, seconds in sorted(self.per_phase.items(),
                                       key=lambda kv: -kv[1]):
                share = 100.0 * seconds / self.total if self.total else 0.0
                lines.append(f"  {cat.ljust(width)}  {seconds:.6f}s "
                             f"({share:.1f}%)")
        return "\n".join(lines)


def _attribute_phases(path_spans: Sequence[Span],
                      all_spans: Iterable[Span]) -> dict[str, float]:
    """Sum child-span durations by category for spans on the path; the
    remainder of each task span is attributed to ``runtime.other``."""
    on_path = {span.span_id: span for span in path_spans}
    per_phase: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for span in all_spans:
        parent = span.parent_id
        if parent in on_path and span.category != TASK_CATEGORY:
            cat = span.category or "uncategorized"
            per_phase[cat] = per_phase.get(cat, 0.0) + span.duration
            child_time[parent] = child_time.get(parent, 0.0) + span.duration
    residual = sum(max(0.0, span.duration - child_time.get(span.span_id, 0.0))
                   for span in path_spans)
    if residual > 0.0 and per_phase:
        per_phase["runtime.other"] = residual
    return per_phase


def critical_path(spans: Iterable[Span],
                  graph=None,
                  deps: Optional[Mapping[int, Iterable[int]]] = None
                  ) -> CritPathReport:
    """Compute the longest weighted path through the task DAG.

    ``spans`` is any span collection containing the ``"task"``-category
    spans (extra categories feed the per-phase attribution).  Dependences
    come from ``graph`` (a live
    :class:`~repro.runtime.dependence.DependenceGraph`), an explicit
    ``deps`` mapping, or — when neither is given — the ``deps`` stored in
    the span args by the runtime.
    """
    spans = list(spans)
    task_spans = select_task_spans(spans)
    if not task_spans:
        return CritPathReport()
    if deps is None:
        if graph is not None:
            deps = {tid: graph.dependences_of(tid)
                    for tid in task_spans if tid in graph.task_ids}
        else:
            deps = deps_from_spans(task_spans)

    # Dependences always point at earlier task ids, so ascending id order
    # is a topological order: one linear DP pass finds the longest path.
    cost: dict[int, float] = {}
    via: dict[int, Optional[int]] = {}
    for tid in sorted(task_spans):
        duration = task_spans[tid].duration
        best_dep, best_cost = None, 0.0
        for dep in deps.get(tid, ()):
            dep_cost = cost.get(dep)
            if dep_cost is not None and dep_cost > best_cost:
                best_dep, best_cost = dep, dep_cost
        cost[tid] = best_cost + duration
        via[tid] = best_dep

    tail = max(cost, key=lambda tid: (cost[tid], tid))
    path_ids: list[int] = []
    cursor: Optional[int] = tail
    while cursor is not None:
        path_ids.append(cursor)
        cursor = via[cursor]
    path_ids.reverse()

    steps = [PathStep(tid, task_spans[tid].name,
                      task_spans[tid].duration, cost[tid])
             for tid in path_ids]
    path_spans = [task_spans[tid] for tid in path_ids]
    return CritPathReport(
        steps=steps,
        total=sum(step.seconds for step in steps),
        span_total=sum(span.duration for span in task_spans.values()),
        tasks=len(task_spans),
        per_phase=_attribute_phases(path_spans, spans))
