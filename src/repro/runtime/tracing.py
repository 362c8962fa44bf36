"""Dynamic tracing: memoization of the dependence analysis.

Legion's tracing [Lee et al., *Dynamic Tracing: Memoization of Task Graphs
for Dynamic Task-Based Runtimes*, SC 2018] observes that iterative
applications launch the same task sequence every loop iteration, so the
dependence analysis can be captured once and replayed.  The paper's
evaluation **disables** tracing precisely because it would hide the cost
of the coherence algorithms being compared (section 8); we implement it as
the natural extension, with an ablation benchmark quantifying how much
analysis it removes.

Semantics: the first execution of a named trace runs untraced (its
dependence pattern is *not* representative — a loop's first iteration has
no previous iteration to depend on).  The **second** structurally
identical execution runs the full analysis and records, per task, its
dependences as offsets relative to the trace start (negative offsets reach
tasks launched before the trace — the previous iteration, which by then
has the steady-state shape).  Replays skip dependence computation
entirely: values are still materialized and effects still committed (the
coherence state must stay current), but the recorded dependence template
is re-based instead of recomputed.  A sequence that no longer matches the
recording invalidates the trace and restarts the capture protocol.

Replay soundness rests on the same idempotency assumption as Legion's
tracing: consecutive executions of a trace must be separated by the same
intervening context (the steady-state loop case).  ``validate=True``
replays with full analysis and cross-checks the template — useful in
tests and when diagnosing a suspect trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import TaskError
from repro.runtime.task import Task, TaskStream, encode_tasks

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.context import Runtime


def trace_signature(stream: TaskStream) -> tuple:
    """Structural fingerprint of a task sequence: the stream's
    :func:`~repro.runtime.task.encode_tasks` records (names, regions,
    fields, privileges, launch points — everything the dependence
    analysis can observe).  The point matters even though the scan
    itself never reads it: sharded runtimes assign tasks to shards by
    point, so two streams differing only in points must not replay each
    other's template."""
    return tuple(encode_tasks(stream))


def signature_digest(stream: TaskStream) -> str:
    """Process-stable hex digest of :func:`trace_signature`.

    Tuples hash differently across processes (Python hash randomization),
    so the parallel analysis path and the CLI identify streams by this
    digest instead when labelling reports.
    """
    from repro.distributed.verify import fingerprint_tokens

    return fingerprint_tokens(trace_signature(stream))


@dataclass
class RecordedTrace:
    """One captured trace: its fingerprint and dependence template."""

    signature: tuple
    #: per task, dependences as offsets from the trace's first task id
    #: (negative = a task launched before this trace instance)
    relative_deps: list[tuple[int, ...]]
    replays: int = 0


class TraceRecorder:
    """Per-runtime trace registry (used via :meth:`Runtime.execute_trace`)."""

    def __init__(self, runtime: "Runtime") -> None:
        self._runtime = runtime
        self._traces: dict[str, RecordedTrace] = {}
        self._seen: dict[str, tuple] = {}

    # ------------------------------------------------------------------
    def execute(self, name: str, stream: TaskStream,
                validate: bool = False) -> list[Task]:
        """Run ``stream`` under trace ``name``.

        First structurally-identical occurrence: untraced; second: capture;
        later: replay (or, with ``validate=True``, replay with full
        analysis and cross-check the memoized template).
        """
        signature = trace_signature(stream)
        trace = self._traces.get(name)
        if trace is not None and trace.signature == signature:
            if validate:
                return self._validate(name, trace, stream)
            return self._replay(trace, stream)
        if self._seen.get(name) == signature:
            return self._capture(name, signature, stream)
        # first sighting (or shape change): run untraced, arm the capture
        self._seen[name] = signature
        self._traces.pop(name, None)
        return self._runtime.replay(stream)

    def trace(self, name: str) -> RecordedTrace:
        """Look up a captured trace (diagnostics/tests)."""
        try:
            return self._traces[name]
        except KeyError:
            raise TaskError(f"no trace named {name!r} captured yet") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._traces))

    # ------------------------------------------------------------------
    def _capture(self, name: str, signature: tuple,
                 stream: TaskStream) -> list[Task]:
        tasks = self._runtime.replay(stream)
        self._traces[name] = RecordedTrace(signature, self._offsets(tasks))
        self._runtime.meter.count("traces_captured")
        return tasks

    def _offsets(self, tasks: list[Task]) -> list[tuple[int, ...]]:
        """Each launched task's sorted dependences, as offsets from the
        first task's *actual* id, not len(rt.tasks): the two diverge on
        runtimes whose internal operations consume task ids, and a wrong
        base silently records shifted offsets."""
        rt = self._runtime
        base = tasks[0].task_id if tasks else rt.next_task_id
        return [tuple(sorted(d - base
                             for d in rt.graph.dependences_of(t.task_id)))
                for t in tasks]

    def _replay(self, trace: RecordedTrace, stream: TaskStream) -> list[Task]:
        rt = self._runtime
        base = rt.next_task_id  # the id the first replayed task will get
        if trace.relative_deps and min(
                (off for offs in trace.relative_deps for off in offs),
                default=0) + base < 0:
            raise TaskError(
                "trace replay would reference tasks before program start")
        out: list[Task] = []
        for k, task in enumerate(stream):
            deps = frozenset(base + off for off in trace.relative_deps[k])
            out.append(rt._run(Task(rt.next_task_id, task.name,
                                    task.requirements, task.body, task.point),
                               replayed=deps))
        trace.replays += 1
        rt.meter.count("traces_replayed")
        return out

    def _validate(self, name: str, trace: RecordedTrace,
                  stream: TaskStream) -> list[Task]:
        """Replay with full analysis, checking the memoized template."""
        tasks = self._runtime.replay(stream)
        for k, got in enumerate(self._offsets(tasks)):
            if got != trace.relative_deps[k]:
                raise TaskError(
                    f"trace {name!r} failed validation at task {k}: "
                    f"recorded offsets {trace.relative_deps[k]}, "
                    f"recomputed {got} — the trace's idempotency "
                    "assumption does not hold for this program")
        trace.replays += 1
        self._runtime.meter.count("traces_validated")
        return tasks
