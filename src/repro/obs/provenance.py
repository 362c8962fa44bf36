"""Dependence provenance: the witness chain behind every edge.

The dependence graph says *that* task 7 depends on task 4; this module
says *why*.  It keeps no history of its own: when the active
:class:`~repro.obs.tracer.Tracer` records witnesses, the
``materialize``/``commit`` span that already brackets an access is the
access record, and the visibility algorithms write into it

* edges — the concrete history entry (painter), path entry (tree
  painter), equivalence set (Warnock / ray cast) or per-element table
  slot (Z-buffer) whose interference produced the edge;
* prunes — candidates that were examined and *rejected*: disjoint
  history entries, sets coalesced by a dominating write, entries
  occluded by a composite view or a write commit;
* visit counters — how many BVH nodes / equivalence sets / path entries
  the analysis walked to reach its answer.

:class:`Witnesses` is the typed reading of a
:class:`~repro.obs.tracer.TraceBuffer` — :class:`AccessRecord`,
:class:`EdgeWitness`, :class:`PruneRecord` — and :func:`explain_task`
renders it (``repro-cli explain``).  Everything a record says beyond the
span's own args comes from the spans around it: the task id from the
parent ``task`` span, the shard from the span's ``tid``, the tenant from
the enclosing ``service.session`` span.

* **Observation only.**  Hooks never call into a
  :class:`~repro.visibility.meter.CostMeter` and never perturb analysis
  control flow, so analysis fingerprints are bit-identical on/off
  (``tests/obs/test_provenance_differential.py`` proves it).
* **Stable wire format.**  The payload is ints, strings and tuples — no
  ``id()``, no process-local uid counters (equivalence sets are
  described by their *content*: bounds + size) — so worker spans pickle
  home and absorb into the driver's buffer unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.obs.tracer import TraceBuffer

#: Shard of records produced by the reference replica on the driver.
DRIVER_SHARD = 0

#: ``src`` sentinel for pruned items that aggregate many tasks (a
#: composite view occluded as a whole).  Distinct from the runtime's
#: ``INITIAL_TASK_ID`` (-1), which marks the pre-program initial write.
AGGREGATE_SRC = -2
INITIAL_SRC = -1


def privilege_label(privilege) -> str:
    """Stable human/wire name for a privilege (``read``, ``read-write``,
    ``reduce(sum)``)."""
    if privilege.is_read:
        return "read"
    if privilege.is_write:
        return "read-write"
    return f"reduce({privilege.redop.name})"


def domain_desc(space) -> tuple:
    """Content-based index-space descriptor ``(lo, hi, size)`` — stable
    across processes, unlike uid counters."""
    if space.size == 0:
        return (0, -1, 0)
    lo, hi = space.bounds
    return (int(lo), int(hi), int(space.size))


def format_domain(desc: Sequence[int]) -> str:
    lo, hi, size = desc
    if size == 0:
        return "[] n=0"
    return f"[{lo},{hi}] n={size}"


def describe_access(led, field_name: str, algorithm: str, privilege, space,
                    phase: str) -> None:
    """Stamp an open span as the access record of one materialize
    (``phase`` ``materialize`` or, under a traced replay, ``replay``) or
    ``commit`` call — the args :class:`Witnesses` reads back."""
    led.set(field=field_name, algorithm=algorithm,
            privilege=privilege_label(privilege), domain=domain_desc(space),
            phase=phase)


@dataclass(frozen=True)
class EdgeWitness:
    """One justification for one dependence edge ``dst <- src``.

    ``kind`` names the witnessing structure: ``history`` (painter global
    history), ``summary`` (collapsed composite-view summary entry),
    ``eqset`` (Warnock/ray-cast equivalence-set entry), ``last_write`` /
    ``reader`` / ``reducer`` (Z-buffer tables).  ``via`` is a primitive
    descriptor of where the witness lived (e.g. ``("eqset", lo, hi, n)``).
    """

    src: int
    kind: str
    privilege: str
    domain: tuple
    via: tuple
    collapsed: tuple = ()


@dataclass(frozen=True)
class PruneRecord:
    """A candidate edge that was examined and rejected, and why.

    Reasons: ``disjoint`` (overlap test failed), ``dominated`` /
    ``trimmed`` (equivalence set killed or carved by a dominating
    write), ``view_occluded`` (entry subsumed by a composite view's
    write set), ``commit_occluded`` (node history cleared by a write
    commit), ``same_operator`` (reducer with the task's own reduction
    operator; section 4 non-interference).
    """

    src: int
    reason: str
    domain: tuple
    via: tuple


@dataclass
class AccessRecord:
    """Everything one materialize/commit span witnessed."""

    task_id: int
    field: str
    algorithm: str
    privilege: str
    domain: tuple
    phase: str = "materialize"
    shard: int = DRIVER_SHARD
    #: Tenant of the enclosing analysis-service session; "" outside the
    #: service.
    tenant: str = ""
    edges: list = field(default_factory=list)
    pruned: list = field(default_factory=list)
    visited: dict = field(default_factory=dict)

    @property
    def dep_ids(self) -> set:
        """Task ids this access produced edges to (including collapsed
        summary members)."""
        out = set()
        for e in self.edges:
            out.add(e.src)
            out.update(e.collapsed)
        return out


class Witnesses:
    """The access records a trace buffer holds, in buffer order.

    A span is an access record when :func:`describe_access` stamped it
    and its parent is a ``task`` span (an access span opened outside a
    launch has none).  Commit and replay records that witnessed nothing are left
    out — most commits do.
    """

    def __init__(self, buffer: TraceBuffer) -> None:
        by_id = {s.span_id: s for s in buffer.spans}
        self.records: list[AccessRecord] = []
        for span in buffer.spans:
            args = span.args
            task = by_id.get(span.parent_id)
            if "phase" not in args or task is None \
                    or task.category != "task":
                continue
            edges = [EdgeWitness(*row) for row in args.get("edges", ())]
            pruned = [PruneRecord(*row) for row in args.get("pruned", ())]
            visited = dict(args.get("visited", ()))
            if args["phase"] != "materialize" \
                    and not (edges or pruned or visited):
                continue
            tenant, up = "", task
            while up is not None and not tenant:
                if up.category == "service.session":
                    tenant = up.args.get("tenant", "")
                up = by_id.get(up.parent_id)
            self.records.append(AccessRecord(
                task.args["task_id"], args["field"], args["algorithm"],
                args["privilege"], args["domain"], args["phase"],
                span.tid, tenant, edges, pruned, visited))

    def __len__(self) -> int:
        return len(self.records)

    def records_for(self, task_id: int,
                    phase: Optional[str] = None,
                    shard: Optional[int] = None,
                    tenant: Optional[str] = None) -> list:
        """Records for one task, in recording order."""
        return [r for r in self.records
                if r.task_id == task_id
                and (phase is None or r.phase == phase)
                and (shard is None or r.shard == shard)
                and (tenant is None or r.tenant == tenant)]


# ----------------------------------------------------------------------
# human-readable rendering (``repro-cli explain``)
# ----------------------------------------------------------------------
def _format_via(via: Sequence) -> str:
    kind = via[0]
    if kind == "eqset" and len(via) == 4:
        return f"eqset {format_domain(via[1:])}"
    if kind == "painter" and len(via) == 2:
        return f"global history ({via[1]} entries)"
    if kind == "treenode" and len(via) == 2:
        return f"tree node (region uid {via[1]})"
    if kind == "zbuffer":
        return "element tables"
    if kind == "path":
        return "root-to-leaf path"
    return " ".join(str(part) for part in via)


def _src_label(src: int, tasks=None) -> str:
    if src == AGGREGATE_SRC:
        return "composite view (aggregated)"
    if src == INITIAL_SRC:
        return "initial write (pre-program state)"
    name = ""
    if tasks is not None and 0 <= src < len(tasks):
        name = f" ({tasks[src].name})"
    return f"task {src}{name}"


def explain_task(witnesses: Witnesses, task_id: int, tasks=None,
                 edge: Optional[tuple] = None) -> str:
    """Render the witness chain for one task's accesses.

    ``tasks`` (optional, ``runtime.tasks``) supplies task names.
    ``edge=(src, dst)`` restricts output to witnesses and prunes
    involving ``src`` (``dst`` must equal ``task_id``).
    """
    records = witnesses.records_for(task_id)
    if not records:
        return (f"task {task_id}: no provenance recorded "
                "(was the tracer recording witnesses during analysis?)")
    want_src = edge[0] if edge is not None else None
    name = ""
    if tasks is not None and 0 <= task_id < len(tasks):
        name = f" ({tasks[task_id].name})"
    lines = [f"task {task_id}{name}"]
    for rec in records:
        shard = f", shard {rec.shard}" if rec.shard != DRIVER_SHARD else ""
        lines.append(
            f"  [{rec.phase}] field {rec.field!r} {rec.privilege} on "
            f"{format_domain(rec.domain)} ({rec.algorithm}{shard})")
        if rec.visited:
            visits = " ".join(f"{k}={v}"
                              for k, v in sorted(rec.visited.items()))
            lines.append(f"    visited: {visits}")
        for e in rec.edges:
            if want_src is not None and (
                    e.src != want_src and want_src not in e.collapsed):
                continue
            extra = (f" summarizing tasks {list(e.collapsed)}"
                     if e.collapsed else "")
            lines.append(
                f"    edge {task_id} <- {e.src}: {e.kind} entry by "
                f"{_src_label(e.src, tasks)} ({e.privilege}) on "
                f"{format_domain(e.domain)}, via {_format_via(e.via)}"
                f"{extra}")
        for p in rec.pruned:
            if want_src is not None and p.src != want_src:
                continue
            lines.append(
                f"    pruned {_src_label(p.src, tasks)}: {p.reason} on "
                f"{format_domain(p.domain)}, via {_format_via(p.via)}")
        if not rec.edges and rec.phase == "materialize":
            lines.append("    no dependences (first writer or "
                         "non-interfering)")
    if want_src is not None:
        matched = any(
            want_src == e.src or want_src in e.collapsed
            for rec in records for e in rec.edges)
        if not matched:
            lines.append(
                f"  (no witness for edge {task_id} <- {want_src}: "
                "either no such dependence, or it was pruned — see any "
                "prune lines above)")
    return "\n".join(lines)
