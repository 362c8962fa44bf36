"""Dependence provenance: the witness chain behind every edge.

The dependence graph says *that* task 7 depends on task 4; this module
records *why*.  Every materialize/commit call opens an
:class:`AccessRecord`; the visibility algorithms then attach

* :class:`EdgeWitness` — the concrete history entry (painter), path entry
  (tree painter), equivalence set (Warnock / ray cast) or per-element
  table slot (Z-buffer) whose interference produced the edge;
* :class:`PruneRecord` — candidates that were examined and *rejected*:
  disjoint history entries, sets coalesced by a dominating write,
  entries occluded by a composite view or a write commit;
* visit counters — how many BVH nodes / equivalence sets / path entries
  the analysis walked to reach its answer.

Design constraints (mirrors :mod:`repro.obs.tracer` exactly):

* **Disabled by default, one attribute check when off.**  Hot paths
  hoist ``led = _LEDGER; led = led if led.enabled else None`` once per
  call and guard every hook on a local-variable ``None`` test.
* **Observation only.**  Hooks never call into a
  :class:`~repro.visibility.meter.CostMeter` and never perturb analysis
  control flow, so analysis fingerprints are bit-identical on/off
  (``tests/obs/test_provenance_differential.py`` proves it).
* **Stable wire format.**  Records are plain dataclasses of ints,
  strings and tuples — no ``id()``, no process-local uid counters
  (equivalence sets are described by their *content*: bounds + size).
  Process-backend workers pickle drained records home alongside spans
  and the driver's ledger absorbs them, tagged with the worker's shard.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

#: Shard attribution for records produced on the driver process.
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
    """Everything the ledger learned during one materialize/commit call."""

    task_id: int
    field: str
    algorithm: str
    privilege: str
    domain: tuple
    phase: str = "materialize"
    shard: int = DRIVER_SHARD
    #: Tenant attribution (analysis-service sessions); "" outside the
    #: service.  Set from the ledger's thread-local scope at open time,
    #: or stamped onto shipped worker fragments at absorb time.
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


class _NoopScope:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NOOP_SCOPE = _NoopScope()


class _ShardScope:
    """Context manager installing thread-local shard and/or tenant
    attribution.  ``None`` leaves the respective field untouched, so a
    replica's ``scope(shard=...)`` nested inside a service session's
    ``scope(tenant=...)`` preserves the tenant tag."""

    __slots__ = ("_ledger", "_shard", "_tenant", "_prev_shard",
                 "_prev_tenant")

    def __init__(self, ledger: "ProvenanceLedger", shard: Optional[int],
                 tenant: Optional[str]) -> None:
        self._ledger = ledger
        self._shard = shard
        self._tenant = tenant
        self._prev_shard = None
        self._prev_tenant = None

    def __enter__(self):
        local = self._ledger._local
        if self._shard is not None:
            self._prev_shard = getattr(local, "shard", None)
            local.shard = self._shard
        if self._tenant is not None:
            self._prev_tenant = getattr(local, "tenant", None)
            local.tenant = self._tenant
        return self

    def __exit__(self, *exc):
        local = self._ledger._local
        if self._shard is not None:
            local.shard = (DRIVER_SHARD if self._prev_shard is None
                           else self._prev_shard)
        if self._tenant is not None:
            local.tenant = ("" if self._prev_tenant is None
                            else self._prev_tenant)
        return False


class ProvenanceLedger:
    """Accumulates :class:`AccessRecord` objects; safe to share across
    the thread backend's workers (thread-local open record, locked
    append)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._records: list[AccessRecord] = []
        self._local = threading.local()

    # -- record lifecycle ----------------------------------------------
    def begin_access(self, task_id: int, field_name: str, algorithm: str,
                     privilege, space, phase: str = "materialize") -> None:
        """Open a record for one materialize/commit call on the calling
        thread.  No-op when disabled."""
        if not self.enabled:
            return
        self._local.current = AccessRecord(
            task_id=int(task_id),
            field=field_name,
            algorithm=algorithm,
            privilege=privilege_label(privilege),
            domain=domain_desc(space),
            phase=phase,
            shard=getattr(self._local, "shard", DRIVER_SHARD),
            tenant=getattr(self._local, "tenant", ""))

    def end_access(self, keep_empty: bool = True) -> None:
        """Close and store the calling thread's open record.  With
        ``keep_empty=False`` a record with no edges/prunes/visits is
        dropped (commit records are usually empty)."""
        rec = getattr(self._local, "current", None)
        self._local.current = None
        self._local.source = None
        if rec is None:
            return
        if not keep_empty and not (rec.edges or rec.pruned or rec.visited):
            return
        with self._lock:
            self._records.append(rec)

    # -- hooks (no-ops without an open record) -------------------------
    def set_source(self, desc: tuple) -> None:
        """Name the structure subsequent edges/prunes are witnessed by
        (e.g. ``("eqset", lo, hi, n)``)."""
        self._local.source = desc

    def clear_source(self) -> None:
        self._local.source = None

    def edge(self, src: int, kind: str, privilege: str, domain: tuple,
             collapsed: Iterable[int] = ()) -> None:
        rec = getattr(self._local, "current", None)
        if rec is None:
            return
        via = getattr(self._local, "source", None) or ("history",)
        rec.edges.append(EdgeWitness(
            src=int(src), kind=kind, privilege=privilege, domain=domain,
            via=via, collapsed=tuple(sorted(int(t) for t in collapsed))))

    def prune(self, src: int, reason: str, domain: tuple) -> None:
        rec = getattr(self._local, "current", None)
        if rec is None:
            return
        via = getattr(self._local, "source", None) or ("history",)
        rec.pruned.append(PruneRecord(
            src=int(src), reason=reason, domain=domain, via=via))

    def visit(self, kind: str, n: int = 1) -> None:
        rec = getattr(self._local, "current", None)
        if rec is None or n == 0:
            return
        rec.visited[kind] = rec.visited.get(kind, 0) + int(n)

    # -- shard attribution & shipping ----------------------------------
    def scope(self, shard: Optional[int] = None,
              tenant: Optional[str] = None):
        """Attribute records opened inside the ``with`` block to
        ``shard`` and/or ``tenant`` (``None`` leaves a field as-is, so
        the scopes nest).  Returns a shared no-op when disabled."""
        if not self.enabled:
            return _NOOP_SCOPE
        return _ShardScope(self, shard, tenant)

    def drain(self) -> list:
        """Remove and return every stored record (worker-side shipping)."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def absorb(self, records: Iterable[AccessRecord]) -> None:
        """Fold shipped records (already shard-tagged) into this ledger.

        Worker processes know their shard but not their tenant; the
        absorb happens on the driver thread running the session, so the
        thread-local tenant attribution (if any) is stamped onto
        fragments that arrive untagged."""
        records = list(records)
        if not records:
            return
        tenant = getattr(self._local, "tenant", "")
        if tenant:
            for rec in records:
                if not rec.tenant:
                    rec.tenant = tenant
        with self._lock:
            self._records.extend(records)

    def snapshot(self) -> list:
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    # -- queries -------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def records_for(self, task_id: int,
                    phase: Optional[str] = None,
                    shard: Optional[int] = None,
                    tenant: Optional[str] = None) -> list:
        """Records for one task, in recording order."""
        return [r for r in self.snapshot()
                if r.task_id == task_id
                and (phase is None or r.phase == phase)
                and (shard is None or r.shard == shard)
                and (tenant is None or r.tenant == tenant)]

    def by_shard(self) -> dict:
        """``{shard: record count}`` over everything stored."""
        out: dict[int, int] = {}
        for rec in self.snapshot():
            out[rec.shard] = out.get(rec.shard, 0) + 1
        return out

    def by_tenant(self) -> dict:
        """``{tenant: record count}`` over everything stored ("" is
        everything recorded outside a service session)."""
        out: dict[str, int] = {}
        for rec in self.snapshot():
            out[rec.tenant] = out.get(rec.tenant, 0) + 1
        return out


#: Process-global ledger, disabled by default — hot paths read this
#: module attribute directly (one attribute check on the fast path).
_LEDGER = ProvenanceLedger(enabled=False)


def active_ledger() -> ProvenanceLedger:
    return _LEDGER


def set_ledger(ledger: ProvenanceLedger) -> ProvenanceLedger:
    """Install ``ledger`` as the process-global ledger; returns the
    previous one so callers can restore it."""
    global _LEDGER
    previous = _LEDGER
    _LEDGER = ledger
    return previous


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


def explain_task(ledger: ProvenanceLedger, task_id: int, tasks=None,
                 edge: Optional[tuple] = None) -> str:
    """Render the witness chain for one task's accesses.

    ``tasks`` (optional, ``runtime.tasks``) supplies task names.
    ``edge=(src, dst)`` restricts output to witnesses and prunes
    involving ``src`` (``dst`` must equal ``task_id``).
    """
    records = ledger.records_for(task_id)
    if not records:
        return (f"task {task_id}: no provenance recorded "
                "(was the ledger enabled during analysis?)")
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
