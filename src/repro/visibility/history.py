"""Region values, history entries, and the blending kernel of section 3.1.

A :class:`RegionValues` pairs an index-space domain with a value array
aligned element-for-element with ``domain.indices``.  The blending
function ``b`` of section 3.1 (writes opaque, reductions semi-transparent,
reads transparent) is :func:`paint_into`: one kernel that replays a
history oldest-first straight into the buffer being materialized, shared
by every algorithm that keeps histories, beside the one dependence scan
:func:`scan_dependences`.

A history is a plain ``list`` of entries — every equivalence set's, the
tree painter's path, the painter's one global history — and each of the
two walks it with one loop, oldest first, an entry at a time.
An *analysis-only* store keeps :data:`UNVALUED` in place of values, and
``paint_into(None, ...)`` walks and charges what blending would.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from repro.errors import CoherenceError
from repro.geometry.fastpath import active_geometry_cache
from repro.geometry.index_space import IndexSpace
from repro.obs import provenance as prov
from repro.privileges import Privilege
from repro.visibility.meter import CostMeter


class RegionValues:
    """Values over an index-space domain.

    ``values[k]`` is the value of element ``domain.indices[k]``.  Instances
    are conceptually immutable: every operation returns a new object (the
    arrays themselves may be shared views when provably safe).
    """

    __slots__ = ("domain", "values")

    def __init__(self, domain: IndexSpace, values: np.ndarray) -> None:
        values = np.asarray(values)
        if values.shape != (domain.size,):
            raise CoherenceError(
                f"values shape {values.shape} does not match domain size "
                f"{domain.size}")
        self.domain = domain
        self.values = values

    # ------------------------------------------------------------------
    @staticmethod
    def filled(domain: IndexSpace, fill: float | int,
               dtype: np.dtype | type = np.float64) -> "RegionValues":
        """A constant-valued region."""
        arr = np.empty(domain.size, dtype=dtype)
        arr.fill(fill)
        return RegionValues(domain, arr)

    @property
    def size(self) -> int:
        """Number of elements."""
        return self.domain.size

    def __repr__(self) -> str:
        return f"RegionValues(size={self.size}, dtype={self.values.dtype})"


class Unvalued(Enum):
    """A visible entry's values in an analysis-only store, which keeps
    none: the one member, :data:`UNVALUED` (it pickles as itself)."""
    UNVALUED = "UNVALUED"


UNVALUED = Unvalued.UNVALUED


@dataclass(slots=True, eq=False)
class HistoryEntry:
    """One recorded operation: who (task), how (privilege), what (values).

    ``values`` is ``None`` for read entries — reads never contribute to
    painting but must stay in histories so later writers pick up
    write-after-read dependences — and :data:`UNVALUED` for the visible
    entries of an analysis-only store.

    ``collapsed_ids`` appears on *summary* entries produced by history
    compaction: a long prefix of operations is folded into one opaque
    write holding the blended values, and the ids of every collapsed task
    ride along so dependence scans stay sound (conservatively — a summary
    interferes like a write even where the collapsed operations were
    reductions).

    The constructor checks nothing: the stores build entries from values
    ``commit`` validated and on domains they cut themselves.  The rules
    (:meth:`check`) are proved where outside data enters — :meth:`checked`
    and ``EquivalenceSet.record`` — and re-proved by ``check_invariants``.
    """

    privilege: Privilege
    domain: IndexSpace
    values: Union[RegionValues, Unvalued, None]
    task_id: int
    collapsed_ids: frozenset[int] = frozenset()

    @classmethod
    def checked(cls, *args, **kwargs) -> "HistoryEntry":
        """An entry built from outside data, once :meth:`check` passes."""
        entry = cls(*args, **kwargs)
        entry.check()
        return entry

    def check(self) -> None:
        """Raise unless a read carries no values and a visible entry's
        values (unless :data:`UNVALUED`) live on its domain."""
        if self.privilege.is_read:
            if self.values is not None:
                raise CoherenceError("read entries must not carry values")
        elif self.values is not UNVALUED:
            if self.values is None or (self.values.domain is not self.domain
                                       and self.values.domain != self.domain):
                raise CoherenceError("entry values must live on the entry domain")

    @property
    def is_visible(self) -> bool:
        """Whether the entry contributes to painted values (writes and
        reductions do; reads are fully transparent)."""
        return not self.privilege.is_read

    def __repr__(self) -> str:
        return (f"HistoryEntry(t{self.task_id}, {self.privilege!r}, "
                f"n={self.domain.size})")


def scan_dependences(privilege: Privilege, space: IndexSpace,
                     entries: list[HistoryEntry], deps: set[int],
                     meter: Optional[CostMeter] = None,
                     led=None) -> None:
    """Collect task ids of entries that interfere with a new access.

    A dependence exists when the privileges interfere *and* the domains
    truly overlap (content-based coherence, section 3.2).  Every
    interfering entry is *tested* unless its task is already in ``deps``
    when the walk reaches it (a summary always is), and the meter's
    counters get that entry-at-a-time total, added once a scan (analysis
    fingerprints hash it; a zero adds no key).  The interference test is
    :meth:`Privilege.interferes` inlined on the ``commutes`` markers; a
    test rejects on bounds inline and asks the operation cache's exact
    ``overlaps`` last (straight, as :func:`paint_into` does); a hit adds
    the entry's ids.

    ``led`` — the caller's open access span while witnesses are recorded,
    else None — observes the same walk: edge/prune records that never
    touch the meter or alter control flow.
    """
    qlo, qhi = space._lo, space._hi
    mark = privilege.commutes
    overlaps = active_geometry_cache().overlaps
    tested = 0
    for entry in entries:
        if (mark is not None and entry.privilege.commutes is mark) or (
                entry.task_id in deps and not entry.collapsed_ids):
            continue
        tested += 1
        d = entry.domain
        if not (d._hi < qlo or qhi < d._lo or d._hi < d._lo) \
                and overlaps(space, d):
            deps.add(entry.task_id)
            if entry.collapsed_ids:
                deps.update(entry.collapsed_ids)
            if led is not None:
                led.edge(entry.task_id,
                         "summary" if entry.collapsed_ids else "history",
                         prov.privilege_label(entry.privilege),
                         prov.domain_desc(d), collapsed=entry.collapsed_ids)
        elif led is not None:
            led.prune(entry.task_id, "disjoint", prov.domain_desc(d))
    if meter is not None and entries:
        counters = meter.counters
        counters["entries_scanned"] += len(entries)
        if tested:
            counters["intersection_tests"] += tested


def paint_into(out: Optional[np.ndarray], target: IndexSpace,
               clip: IndexSpace, entries: list,
               meter: Optional[CostMeter] = None) -> None:
    """Blend a history, oldest first, into the buffer being materialized.

    This is the blending function ``b`` of section 3.1 applied in the
    oldest-to-newest traversal of Figure 7 — a write overlays, a reduction
    folds, a read does nothing — done in place: ``out`` is aligned with
    ``target`` and only the elements of ``clip`` (a subset of ``target``)
    are painted, ``out[dst] = src`` or ``out[dst] = fold(out[dst], src)``
    per visible entry, both sides whole-buffer slices where the overlap is
    the whole buffer and cached gather maps
    (:meth:`GeometryCache.positions`, what :meth:`IndexSpace.positions_of`
    returns) elsewhere.  No intermediate region is
    built and nothing is copied but the painted elements; the result has
    ``out``'s dtype whatever the entries hold.

    An entry's values are a :class:`RegionValues` on the entry's own
    domain; one on ``clip`` itself (an entry covering its equivalence set,
    painted over that set) needs no geometry, and one whose bounds miss
    ``clip``'s is rejected inline, before any.

    The meter's counters get, once and in bulk, what an entry-at-a-time
    walk charges: ``entries_scanned`` per entry, ``elements_moved`` per
    visible entry whose bounds meet ``clip``'s (the smaller of the two
    sizes); a zero adds no key.  With ``out`` None (an analysis-only
    store) only that walk is made.
    """
    if meter is not None and entries:
        meter.counters["entries_scanned"] += len(entries)
    size = clip.size
    if not size:
        return
    lo, hi = clip._lo, clip._hi
    moved = 0
    if out is None:  # analysis-only: the walk's charges, nothing blended
        for entry in entries:
            d = entry.domain
            if entry.values is not None and not (
                    d._hi < lo or hi < d._lo or d._hi < d._lo):
                moved += min(size, d.size)
        if meter is not None and moved:
            meter.counters["elements_moved"] += moved
        return
    # straight at the operation cache the IndexSpace operators dispatch
    # to: a painter-length history asks it about dozens of entries a call
    cache = active_geometry_cache()
    for entry in entries:
        values = entry.values
        if values is None:
            continue
        domain, values = values.domain, values.values
        if domain is clip:
            common = clip
        else:
            dlo, dhi = domain._lo, domain._hi
            if dhi < lo or hi < dlo or dhi < dlo:  # disjoint or empty
                continue
            common = cache.intersection(clip, domain)
        moved += min(size, values.size)
        n = common.size
        if n == 0:
            continue
        if n != values.size:
            values = values[cache.positions(domain, common)]
        dst = slice(None) if n == out.size else cache.positions(target,
                                                                common)
        if entry.privilege.is_write:
            out[dst] = values
        else:
            out[dst] = entry.privilege.redop.fold(out[dst], values)
    if meter is not None and moved:
        meter.counters["elements_moved"] += moved
