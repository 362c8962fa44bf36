"""Region values, history entries, and the blending kernel of section 3.1.

A :class:`RegionValues` pairs an index-space domain with a value array
aligned element-for-element with ``domain.indices``; ``X/Y`` of Figure 7 is
:meth:`RegionValues.restrict`.  The blending function ``b`` of section 3.1
(writes opaque, reductions semi-transparent, reads transparent) is
:func:`paint_into`: one kernel that replays a history oldest-first straight
into the buffer being materialized, shared by every algorithm that keeps
histories, beside the one dependence scan :func:`scan_dependences`.

A history is a plain ``list`` of entries — every equivalence set's, the
tree painter's path — walked by a straight loop, or the painter's one
global :class:`ColumnarHistory`, whose walk past :data:`SCAN_VECTOR_MIN`
entries is narrowed on NumPy columns to the entries that can matter.  The
columns are a cache of the entry list, filled when such a walk asks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import CoherenceError
from repro.geometry.fastpath import (active_geometry_cache,
                                     resolve_overlaps)
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

    @property
    def is_empty(self) -> bool:
        """True when the domain is empty."""
        return self.domain.is_empty

    def copy(self) -> "RegionValues":
        """Deep copy (fresh value buffer)."""
        return RegionValues(self.domain, self.values.copy())

    def restrict(self, space: IndexSpace) -> "RegionValues":
        """``X/Y``: the subset of this region sharing points with ``space``."""
        common = self.domain & space
        if common.size == self.domain.size:
            return self
        # a restriction follows a split that retires this region: its map
        # is asked once and bypasses the operation cache
        pos = self.domain._positions_raw(common)
        return RegionValues(common, self.values[pos])

    def __repr__(self) -> str:
        return f"RegionValues(size={self.size}, dtype={self.values.dtype})"


@dataclass(frozen=True)
class HistoryEntry:
    """One recorded operation: who (task), how (privilege), what (values).

    ``values`` is ``None`` for read entries — reads never contribute to
    painting but must stay in histories so later writers pick up
    write-after-read dependences.

    ``collapsed_ids`` appears on *summary* entries produced by history
    compaction: a long prefix of operations is folded into one opaque
    write holding the blended values, and the ids of every collapsed task
    ride along so dependence scans stay sound (conservatively — a summary
    interferes like a write even where the collapsed operations were
    reductions).
    """

    privilege: Privilege
    domain: IndexSpace
    values: Optional[RegionValues]
    task_id: int
    collapsed_ids: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        if self.privilege.is_read:
            if self.values is not None:
                raise CoherenceError("read entries must not carry values")
        else:
            if self.values is None or (self.values.domain is not self.domain
                                       and self.values.domain != self.domain):
                raise CoherenceError("entry values must live on the entry domain")

    @property
    def is_visible(self) -> bool:
        """Whether the entry contributes to painted values (writes and
        reductions do; reads are fully transparent)."""
        return not self.privilege.is_read

    def restricted(self, space: IndexSpace) -> Optional["HistoryEntry"]:
        """The entry restricted to ``space``; None when disjoint."""
        domain = self.domain & space
        if domain.is_empty:
            return None
        if domain.size == self.domain.size:
            return self
        values = None if self.values is None else self.values.restrict(domain)
        return HistoryEntry(self.privilege, domain, values, self.task_id,
                            self.collapsed_ids)

    def __repr__(self) -> str:
        return (f"HistoryEntry(t{self.task_id}, {self.privilege!r}, "
                f"n={self.domain.size})")


# ----------------------------------------------------------------------
# columnar histories: structure-of-arrays backing for dependence scans
# ----------------------------------------------------------------------
#: Privilege-kind codes in the ``kind`` column.
KIND_READ, KIND_WRITE, KIND_REDUCE = 0, 1, 2

# Reduction operators are compared by *identity* in
# :meth:`Privilege.interferes`, so the ``redop`` column interns operator
# instances to small per-process codes by id().  The keep-alive list pins
# every interned operator so ids are never recycled.  Codes are
# process-local and never serialized: columnar containers pickle as their
# entry lists and rebuild columns on load.
_REDOP_CODES: dict[int, int] = {}
_REDOP_KEEPALIVE: list = []


def _redop_code(redop) -> int:
    if redop is None:
        return -1
    code = _REDOP_CODES.get(id(redop))
    if code is None:
        code = len(_REDOP_KEEPALIVE)
        _REDOP_CODES[id(redop)] = code
        _REDOP_KEEPALIVE.append(redop)
    return code


def interference_mask(privilege: Privilege, kinds: np.ndarray,
                      redops: np.ndarray) -> np.ndarray:
    """Vectorized :meth:`Privilege.interferes` against kind/redop columns.

    Matches the scalar relation exactly: the only non-interfering pairs
    are read/read and reduce/reduce with the same operator instance.
    """
    if privilege.is_write:
        return np.ones(len(kinds), dtype=bool)
    if privilege.is_read:
        return kinds != KIND_READ
    return ~((kinds == KIND_REDUCE)
             & (redops == _redop_code(privilege.redop)))


class ColumnarHistory:
    """The painter's one long history: a list of :class:`HistoryEntry`
    with NumPy columns cached beside it.

    The Python list *is* the history — ``append`` is ``list.append``;
    iteration, indexing, painting and pickling see ordinary entry objects.
    The columns (one row of ``_cols`` each, int64: privilege kind,
    reduction-operator code, domain bounds ``lo``/``hi`` — an empty domain
    is ``hi < lo`` — task id, whether the entry is a compaction summary)
    are what a whole-history walk needs to decide, without touching an
    entry object, that the entry cannot matter.  Nothing is allocated
    until a scan or blend of :data:`SCAN_VECTOR_MIN` entries asks, and
    then :meth:`_sync` fills rows ``[filled, n)`` — whatever was appended
    since the last time someone asked — in one assignment.

    Filling mutates on the read path, so the history has one owner thread
    (each replica owns its ``Runtime``; nothing shares an algorithm).
    """

    __slots__ = ("_entries", "_cols", "_filled")
    _WIDTH = 6

    def __init__(self, entries: Iterable[HistoryEntry] = ()) -> None:
        self._entries: list[HistoryEntry] = list(entries)
        self._cols: Optional[np.ndarray] = None
        self._filled = 0

    @staticmethod
    def _row(entry: HistoryEntry) -> tuple:
        p, domain = entry.privilege, entry.domain
        return (KIND_REDUCE if p.is_reduce
                else KIND_READ if p.is_read else KIND_WRITE,
                _redop_code(p.redop), domain._lo, domain._hi, entry.task_id,
                bool(entry.collapsed_ids))

    def _sync(self) -> np.ndarray:
        """The columns, one row each, trimmed to and in step with the
        entry list (capacity doubles)."""
        entries, cols, filled = self._entries, self._cols, self._filled
        n = len(entries)
        if cols is None or cols.shape[1] < n:
            grown = np.empty((self._WIDTH, max(8, 2 * n)), dtype=np.int64)
            if filled:
                grown[:, :filled] = cols[:, :filled]
            self._cols = cols = grown
        if filled < n:
            cols[:, filled:n] = np.array(
                [self._row(e) for e in entries[filled:]], dtype=np.int64).T
            self._filled = n
        return cols[:, :n]

    def append(self, entry: HistoryEntry) -> None:
        self._entries.append(entry)

    def check_columns(self) -> None:
        """Assert columns ≡ entries: brought up to date, every column
        equals the one re-derived from the entry list."""
        if not np.array_equal(self._sync(),
                              type(self)(self._entries)._sync()):
            raise CoherenceError(
                f"{self!r}: columns diverged from the entries")

    # -- list protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, key):
        return self._entries[key]

    def __reduce__(self):
        # pickle by entries: redop codes are process-local, so columns are
        # rebuilt on load (checkpoints pickle whole runtimes)
        return (type(self), (list(self._entries),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self._entries)})"


#: Shortest history whose scan (and blend) is narrowed on the columns.
#: Below it one straight loop over the entries is the whole scan, at
#: ~0.1 us an entry; the column front-end is a fixed run of ~20 NumPy
#: calls, and what both sides then spend on the entries that *can* hit is
#: the same.  Timed on the whole scan and the whole blend over the
#: painter's own histories, the loop leads up to ~250 entries, the two
#: tie between 256 and 512 and the columns lead beyond (9x where almost
#: nothing interferes: 2 048 same-operator reductions); 256 is the low end
#: of the tie (EXPERIMENTS.md, "The scan loops only over what can hit").
#: Only the painter's global history (hundreds of entries) ever crosses
#: it: equivalence-set histories are plain lists that hold 1-3 entries in
#: steady state and never outgrow ``HISTORY_COMPACTION_LIMIT``.
SCAN_VECTOR_MIN = 256


def _conclude(entry: HistoryEntry, hit: bool, deps: set[int], led) -> None:
    """What a tested entry leaves behind: its ids in ``deps`` on a hit,
    and the edge or prune record while ``led`` takes witnesses."""
    if hit:
        deps.add(entry.task_id)
        if entry.collapsed_ids:
            deps.update(entry.collapsed_ids)
        if led is not None:
            led.edge(entry.task_id,
                     "summary" if entry.collapsed_ids else "history",
                     prov.privilege_label(entry.privilege),
                     prov.domain_desc(entry.domain),
                     collapsed=entry.collapsed_ids)
    elif led is not None:
        led.prune(entry.task_id, "disjoint", prov.domain_desc(entry.domain))


def scan_dependences(privilege: Privilege, space: IndexSpace,
                     entries: list[HistoryEntry] | ColumnarHistory,
                     deps: set[int],
                     meter: Optional[CostMeter] = None,
                     led=None) -> None:
    """Collect task ids of entries that interfere with a new access.

    A dependence exists when the privileges interfere *and* the domains
    truly overlap (content-based coherence, section 3.2).  Every
    interfering entry is *tested* unless its task is already in ``deps``
    when the walk reaches it (a summary always is), and the meter is
    charged that entry-at-a-time total whatever the walk skipped on the
    way (analysis fingerprints hash it).

    The walk asks a geometry question only about entries that can hit, in
    one of two ways chosen by what the history is and how long it has
    grown.  A list, or a :class:`ColumnarHistory` short of
    :data:`SCAN_VECTOR_MIN` entries: a straight loop, bounds rejected
    inline, the exact cached test last.  From there on the
    :class:`ColumnarHistory` is narrowed on its columns:
    the exact kernel is asked, once, only about entries that interfere,
    are bounds-near and are not dependences yet; a bounds-far entry can
    never grow ``deps``, so it is a set probe and an increment on numbers
    read from the columns and its entry object is never touched.

    ``led`` — the caller's open access span while witnesses are recorded,
    else None — observes the same walk: edge/prune records that never
    touch the meter or alter control flow.
    """
    columnar = isinstance(entries, ColumnarHistory)
    items = entries._entries if columnar else entries
    n = len(items)
    if n == 0:
        return
    qlo, qhi = space._lo, space._hi
    tested = 0
    if columnar and n >= SCAN_VECTOR_MIN:
        kind, redop, lo, hi, task, summary = entries._sync()
        idx = np.flatnonzero(interference_mask(privilege, kind, redop))
        lo, hi, task, summary = lo[idx], hi[idx], task[idx], summary[idx]
        hits = (lo <= qhi) & (hi >= qlo) & (lo <= hi)  # bounds-near
        if deps:  # ... and not a dependence yet (a summary is always asked)
            hits &= (summary != 0) | ~np.isin(task, list(deps))
        ask = np.flatnonzero(hits)
        if ask.size:  # the candidates' flags become their exact verdicts
            hits[ask] = resolve_overlaps(
                space, [items[i].domain for i in idx[ask].tolist()])
        for i, task_id, summarizes, hit in zip(
                idx.tolist(), task.tolist(), summary.tolist(), hits.tolist()):
            if task_id in deps and not summarizes:
                continue
            tested += 1
            if hit or led is not None:
                _conclude(items[i], hit, deps, led)
    else:
        interferes = privilege.interferes
        for entry in items:
            if not interferes(entry.privilege) or (
                    entry.task_id in deps and not entry.collapsed_ids):
                continue
            tested += 1
            d = entry.domain
            hit = not (d._hi < qlo or qhi < d._lo or d._hi < d._lo) \
                and space.overlaps(d)
            if hit or led is not None:
                _conclude(entry, hit, deps, led)
    if meter is not None:
        meter.charge({"entries_scanned": n, "intersection_tests": tested})


def paint_into(out: np.ndarray, target: IndexSpace, clip: IndexSpace,
               entries: list | ColumnarHistory,
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

    An entry's values are either a :class:`RegionValues` on the entry's
    own domain (:class:`HistoryEntry`) or a bare array aligned with
    ``clip`` (an equivalence set's ``EqEntry``, whose domain *is* the
    set); ``entries`` is a list of either, or the painter's
    :class:`ColumnarHistory`, which at scan-kernel length is prefiltered on
    its kind and bounds columns like the dependence scan.

    The meter is charged once, in bulk, what an entry-at-a-time walk
    charges: ``entries_scanned`` per entry, ``elements_moved`` per visible
    entry whose bounds meet ``clip``'s (the smaller of the two sizes).
    """
    columnar = isinstance(entries, ColumnarHistory)
    items = entries._entries if columnar else entries
    if meter is not None and items:
        meter.count("entries_scanned", len(items))
    if clip.is_empty:
        return
    lo, hi = clip.bounds
    if columnar and len(items) >= SCAN_VECTOR_MIN:
        kind, _, los, his, _, _ = entries._sync()
        live = np.flatnonzero((kind != KIND_READ) & (los <= hi)
                              & (his >= lo) & (los <= his))
        items = [items[i] for i in live.tolist()]
    # straight at the operation cache the IndexSpace operators dispatch
    # to: a painter-length history asks it about dozens of entries a call
    cache = active_geometry_cache()
    size = clip.size
    moved = 0
    for entry in items:
        values = entry.values
        if values is None:
            continue
        if type(values) is RegionValues:
            domain, values = values.domain, values.values
            if domain is clip:
                common = clip
            else:
                dlo, dhi = domain._lo, domain._hi
                if dhi < lo or hi < dlo or dhi < dlo:  # disjoint or empty
                    continue
                common = cache.intersection(clip, domain)
            moved += min(size, values.size)
        else:
            common = clip
            moved += size
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
        meter.count("elements_moved", moved)
