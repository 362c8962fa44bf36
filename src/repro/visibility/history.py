"""Region values, history entries, and the blending kernel of section 3.1.

A :class:`RegionValues` pairs an index-space domain with a value array
aligned element-for-element with ``domain.indices``; ``X/Y`` of Figure 7 is
:meth:`RegionValues.restrict`.  The blending function ``b`` of section 3.1
(writes opaque, reductions semi-transparent, reads transparent) is
:func:`paint_into`: one kernel that replays a history oldest-first straight
into the buffer being materialized, shared by every algorithm that keeps
histories, beside the one dependence scan :func:`scan_dependences`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import CoherenceError
from repro.geometry.fastpath import active_geometry_cache, batch_overlaps
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


class PrivilegeColumns:
    """List-like history container mirroring entries into numpy columns.

    The backing Python list stays authoritative — iteration, indexing,
    painting and pickling all see ordinary entry objects — while the
    privilege kind and reduction-operator code are maintained in parallel
    structure-of-arrays columns (amortized O(1) append via capacity
    doubling).  Dependence scans consume the columns; everything else is
    oblivious to them.

    This base class fits :class:`~repro.visibility.eqset.EqEntry`-style
    records (no per-entry domain).  :class:`ColumnarHistory` adds the
    domain-bounds columns the batched overlap kernel prefilters on.
    """

    __slots__ = ("_entries", "_kind", "_redop", "_n")
    _COLUMN_NAMES = ("_kind", "_redop")

    def __init__(self, entries: Iterable = ()) -> None:
        self._entries: list = []
        self._n = 0
        self._alloc(8)
        for entry in entries:
            self.append(entry)

    # -- column storage ------------------------------------------------
    def _alloc(self, cap: int) -> None:
        self._kind = np.empty(cap, dtype=np.int8)
        self._redop = np.empty(cap, dtype=np.int64)

    def _grow(self, needed: int) -> None:
        cap = max(needed, 2 * self._kind.size)
        n = self._n
        for name in self._COLUMN_NAMES:
            old = getattr(self, name)
            fresh = np.empty(cap, dtype=old.dtype)
            fresh[:n] = old[:n]
            setattr(self, name, fresh)

    def _fill(self, n: int, entry) -> None:
        p = entry.privilege
        self._kind[n] = (KIND_REDUCE if p.is_reduce
                         else KIND_READ if p.is_read else KIND_WRITE)
        self._redop[n] = _redop_code(p.redop)

    # -- mutation ------------------------------------------------------
    def append(self, entry) -> None:
        n = self._n
        if n == self._kind.size:
            self._grow(n + 1)
        self._fill(n, entry)
        self._entries.append(entry)
        self._n = n + 1

    def reset(self, entries: Iterable = ()) -> None:
        """Replace the contents wholesale (write occlusion, compaction),
        keeping the allocated capacity."""
        self._entries = []
        self._n = 0
        for entry in entries:
            self.append(entry)

    def map_entries(self, fn) -> "PrivilegeColumns":
        """A new container with ``fn`` applied entry-by-entry, reusing
        this container's privilege columns wholesale.

        ``fn`` must preserve each entry's privilege — positional history
        splits (``EqEntry.restricted``) do, which is what makes a
        refinement a column copy plus one value gather per entry instead
        of a rebuild.
        """
        out = type(self).__new__(type(self))
        n = self._n
        out._entries = [fn(e) for e in self._entries]
        out._n = n
        for name in self._COLUMN_NAMES:
            setattr(out, name, getattr(self, name)[:n].copy())
        return out

    def check_columns(self) -> None:
        """Assert columns ≡ entries: every column re-derived from the
        entry list equals the stored one."""
        n = self._n
        fresh = type(self)(self._entries)
        if fresh._n != n:
            raise CoherenceError(
                f"{self!r} holds {len(self._entries)} entries")
        for name in self._COLUMN_NAMES:
            if not np.array_equal(getattr(fresh, name)[:n],
                                  getattr(self, name)[:n]):
                raise CoherenceError(
                    f"{self!r}: column {name} diverged from its entries")

    # -- trimmed column views ------------------------------------------
    @property
    def entries(self) -> list:
        return self._entries

    @property
    def kinds(self) -> np.ndarray:
        return self._kind[:self._n]

    @property
    def redops(self) -> np.ndarray:
        return self._redop[:self._n]

    # -- list protocol -------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, key):
        return self._entries[key]

    def __eq__(self, other) -> bool:
        if isinstance(other, PrivilegeColumns):
            return self._entries == other._entries
        if isinstance(other, list):
            return self._entries == other
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # pickle by entries: redop codes are process-local, so columns are
        # rebuilt on load (checkpoints pickle whole runtimes)
        return (type(self), (list(self._entries),))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self._n})"


class ColumnarHistory(PrivilegeColumns):
    """Columnar container for :class:`HistoryEntry` lists.

    Adds the per-entry domain bounds (``lo``/``hi``/``nonempty``) so a
    whole-history scan can hand :func:`batch_overlaps` its broad-phase
    inputs without per-entry attribute walks.
    """

    def map_entries(self, fn) -> "ColumnarHistory":
        # geometry columns change under domain restriction, so a loose
        # history rebuilds instead of copying columns
        return type(self)(fn(e) for e in self._entries)

    def restricted(self, space: IndexSpace) -> "ColumnarHistory":
        """Every entry restricted to ``space``, the disjoint ones dropped
        (how a loose equivalence set's history follows a split)."""
        narrowed = (e.restricted(space) for e in self._entries)
        return type(self)(e for e in narrowed if e is not None)

    __slots__ = ("_lo", "_hi", "_nonempty")
    _COLUMN_NAMES = PrivilegeColumns._COLUMN_NAMES + (
        "_lo", "_hi", "_nonempty")

    def _alloc(self, cap: int) -> None:
        super()._alloc(cap)
        self._lo = np.empty(cap, dtype=np.int64)
        self._hi = np.empty(cap, dtype=np.int64)
        self._nonempty = np.empty(cap, dtype=bool)

    def _fill(self, n: int, entry) -> None:
        super()._fill(n, entry)
        domain = entry.domain
        self._lo[n] = domain._lo
        self._hi[n] = domain._hi
        self._nonempty[n] = domain._indices.size > 0

    @property
    def los(self) -> np.ndarray:
        return self._lo[:self._n]

    @property
    def his(self) -> np.ndarray:
        return self._hi[:self._n]

    @property
    def nonempty(self) -> np.ndarray:
        return self._nonempty[:self._n]


#: Shortest history the vector front-end takes.  ``interference_mask``
#: costs a fixed handful of NumPy calls (~2.5 us) where the scalar
#: privilege test costs ~0.06 us an entry, so the two meet between 32 and
#: 40 entries (EXPERIMENTS.md, "Fork decisions").  Equivalence-set
#: histories hold 1-3 entries in steady state and never outgrow
#: ``HISTORY_COMPACTION_LIMIT``; the painter's global history holds
#: hundreds.
SCAN_VECTOR_MIN = 32


def interfering_indices(privilege: Privilege, entries) -> list[int]:
    """Positions of the entries whose privilege interferes with
    ``privilege`` — the front-end of every dependence scan.

    ``entries`` is a :class:`PrivilegeColumns` or a list; which of the two
    equivalent tests runs is decided by what the history is and how long
    it has grown, never by a setting.
    """
    if isinstance(entries, PrivilegeColumns) \
            and len(entries) >= SCAN_VECTOR_MIN:
        return np.flatnonzero(interference_mask(
            privilege, entries.kinds, entries.redops)).tolist()
    return [i for i, e in enumerate(entries)
            if privilege.interferes(e.privilege)]


def scan_dependences(privilege: Privilege, space: IndexSpace,
                     entries: Iterable[HistoryEntry],
                     deps: set[int],
                     meter: Optional[CostMeter] = None,
                     led=None) -> None:
    """Collect task ids of entries that interfere with a new access.

    A dependence exists when the privileges interfere *and* the domains
    truly overlap (content-based coherence, section 3.2).

    The exact overlap answers are precomputed for every
    privilege-interfering entry the loop can reach in one
    :func:`batch_overlaps` pass (fed the bounds columns when the history
    has them); the loop then replays the already-a-dependence skip, which
    consults ``deps`` as it grows, so the meter totals are those of an
    entry-at-a-time walk (analysis fingerprints hash them).  ``led`` —
    the caller's open access span while witnesses are recorded, else None
    — observes the same loop: edge/prune records that never touch the
    meter or alter control flow.
    """
    if isinstance(entries, PrivilegeColumns):
        items = entries.entries
    else:  # the tree painter hands over a generator
        items = entries = list(entries)
    n = len(items)
    if n == 0:
        return
    if meter is not None:
        meter.count("entries_scanned", n)
    idx = interfering_indices(privilege, entries)
    # Only entries the loop can actually test go to the kernel: tasks that
    # are dependences already at scan start cost no kernel work or
    # op-cache churn (summaries are always tested).
    test_idx = [i for i in idx
                if items[i].collapsed_ids or items[i].task_id not in deps]
    overlap: dict[int, bool] = {}
    if len(test_idx) > 1:
        domains = [items[i].domain for i in test_idx]
        if isinstance(entries, ColumnarHistory):
            sel = np.asarray(test_idx, dtype=np.int64)
            verdicts = batch_overlaps(space, domains, lo=entries.los[sel],
                                      hi=entries.his[sel],
                                      nonempty=entries.nonempty[sel])
        else:
            verdicts = batch_overlaps(space, domains)
        overlap = dict(zip(test_idx, verdicts.tolist()))
    tested = 0
    for i in idx:
        entry = items[i]
        if entry.task_id in deps and not entry.collapsed_ids:
            continue
        tested += 1
        hit = overlap[i] if i in overlap else space.overlaps(entry.domain)
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
            led.prune(entry.task_id, "disjoint",
                      prov.domain_desc(entry.domain))
    if meter is not None and tested:
        meter.count("intersection_tests", tested)


def paint_into(out: np.ndarray, target: IndexSpace, clip: IndexSpace,
               entries, meter: Optional[CostMeter] = None) -> None:
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
    set).  A :class:`ColumnarHistory` of scan-kernel length is prefiltered
    on its kind and bounds columns, like the dependence scan.

    The meter is charged once, in bulk, what an entry-at-a-time walk
    charges: ``entries_scanned`` per entry, ``elements_moved`` per visible
    entry whose bounds meet ``clip``'s (the smaller of the two sizes).
    """
    if isinstance(entries, PrivilegeColumns):
        items = entries.entries
    else:  # the tree painter hands over a generator
        items = list(entries)
    if meter is not None and items:
        meter.count("entries_scanned", len(items))
    if clip.is_empty:
        return
    lo, hi = clip.bounds
    if isinstance(entries, ColumnarHistory) \
            and len(items) >= SCAN_VECTOR_MIN:
        live = np.flatnonzero(
            (entries.kinds != KIND_READ) & entries.nonempty
            & (entries.los <= hi) & (entries.his >= lo))
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
