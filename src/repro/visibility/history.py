"""Region values, history entries, and the blending kernel of section 3.1.

A :class:`RegionValues` pairs an index-space domain with a value array
aligned element-for-element with ``domain.indices``.  The three set-lifted
operators of Figure 7 —

* ``X/Y``  → :meth:`RegionValues.restrict`
* ``X\\Y`` → :meth:`RegionValues.subtract`
* ``X ⊕ Y`` → :meth:`RegionValues.overlay`

— plus the pointwise-lifted reduction fold are implemented here once and
shared by every algorithm.  The blending function ``b`` of section 3.1
(writes opaque, reductions semi-transparent, reads transparent) appears as
:func:`paint_entry`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.errors import CoherenceError
from repro.geometry.fastpath import batch_overlaps
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

    # ------------------------------------------------------------------
    # Figure 7's set operators lifted to value arrays
    # ------------------------------------------------------------------
    def restrict(self, space: IndexSpace) -> "RegionValues":
        """``X/Y``: the subset of this region sharing points with ``space``."""
        common = self.domain & space
        if common.size == self.domain.size:
            return self
        pos = self.domain.positions_of(common)
        return RegionValues(common, self.values[pos])

    def subtract(self, space: IndexSpace) -> "RegionValues":
        """``X\\Y``: the subset of this region not sharing points with
        ``space``."""
        remaining = self.domain - space
        if remaining.size == self.domain.size:
            return self
        pos = self.domain.positions_of(remaining)
        return RegionValues(remaining, self.values[pos])

    def overlay(self, other: "RegionValues") -> "RegionValues":
        """``X ⊕ Y``: union of domains, ``other``'s values winning on the
        overlap."""
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        domain = self.domain | other.domain
        out = np.empty(domain.size, dtype=np.result_type(self.values, other.values))
        out[domain.positions_of(self.domain)] = self.values
        out[domain.positions_of(other.domain)] = other.values
        return RegionValues(domain, out)

    def _same_domain(self, other: "RegionValues") -> bool:
        """Cheap test for the blending fast path: identical domains."""
        return other.domain is self.domain or (
            other.domain.size == self.domain.size
            and other.domain == self.domain)

    def fold_in(self, op, other: "RegionValues") -> "RegionValues":
        """``X ⊕ f(X/Y, Y/X)``: fold ``other`` into this region where the
        domains overlap (Figure 7 line 8)."""
        if self._same_domain(other):
            # the common steady-state case: whole-domain fold, no gathers
            return RegionValues(self.domain, op.fold(self.values,
                                                     other.values))
        common = self.domain & other.domain
        if common.is_empty:
            return self
        out = self.values.copy()
        mine = self.domain.positions_of(common)
        theirs = other.domain.positions_of(common)
        out[mine] = op.fold(out[mine], other.values[theirs])
        return RegionValues(self.domain, out)

    def write_onto(self, other: "RegionValues") -> "RegionValues":
        """``(X ⊕ Y)/X``: overwrite this region with ``other``'s values on
        the overlap, keeping this domain (Figure 7 line 6)."""
        if self._same_domain(other):
            # full overwrite: adopt the other buffer (copied — histories
            # must never alias task buffers)
            return RegionValues(self.domain, other.values.copy())
        common = self.domain & other.domain
        if common.is_empty:
            return self
        out = self.values.copy()
        out[self.domain.positions_of(common)] = \
            other.values[other.domain.positions_of(common)]
        return RegionValues(self.domain, out)

    def gather_into(self, target_domain: IndexSpace, out: np.ndarray) -> None:
        """Scatter this region's values into a buffer aligned with
        ``target_domain`` (which must contain this domain)."""
        out[target_domain.positions_of(self.domain)] = self.values

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


def paint_entry(current: RegionValues, entry: HistoryEntry,
                meter: Optional[CostMeter] = None) -> RegionValues:
    """Apply one history entry to a region being materialized.

    This is the blending function ``b`` of section 3.1 applied in the
    oldest-to-newest traversal of Figure 7: a write overlays, a reduction
    folds, a read does nothing.
    """
    if entry.privilege.is_read or entry.values is None:
        return current
    common_hint = current.domain.bbox_overlaps(entry.domain)
    if not common_hint:
        return current
    if meter is not None:
        meter.count("elements_moved", min(current.size, entry.domain.size))
    if entry.privilege.is_write:
        return current.write_onto(entry.values)
    assert entry.privilege.redop is not None
    return current.fold_in(entry.privilege.redop, entry.values)


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
                     meter: Optional[CostMeter] = None) -> None:
    """Collect task ids of entries that interfere with a new access.

    A dependence exists when the privileges interfere *and* the domains
    truly overlap (content-based coherence, section 3.2).

    The exact overlap answers are precomputed for every
    privilege-interfering entry the loop can reach in one
    :func:`batch_overlaps` pass (fed the bounds columns when the history
    has them); the loop then replays the already-a-dependence skip, which
    consults ``deps`` as it grows, so the meter totals are those of an
    entry-at-a-time walk (analysis fingerprints hash them).  The
    provenance ledger (``repro.obs.provenance``) observes the same loop:
    one hoisted enabled-check, then edge/prune records that never touch
    the meter or alter control flow.
    """
    led = prov._LEDGER
    led = led if led.enabled else None
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
