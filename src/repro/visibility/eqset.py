"""Equivalence sets and their spatial stores (sections 6 and 7).

An *equivalence set* is a pair (region, history): an
:class:`EquivalenceSet` and its list of
:class:`~repro.visibility.history.HistoryEntry` objects, each on a subset
of the set.  Warnock (section 6) keeps every entry over the whole set, so
every operation in a history is relevant to every element and painting is
a handful of whole-array operations; ray casting (section 7) builds on the
same sets and lets reads and reductions record narrower entries.  A set
that is cut narrows its history one way, :meth:`EquivalenceSet.pieces`.

Two stores organize the live equivalence sets:

* :class:`RefinementStore` — Warnock's monotone refinement: each live set
  is a row of an owner column over the root, a split adds a row, and
  section 6.1's BVH search is charged rather than walked (with per-region
  memoization of constituent sets: the answer itself until a set splits).
* :class:`BucketStore` — ray casting's structure: sets are bucketed under
  the leaves of a disjoint-and-complete partition (section 7.1) and may be
  *removed* as well as split (dominating writes coalesce; one that moves
  no boundary renews its set in place).  When no such partition exists a
  K-d tree takes the buckets' place.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Optional

import numpy as np

from repro.errors import CoherenceError, GeometryError
from repro.geometry.fastpath import active_geometry_cache, geometry_cache
from repro.geometry.index_space import IndexSpace
from repro.geometry.kdtree import KDTree
from repro.regions.partition import Partition
from repro.regions.region import Region
from repro.visibility.history import (UNVALUED, HistoryEntry, RegionValues,
                                      paint_into)
from repro.visibility.meter import CostMeter, UidSource

_eqset_uid = UidSource()


#: Bound on per-set history length.  Fields that are reduced or
#: read forever without an occluding write (Pennant's ``dt``) would grow
#: their histories without bound; past the limit the history prefix is
#: *collapsed* into one opaque summary write holding the blended values
#: and the collapsed task ids (Legion similarly applies pending reductions
#: eagerly once they pile up).  The trade: dependence scans against a
#: summary are conservative — it interferes like a write even where the
#: collapsed operations were same-operator reductions.
HISTORY_COMPACTION_LIMIT = 32


class EquivalenceSet:
    """A region of elements sharing one coherence history (section 6).

    ``history`` lists :class:`HistoryEntry` objects, oldest first, each on
    a subset of ``space``.  Warnock's sets keep every entry over the whole
    set (section 6's invariant, which its store checks), so painting one is
    whole-array work; ray casting's sets stay *stable* instead (section 7):
    reads and reductions record their own sub-domains, and only a write
    must cover the set.  ``key`` is the set's touch key, ``("eqset", uid,
    first element)``, kept beside the uid and space it is read off (and,
    derived, not pickled).
    """

    __slots__ = ("uid", "space", "history", "key")

    def __init__(self, space: IndexSpace,
                 history: Optional[list[HistoryEntry]] = None) -> None:
        if not space.size:
            raise CoherenceError("equivalence sets must be non-empty")
        self.uid = _eqset_uid.take()
        self.space = space
        self.key = ("eqset", self.uid, space._lo)
        self.history: list[HistoryEntry] = [] if history is None else history

    def __getstate__(self):
        return None, {"uid": self.uid, "space": self.space,
                      "history": self.history}

    def __setstate__(self, state) -> None:
        _eqset_uid.restore(self, state)
        self.key = ("eqset", self.uid, self.space._lo)

    # ------------------------------------------------------------------
    def pieces(self, masks: list[np.ndarray]) -> list["EquivalenceSet"]:
        """A fresh set per mask over this set's elements (each non-empty),
        holding the flagged elements, with every entry cut to it: emptied
        entries dropped, order kept, and an entry that covered this set
        covering the piece on the piece's own space object (painting it
        stays whole-array work).  The one way a history follows a cut set:
        Warnock's split, ray casting's carve and a dominating write's
        remainder."""
        n = self.space.size
        # each entry's positions in this set; None where it covers the set
        where = [None if e.domain.size == n else
                 self.space._positions_raw(e.domain) for e in self.history]
        out = []
        for mask in masks:
            space = IndexSpace(self.space.indices[mask], trusted=True)
            history = []
            for entry, pos in zip(self.history, where):
                keep = mask if pos is None else mask[pos]
                if pos is None:
                    domain = space
                elif keep.all():
                    history.append(entry)
                    continue
                elif keep.any():
                    domain = IndexSpace(entry.domain.indices[keep],
                                        trusted=True)
                else:
                    continue
                values = entry.values
                if type(values) is RegionValues:
                    values = RegionValues(domain, values.values[keep])
                history.append(HistoryEntry(entry.privilege, domain, values,
                                            entry.task_id,
                                            entry.collapsed_ids))
            out.append(EquivalenceSet(space, history))
        return out

    def split(self, space: IndexSpace, meter: Optional[CostMeter] = None,
              mask: Optional[np.ndarray] = None
              ) -> tuple["EquivalenceSet", Optional["EquivalenceSet"]]:
        """Refine into (self ∩ space, self \\ space) — Figure 9 line 11.

        The second component is ``None`` when this set is contained in
        ``space``.  Positional: ``mask`` says which of this set's elements
        ``space`` holds (a store reads it off its owner column).
        """
        if mask is None:
            mask = self.space.membership_mask(space)
        if not np.logical_or.reduce(mask):
            raise CoherenceError("split requires overlap")
        if np.logical_and.reduce(mask):
            return self, None
        inside, outside = self.pieces([mask, ~mask])
        if meter is not None:
            meter.count("eqsets_split")
            meter.count("eqsets_created", 2)
            meter.count("elements_moved",
                        self.space.size * max(1, len(self.history)))
        return inside, outside

    def paint(self, dtype: np.dtype, meter: Optional[CostMeter] = None
              ) -> np.ndarray:
        """Current values of this set's elements: replay the history."""
        current = np.zeros(self.space.size, dtype=dtype)
        paint_into(current, self.space, self.space, self.history, meter)
        return current

    def record(self, entry: HistoryEntry) -> None:
        """Append one operation built outside a store, once it is proved:
        the entry's own rules (:meth:`HistoryEntry.check`), its domain
        inside this set, and a write covering the set.  The stores append
        the entries they build on domains they cut through
        :meth:`_append`, which proves nothing; ``check_invariants``
        re-proves every entry."""
        entry.check()
        if entry.domain is not self.space \
                and not entry.domain.issubset(self.space):
            raise CoherenceError("entry escapes its equivalence set")
        if entry.privilege.is_write and entry.domain.size != self.space.size:
            raise CoherenceError(
                "write entries must cover their equivalence set")
        self._append(entry)

    def _append(self, entry: HistoryEntry) -> None:
        """Append one operation on a subset of this set (a write on all
        of it).  A write occludes the entire prior history — Figure 9
        lines 30–31 and Figure 11's simplification of histories by
        writes; histories longer than :data:`HISTORY_COMPACTION_LIMIT`
        collapse into a summary write."""
        if entry.privilege.is_write:
            self.history = [entry]
            return
        self.history.append(entry)
        if len(self.history) > HISTORY_COMPACTION_LIMIT:
            self.compact()

    def compact(self) -> None:
        """Collapse the history into one summary write (bounded history)."""
        from repro.privileges import READ_WRITE

        values = next(e.values for e in self.history if e.values is not None)
        painted = values if values is UNVALUED else RegionValues(
            self.space, self.paint(values.values.dtype))
        ids: set[int] = set()
        for e in self.history:
            ids.add(e.task_id)
            ids.update(e.collapsed_ids)
        self.history = [HistoryEntry(READ_WRITE, self.space, painted,
                                     max(ids), frozenset(ids))]

    def __repr__(self) -> str:
        return (f"EquivalenceSet(uid={self.uid}, n={self.space.size}, "
                f"hist={len(self.history)})")


# ----------------------------------------------------------------------
# Warnock: monotone refinement over an owner column (section 6.1's BVH,
# charged rather than walked)
# ----------------------------------------------------------------------
#: what a store walk is charged in: nodes visited, exact tests made
_WALK_EVENTS = ("bvh_nodes_visited", "intersection_tests")


@dataclass(slots=True)
class _Located:
    """A named region's memoized answer: the list handed back for the
    query ``space``, and the modelled ``cost`` of asking again (a
    :meth:`CostMeter.charge` mapping, None until learned), good while the
    store's generation is the one stamped here."""

    space: IndexSpace
    sets: list
    generation: int
    cost: Optional[dict]
    #: ray casting: the sets' uids as of the last walk, and each set's
    #: intersection with ``space``, in answer order
    uids: Optional[list] = None
    commons: Optional[list] = None


class RefinementStore:
    """Warnock's live equivalence sets, one per row of an owner column.

    Warnock only ever refines, so a set is a row for life: ``_sets[row]``
    is the set, ``_positions[row]`` its root positions and ``_owner[p]``
    the row holding root position ``p``.  A query gathers the owners at
    its positions; a partly covered set splits, the inside taking a fresh
    row.  Section 6.1 searches the refinement history as a BVH and
    memoizes each region's sets; here the owner column is the answer and
    the search is a charge, priced as a balanced BVH over the live sets
    would be (:meth:`locate`).  While no set has split since
    (``_generation`` counts splits) a region's memo *is* the answer.
    The columns are caches of the sets: never pickled.
    """

    def __init__(self, root: EquivalenceSet,
                 meter: Optional[CostMeter] = None,
                 memoize: bool = True) -> None:
        self._sets, self._space = [root], root.space
        self._memo: dict[int, _Located] = {}
        self._memoize = memoize
        self._generation = 0
        self.meter = meter
        self._owner, self._positions = None, []

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_owner": None, "_positions": []}

    # ------------------------------------------------------------------
    def locate(self, space: IndexSpace, region_uid: Optional[int] = None
               ) -> list[EquivalenceSet]:
        """Refine as needed and return the equivalence sets whose union is
        exactly ``space`` (a subset of the root; not to be mutated), in
        order of first element.  ``region_uid`` keys memoization for a
        named region's query.

        Charged per the k sets the query meets: a memo hit what its repeat
        costs (a node and a test per set); a stale memo of m sets 2k − m
        nodes, the subtrees a BVH descent from them would visit; no memo
        ⌈log₂ L⌉ + 1 nodes per set, a balanced BVH over the L live sets.
        Every answer set is tested once."""
        if not space.size:
            return []
        memo = self._memo.get(region_uid) \
            if (region_uid is not None and self._memoize) else None
        if memo is not None and memo.generation == self._generation:
            if self.meter is not None:
                self.meter.charge(memo.cost)
            return memo.sets
        if self._owner is None:
            self._fill_columns()
        at = self._space.positions_of(space)
        owners = self._owner[at]
        owned = np.bincount(owners, minlength=len(self._sets))
        rows = owned.nonzero()[0]
        met = []  # (first element in the query, row, positions to split)
        for row, count in zip(rows.tolist(), owned[rows].tolist()):
            mine = self._positions[row]
            taken = None if count == mine.size else at[owners == row]
            met.append((mine[0] if taken is None else taken[0], row, taken))
        met.sort()
        if self.meter is not None:
            k = len(met)
            nodes = 2 * k - len(memo.sets) if memo is not None \
                else k * ((len(self._sets) - 1).bit_length() + 1)
            self.meter.charge({"bvh_nodes_visited": nodes,
                               "intersection_tests": k})
        out = []
        for _, row, taken in met:
            if taken is not None:
                row = self._split(row, space, taken)
            out.append(self._sets[row])
        if region_uid is not None and self._memoize:
            # a repeat visits each memoized set and tests it, once
            self._memo[region_uid] = _Located(
                space, out, self._generation,
                dict.fromkeys(_WALK_EVENTS, len(out)))
        return out

    def _split(self, row: int, space: IndexSpace, taken: np.ndarray) -> int:
        """Split the set at ``row`` by ``space``, which holds its elements
        at root positions ``taken``; the inside set's row.  It takes a
        fresh row of the owner column, so the set's positions read back
        are the mask; the outside set keeps ``row``."""
        inner, mine = len(self._sets), self._positions[row]
        self._owner[taken] = inner
        mask = self._owner[mine] == inner
        inside, outside = self._sets[row].split(space, self.meter, mask)
        self._sets[row] = outside
        self._sets.append(inside)
        self._positions[row] = mine[~mask]
        self._positions.append(taken)
        self._generation += 1
        return inner

    def _fill_columns(self) -> None:
        """Both columns from the sets (a split adds a set and a row)."""
        self._owner = np.empty(self._space.size, dtype=np.intp)
        self._positions = [self._space._positions_raw(s.space)
                           for s in self._sets]
        for row, at in enumerate(self._positions):
            self._owner[at] = row

    def all_sets(self) -> list[EquivalenceSet]:
        """Every live equivalence set, by row (diagnostics, invariants)."""
        return list(self._sets)

    def check_invariants(self, root_space: IndexSpace) -> None:
        """Assert the section 6 invariants: sets pairwise disjoint, union
        covers the root, every entry covers its set, every memo whose sets
        are all live composes its region from exactly the live sets
        overlapping it, and the columns ≡ the sets: a row holds its set's
        root positions and the owner column names the row there."""
        sets = self._sets
        _check_partition(sets, root_space)
        live = {s.uid for s in sets}
        for memo in self._memo.values():
            if all(s.uid in live for s in memo.sets):
                _check_memo(memo, sets)
                _check_partition(memo.sets, memo.space)
        for s in sets:
            for e in s.history:
                if e.domain is not s.space and e.domain != s.space:
                    raise CoherenceError(f"entry narrower than {s!r}")
        for row, s in enumerate(sets if self._owner is not None else ()):
            at = root_space.positions_of(s.space)
            if not (np.array_equal(at, self._positions[row])
                    and (self._owner[at] == row).all()):
                raise CoherenceError(f"columns diverged from {s!r}")


# ----------------------------------------------------------------------
# Ray casting: stable sets in partition buckets with a K-d fallback (§7)
# ----------------------------------------------------------------------
class BucketStore:
    """Equivalence sets bucketed under a disjoint-and-complete
    partition (section 7.1).

    A set is referenced from every bucket it overlaps (sets can span
    buckets — the initial root-covering set, or a dominating write through
    a coarser region).  When ``partition`` is ``None`` the store degrades
    to a K-d tree over the root bounds.  Unlike Warnock's store, removal
    is supported — dominating writes coalesce and prune.
    """

    def __init__(self, root: EquivalenceSet,
                 partition: Optional[Partition],
                 meter: Optional[CostMeter] = None) -> None:
        self.meter = meter
        self.partition = partition
        self._sets: dict[int, EquivalenceSet] = {}
        self._memo: dict[int, _Located] = {}  # see overlapping()
        # counts boundary moves (placements, removals); a renewal is none
        self._generation = 0
        self._kd: Optional[KDTree] = None
        self._kd_ids: dict[int, int] = {}
        # per live set uid, what placing it found: (bounds-filter hits,
        # the buckets it truly overlaps) — read back by every later
        # localization and removal instead of being re-derived
        self._span: dict[int, tuple[int, list[Region]]] = {}
        self._space = root.space
        self._owner: Optional[np.ndarray] = None  # see _owned
        self._set_bucket_regions(
            [] if partition is None else list(partition.subregions))
        if partition is None:
            self._kd = KDTree(*root.space.bounds)
        self._index_insert(root)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "_columns": None, "_owner": None,
                "_memo": {uid: replace(memo, commons=None)
                          for uid, memo in self._memo.items()}}

    def _set_bucket_regions(self, regions: list[Region]) -> None:
        self._bucket_regions = regions
        self._buckets = {r.uid: {} for r in regions}
        self._columns: Optional[tuple] = None

    def _fill_columns(self) -> tuple:
        """``(lo, hi, owner)``: the bucket regions' bounds, stacked, and
        the bucket-owner column — the bucket (a row of the region list)
        holding each root position, -1 where none does."""
        regions, root = self._bucket_regions, self._space.indices
        lo, hi = (np.asarray([r.space.bounds[side] for r in regions],
                             dtype=np.int64) for side in (0, 1))
        members = np.concatenate([r.space.indices for r in regions])
        rows = np.repeat(np.arange(len(regions)),
                         [r.space.size for r in regions])
        at = np.minimum(root.searchsorted(members), root.size - 1)
        inside = root[at] == members
        owner = np.full(root.size, -1, dtype=np.intp)
        owner[at[inside]] = rows[inside]
        self._columns = (lo, hi, owner)
        return self._columns

    def _owned(self) -> np.ndarray:
        """Each root position's live set uid, refilled if dropped."""
        if self._owner is None:
            self._owner = np.empty(self._space.size, dtype=np.int64)
            for uid, eqset in self._sets.items():
                self._owner[self._space._positions_raw(eqset.space)] = uid
        return self._owner

    def _near(self, space: IndexSpace) -> np.ndarray:
        """Rows of the buckets whose bounding interval overlaps ``space``'s:
        the vectorized, metered prefilter of the owner column's exact test."""
        lo, hi = space.bounds
        bucket_lo, bucket_hi, _ = self._columns or self._fill_columns()
        hits = ((bucket_lo <= hi) & (bucket_hi >= lo)).nonzero()[0]
        if self.meter is not None:
            self.meter.count("bvh_nodes_visited", max(1, hits.size))
        return hits

    def _held(self, ids: np.ndarray) -> np.ndarray:
        """A flag per bucket row (last: no bucket), set for ``ids``."""
        held = np.zeros(len(self._bucket_regions) + 1, dtype=bool)
        held[ids] = True
        return held

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _index_insert(self, eqset: EquivalenceSet,
                      at: Optional[np.ndarray] = None) -> None:
        """Place a set in its buckets and columns (``at``: its positions)."""
        try:
            at = self._space.positions_of(eqset.space) if at is None else at
        except GeometryError:  # an element outside the root
            raise CoherenceError("equivalence set fits no bucket") from None
        self._generation += 1
        self._owned()[at] = eqset.uid
        self._sets[eqset.uid] = eqset
        if self._kd is not None:
            self._kd_ids[eqset.uid] = self._kd.insert(eqset.space, eqset)
            return
        near = self._near(eqset.space)
        held = self._held((self._columns or self._fill_columns())[2][at])
        if held[-1]:
            # the partition is complete: a bucket list gone stale mid-flight
            raise CoherenceError("equivalence set fits no bucket")
        placed = [self._bucket_regions[i] for i in near[held[near]].tolist()]
        for region in placed:
            self._buckets[region.uid][eqset.uid] = eqset
        self._span[eqset.uid] = (near.size, placed)

    def _span_of(self, eqset: EquivalenceSet) -> list[Region]:
        """The buckets a live set was placed in, charged the
        ``bvh_nodes_visited`` that re-deriving them from the bucket bounds
        would (fingerprints hash the meter); no buckets for a set that
        was never placed."""
        visited, placed = self._span.get(eqset.uid, (0, []))
        if self.meter is not None and visited:
            self.meter.count("bvh_nodes_visited", visited)
        return placed

    def _index_remove(self, eqset: EquivalenceSet) -> None:
        self._generation += 1
        self._sets.pop(eqset.uid, None)
        if self._kd is not None:
            item = self._kd_ids.pop(eqset.uid, None)
            if item is not None:
                self._kd.remove(item)
            return
        for region in self._span_of(eqset):
            self._buckets[region.uid].pop(eqset.uid, None)
        self._span.pop(eqset.uid, None)

    def _candidates(self, space: IndexSpace, held: Optional[np.ndarray]
                    ) -> list[EquivalenceSet]:
        if self._kd is not None:
            if self.meter is not None:
                self.meter.count("bvh_nodes_visited")
            return list(self._kd.query(space))
        seen: dict[int, EquivalenceSet] = {}
        near = self._near(space)
        for i in near[held[near]].tolist():
            seen.update(self._buckets[self._bucket_regions[i].uid])
        return list(seen.values())

    # ------------------------------------------------------------------
    def _localize(self, eqset: EquivalenceSet, held: np.ndarray,
                  hit: np.ndarray) -> list[EquivalenceSet]:
        """Carve the queried buckets (``held``) out of a multi-bucket set
        the query overlaps; answer the pieces in rows ``hit``.

        Section 7.1 stores equivalence sets *at the leaves* of the
        disjoint-and-complete partition.  Refinement to that granularity
        is usage-driven and incremental: when a query touches a set that
        straddles buckets, only the buckets the query overlaps are carved
        out as leaf-granular sets; the untouched remainder stays one set
        (and shrinks as other pieces first touch their data).  Without
        this, a never-written field would accumulate every piece's history
        in one giant set.

        Read off both columns: a piece is the set's elements in one
        bucket, the rest those in no touched bucket.
        """
        if len(self._span_of(eqset)) <= 1:
            return [eqset]
        at = (self._owner == eqset.uid).nonzero()[0]
        ids = self._columns[2][at]
        taken = held[ids]
        touched = self._held(ids[taken]).nonzero()[0].tolist()
        masks = [ids == row for row in touched]
        if not np.logical_and.reduce(taken):
            masks.append(~taken)
        pieces = eqset.pieces(masks)
        self._index_remove(eqset)
        for piece, mask in zip(pieces, masks):
            self._index_insert(piece, at[mask])
        if self.meter is not None:
            self.meter.count("eqsets_split", len(touched))
            self.meter.count("eqsets_created", len(touched))
            self.meter.count("elements_moved", int(np.count_nonzero(taken))
                             * max(1, len(eqset.history)))
        inside = self._held(hit)
        return [piece for piece, row in zip(pieces, touched) if inside[row]]

    def overlapping(self, space: IndexSpace,
                    region_uid: Optional[int] = None
                    ) -> list[EquivalenceSet]:
        """The live sets truly overlapping ``space`` (not to be mutated).

        Reads and reductions never refine sets below bucket granularity
        (no churn), but sets spanning several buckets are first localized
        to the partition leaves (section 7.1).  Memoized per named region:
        valid while every memoized set is still live, because any
        dominating write or localization changing the answer removes at
        least one of them.  A renewal keeps its set live under a fresh
        uid; the walk re-finding it is modelled, not made: the same sets
        in the order the buckets now hold them, at the cost the one real
        walk under this generation learned.  The walk finds and charges
        candidates; the set owners at the query's positions test them and
        give each answered piece and its part of the query (:meth:`commons`).
        """
        if not space.size:
            return []
        memo = self._memo.get(region_uid) if region_uid is not None else None
        if memo is not None and all(map(self._sets.__contains__, memo.uids)):
            return memo.sets  # as walked: no set renewed or removed since
        uids = [s.uid for s in memo.sets] if memo is not None else None
        if memo is not None and all(map(self._sets.__contains__, uids)):
            if memo.cost and memo.generation == self._generation:
                # buckets in partition order, each in insertion (= uid)
                # order; a walked set sits in exactly one bucket
                memo.sets, memo.commons = map(list, zip(*sorted(
                    zip(memo.sets, self.commons(region_uid)), key=lambda p: (
                        self._span[p[0].uid][1][0].uid, p[0].uid))))
                memo.uids = [s.uid for s in memo.sets]
                self.meter.charge(memo.cost)
                return memo.sets
        generation = self._generation
        paid = None if self.meter is None else [
            self.meter.counters[event] for event in _WALK_EVENTS]
        out: list[EquivalenceSet] = []
        at = self._space.positions_of(space)
        owners = self._owned()[at]  # a copy: carving leaves it as it was
        rows = None if self._kd is not None \
            else (self._columns or self._fill_columns())[2][at]
        held = None if rows is None else self._held(rows)
        candidates = self._candidates(space, held)
        ends = owners[1:] != owners[:-1]  # where an owner's run ends
        hit = {*owners[:-1][ends].tolist(), owners[-1].item()}
        if self.meter is not None and candidates:
            self.meter.count("intersection_tests", len(candidates))
        for eqset in candidates:
            if eqset.uid not in hit:
                continue
            if self._kd is None:
                out += self._localize(eqset, held,
                                      rows[owners == eqset.uid])
            else:
                out.append(eqset)
        if region_uid is not None:
            cost = None
            if paid is not None and self._kd is None \
                    and generation == self._generation:
                # learned only from a bucket walk that carved nothing
                cost = {event: self.meter.counters[event] - was
                        for event, was in zip(_WALK_EVENTS, paid)}
            # a set's part is where it owns the query; the cache dedups it
            owners, cache = self._owner[at], active_geometry_cache()
            parts = [space] if len(out) == 1 else [
                IndexSpace(space.indices[owners == s.uid], trusted=True)
                for s in out]
            self._memo[region_uid] = _Located(
                space, out, generation, cost, uids=[s.uid for s in out],
                commons=[cache.intersection(s.space, space, part)
                         for s, part in zip(out, parts)])
        return out

    def commons(self, region_uid: int) -> list[IndexSpace]:
        """``set & query`` per set of a region's answer (a cache)."""
        memo = self._memo.get(region_uid)
        if memo is None:
            return []  # an empty query answers no sets and leaves no memo
        if memo.commons is None:
            memo.commons = [s.space & memo.space for s in memo.sets]
        return memo.commons

    def dominate_write(self, space: IndexSpace,
                       overlapping: list[EquivalenceSet],
                       region_uid: Optional[int] = None
                       ) -> EquivalenceSet:
        """Figure 11's ``dominating_write``: prune everything occluded by a
        write to ``space`` and install one fresh set covering it.

        Sets contained in ``space`` are removed outright; sets straddling
        the boundary are trimmed to their outside part (the only place ray
        casting still splits).  A write over exactly one bucketed set's
        own region moves no boundary: that set is renewed in place.
        """
        only = overlapping[0] if len(overlapping) == 1 else None
        if self._kd is None and only is not None and (
                only.space is space or only.space == space):
            fresh = self._renew(only, space)
        else:
            owner = self._owned()
            ats = [(owner == s.uid).nonzero()[0] for s in overlapping]
            owner[self._space.positions_of(space)] = -1  # the fresh set's
            for eqset, at in zip(overlapping, ats):
                kept = owner[at] == eqset.uid
                self._index_remove(eqset)
                if not np.logical_or.reduce(kept):
                    if self.meter is not None:
                        self.meter.count("eqsets_coalesced")
                    continue
                [remainder] = eqset.pieces([kept])
                if self.meter is not None:
                    self.meter.count("eqsets_split")
                    self.meter.count("elements_moved", remainder.space.size
                                     * max(1, len(remainder.history)))
                self._index_insert(remainder, at[kept])
            fresh = EquivalenceSet(space)
            if self.meter is not None:
                self.meter.count("eqsets_created")
            self._index_insert(fresh)
        if region_uid is not None:
            self._memo[region_uid] = _Located(
                space, [fresh], self._generation, None, uids=[fresh.uid],
                commons=[space])
        return fresh

    def _renew(self, eqset: EquivalenceSet,
               space: IndexSpace) -> EquivalenceSet:
        """What remove-then-insert leaves of a set rewritten over its own
        region, without the walks: same object, buckets, span and positions,
        empty history, a *fresh* uid (owning its positions) keyed last in
        ``_sets`` and its buckets — fresh because touches are deduplicated
        by key and the set materialized and the set settled are two objects,
        last because bucket order is walk order.  Charged as the long way:
        the span's bounds hits to remove and again to place, one coalesced,
        one created."""
        old, eqset.uid, eqset.space = eqset.uid, _eqset_uid.take(), space
        eqset.key = ("eqset", eqset.uid, space._lo)
        eqset.history = []
        visited, placed = self._span[eqset.uid] = self._span.pop(old)
        self._owned()[self._space.positions_of(space)] = eqset.uid
        for keyed in [self._sets] + [self._buckets[r.uid] for r in placed]:
            del keyed[old]
            keyed[eqset.uid] = eqset
        if self.meter is not None:
            self.meter.charge({"bvh_nodes_visited": 2 * visited,
                               "eqsets_coalesced": 1, "eqsets_created": 1})
        return eqset

    def check_invariants(self, root_space: IndexSpace) -> None:
        """Assert: sets pairwise disjoint, union covers the root, every
        history entry contained in its set (a write covering it), the
        columns (once filled) ≡ the bucket regions and the live sets, the
        span memo ≡ a re-derivation from the bucket bounds, every all-live
        region memo ≡ the live sets overlapping its query (its
        intersections ≡ ``set & query``), and a cost learned under this
        generation ≡ the walk re-derived from the buckets: the query's
        bounds hits plus each hit candidate's span's, every candidate
        tested."""
        sets = self.all_sets()
        _check_partition(sets, root_space)

        def near(space: IndexSpace) -> list[Region]:
            lo, hi = space.bounds  # _near re-derived, unmetered
            return [r for r in self._bucket_regions
                    if r.space.bounds[0] <= hi and r.space.bounds[1] >= lo]

        if self._columns is not None:
            rows = np.full(root_space.size, -1)
            for row, region in enumerate(self._bucket_regions):
                rows[root_space.positions_of(region.space)] = row
            if not np.array_equal(rows, self._columns[2]):
                raise CoherenceError("owner column diverged from the buckets")
        for s in sets if self._owner is not None else ():
            if (self._owner[root_space.positions_of(s.space)] != s.uid).any():
                raise CoherenceError(f"set-owner column diverged from {s!r}")
        for memo in self._memo.values():
            if not all(s.uid in self._sets for s in memo.sets):
                continue
            _check_memo(memo, sets)
            if memo.commons not in (None, [s.space & memo.space
                                           for s in memo.sets]):
                raise CoherenceError("carried intersections diverged")
            if memo.cost and memo.generation == self._generation:
                hits = near(memo.space)
                met = {uid: s for r in hits if r.space.overlaps(memo.space)
                       for uid, s in self._buckets[r.uid].items()}
                if memo.cost != {"intersection_tests": len(met),
                                 "bvh_nodes_visited": max(1, len(hits)) + sum(
                                     self._span[uid][0] for uid in met if
                                     met[uid].space.overlaps(memo.space))}:
                    raise CoherenceError("learned walk cost diverged")
        spans = {}
        for s in sets:
            for e in s.history:
                if not e.domain.issubset(s.space):
                    raise CoherenceError(f"entry escapes {s!r}")
                if e.privilege.is_write and e.domain.size != s.space.size:
                    raise CoherenceError(f"write entry narrower than {s!r}")
            if self._kd is None:
                hits = near(s.space)
                spans[s.uid] = (len(hits), [r for r in hits
                                            if r.space.overlaps(s.space)])
        if self._span != spans:
            raise CoherenceError("bucket-span memo diverged from the buckets")

    def rebucket(self, partition: Optional[Partition]) -> None:
        """Shift every equivalence set to a new disjoint-complete partition
        subtree (section 7.1's response to the application switching
        partitions), or to the K-d fallback when ``partition`` is None.

        Rebucketing retires the old bucket-region population wholesale, so
        the geometry operation cache is invalidated here: its entries stay
        value-correct (spaces are immutable) but would never be asked for
        again."""
        geometry_cache().invalidate()
        sets = list(self._sets.values())
        self.partition = partition
        self._span = {}
        self._kd = None
        self._kd_ids = {}
        self._set_bucket_regions(
            [] if partition is None else list(partition.subregions))
        if partition is None:
            if sets:
                lo = min(s.space.bounds[0] for s in sets)
                hi = max(s.space.bounds[1] for s in sets)
            else:  # pragma: no cover - a store is never empty in practice
                lo, hi = 0, 0
            self._kd = KDTree(lo, hi)
        self._sets = {}
        for eqset in sets:
            self._index_insert(eqset)

    def all_sets(self) -> list[EquivalenceSet]:
        """Every live equivalence set."""
        return list(self._sets.values())

    def num_sets(self) -> int:
        """Number of live equivalence sets."""
        return len(self._sets)


# ----------------------------------------------------------------------
# what Warnock and ray casting share above their stores
# ----------------------------------------------------------------------
def _check_partition(sets, root_space: IndexSpace) -> None:
    """Assert the sets are pairwise disjoint and cover the root."""
    union = IndexSpace.union_all([s.space for s in sets])
    if sum(s.space.size for s in sets) != union.size:
        raise CoherenceError("equivalence sets overlap")
    if union != root_space:
        raise CoherenceError("equivalence sets do not cover the root")


def _check_memo(memo: _Located, live) -> None:
    """Assert an all-live memo is exactly the live sets on its query."""
    if {s.uid for s in memo.sets} != {s.uid for s in live
                                       if s.space.overlaps(memo.space)}:
        raise CoherenceError("region memo diverged from the live sets")


_TOUCH_KEY = attrgetter("key")


def visit_sets(find, region: Region, meter: CostMeter, led=None) -> list:
    """``find(region.space, region.uid)`` — a store's ``locate`` or
    ``overlapping`` — plus what every caller owes for the answer, in one
    charge: the ``eqsets_visited`` count and one touch per set (each set
    is its own distributed object, touched by its stored ``key``), in the
    order answered; and, when the witness span ``led`` is recording, the
    BVH-node and set visit totals."""
    if led is None:  # the one witness-hook test
        sets = find(region.space, region.uid)
    else:
        bvh_before = meter.counters.get("bvh_nodes_visited", 0)
        sets = find(region.space, region.uid)
        led.visit("bvh_nodes",
                  meter.counters.get("bvh_nodes_visited", 0) - bvh_before)
        led.visit("eqsets", len(sets))
    meter.charge({"eqsets_visited": len(sets)}, map(_TOUCH_KEY, sets))
    return sets


def set_tokens(sets, entry_bounds) -> tuple:
    """Structure tokens of a set collection: the decomposition plus the
    refinement trace each history encodes.  ``entry_bounds(entry)`` is an
    entry's own domain bounds (``None`` where entries are aligned with
    their set).  A set's token is pre-encoded: the bytes of ``("eqset",
    bounds, size, indices bytes, ((repr(privilege), task_id, sorted
    collapsed ids, entry bounds), ...))``, each privilege rendered once."""
    # imported here: repro.distributed imports the policies
    from repro.distributed.verify import Encoded, encoded, int_tuple

    head = b"t" + (5).to_bytes(8, "little") + encoded("eqset")
    privileges: dict = {}  # id(privilege) -> its encoded repr

    def entry(e) -> bytes:
        p = privileges.get(id(e.privilege))
        if p is None:
            p = privileges[id(e.privilege)] = encoded(repr(e.privilege))
        bounds = entry_bounds(e)
        return b"t\4\0\0\0\0\0\0\0%bi%d%b%b" % (
            p, e.task_id, int_tuple(sorted(e.collapsed_ids)),
            b"n" if bounds is None else int_tuple(bounds))

    def token(s) -> Encoded:
        space, history = s.space, s.history
        indices = space.indices.tobytes()
        return Encoded(b"".join((
            head, int_tuple(space.bounds), b"i%d" % space.size,
            b"b", len(indices).to_bytes(8, "little"), indices,
            b"t", len(history).to_bytes(8, "little"), *map(entry, history))))

    return tuple(map(token, sorted(
        sets, key=lambda s: (s.space.bounds, s.space.size))))


def _dist(values) -> dict:
    """Summary distribution of a list of ints: count/min/max/mean/total."""
    values = [int(v) for v in values]
    if not values:
        return {"count": 0, "min": 0, "max": 0, "mean": 0.0, "total": 0}
    total = sum(values)
    return {"count": len(values), "min": min(values), "max": max(values),
            "mean": round(total / len(values), 4), "total": total}


def describe_sets(sets) -> dict:
    """The ``eqsets`` census block of a set collection."""
    return {"kind": "eqsets", "count": len(sets),
            "sizes": _dist(s.space.size for s in sets),
            "history": _dist(len(s.history) for s in sets)}
