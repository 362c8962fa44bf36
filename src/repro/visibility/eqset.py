"""Equivalence sets and their spatial stores (sections 6 and 7).

An *equivalence set* is a pair (region, history) with the invariant that
every operation in the history is relevant to every element of the region.
Because of that invariant we store each history entry's values aligned
exactly to the equivalence set's domain, making painting a handful of
whole-array operations.

Two stores organize the live equivalence sets:

* :class:`RefinementTreeStore` — Warnock's monotone refinement: splitting a
  set turns its tree node into an interior node with two children, and the
  refinement history doubles as the BVH of section 6.1 (with per-region
  memoization of constituent sets: the answer itself until a set splits).
* :class:`BucketStore` — ray casting's structure: sets are bucketed under
  the leaves of a disjoint-and-complete partition (section 7.1) and may be
  *removed* as well as split (dominating writes coalesce; one that moves
  no boundary renews its set in place).  When no such partition exists a
  K-d tree takes the buckets' place.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import CoherenceError
from repro.geometry.fastpath import batch_overlaps, geometry_cache
from repro.geometry.index_space import IndexSpace
from repro.geometry.kdtree import KDTree
from repro.privileges import Privilege
from repro.regions.partition import Partition
from repro.regions.region import Region
from repro.visibility.history import HistoryEntry, RegionValues, paint_into
from repro.visibility.meter import CostMeter, UidSource

_eqset_uid = UidSource()


@dataclass(frozen=True)
class EqEntry:
    """One history operation inside an equivalence set.

    ``values`` is aligned element-for-element with the owning set's domain
    (the section 6 invariant); it is ``None`` for read entries.
    ``collapsed_ids`` marks a compaction summary (see
    :data:`HISTORY_COMPACTION_LIMIT`).
    """

    privilege: Privilege
    values: Optional[np.ndarray]
    task_id: int
    collapsed_ids: frozenset[int] = frozenset()

    def restricted(self, positions: np.ndarray) -> "EqEntry":
        """The entry narrowed to a subset of the owning set's elements."""
        values = None if self.values is None else self.values[positions]
        return EqEntry(self.privilege, values, self.task_id,
                       self.collapsed_ids)


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
    """A region of elements sharing one coherence history."""

    __slots__ = ("uid", "space", "history")

    def __init__(self, space: IndexSpace,
                 history: Optional[list[EqEntry]] = None) -> None:
        if space.is_empty:
            raise CoherenceError("equivalence sets must be non-empty")
        self.uid = _eqset_uid.take()
        self.space = space
        self.history: list[EqEntry] = [] if history is None else history

    def __setstate__(self, state) -> None:
        _eqset_uid.restore(self, state)

    # ------------------------------------------------------------------
    def split(self, space: IndexSpace,
              meter: Optional[CostMeter] = None
              ) -> tuple["EquivalenceSet", Optional["EquivalenceSet"]]:
        """Refine into (self ∩ space, self \\ space) — Figure 9 line 11.

        The second component is ``None`` when this set is contained in
        ``space``.  Histories are split positionally so the alignment
        invariant is preserved on both sides — one value gather per entry.
        """
        inside_space = self.space & space
        if inside_space.is_empty:
            raise CoherenceError("split requires overlap")
        if inside_space.size == self.space.size:
            return self, None
        outside_space = self.space - space
        # asked once — the split retires the set these maps index — so
        # they bypass the operation cache's gather-map table
        in_pos = self.space._positions_raw(inside_space)
        out_pos = self.space._positions_raw(outside_space)
        inside = EquivalenceSet(
            inside_space, [e.restricted(in_pos) for e in self.history])
        outside = EquivalenceSet(
            outside_space, [e.restricted(out_pos) for e in self.history])
        if meter is not None:
            meter.count("eqsets_split")
            meter.count("eqsets_created", 2)
            meter.count("elements_moved",
                        self.space.size * max(1, len(self.history)))
        return inside, outside

    def paint(self, dtype: np.dtype, meter: Optional[CostMeter] = None
              ) -> np.ndarray:
        """Current values of this set's elements: replay the history.

        Thanks to the alignment invariant this is pure whole-array work —
        the "trivial sub-scene" rendering of Warnock's divide and conquer.
        """
        current = np.zeros(self.space.size, dtype=dtype)
        paint_into(current, self.space, self.space, self.history, meter)
        return current

    def record(self, privilege: Privilege, values: Optional[np.ndarray],
               task_id: int) -> None:
        """Append one operation; a write clears the prior history
        (Figure 9 lines 30–31: histories stay precise).  Histories longer
        than :data:`HISTORY_COMPACTION_LIMIT` collapse into a summary
        write."""
        if values is not None and values.shape != (self.space.size,):
            raise CoherenceError("entry values misaligned with eqset domain")
        entry = EqEntry(privilege, values, task_id)
        if privilege.is_write:
            self.history = [entry]
            return
        self.history.append(entry)
        if len(self.history) > HISTORY_COMPACTION_LIMIT:
            self.compact()

    def compact(self) -> None:
        """Collapse the history into one summary write (bounded history)."""
        from repro.privileges import READ_WRITE

        dtype = next(e.values.dtype for e in self.history
                     if e.values is not None)
        painted = self.paint(dtype)
        ids: set[int] = set()
        for e in self.history:
            ids.add(e.task_id)
            ids.update(e.collapsed_ids)
        self.history = [EqEntry(READ_WRITE, painted, max(ids),
                                frozenset(ids))]

    def __repr__(self) -> str:
        return (f"EquivalenceSet(uid={self.uid}, n={self.space.size}, "
                f"hist={len(self.history)})")


# ----------------------------------------------------------------------
# Warnock: monotone refinement tree (the BVH of section 6.1)
# ----------------------------------------------------------------------
class _RefNode:
    """A node of the refinement tree; leaves carry live equivalence sets."""

    __slots__ = ("lo", "hi", "space", "eqset", "children")

    def __init__(self, eqset: EquivalenceSet) -> None:
        self.space = eqset.space
        self.lo, self.hi = eqset.space.bounds
        self.eqset: Optional[EquivalenceSet] = eqset
        self.children: list["_RefNode"] = []

    @property
    def is_leaf(self) -> bool:
        return self.eqset is not None

    def split_to(self, parts: list[EquivalenceSet]) -> list["_RefNode"]:
        """Turn this leaf into an interior node with the given parts."""
        assert self.is_leaf
        self.eqset = None
        self.children = [_RefNode(p) for p in parts]
        return self.children


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
    #: Warnock: the leaves the sets hang from (a stale answer re-descends
    #: from them); ray casting: the sets' uids as of the last walk
    nodes: Optional[list] = None
    uids: Optional[list] = None


class RefinementTreeStore:
    """Equivalence sets organized by their own refinement history.

    Since Warnock's algorithm only ever refines, the history of splits is a
    stable search tree: a query descends from the root into children whose
    bounding interval overlaps, and per-region memoization lets repeat
    queries start from the nodes found last time (section 6.1).  While no
    set has split since (``_generation`` counts splits) the memo *is* the
    answer, charged what descending from its still-leaf nodes would be.
    """

    def __init__(self, root: EquivalenceSet,
                 meter: Optional[CostMeter] = None,
                 memoize: bool = True) -> None:
        self._root = _RefNode(root)
        self._memo: dict[int, _Located] = {}
        self._memoize = memoize
        self._generation = 0
        self.meter = meter

    # ------------------------------------------------------------------
    def locate(self, space: IndexSpace, region_uid: Optional[int] = None
               ) -> list[EquivalenceSet]:
        """Refine as needed and return the equivalence sets whose union is
        exactly ``space`` (not to be mutated).  ``region_uid`` keys
        memoization when the query comes from a named region."""
        if space.is_empty:
            return []
        memo = self._memo.get(region_uid) \
            if (region_uid is not None and self._memoize) else None
        if memo is not None and memo.generation == self._generation:
            if self.meter is not None:
                self.meter.charge(memo.cost)
            return memo.sets
        leaves = self._descend(memo.nodes if memo else [self._root], space)
        nodes: list[_RefNode] = []
        for leaf in leaves:
            common = leaf.space & space
            if common.is_empty:
                continue
            if common.size != leaf.space.size:
                inside, outside = leaf.eqset.split(space, self.meter)
                assert outside is not None
                leaf = leaf.split_to([inside, outside])[0]
                self._generation += 1
            nodes.append(leaf)
        out = [node.eqset for node in nodes]
        if region_uid is not None and self._memoize and out:
            # a repeat pops each memoized leaf and tests it, once
            self._memo[region_uid] = _Located(
                space, out, self._generation,
                dict.fromkeys(_WALK_EVENTS, len(out)), nodes=nodes)
        return out

    def _descend(self, roots: list[_RefNode],
                 space: IndexSpace) -> list[_RefNode]:
        """The leaves under ``roots`` (each in turn, depth first) whose
        bounds meet ``space``'s; a node visit per pop, a test per leaf."""
        lo, hi = space.bounds
        stack, leaves, visited = roots[::-1], [], 0
        while stack:
            cur = stack.pop()
            visited += 1
            if cur.hi < lo or hi < cur.lo:
                continue
            if cur.is_leaf:
                leaves.append(cur)
            else:
                stack.extend(cur.children)
        if self.meter is not None:
            self.meter.charge({"bvh_nodes_visited": visited,
                               "intersection_tests": len(leaves)})
        return leaves

    def all_sets(self) -> list[EquivalenceSet]:
        """Every live equivalence set (diagnostics / invariant checks)."""
        out: list[EquivalenceSet] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                assert node.eqset is not None
                out.append(node.eqset)
            else:
                stack.extend(node.children)
        return out

    def tree_depth(self) -> int:
        """Height of the refinement tree (diagnostics; a chain grows one
        level per piece first touched, so no recursion)."""
        height = 0
        stack = [(self._root, 1)]
        while stack:
            node, depth = stack.pop()
            height = max(height, depth)
            stack.extend((child, depth + 1) for child in node.children)
        return height

    def check_invariants(self, root_space: IndexSpace) -> None:
        """Assert the section 6 invariants: sets pairwise disjoint, union
        covers the root, histories aligned, and every memo whose sets are
        all live composes its region from exactly the live sets
        overlapping it."""
        sets = self.all_sets()
        _check_partition(sets, root_space)
        for memo in self._memo.values():
            if all(node.is_leaf for node in memo.nodes):
                _check_memo(memo, sets)
                _check_partition(memo.sets, memo.space)
        for s in sets:
            for e in s.history:
                if e.values is not None and e.values.shape != (s.space.size,):
                    raise CoherenceError(f"misaligned history in {s!r}")


# ----------------------------------------------------------------------
# Ray casting: loose sets in partition buckets with a K-d fallback (§7)
# ----------------------------------------------------------------------
def _restricted(history: list[HistoryEntry],
                space: IndexSpace) -> list[HistoryEntry]:
    """Every entry restricted to ``space``, the disjoint ones dropped (how
    a loose equivalence set's history follows a split)."""
    narrowed = (e.restricted(space) for e in history)
    return [e for e in narrowed if e is not None]


class LooseEquivalenceSet:
    """A ray-casting equivalence set: stable region, sub-set-precise history.

    Section 7.1 stores equivalence sets at the leaves of a
    disjoint-and-complete partition.  To keep those sets *stable* (no
    refinement churn when reads and reductions touch only part of a set),
    each history entry carries its own domain — a subset of the set's
    region — and painting reuses the general blending kernel of
    :mod:`repro.visibility.history`.  Only dominating writes reshape sets.
    """

    __slots__ = ("uid", "space", "history")

    def __init__(self, space: IndexSpace,
                 history: Optional[list[HistoryEntry]] = None) -> None:
        if space.is_empty:
            raise CoherenceError("equivalence sets must be non-empty")
        self.uid = _eqset_uid.take()
        self.space = space
        self.history: list[HistoryEntry] = [] if history is None else history

    def __setstate__(self, state) -> None:
        _eqset_uid.restore(self, state)

    def record(self, entry: HistoryEntry) -> None:
        """Append one operation.

        A write must cover the whole set (dominating writes guarantee it)
        and occludes the entire prior history — Figure 11's simplification
        of histories by writes.  Histories longer than
        :data:`HISTORY_COMPACTION_LIMIT` collapse into a summary write
        (never-written fields would otherwise grow without bound).
        """
        if not entry.domain.issubset(self.space):
            raise CoherenceError("entry escapes its equivalence set")
        if entry.privilege.is_write:
            if entry.domain.size != self.space.size:
                raise CoherenceError(
                    "write entries must cover their equivalence set")
            self.history = [entry]
            return
        self.history.append(entry)
        if len(self.history) > HISTORY_COMPACTION_LIMIT:
            self.compact()

    def compact(self) -> None:
        """Collapse the history into one summary write (bounded history)."""
        from repro.privileges import READ_WRITE

        dtype = next(e.values.values.dtype for e in self.history
                     if e.values is not None)
        painted = self.paint(self.space, dtype)
        ids: set[int] = set()
        for e in self.history:
            ids.add(e.task_id)
            ids.update(e.collapsed_ids)
        self.history = [HistoryEntry(READ_WRITE, self.space, painted,
                                     max(ids), frozenset(ids))]

    def minus(self, space: IndexSpace,
              meter: Optional[CostMeter] = None) -> Optional["LooseEquivalenceSet"]:
        """The part of this set outside ``space``, with restricted history;
        None when the set is contained in ``space``."""
        remaining = self.space - space
        if remaining.is_empty:
            return None
        entries = _restricted(self.history, remaining)
        if meter is not None:
            meter.count("eqsets_split")
            meter.count("elements_moved",
                        remaining.size * max(1, len(entries)))
        return LooseEquivalenceSet(remaining, entries)

    def paint(self, space: IndexSpace, dtype,
              meter: Optional[CostMeter] = None) -> RegionValues:
        """Current values on ``space ∩ self.space`` via the blending
        kernel."""
        common = self.space & space
        current = np.zeros(common.size, dtype=dtype)
        paint_into(current, common, common, self.history, meter)
        return RegionValues(common, current)

    def __repr__(self) -> str:
        return (f"LooseEquivalenceSet(uid={self.uid}, n={self.space.size}, "
                f"hist={len(self.history)})")


class BucketStore:
    """Loose equivalence sets bucketed under a disjoint-and-complete
    partition (section 7.1).

    A set is referenced from every bucket it overlaps (sets can span
    buckets — the initial root-covering set, or a dominating write through
    a coarser region).  When ``partition`` is ``None`` the store degrades
    to a K-d tree over the root bounds.  Unlike Warnock's refinement tree,
    removal is supported — dominating writes coalesce and prune.
    """

    def __init__(self, root: LooseEquivalenceSet,
                 partition: Optional[Partition],
                 meter: Optional[CostMeter] = None) -> None:
        self.meter = meter
        self.partition = partition
        self._sets: dict[int, LooseEquivalenceSet] = {}
        self._memo: dict[int, _Located] = {}  # see overlapping()
        # counts boundary moves (placements, removals); a renewal is none
        self._generation = 0
        self._kd: Optional[KDTree] = None
        self._kd_ids: dict[int, int] = {}
        self._buckets: dict[int, dict[int, LooseEquivalenceSet]] = {}
        # per live set uid, what placing it found: (bounds-filter hits,
        # the buckets it truly overlaps) — read back by every later
        # localization and removal instead of being re-derived
        self._span: dict[int, tuple[int, list[Region]]] = {}
        self._bucket_regions: list[Region] = []
        self._bucket_lo = np.empty(0, dtype=np.int64)
        self._bucket_hi = np.empty(0, dtype=np.int64)
        if partition is not None:
            self._set_bucket_regions(list(partition.subregions))
        else:
            lo, hi = root.space.bounds
            self._kd = KDTree(lo, hi)
        self._index_insert(root)

    def _set_bucket_regions(self, regions: list[Region]) -> None:
        self._bucket_regions = regions
        self._buckets = {r.uid: {} for r in regions}
        self._bucket_lo = np.asarray([r.space.bounds[0] for r in regions],
                                     dtype=np.int64)
        self._bucket_hi = np.asarray([r.space.bounds[1] for r in regions],
                                     dtype=np.int64)

    def _buckets_overlapping(self, space: IndexSpace) -> list[Region]:
        """Bucket regions whose bounding interval overlaps ``space``'s.

        Vectorized prefilter; callers still do the exact overlap test."""
        lo, hi = space.bounds
        hits = np.flatnonzero((self._bucket_lo <= hi) & (self._bucket_hi >= lo))
        if self.meter is not None:
            self.meter.count("bvh_nodes_visited", max(1, hits.size))
        return [self._bucket_regions[i] for i in hits]

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------
    def _index_insert(self, eqset: LooseEquivalenceSet) -> None:
        self._generation += 1
        self._sets[eqset.uid] = eqset
        if self._kd is not None:
            self._kd_ids[eqset.uid] = self._kd.insert(eqset.space, eqset)
            return
        regions = self._buckets_overlapping(eqset.space)
        hits = batch_overlaps(eqset.space, [r.space for r in regions])
        placed = [region for region, hit in zip(regions, hits) if hit]
        if not placed:
            # partition is complete, so this can only mean a stale bucket
            # list after rebucketing mid-flight
            raise CoherenceError("equivalence set fits no bucket")
        for region in placed:
            self._buckets[region.uid][eqset.uid] = eqset
        self._span[eqset.uid] = (len(regions), placed)

    def _span_of(self, eqset: LooseEquivalenceSet) -> list[Region]:
        """The buckets a live set was placed in, charged the
        ``bvh_nodes_visited`` that re-deriving them from the bucket bounds
        would (fingerprints hash the meter); no buckets for a set that
        was never placed."""
        visited, placed = self._span.get(eqset.uid, (0, []))
        if self.meter is not None and visited:
            self.meter.count("bvh_nodes_visited", visited)
        return placed

    def _index_remove(self, eqset: LooseEquivalenceSet) -> None:
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

    def _candidates(self, space: IndexSpace) -> list[LooseEquivalenceSet]:
        if self._kd is not None:
            if self.meter is not None:
                self.meter.count("bvh_nodes_visited")
            return list(self._kd.query(space))
        seen: dict[int, LooseEquivalenceSet] = {}
        regions = self._buckets_overlapping(space)
        if regions:
            hits = batch_overlaps(space, [r.space for r in regions])
            for region, hit in zip(regions, hits):
                if hit:
                    seen.update(self._buckets[region.uid])
        return list(seen.values())

    # ------------------------------------------------------------------
    def _localize(self, eqset: LooseEquivalenceSet, space: IndexSpace
                  ) -> list[LooseEquivalenceSet]:
        """Carve the queried buckets out of a multi-bucket set.

        Section 7.1 stores equivalence sets *at the leaves* of the
        disjoint-and-complete partition.  Refinement to that granularity
        is usage-driven and incremental: when a query touches a set that
        straddles buckets, only the buckets the query overlaps are carved
        out as leaf-granular sets; the untouched remainder stays one set
        (and shrinks as other pieces first touch their data).  Without
        this, a never-written field would accumulate every piece's history
        in one giant set.
        """
        all_regions = self._span_of(eqset)
        if len(all_regions) <= 1:
            return [eqset]
        touched = batch_overlaps(space, [r.space for r in all_regions])
        carved: list[LooseEquivalenceSet] = []
        carved_union = IndexSpace.empty()
        for region, hit in zip(all_regions, touched):
            if not hit:
                continue
            common = eqset.space & region.space
            if common.is_empty:
                continue
            carved.append(LooseEquivalenceSet(
                common, _restricted(eqset.history, common)))
            carved_union = carved_union | common
        if not carved:
            return []
        remainder_space = eqset.space - carved_union
        self._index_remove(eqset)
        for piece in carved:
            self._index_insert(piece)
        if not remainder_space.is_empty:
            self._index_insert(LooseEquivalenceSet(
                remainder_space, _restricted(eqset.history, remainder_space)))
        if self.meter is not None:
            self.meter.count("eqsets_split", len(carved))
            self.meter.count("eqsets_created", len(carved))
            self.meter.count("elements_moved",
                             carved_union.size * max(1, len(eqset.history)))
        return carved

    def overlapping(self, space: IndexSpace,
                    region_uid: Optional[int] = None
                    ) -> list[LooseEquivalenceSet]:
        """The live sets truly overlapping ``space`` (not to be mutated).

        Reads and reductions never refine sets below bucket granularity
        (no churn), but sets spanning several buckets are first localized
        to the partition leaves (section 7.1).  Memoized per named region:
        valid while every memoized set is still live, because any
        dominating write or localization changing the answer removes at
        least one of them.  A renewal keeps its set live under a fresh
        uid; the walk re-finding it is modelled, not made: the same sets
        in the order the buckets now hold them, at the cost the one real
        walk under this generation learned.
        """
        if space.is_empty:
            return []
        memo = self._memo.get(region_uid) if region_uid is not None else None
        uids = [s.uid for s in memo.sets] if memo is not None else None
        if memo is not None and all(uid in self._sets for uid in uids):
            if uids == memo.uids:
                return memo.sets
            if memo.cost and memo.generation == self._generation:
                # buckets in partition order, each in insertion (= uid)
                # order; a walked set sits in exactly one bucket
                memo.sets = sorted(memo.sets, key=lambda s: (
                    self._span[s.uid][1][0].uid, s.uid))
                memo.uids = [s.uid for s in memo.sets]
                self.meter.charge(memo.cost)
                return memo.sets
        generation = self._generation
        paid = None if self.meter is None else [
            self.meter.counters[event] for event in _WALK_EVENTS]
        out: list[LooseEquivalenceSet] = []
        candidates = self._candidates(space)
        # one batched pass answers every candidate's exact test up front;
        # the loop keeps the localize-during-iteration semantics exactly
        # as the scalar path had them
        hits = batch_overlaps(space, [c.space for c in candidates])
        if self.meter is not None and candidates:
            self.meter.count("intersection_tests", len(candidates))
        for eqset, hit in zip(candidates, hits):
            if not hit:
                continue
            if self._kd is None:
                for piece in self._localize(eqset, space):
                    if piece.space.overlaps(space):
                        out.append(piece)
            else:
                out.append(eqset)
        if region_uid is not None:
            cost = None
            if paid is not None and self._kd is None \
                    and generation == self._generation:
                # learned only from a bucket walk that carved nothing
                cost = {event: self.meter.counters[event] - was
                        for event, was in zip(_WALK_EVENTS, paid)}
            self._memo[region_uid] = _Located(
                space, out, generation, cost, uids=[s.uid for s in out])
        return out

    def dominate_write(self, space: IndexSpace,
                       overlapping: list[LooseEquivalenceSet],
                       region_uid: Optional[int] = None
                       ) -> LooseEquivalenceSet:
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
            for eqset in overlapping:
                self._index_remove(eqset)
                remainder = eqset.minus(space, self.meter)
                if remainder is None:
                    if self.meter is not None:
                        self.meter.count("eqsets_coalesced")
                else:
                    self._index_insert(remainder)
            fresh = LooseEquivalenceSet(space)
            if self.meter is not None:
                self.meter.count("eqsets_created")
            self._index_insert(fresh)
        if region_uid is not None:
            self._memo[region_uid] = _Located(
                space, [fresh], self._generation, None, uids=[fresh.uid])
        return fresh

    def _renew(self, eqset: LooseEquivalenceSet,
               space: IndexSpace) -> LooseEquivalenceSet:
        """What remove-then-insert leaves of a set rewritten over its own
        region, without the walks: same object, buckets and span, empty
        history, a *fresh* uid keyed last in ``_sets`` and its buckets —
        fresh because touches are deduplicated by key and the set
        materialized and the set settled are two objects, last because
        bucket order is walk order.  Charged as the long way: the span's
        bounds hits to remove and again to place, one coalesced, one
        created."""
        old, eqset.uid, eqset.space = eqset.uid, _eqset_uid.take(), space
        eqset.history = []
        visited, placed = self._span[eqset.uid] = self._span.pop(old)
        for keyed in [self._sets] + [self._buckets[r.uid] for r in placed]:
            del keyed[old]
            keyed[eqset.uid] = eqset
        if self.meter is not None:
            self.meter.charge({"bvh_nodes_visited": 2 * visited,
                               "eqsets_coalesced": 1, "eqsets_created": 1})
        return eqset

    def check_invariants(self, root_space: IndexSpace) -> None:
        """Assert: sets pairwise disjoint, union covers the root, every
        history entry contained in its set, the span memo ≡ a
        re-derivation from the bucket bounds, every all-live region memo ≡
        the live sets overlapping its query, and a cost learned under this
        generation ≡ the walk re-derived from the buckets: the query's
        bounds hits plus each hit candidate's span's, every candidate
        tested."""
        sets = self.all_sets()
        _check_partition(sets, root_space)
        for memo in self._memo.values():
            if not all(s.uid in self._sets for s in memo.sets):
                continue
            _check_memo(memo, sets)
            if memo.cost and memo.generation == self._generation:
                near = self._near(memo.space)
                met = {uid: s for r in near if r.space.overlaps(memo.space)
                       for uid, s in self._buckets[r.uid].items()}
                if memo.cost != {"intersection_tests": len(met),
                                 "bvh_nodes_visited": max(1, len(near)) + sum(
                                     self._span[uid][0] for uid in met if
                                     met[uid].space.overlaps(memo.space))}:
                    raise CoherenceError("learned walk cost diverged")
        spans = {}
        for s in sets:
            for e in s.history:
                if not e.domain.issubset(s.space):
                    raise CoherenceError(f"entry escapes {s!r}")
            if self._kd is None:
                near = self._near(s.space)
                spans[s.uid] = (len(near), [r for r in near
                                            if r.space.overlaps(s.space)])
        if self._span != spans:
            raise CoherenceError("bucket-span memo diverged from the buckets")

    def _near(self, space: IndexSpace) -> list[Region]:
        """``_buckets_overlapping`` re-derived, unmetered (invariants)."""
        lo, hi = space.bounds
        return [r for r in self._bucket_regions
                if r.space.bounds[0] <= hi and r.space.bounds[1] >= lo]

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
        self._buckets = {}
        self._span = {}
        self._bucket_regions = []
        self._bucket_lo = np.empty(0, dtype=np.int64)
        self._bucket_hi = np.empty(0, dtype=np.int64)
        self._kd = None
        self._kd_ids = {}
        if partition is not None:
            self._set_bucket_regions(list(partition.subregions))
        else:
            if sets:
                lo = min(s.space.bounds[0] for s in sets)
                hi = max(s.space.bounds[1] for s in sets)
            else:  # pragma: no cover - a store is never empty in practice
                lo, hi = 0, 0
            self._kd = KDTree(lo, hi)
        self._sets = {}
        for eqset in sets:
            self._index_insert(eqset)

    def all_sets(self) -> list[LooseEquivalenceSet]:
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


def visit_sets(find, region: Region, meter: CostMeter, led=None) -> list:
    """``find(region.space, region.uid)`` — a store's ``locate`` or
    ``overlapping`` — plus what every caller owes for the answer, in one
    charge: the ``eqsets_visited`` count and one touch per set (each set
    is its own distributed object), in the order answered; and, when the
    witness span ``led`` is recording, the BVH-node and set visit totals."""
    if led is not None:
        bvh_before = meter.counters.get("bvh_nodes_visited", 0)
    sets = find(region.space, region.uid)
    if led is not None:
        led.visit("bvh_nodes",
                  meter.counters.get("bvh_nodes_visited", 0) - bvh_before)
        led.visit("eqsets", len(sets))
    meter.charge({"eqsets_visited": len(sets)},
                 [("eqset", s.uid, s.space.bounds[0]) for s in sets])
    return sets


def set_tokens(sets, entry_bounds) -> tuple:
    """Structure tokens of a set collection: the decomposition plus the
    refinement trace each history encodes.  ``entry_bounds(entry)`` is an
    entry's own domain bounds (``None`` where entries are aligned with
    their set)."""
    return tuple(
        ("eqset", s.space.bounds, s.space.size, s.space.indices.tobytes(),
         tuple((repr(e.privilege), e.task_id, tuple(sorted(e.collapsed_ids)),
                entry_bounds(e)) for e in s.history))
        for s in sorted(sets, key=lambda s: (s.space.bounds, s.space.size)))


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
