"""Ray casting for content-based coherence (Figure 11, section 7).

Ray casting keeps Warnock's equivalence-set abstraction but changes what
reshapes the sets.  Reads and reductions *never* refine: they record
entries carrying their precise sub-domains inside stable sets (the "rays"
are the per-entry domain tests during scanning and blending).  Only a
**dominating write** changes the set collection: every set occluded by the
written region is pruned (straddling sets are trimmed to their outside
part) and one fresh set covering exactly the written region takes their
place, with the write as its whole history.

In steady state this means zero structural churn: applications that write
their pieces every iteration (all three benchmarks do) keep exactly one
equivalence set per piece, each with a short, freshly-reset history (a
write over one set's own region renews the set in place, so every
neighbour's memo of it stands: :meth:`BucketStore.dominate_write`) —
which is why ray casting maintains "fewer total equivalence sets in its
lists" and wins every experiment in section 8.

Because the set collection is non-monotone there is no stable
refinement-tree BVH.  Following section 7.1, sets are bucketed under the
leaves of a subtree with only disjoint-and-complete partitions when one
exists, with a K-d tree fallback otherwise, and the runtime can shift the
sets to a new subtree if the application changes partitions
(:meth:`RayCastAlgorithm.rebucket`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.privileges import Privilege, READ_WRITE
from repro.regions.partition import Partition
from repro.regions.region import Region
from repro.regions.tree import RegionTree
from repro.visibility.base import CoherenceAlgorithm, INITIAL_TASK_ID
from repro.visibility.eqset import (BucketStore, EquivalenceSet,
                                    describe_sets, set_tokens, visit_sets)
from repro.visibility.history import (UNVALUED, HistoryEntry, RegionValues,
                                      paint_into, scan_dependences)
from repro.visibility.meter import CostMeter
from repro.obs import provenance as prov


class RayCastAlgorithm(CoherenceAlgorithm):
    """Warnock's equivalence sets plus dominating writes (Figure 11)."""

    name = "raycast"

    def __init__(self, tree: RegionTree, field: str,
                 initial: Optional[np.ndarray],
                 meter: Optional[CostMeter] = None) -> None:
        super().__init__(tree, field, initial, meter)
        root = EquivalenceSet(tree.root.space)
        root._append(HistoryEntry(
            READ_WRITE, tree.root.space,
            UNVALUED if initial is None else RegionValues(
                tree.root.space, np.asarray(initial).copy()),
            INITIAL_TASK_ID))
        partition = tree.find_disjoint_complete_partition()
        self._tree_size_seen = len(tree)
        self._store = BucketStore(root, partition, self.meter)

    # ------------------------------------------------------------------
    def _refresh_buckets(self) -> None:
        """Adopt a disjoint-and-complete partition created after this
        algorithm instance (the common case: the runtime is built before
        the application partitions its data)."""
        if self._store.partition is not None:
            return
        if len(self.tree) == self._tree_size_seen:
            return
        self._tree_size_seen = len(self.tree)
        partition = self.tree.find_disjoint_complete_partition()
        if partition is not None:
            self._store.rebucket(partition)

    # ------------------------------------------------------------------
    # the store policy: stable sets, precise entries, dominating writes
    # ------------------------------------------------------------------
    def _locate(self, privilege: Privilege, region: Region,
                led) -> list[EquivalenceSet]:
        self._refresh_buckets()
        return visit_sets(self._store.overlapping, region, self.meter, led)

    def _collect(self, privilege: Privilege, region: Region,
                 sets: list[EquivalenceSet], deps: set[int],
                 led) -> None:
        for eqset in sets:
            if led is not None:
                led.set_source(("eqset",) + prov.domain_desc(eqset.space))
            scan_dependences(privilege, region.space, eqset.history, deps,
                             self.meter, led)

    def _paint(self, region: Region,
               sets: list[EquivalenceSet]) -> Optional[np.ndarray]:
        values = self._canvas(region)
        for eqset, common in zip(sets, self._store.commons(region.uid)):
            paint_into(values, region.space, common, eqset.history, self.meter)
        return values

    def _settle(self, region: Region, sets: list[EquivalenceSet],
                values: Optional[np.ndarray], led) -> None:
        if not region.space.size:
            return  # occludes nothing, and a set is never empty
        if led is not None:
            # A dominating write kills every occluded set (straddlers
            # are trimmed to their outside part): record which earlier
            # tasks lose their witness entries, before the store
            # mutates.  Observation only — no meter counts.
            for eqset, common in zip(sets, self._store.commons(region.uid)):
                led.set_source(("eqset",) + prov.domain_desc(eqset.space))
                reason = ("dominated" if common.size == eqset.space.size
                          else "trimmed")
                for entry in eqset.history:
                    led.prune(entry.task_id, reason,
                              prov.domain_desc(entry.domain))
        # Figure 11 line 2: one fresh set for R, occluded sets pruned.
        # Seed it with the values just materialized so the store stays
        # coherent even if the task aborts before commit; the commit
        # replaces the seed with the task's real write.
        fresh = self._store.dominate_write(region.space, sets, region.uid)
        fresh._append(HistoryEntry(
            READ_WRITE, region.space, UNVALUED if values is None
            else RegionValues(region.space, values.copy()), INITIAL_TASK_ID))
        self.meter.touch(fresh.key)

    def _record(self, privilege: Privilege, region: Region,
                values: Optional[np.ndarray], task_id: int, led) -> None:
        sets = visit_sets(self._store.overlapping, region, self.meter)
        moved = 0
        for eqset, common in zip(sets, self._store.commons(region.uid)):
            kept = None
            if not privilege.is_read:
                # one copy either way: a gather owns its memory, and a set
                # over the whole region (every write commit) needs no map
                kept = UNVALUED if values is None else RegionValues(
                    common, values.copy() if common.size == values.size
                    else values[region.space.positions_of(common)])
                moved += common.size
            eqset._append(HistoryEntry(privilege, common, kept, task_id))
        if moved:
            self.meter.counters["elements_moved"] += moved

    # ------------------------------------------------------------------
    @property
    def store(self) -> BucketStore:
        """The underlying equivalence-set store (tests/benchmarks)."""
        return self._store

    def num_equivalence_sets(self) -> int:
        """Live equivalence-set count — bounded by the partitions actually
        in use, thanks to coalescing."""
        return self._store.num_sets()

    def structure_tokens(self) -> tuple:
        return super().structure_tokens() + set_tokens(
            self._store.all_sets(), lambda entry: entry.domain.bounds)

    def describe(self) -> dict:
        part = self._store.partition
        return {**describe_sets(self._store.all_sets()),
                "buckets": 0 if part is None else len(part.subregions),
                "kd_fallback": part is None}

    def check_invariants(self) -> None:
        """Run the structural invariants (tests)."""
        self._store.check_invariants(self.tree.root.space)
        self._check_valued(e for s in self._store.all_sets()
                           for e in s.history)

    def rebucket(self, partition: Optional[Partition]) -> None:
        """Shift the equivalence sets to a different disjoint-and-complete
        partition subtree (or to the K-d fallback when None)."""
        self._store.rebucket(partition)

    @property
    def bucket_partition(self) -> Optional[Partition]:
        """The partition currently serving as the BVH, if any."""
        return self._store.partition
