"""Warnock's algorithm for content-based coherence (Figure 9).

The state is a set of :class:`~repro.visibility.eqset.EquivalenceSet`
objects that partition the root region; materializing region ``R`` refines
any partially-overlapping set (Figure 9's ``refine``), after which ``R``'s
constituent sets hold *exactly* the relevant history and painting each one
is trivial whole-array work.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.privileges import Privilege, READ_WRITE
from repro.regions.region import Region
from repro.regions.tree import RegionTree
from repro.visibility.base import CoherenceAlgorithm, INITIAL_TASK_ID
from repro.visibility.eqset import (EquivalenceSet, RefinementStore,
                                    describe_sets, set_tokens, visit_sets)
from repro.visibility.history import (UNVALUED, HistoryEntry, RegionValues,
                                      paint_into)
from repro.visibility.meter import CostMeter
from repro.obs import provenance as prov


class WarnockAlgorithm(CoherenceAlgorithm):
    """Warnock's algorithm: monotone refinement, BVH + memoization.

    ``memoize`` (class attribute) controls the section 6.1 memoization of
    constituent equivalence sets per named region (the answer itself
    while no set has split, a head start down the BVH after); subclass with
    ``memoize = False`` to measure its contribution (see
    ``benchmarks/test_ablation_memo.py``).
    """

    name = "warnock"
    memoize: bool = True

    def __init__(self, tree: RegionTree, field: str,
                 initial: Optional[np.ndarray],
                 meter: Optional[CostMeter] = None) -> None:
        super().__init__(tree, field, initial, meter)
        space = tree.root.space
        root = EquivalenceSet(space, [HistoryEntry(
            READ_WRITE, space, UNVALUED if initial is None else RegionValues(
                space, np.asarray(initial).copy()), INITIAL_TASK_ID)])
        self._store = RefinementStore(root, self.meter, memoize=self.memoize)

    # ------------------------------------------------------------------
    # the store policy: refine, then every set is exactly relevant
    # ------------------------------------------------------------------
    def _locate(self, privilege: Privilege, region: Region,
                led) -> list[EquivalenceSet]:
        return visit_sets(self._store.locate, region, self.meter, led)

    def _collect(self, privilege: Privilege, region: Region,
                 sets: list[EquivalenceSet], deps: set[int], led) -> None:
        mark, scanned = privilege.commutes, 0
        for eqset in sets:
            if led is not None:
                led.set_source(("eqset",) + prov.domain_desc(eqset.space))
            # the eqset invariant makes the overlap test implicit (every
            # entry is relevant to every element), so the scan is the
            # privilege test (``interferes``, inlined on the markers) plus
            # the growing-deps skip
            scanned += len(eqset.history)
            for entry in eqset.history:
                if (mark is not None and entry.privilege.commutes is mark) \
                        or (entry.task_id in deps
                            and not entry.collapsed_ids):
                    continue
                deps.add(entry.task_id)
                if entry.collapsed_ids:
                    deps.update(entry.collapsed_ids)
                if led is not None:
                    led.edge(
                        entry.task_id,
                        "summary" if entry.collapsed_ids else "eqset",
                        prov.privilege_label(entry.privilege),
                        prov.domain_desc(eqset.space),
                        collapsed=entry.collapsed_ids)
        if scanned:
            self.meter.counters["entries_scanned"] += scanned

    def _paint(self, region: Region,
               sets: list[EquivalenceSet]) -> Optional[np.ndarray]:
        values = self._canvas(region)
        for eqset in sets:
            paint_into(values, region.space, eqset.space, eqset.history,
                       self.meter)
        return values

    def _record(self, privilege: Privilege, region: Region,
                values: Optional[np.ndarray], task_id: int, led) -> None:
        moved = 0
        for eqset in visit_sets(self._store.locate, region, self.meter):
            space, kept = eqset.space, None
            if not privilege.is_read:
                kept = UNVALUED if values is None else RegionValues(
                    space, values[region.space.positions_of(space)])
                moved += space.size
            eqset._append(HistoryEntry(privilege, space, kept, task_id))
        if moved:
            self.meter.counters["elements_moved"] += moved

    # ------------------------------------------------------------------
    @property
    def store(self) -> RefinementStore:
        """The underlying equivalence-set store (tests/benchmarks)."""
        return self._store

    def num_equivalence_sets(self) -> int:
        """Live equivalence-set count — the quantity whose explosion dooms
        Warnock's scalability in section 8.1."""
        return len(self._store.all_sets())

    def structure_tokens(self) -> tuple:
        return super().structure_tokens() + set_tokens(
            self._store.all_sets(), lambda entry: None)

    def describe(self) -> dict:
        return describe_sets(self._store.all_sets())

    def check_invariants(self) -> None:
        """Run the section 6 structural invariants (tests)."""
        self._store.check_invariants(self.tree.root.space)
        self._check_valued(e for s in self._store.all_sets()
                           for e in s.history)
