"""Warnock's algorithm for content-based coherence (Figure 9).

The state is a set of :class:`~repro.visibility.eqset.EquivalenceSet`
objects that partition the root region; materializing region ``R`` refines
any partially-overlapping set (Figure 9's ``refine``), after which ``R``'s
constituent sets hold *exactly* the relevant history and painting each one
is trivial whole-array work.

The shared materialize/commit logic lives in :class:`EqSetAlgorithmBase`
so ray casting (Figure 11) can reuse it verbatim, exactly as the paper's
pseudo-code calls ``warnock::materialize`` / ``warnock::commit``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import CoherenceError
from repro.privileges import Privilege, READ_WRITE
from repro.regions.region import Region
from repro.regions.tree import RegionTree
from repro.visibility.base import (AnalysisOutcome, CoherenceAlgorithm,
                                   INITIAL_TASK_ID)
from repro.visibility.eqset import (EqEntry, EquivalenceSet, EqSetStore,
                                    RefinementTreeStore)
from repro.visibility.history import interfering_indices
from repro.visibility.meter import CostMeter
from repro.obs import provenance as prov
from repro.obs.tracer import traced


class EqSetAlgorithmBase(CoherenceAlgorithm):
    """Materialize/commit over an equivalence-set store.

    Subclasses provide the store (refinement tree for Warnock, partition
    buckets for ray casting) and may hook :meth:`_after_materialize` —
    that hook is where ray casting's dominating write lives.
    """

    def __init__(self, tree: RegionTree, field: str, initial: np.ndarray,
                 meter: Optional[CostMeter] = None) -> None:
        super().__init__(tree, field, initial, meter)
        root = EquivalenceSet(tree.root.space)
        root.history.append(
            EqEntry(READ_WRITE, np.asarray(initial).copy(), INITIAL_TASK_ID))
        self._store = self._make_store(root)

    def _make_store(self, root: EquivalenceSet) -> EqSetStore:
        raise NotImplementedError

    # ------------------------------------------------------------------
    @traced("materialize")
    def materialize(self, privilege: Privilege, region: Region) -> AnalysisOutcome:
        if region.tree is not self.tree:
            raise CoherenceError("region belongs to a different tree")
        led = prov._LEDGER
        track = led.enabled
        if track:
            bvh_before = self.meter.counters.get("bvh_nodes_visited", 0)
        sets = self._store.locate(region.space, region.uid)
        if track:
            led.visit("bvh_nodes",
                      self.meter.counters.get("bvh_nodes_visited", 0)
                      - bvh_before)
            led.visit("eqsets", len(sets))

        deps: set[int] = set()
        for eqset in sets:
            self.meter.count("eqsets_visited")
            self.meter.touch(("eqset", eqset.uid, eqset.space.bounds[0]))
            if track:
                led.set_source(("eqset",) + prov.domain_desc(eqset.space))
            # the eqset invariant makes the overlap test implicit (every
            # entry is relevant to every element), so the scan is the
            # privilege front-end plus the growing-deps skip
            hist = eqset.history
            if hist:
                self.meter.count("entries_scanned", len(hist))
            entries = hist.entries
            for i in interfering_indices(privilege, hist):
                entry = entries[i]
                if entry.task_id in deps and not entry.collapsed_ids:
                    continue
                deps.add(entry.task_id)
                if entry.collapsed_ids:
                    deps.update(entry.collapsed_ids)
                if track:
                    led.edge(
                        entry.task_id,
                        "summary" if entry.collapsed_ids else "eqset",
                        prov.privilege_label(entry.privilege),
                        prov.domain_desc(eqset.space),
                        collapsed=entry.collapsed_ids)
        if track:
            led.clear_source()
        deps.discard(INITIAL_TASK_ID)

        if privilege.is_reduce:
            values = self.identity_buffer(privilege, region.space.size)
        else:
            values = np.zeros(region.space.size, dtype=self.dtype)
            for eqset in sets:
                painted = eqset.paint(self.dtype, self.meter)
                values[region.space.positions_of(eqset.space)] = painted

        self._after_materialize(privilege, region, sets)
        return AnalysisOutcome(values, frozenset(deps))

    def _after_materialize(self, privilege: Privilege, region: Region,
                           sets: list[EquivalenceSet]) -> None:
        """Hook for subclasses; no-op for Warnock."""

    def materialize_values(self, privilege: Privilege,
                           region: Region) -> np.ndarray:
        """Traced-replay fast path: locate (and refine) the constituent
        sets and paint them, skipping the per-entry dependence scan."""
        if region.tree is not self.tree:
            raise CoherenceError("region belongs to a different tree")
        sets = self._store.locate(region.space, region.uid)
        for eqset in sets:
            self.meter.count("eqsets_visited")
            self.meter.touch(("eqset", eqset.uid, eqset.space.bounds[0]))
        if privilege.is_reduce:
            return self.identity_buffer(privilege, region.space.size)
        values = np.zeros(region.space.size, dtype=self.dtype)
        for eqset in sets:
            painted = eqset.paint(self.dtype, self.meter)
            values[region.space.positions_of(eqset.space)] = painted
        return values

    @traced("commit")
    def commit(self, privilege: Privilege, region: Region,
               values: Optional[np.ndarray], task_id: int) -> None:
        if region.tree is not self.tree:
            raise CoherenceError("region belongs to a different tree")
        values = self._check_commit_values(privilege, region, values)
        for eqset in self._store.locate(region.space, region.uid):
            self.meter.count("eqsets_visited")
            self.meter.touch(("eqset", eqset.uid, eqset.space.bounds[0]))
            if values is None:
                eqset.record(privilege, None, task_id)
            else:
                pos = region.space.positions_of(eqset.space)
                self.meter.count("elements_moved", eqset.space.size)
                eqset.record(privilege, values[pos], task_id)

    # ------------------------------------------------------------------
    @property
    def store(self) -> EqSetStore:
        """The underlying equivalence-set store (tests/benchmarks)."""
        return self._store

    def num_equivalence_sets(self) -> int:
        """Live equivalence-set count — the quantity whose explosion dooms
        Warnock's scalability in section 8.1."""
        return len(self._store.all_sets())

    def check_invariants(self) -> None:
        """Run the section 6 structural invariants (tests)."""
        self._store.check_invariants(self.tree.root.space)


class WarnockAlgorithm(EqSetAlgorithmBase):
    """Warnock's algorithm: monotone refinement, BVH + memoization.

    ``memoize`` (class attribute) controls the section 6.1 memoization of
    constituent equivalence sets per named region; subclass with
    ``memoize = False`` to measure its contribution (see
    ``benchmarks/test_ablation_memo.py``).
    """

    name = "warnock"
    memoize: bool = True

    def _make_store(self, root: EquivalenceSet) -> EqSetStore:
        return RefinementTreeStore(root, self.meter, memoize=self.memoize)
