"""The painter's algorithm for content-based coherence (Figure 7).

State is a single global *history*: a time-ordered list of
(privilege, region) pairs, oldest first, seeded with the fully-opaque
initial write of the root region.  Materializing a region replays the whole
history back-to-front onto it — exactly the graphics painter's algorithm,
rendering every object in depth order whether or not it ends up visible.

This is the reference implementation the optimized variants are tested
against: simple, obviously faithful to the figure, and O(history) per
operation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.privileges import Privilege
from repro.regions.region import Region
from repro.regions.tree import RegionTree
from repro.visibility.base import (AnalysisOutcome, CoherenceAlgorithm,
                                   INITIAL_TASK_ID)
from repro.visibility.history import (ColumnarHistory, HistoryEntry,
                                      RegionValues, paint_entry,
                                      scan_dependences)
from repro.visibility.meter import CostMeter
from repro.obs import provenance as prov
from repro.obs.tracer import traced


class PainterAlgorithm(CoherenceAlgorithm):
    """Naive painter's algorithm: one global, ever-growing history."""

    name = "painter"

    def __init__(self, tree: RegionTree, field: str, initial: np.ndarray,
                 meter: Optional[CostMeter] = None) -> None:
        super().__init__(tree, field, initial, meter)
        root_values = RegionValues(tree.root.space, np.asarray(initial).copy())
        from repro.privileges import READ_WRITE

        # columnar backing: list-like for painting/pickling, SoA columns
        # for the vectorized dependence sweep
        self._history = ColumnarHistory([
            HistoryEntry(READ_WRITE, tree.root.space, root_values,
                         INITIAL_TASK_ID)
        ])

    # ------------------------------------------------------------------
    @property
    def history_length(self) -> int:
        """Number of recorded entries (diagnostics/benchmarks)."""
        return len(self._history)

    @traced("materialize")
    def materialize(self, privilege: Privilege, region: Region) -> AnalysisOutcome:
        deps: set[int] = set()
        led = prov._LEDGER
        track = led.enabled
        if track:
            led.set_source(("painter", len(self._history)))
            led.visit("history_entries", len(self._history))
        scan_dependences(privilege, region.space, self._history, deps,
                         self.meter)
        if track:
            led.clear_source()
        deps.discard(INITIAL_TASK_ID)
        # The history is one distributed object rooted at the control node.
        self.meter.touch(("painter_history", 0))

        if privilege.is_reduce:
            # Lazy reductions: never look at values, hand back identities.
            values = self.identity_buffer(privilege, region.space.size)
            return AnalysisOutcome(values, frozenset(deps))

        painted = self._paint(region.space)
        return AnalysisOutcome(painted.values, frozenset(deps))

    def _paint(self, space) -> RegionValues:
        """Replay the history oldest-to-newest onto ``space``."""
        current = RegionValues.filled(space, 0, self.dtype)
        for entry in self._history:
            self.meter.count("entries_scanned")
            current = paint_entry(current, entry, self.meter)
        return current

    def materialize_values(self, privilege: Privilege,
                           region: Region) -> np.ndarray:
        """Traced-replay fast path: paint without the dependence scan."""
        self.meter.touch(("painter_history", 0))
        if privilege.is_reduce:
            return self.identity_buffer(privilege, region.space.size)
        return self._paint(region.space).values

    @traced("commit")
    def commit(self, privilege: Privilege, region: Region,
               values: Optional[np.ndarray], task_id: int) -> None:
        values = self._check_commit_values(privilege, region, values)
        rv = None if values is None else RegionValues(region.space,
                                                      values.copy())
        self._history.append(
            HistoryEntry(privilege, region.space, rv, task_id))
        self.meter.touch(("painter_history", 0))
