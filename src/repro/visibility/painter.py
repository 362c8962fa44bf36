"""The painter's algorithm for content-based coherence: Figure 7 over
one list.

State is a single global *history*: a plain ``list`` of
(privilege, region) entries, oldest first, seeded with the fully-opaque
initial write of the root region.  A dependence scan walks the whole list
once, and materializing a region replays the whole list onto it —
exactly the graphics painter's algorithm, rendering every object in depth
order whether or not it ends up visible.

This is the reference implementation the optimized variants are tested
against: simple, obviously faithful to the figure, and O(history) per
operation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.privileges import Privilege, READ_WRITE
from repro.regions.region import Region
from repro.regions.tree import RegionTree
from repro.visibility.base import CoherenceAlgorithm, INITIAL_TASK_ID
from repro.visibility.history import (UNVALUED, HistoryEntry, RegionValues,
                                      paint_into, scan_dependences)
from repro.visibility.meter import CostMeter


class PainterAlgorithm(CoherenceAlgorithm):
    """Naive painter's algorithm: one global, ever-growing history."""

    name = "painter"

    def __init__(self, tree: RegionTree, field: str,
                 initial: Optional[np.ndarray],
                 meter: Optional[CostMeter] = None) -> None:
        super().__init__(tree, field, initial, meter)
        root_values = UNVALUED if initial is None else RegionValues(
            tree.root.space, np.asarray(initial).copy())
        self._history: list[HistoryEntry] = [
            HistoryEntry(READ_WRITE, tree.root.space, root_values,
                         INITIAL_TASK_ID)
        ]

    # ------------------------------------------------------------------
    # the store policy: everything lives in one list
    # ------------------------------------------------------------------
    def _locate(self, privilege: Privilege, region: Region,
                led) -> list[HistoryEntry]:
        # Figure 7 over one list: every access scans and paints the whole
        # history, one distributed object rooted at the control node.
        self.meter.touch(("painter_history", 0))
        return self._history

    def _collect(self, privilege: Privilege, region: Region,
                 history: list[HistoryEntry], deps: set[int], led) -> None:
        if led is not None:
            led.set_source(("painter", len(history)))
            led.visit("history_entries", len(history))
        scan_dependences(privilege, region.space, history, deps, self.meter,
                         led)

    def _paint(self, region: Region,
               history: list[HistoryEntry]) -> Optional[np.ndarray]:
        """Replay the history oldest-to-newest onto ``region``."""
        values = self._canvas(region)
        paint_into(values, region.space, region.space, history, self.meter)
        return values

    def _record(self, privilege: Privilege, region: Region,
                values: Optional[np.ndarray], task_id: int, led) -> None:
        rv = None if privilege.is_read else UNVALUED if values is None \
            else RegionValues(region.space, values.copy())
        self._history.append(
            HistoryEntry(privilege, region.space, rv, task_id))
        self.meter.touch(("painter_history", 0))

    # ------------------------------------------------------------------
    def structure_tokens(self) -> tuple:
        return super().structure_tokens() + (
            ("history", len(self._history)),)

    def describe(self) -> dict:
        return {"kind": "painter", "history_length": len(self._history)}

    def check_invariants(self) -> None:
        self._check_valued(self._history)
