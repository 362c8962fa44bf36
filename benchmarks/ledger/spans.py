"""Benchmark-owned spans: recorded around calls into each layer.

The program is traced from outside — nothing in ``repro`` is edited —
so a span is whatever the benchmark itself can bracket with two clock
reads: a call into a layer's public function.  Rows are kept in memory
and written once, when the workload ends.

A row is ``[name, start, end, parent, cell, args]``; ``parent`` is the
row index of the span that caused it (-1 at the top), ``cell``
identifies the (app, algorithm) cell or service phase it belongs to
(spans of one operation share it), and ``args`` carries counts read at
the same boundary.  Times are raw ``perf_counter`` seconds; the file
also holds the calibration samples needed to bring them to reference
speed.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np


class SpanLog:
    def __init__(self) -> None:
        self.rows: list[list] = []

    def add(self, name: str, start: float, end: float, parent: int = -1,
            cell: str = "", args: dict | None = None) -> int:
        """Record a finished span; returns its row index (the ``parent``
        of spans it caused)."""
        self.rows.append([name, start, end, parent, cell, args])
        return len(self.rows) - 1

    def reserve(self, name: str, cell: str = "", parent: int = -1) -> int:
        """Open a span whose children are recorded before it ends."""
        return self.add(name, 0.0, 0.0, parent, cell)

    def finish(self, index: int, start: float, end: float,
               args: dict | None = None) -> None:
        row = self.rows[index]
        row[1], row[2] = start, end
        if args:
            row[5] = args

    # ------------------------------------------------------------------
    def self_times(self, scale=None) -> dict[tuple[str, str], list]:
        """``{(cell, name): [calls, total seconds, self seconds]}``.

        Self time is a span's duration minus what its direct children
        cover.  ``scale`` (a callable: timestamps -> factors) brings
        durations to reference speed.
        """
        if not self.rows:
            return {}
        ends = np.fromiter((r[2] for r in self.rows), dtype=float,
                           count=len(self.rows))
        durs = ends - np.fromiter((r[1] for r in self.rows), dtype=float,
                                  count=len(self.rows))
        if scale is not None:
            durs = durs * scale(ends)
        child = np.zeros(len(self.rows))
        parents = np.fromiter((r[3] for r in self.rows), dtype=np.int64,
                              count=len(self.rows))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durs[has_parent])
        out: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        for row, dur, covered in zip(self.rows, durs, child):
            acc = out[(row[4], row[0])]
            acc[0] += 1
            acc[1] += dur
            acc[2] += dur - covered
        return dict(out)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(header)
        doc["columns"] = ["name", "start", "end", "parent", "cell", "args"]
        doc["spans"] = self.rows
        path.write_text(json.dumps(doc) + "\n")
