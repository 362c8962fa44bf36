"""The 2-D 9-point stencil benchmark (section 8, after [26]).

A regular grid is tiled into a disjoint-and-complete primary partition
``P``; an aliased partition ``H`` names each tile *plus* its star-shaped
radius-2 halo (two cells in each axis direction, no corners — the paper's
footnote 5).  One loop iteration launches, per tile,

* ``stencil[i]``  — read ``in`` on H[i], read-write ``out`` on P[i]
  (the halo read is what induces cross-piece dependences on neighbours'
  writes through a *different* partition — content-based coherence), and
* ``increment[i]`` — read-write ``in`` on P[i] (the intermixed
  data-parallel computation).

Bodies compute the real weighted star stencil, so the application is
validated end-to-end against the sequential reference executor.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application
from repro.apps.meshes import factor_grid, star_halo, tile_rects
from repro.errors import GeometryError
from repro.geometry.index_space import IndexSpace
from repro.geometry.point import Extent
from repro.privileges import READ, READ_WRITE
from repro.regions.tree import RegionTree
from repro.runtime.task import RegionRequirement, TaskStream

#: Star offsets of a radius-2 9-point stencil: (dx, dy, weight).
STAR_OFFSETS: tuple[tuple[int, int, float], ...] = tuple(
    (dx, dy, 1.0 / (4.0 * max(abs(dx), abs(dy))))
    for dx, dy in [(-2, 0), (-1, 0), (1, 0), (2, 0),
                   (0, -2), (0, -1), (0, 1), (0, 2)])


class StencilApp(Application):
    """PRK-style 2-D stencil on ``pieces`` tiles of ``tile × tile`` points."""

    name = "stencil"

    def __init__(self, pieces: int, tile: int = 8) -> None:
        if tile < 1:
            raise GeometryError("tile must be positive")
        self.pieces = pieces
        self.tile = tile
        self.units_per_piece = tile * tile
        px, py = factor_grid(pieces)
        self.extent = Extent((px * tile, py * tile))
        self.tree = RegionTree(self.extent,
                               {"in": np.float64, "out": np.float64},
                               name="grid")
        rects = tile_rects(self.extent, px, py)
        self.P = self.tree.root.create_partition(
            "P", [IndexSpace.from_rect(r, self.extent) for r in rects],
            disjoint=True, complete=True)
        self.H = self.tree.root.create_partition(
            "H", [star_halo(r, 2, self.extent) for r in rects])
        n = self.tree.root.space.size
        self.initial = {"in": np.zeros(n), "out": np.zeros(n)}
        self._gathers = [self._build_gather(i, rects[i]) for i in range(pieces)]
        self._init_stream = self._make_init_stream()
        self._iter_stream = self._make_iteration_stream()

    # ------------------------------------------------------------------
    def _build_gather(self, i: int, rect) -> list[tuple[np.ndarray,
                                                        np.ndarray, float]]:
        """Per-offset (target positions in P[i], source positions in H[i],
        weight) index maps for a fully vectorized stencil body."""
        tile_space = self.P[i].space
        halo_space = self.H[i].space
        coords = tile_space.to_rect_coords(self.extent)
        shape = np.asarray(self.extent.shape, dtype=np.int64)
        out = []
        for dx, dy, w in STAR_OFFSETS:
            nc = coords + np.asarray([dx, dy], dtype=np.int64)
            valid = ((nc >= 0) & (nc < shape)).all(axis=1)
            flat = self.extent.linearize(nc[valid])
            # built once against a throwaway space: raw, not via the cache
            src = halo_space._positions_raw(IndexSpace(flat, trusted=True))
            # `flat` is sorted because coords are sorted row-major and the
            # offset preserves order within the valid subset
            tgt = np.flatnonzero(valid)
            out.append((tgt, src, w))
        return out

    # ------------------------------------------------------------------
    def _make_init_stream(self) -> TaskStream:
        stream = TaskStream()
        for i in range(self.pieces):
            base = float(i + 1)

            def body(in_buf, out_buf, base=base, i=i):
                coords = self.P[i].space.to_rect_coords(self.extent)
                in_buf[:] = base + 0.25 * coords[:, 0] + 0.5 * coords[:, 1]
                out_buf[:] = 0.0
            stream.append(
                f"init[{i}]",
                [RegionRequirement(self.P[i], "in", READ_WRITE),
                 RegionRequirement(self.P[i], "out", READ_WRITE)],
                body, point=i)
        return stream

    def _make_iteration_stream(self) -> TaskStream:
        stream = TaskStream()
        for i in range(self.pieces):
            gathers = self._gathers[i]

            def stencil_body(halo_in, tile_out, gathers=gathers):
                for tgt, src, w in gathers:
                    tile_out[tgt] += w * halo_in[src]

            stream.append(
                f"stencil[{i}]",
                [RegionRequirement(self.H[i], "in", READ),
                 RegionRequirement(self.P[i], "out", READ_WRITE)],
                stencil_body, point=i)
        for i in range(self.pieces):
            def increment_body(tile_in):
                tile_in += 1.0
            stream.append(
                f"increment[{i}]",
                [RegionRequirement(self.P[i], "in", READ_WRITE)],
                increment_body, point=i)
        return stream

    # ------------------------------------------------------------------
    def init_stream(self) -> TaskStream:
        return self._init_stream

    def iteration_stream(self) -> TaskStream:
        return self._iter_stream

    # ------------------------------------------------------------------
    def reference_result(self, iterations: int) -> dict[str, np.ndarray]:
        """Direct NumPy evaluation of the whole computation on the full
        grid — an independent oracle (not via the runtime at all)."""
        h, w = self.extent.shape
        inp = np.zeros((h, w))
        for i in range(self.pieces):
            coords = self.P[i].space.to_rect_coords(self.extent)
            inp[coords[:, 0], coords[:, 1]] = \
                (i + 1) + 0.25 * coords[:, 0] + 0.5 * coords[:, 1]
        out = np.zeros((h, w))
        for _ in range(iterations):
            for dx, dy, weight in STAR_OFFSETS:
                src_x = slice(max(0, dx), h + min(0, dx))
                src_y = slice(max(0, dy), w + min(0, dy))
                dst_x = slice(max(0, -dx), h + min(0, -dx))
                dst_y = slice(max(0, -dy), w + min(0, -dy))
                out[dst_x, dst_y] += weight * inp[src_x, src_y]
            inp += 1.0
        return {"in": inp.ravel(), "out": out.ravel()}
