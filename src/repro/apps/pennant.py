"""The Pennant mini-app skeleton (section 8, after [12]).

Pennant is a 2-D Lagrangian hydrodynamics code on an unstructured mesh of
zones and points.  The skeleton reproduces its coherence-relevant shape: a
strip-decomposed quad mesh whose zone computations read and reduce to the
*points*, including the boundary point columns shared between adjacent
pieces, using **several distinct reduction operators** (sum for forces,
min for the timestep — the property the paper calls out).

One loop iteration launches, per piece,

1. ``reset[i]``   — read-write ``force`` on P[i] (zero the accumulators;
   a write phase that lets ray casting coalesce);
2. ``forces[i]``  — read ``x`` on Z[i] (the aliased zone-view partition),
   reduce\\ :sub:`+` ``force`` on Z[i];
3. ``dt[i]``      — read ``force`` on P[i], reduce\\ :sub:`min` ``dt`` on
   P[i];
4. ``apply[i]``   — read-write ``x`` on P[i], read ``force`` on P[i];

plus one singleton ``hydro_dt`` task per iteration reading ``dt`` on the
whole root region — the global timestep collapse that makes every piece's
analysis meet at one region, stressing the algorithms' root handling.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Application
from repro.apps.meshes import StripMesh, strip_mesh
from repro.geometry.index_space import IndexSpace
from repro.privileges import READ, READ_WRITE, reduce
from repro.regions.tree import RegionTree
from repro.runtime.task import RegionRequirement, TaskStream

_DT_SCALE = 1e-2


class PennantApp(Application):
    """Lagrangian hydro skeleton on a strip-decomposed quad mesh."""

    name = "pennant"

    def __init__(self, pieces: int, zones_x: int = 8, zones_y: int = 8) -> None:
        self.pieces = pieces
        self.units_per_piece = zones_x * zones_y
        self.mesh: StripMesh = strip_mesh(pieces, zones_x, zones_y)
        self.tree = RegionTree(
            self.mesh.point_extent,
            {"x": np.float64, "force": np.float64, "dt": np.float64},
            name="points")
        self.P = self.tree.root.create_partition(
            "P", self.mesh.owned, disjoint=True, complete=True)
        self.Z = self.tree.root.create_partition(
            "Z", self.mesh.zone_view, complete=True)
        n = self.tree.root.space.size
        self.initial = {"x": np.zeros(n), "force": np.zeros(n),
                        "dt": np.full(n, np.inf)}
        self._laplace = [self._build_laplacian(i) for i in range(pieces)]
        self._init_stream = self._make_init_stream()
        self._iter_stream = self._make_iteration_stream()

    # ------------------------------------------------------------------
    def _build_laplacian(self, i: int):
        """Index maps for a vectorized nearest-neighbour force kernel over
        the piece's zone view (the shape of a corner-force gather)."""
        view = self.Z[i].space
        extent = self.mesh.point_extent
        coords = view.to_rect_coords(extent)
        shape = np.asarray(extent.shape, dtype=np.int64)
        lo_col = int(coords[:, 0].min())
        hi_col = int(coords[:, 0].max())
        maps = []
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            nc = coords + np.asarray([dx, dy], dtype=np.int64)
            valid = ((nc >= 0) & (nc < shape)).all(axis=1)
            # stay within the zone view's columns
            valid &= (nc[:, 0] >= lo_col) & (nc[:, 0] <= hi_col)
            flat = extent.linearize(nc[valid])
            # built once against a throwaway space: raw, not via the cache
            src = view._positions_raw(IndexSpace(flat, trusted=True))
            maps.append((np.flatnonzero(valid), src))
        return maps

    # ------------------------------------------------------------------
    def _make_init_stream(self) -> TaskStream:
        extent = self.mesh.point_extent
        stream = TaskStream()
        for i in range(self.pieces):
            space = self.P[i].space

            def body(x, space=space):
                coords = space.to_rect_coords(extent)
                x[:] = np.sin(0.3 * coords[:, 0]) + 0.2 * coords[:, 1]
            stream.append(
                f"init[{i}]",
                [RegionRequirement(self.P[i], "x", READ_WRITE)],
                body, point=i)
        return stream

    def _make_iteration_stream(self) -> TaskStream:
        stream = TaskStream()
        for i in range(self.pieces):
            def reset_body(force):
                force[:] = 0.0
            stream.append(
                f"reset[{i}]",
                [RegionRequirement(self.P[i], "force", READ_WRITE)],
                reset_body, point=i)
        for i in range(self.pieces):
            maps = self._laplace[i]

            def forces_body(x, force, maps=maps):
                for tgt, src in maps:
                    force[tgt] += x[src]
                force -= 4.0 * x
            stream.append(
                f"forces[{i}]",
                [RegionRequirement(self.Z[i], "x", READ),
                 RegionRequirement(self.Z[i], "force", reduce("sum"))],
                forces_body, point=i)
        for i in range(self.pieces):
            def dt_body(force, dt):
                np.minimum(dt, 1.0 / (np.abs(force) + 1e-3), out=dt)
            stream.append(
                f"dt[{i}]",
                [RegionRequirement(self.P[i], "force", READ),
                 RegionRequirement(self.P[i], "dt", reduce("min"))],
                dt_body, point=i)
        for i in range(self.pieces):
            def apply_body(x, force):
                x += _DT_SCALE * force
            stream.append(
                f"apply[{i}]",
                [RegionRequirement(self.P[i], "x", READ_WRITE),
                 RegionRequirement(self.P[i], "force", READ)],
                apply_body, point=i)
        # the global timestep collapse: one singleton task reads dt
        # everywhere (Pennant's per-cycle allreduce)
        stream.append(
            "hydro_dt",
            [RegionRequirement(self.tree.root, "dt", READ)],
            None, point=None)
        return stream

    # ------------------------------------------------------------------
    def init_stream(self) -> TaskStream:
        return self._init_stream

    def iteration_stream(self) -> TaskStream:
        return self._iter_stream
