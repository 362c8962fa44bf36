"""Geometric substrate: points, rectangles, index spaces and spatial indexes.

Regions in the paper are arbitrary (possibly sparse, possibly aliased)
subsets of a root collection.  This subpackage provides the set algebra that
every coherence algorithm is built on:

* :class:`~repro.geometry.point.Rect` — dense n-dimensional integer
  rectangles (used by the structured applications).
* :class:`~repro.geometry.index_space.IndexSpace` — an immutable sorted set
  of linearized element indices with vectorized union / intersection /
  difference, the ``X/Y``, ``X\\Y`` and ``X ⊕ Y`` operators of Figure 7.
* :class:`~repro.geometry.kdtree.KDTree` — the K-d tree fallback of
  section 7.1 for programs with no disjoint-and-complete partition.
* :mod:`~repro.geometry.fastpath` — the interning/caching layer and the
  batched interference kernel behind the ``IndexSpace`` operators.
"""

from repro.geometry.point import Extent, Rect
from repro.geometry.index_space import IndexSpace
from repro.geometry.kdtree import KDTree
# Imported last: installs the operation-cache hook into index_space.
from repro.geometry.fastpath import (GeometryCache, batch_overlaps,
                                     geometry_cache, reset_geometry_cache)

__all__ = [
    "Extent",
    "Rect",
    "IndexSpace",
    "KDTree",
    "GeometryCache",
    "batch_overlaps",
    "geometry_cache",
    "reset_geometry_cache",
]
