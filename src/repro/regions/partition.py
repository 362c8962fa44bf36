"""Partitions: named arrays of subregions (paper section 2)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Iterator, Optional, Sequence

import numpy as np

from repro.errors import RegionTreeError
from repro.geometry.index_space import IndexSpace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.regions.region import Region


class Partition:
    """An array of subregions of a parent region.

    The two properties below drive every acceleration decision in the
    coherence algorithms:

    * ``disjoint`` — pairwise-disjoint subregions.  The optimized painter's
      algorithm skips composite-view creation between siblings of a
      disjoint partition (section 5.1); ray casting selects a subtree of
      *disjoint and complete* partitions as its BVH (section 7.1).
    * ``complete`` — subregions cover the parent.

    Use :meth:`Region.create_partition` to construct.
    """

    __slots__ = ("parent", "name", "subregions", "disjoint", "complete")

    def __init__(self) -> None:  # pragma: no cover - guarded constructor
        raise RegionTreeError("use Region.create_partition to build partitions")

    @classmethod
    def _create(cls, parent: "Region", name: str,
                subspaces: list[IndexSpace], *,
                disjoint: bool, complete: bool) -> "Partition":
        """Build a partition :func:`check_partition` has accepted."""
        self = object.__new__(cls)
        self.parent = parent
        self.name = name
        self.disjoint = disjoint
        self.complete = complete

        tree = parent.tree
        self.subregions = [
            tree._new_region(space, f"{parent.name}.{name}[{i}]", self)
            for i, space in enumerate(subspaces)
        ]
        return self

    # ------------------------------------------------------------------
    @property
    def is_aliased(self) -> bool:
        """True when some element belongs to more than one subregion."""
        return not self.disjoint

    def __getitem__(self, index: int) -> "Region":
        return self.subregions[index]

    def __len__(self) -> int:
        return len(self.subregions)

    def __iter__(self) -> Iterator["Region"]:
        return iter(self.subregions)

    def subregions_overlapping(self, space: IndexSpace) -> list["Region"]:
        """Subregions whose space intersects ``space``."""
        return [r for r in self.subregions if r.space.overlaps(space)]

    def __repr__(self) -> str:
        props = []
        props.append("disjoint" if self.disjoint else "aliased")
        props.append("complete" if self.complete else "incomplete")
        return (f"Partition({self.name!r}, n={len(self.subregions)}, "
                f"{'+'.join(props)})")


def check_partition(parent: IndexSpace, parent_name: str,
                    taken: Collection[str], name: str,
                    subspaces: Sequence[IndexSpace], *,
                    disjoint: Optional[bool] = None,
                    complete: Optional[bool] = None) -> tuple[bool, bool]:
    """Raise :class:`RegionTreeError` unless ``subspaces`` may partition
    region ``parent_name`` (over ``parent``, its partition names ``taken``)
    as ``name``; else the partition's actual ``(disjoint, complete)``.
    Mutates nothing, so a batch of partitions can be checked whole first."""
    if name in taken:
        raise RegionTreeError(
            f"region {parent_name!r} already has a partition {name!r}")
    if not subspaces:
        raise RegionTreeError("partition requires at least one subregion")
    for i, sub in enumerate(subspaces):
        # validated once, at construction: raw, not via the cache
        if not sub._issubset_raw(parent):
            raise RegionTreeError(
                f"subregion {i} of partition {name!r} is not a subset "
                f"of region {parent_name!r}")
    actual_disjoint = _compute_disjoint(list(subspaces))
    actual_complete = _compute_complete(parent, subspaces)
    if disjoint is not None and disjoint != actual_disjoint:
        raise RegionTreeError(
            f"partition {name!r} declared disjoint={disjoint} but "
            f"actually disjoint={actual_disjoint}")
    if complete is not None and complete != actual_complete:
        raise RegionTreeError(
            f"partition {name!r} declared complete={complete} but "
            f"actually complete={actual_complete}")
    return actual_disjoint, actual_complete


def _compute_disjoint(subspaces: list[IndexSpace]) -> bool:
    """Pairwise disjointness via one sort of all elements."""
    total = sum(s.size for s in subspaces)
    if total == 0:
        return True
    merged = np.concatenate([s.indices for s in subspaces if s.size])
    return np.unique(merged).size == merged.size


def _compute_complete(parent: IndexSpace, subspaces: list[IndexSpace]) -> bool:
    """Whether the subregions cover the parent."""
    union = IndexSpace.union_all(list(subspaces))
    # asked once, of a throwaway union: raw, not via the cache
    return parent._issubset_raw(union)
