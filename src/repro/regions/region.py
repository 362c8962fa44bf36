"""Region nodes of the region tree."""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.errors import RegionTreeError
from repro.geometry.index_space import IndexSpace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.regions.partition import Partition
    from repro.regions.tree import RegionTree


class Region:
    """A named subset of a collection's elements.

    Regions are nodes of a :class:`~repro.regions.tree.RegionTree`: the root
    covers the whole collection; every other region is a subregion of some
    partition.  A region may be further partitioned any number of times
    (the root in Figure 2c carries both the primary and ghost partitions).

    Regions are identified by object identity; ``uid`` gives a stable,
    creation-ordered integer used for deterministic iteration.
    """

    __slots__ = ("tree", "space", "name", "parent_partition", "uid",
                 "depth", "_partitions")

    def __init__(self, tree: "RegionTree", space: IndexSpace, name: str,
                 parent_partition: Optional["Partition"], uid: int) -> None:
        self.tree = tree
        self.space = space
        self.name = name
        self.parent_partition = parent_partition
        self.uid = uid
        self.depth = (0 if parent_partition is None
                      else parent_partition.parent.depth + 1)
        self._partitions: dict[str, "Partition"] = {}

    # ------------------------------------------------------------------
    @property
    def is_root(self) -> bool:
        """True for the tree's root region."""
        return self.parent_partition is None

    @property
    def parent(self) -> Optional["Region"]:
        """The parent region (the partitioned region), or None at the root."""
        return None if self.parent_partition is None else self.parent_partition.parent

    @property
    def partitions(self) -> dict[str, "Partition"]:
        """Partitions created on this region, by name."""
        return dict(self._partitions)

    def partition(self, name: str) -> "Partition":
        """Look up a partition of this region by name."""
        try:
            return self._partitions[name]
        except KeyError:
            raise RegionTreeError(
                f"region {self.name!r} has no partition {name!r}; "
                f"known: {sorted(self._partitions)}"
            ) from None

    def create_partition(self, name: str,
                         subspaces: Sequence[IndexSpace],
                         *,
                         disjoint: Optional[bool] = None,
                         complete: Optional[bool] = None) -> "Partition":
        """Partition this region into named subregions.

        Parameters
        ----------
        name:
            Partition name, unique among this region's partitions.
        subspaces:
            One index space per subregion.  Each must be a subset of this
            region's space; they may alias (Figure 2b) and need not cover
            the parent.
        disjoint, complete:
            Declared properties.  When omitted they are *computed*; when
            given they are verified, so a program can never lie to the
            analysis (a disjointness lie would break every algorithm).
        """
        from repro.regions.partition import check_partition  # cycle guard

        return self._add_partition(name, subspaces, *check_partition(
            self.space, self.name, self._partitions, name, subspaces,
            disjoint=disjoint, complete=complete))

    def _add_partition(self, name: str, subspaces: Sequence[IndexSpace],
                       disjoint: bool, complete: bool) -> "Partition":
        """Add a partition :func:`check_partition` has accepted."""
        from repro.regions.partition import Partition  # local: cycle guard

        part = Partition._create(self, name, list(subspaces),
                                 disjoint=disjoint, complete=complete)
        self._partitions[name] = part
        return part

    # ------------------------------------------------------------------
    def path_from_root(self) -> list["Region"]:
        """Regions from the root down to (and including) this one."""
        path: list[Region] = []
        node: Optional[Region] = self
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    def descendants(self) -> Iterator["Region"]:
        """All regions strictly below this one (pre-order)."""
        for part in self._partitions.values():
            for sub in part.subregions:
                yield sub
                yield from sub.descendants()

    def overlaps(self, other: "Region") -> bool:
        """Whether the two regions share any element."""
        return self.space.overlaps(other.space)

    def __repr__(self) -> str:
        return f"Region({self.name!r}, size={self.space.size})"
