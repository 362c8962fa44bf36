"""K-d tree over the linearized index dimension (section 7.1 fallback).

When a program offers no disjoint-and-complete partition subtree, the
ray-casting implementation "creates a K-d tree" [paper §7.1, citing
Bentley 1975] to organize equivalence sets.  Over our 1-D linearized index
space a K-d tree degenerates to a balanced binary space partition on index
value: every node splits the key range at a plane, items are routed to the
side(s) their bounding interval touches.

The K-d tree is a *space* partitioning structure: items spanning a split
plane are referenced from both subtrees, so removal uses an id-indexed
registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import GeometryError
from repro.geometry.index_space import IndexSpace

_MAX_DEPTH = 48
_LEAF_CAPACITY = 8


@dataclass
class _KDNode:
    lo: int
    hi: int
    split: Optional[int] = None
    left: Optional["_KDNode"] = None
    right: Optional["_KDNode"] = None
    items: list[int] = field(default_factory=list)  # item ids

    @property
    def is_leaf(self) -> bool:
        return self.split is None


class KDTree:
    """A dynamic 1-D K-d (binary space partition) tree over index bounds.

    ``insert``/``remove`` are incremental; leaves split when they exceed
    capacity.  ``query`` returns payloads whose bounding interval intersects
    the query interval (conservative: callers do the exact test).
    """

    def __init__(self, lo: int, hi: int, leaf_capacity: int = _LEAF_CAPACITY) -> None:
        if hi < lo:
            raise GeometryError("KDTree requires a non-empty key range")
        self._root = _KDNode(lo=lo, hi=hi)
        self._leaf_capacity = leaf_capacity
        self._items: dict[int, tuple[tuple[int, int], Any]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of live items."""
        return len(self._items)

    def insert(self, space: IndexSpace, payload: Any) -> int:
        """Index ``payload`` under ``space``'s bounds; returns an item id."""
        if space.is_empty:
            raise GeometryError("cannot insert an empty space into a KDTree")
        lo, hi = space.bounds
        if lo < self._root.lo or hi > self._root.hi:
            raise GeometryError("item bounds exceed the tree's key range")
        item_id = self._next_id
        self._next_id += 1
        self._items[item_id] = ((lo, hi), payload)
        self._insert_into(self._root, item_id, lo, hi, 0)
        return item_id

    def remove(self, item_id: int) -> Any:
        """Remove a previously inserted item by id; returns its payload."""
        if item_id not in self._items:
            raise GeometryError(f"unknown KDTree item id {item_id}")
        (lo, hi), payload = self._items.pop(item_id)
        self._remove_from(self._root, item_id, lo, hi)
        return payload

    def query(self, space: IndexSpace) -> list[Any]:
        """Payloads whose bounding interval overlaps ``space``'s bounds."""
        if space.is_empty:
            return []
        lo, hi = space.bounds
        return self.query_interval(lo, hi)

    def query_interval(self, lo: int, hi: int) -> list[Any]:
        """Payloads whose bounding interval overlaps ``[lo, hi]``."""
        seen: set[int] = set()
        out: list[Any] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if node.hi < lo or hi < node.lo:
                continue
            if node.is_leaf:
                for item_id in node.items:
                    if item_id in seen:
                        continue
                    (ilo, ihi), payload = self._items[item_id]
                    if ilo <= hi and lo <= ihi:
                        seen.add(item_id)
                        out.append(payload)
            else:
                assert node.left is not None and node.right is not None
                stack.append(node.left)
                stack.append(node.right)
        return out

    def __iter__(self) -> Iterator[Any]:
        for _, payload in self._items.values():
            yield payload

    def __len__(self) -> int:
        return len(self._items)

    # ------------------------------------------------------------------
    def _insert_into(self, node: _KDNode, item_id: int, lo: int, hi: int,
                     depth: int) -> None:
        if node.is_leaf:
            node.items.append(item_id)
            if (len(node.items) > self._leaf_capacity
                    and depth < _MAX_DEPTH and node.hi > node.lo):
                self._split(node)
            return
        assert node.split is not None
        if lo <= node.split:
            assert node.left is not None
            self._insert_into(node.left, item_id, lo, hi, depth + 1)
        if hi > node.split:
            assert node.right is not None
            self._insert_into(node.right, item_id, lo, hi, depth + 1)

    def _split(self, node: _KDNode) -> None:
        split = (node.lo + node.hi) // 2
        node.split = split
        node.left = _KDNode(lo=node.lo, hi=split)
        node.right = _KDNode(lo=split + 1, hi=node.hi)
        for item_id in node.items:
            (lo, hi), _ = self._items[item_id]
            if lo <= split:
                node.left.items.append(item_id)
            if hi > split:
                node.right.items.append(item_id)
        node.items = []

    def _remove_from(self, node: _KDNode, item_id: int, lo: int, hi: int) -> None:
        if node.is_leaf:
            try:
                node.items.remove(item_id)
            except ValueError:
                pass
            return
        assert node.split is not None
        if lo <= node.split:
            assert node.left is not None
            self._remove_from(node.left, item_id, lo, hi)
        if hi > node.split:
            assert node.right is not None
            self._remove_from(node.right, item_id, lo, hi)
