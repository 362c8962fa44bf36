"""Immutable sparse index spaces with vectorized set algebra.

An :class:`IndexSpace` is the machine representation of a region *domain*
(paper section 4): a finite set of element indices.  It is stored as a
sorted, duplicate-free ``int64`` array, which makes every operator the
coherence algorithms need a single vectorized NumPy call:

* ``a & b``   — intersection (``X/Y`` restricted to domains),
* ``a - b``   — difference (``X\\Y``),
* ``a | b``   — union,
* ``a.overlaps(b)`` / ``a.isdisjoint(b)`` — the interference tests that
  dominate dependence-analysis cost and are therefore metered.

Index spaces cache their bounding interval ``[lo, hi]`` so disjointness can
usually be decided without touching element data — the same trick bounding
boxes play in the graphics visibility algorithms the paper adapts.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import GeometryError
from repro.geometry.point import Extent, Rect

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)

#: Installed by :mod:`repro.geometry.fastpath`: a process-wide operation
#: cache the public set-algebra operators dispatch through.  ``None``
#: (before the fastpath module loads) means compute directly.
_op_cache = None


def _as_sorted_unique(values: Iterable[int] | np.ndarray) -> np.ndarray:
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)  # sets, generators, ranges...
    arr = np.asarray(values, dtype=np.int64)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size == 0:
        return _EMPTY
    if arr.size > 1 and not (np.diff(arr) > 0).all():
        arr = np.unique(arr)
    return arr


class IndexSpace:
    """An immutable, sorted set of ``int64`` element indices.

    Construct with :meth:`from_indices`, :meth:`from_range`,
    :meth:`from_rect` or :meth:`from_mask`; the raw constructor trusts its
    input to already be sorted and unique (``trusted=True``) or normalizes
    it otherwise.

    ``size`` (the element count) is stored when the space is built, as
    are the bounds ``_lo``/``_hi``: the analysis reads them once per
    history entry and per equivalence set, so they are attribute loads,
    not property calls.  ``size`` is a writable slot; the space is
    immutable by contract all the same, and nothing may assign it.
    """

    __slots__ = ("_indices", "size", "_lo", "_hi", "_uid")

    def __init__(self, indices: Iterable[int] | np.ndarray = (), *,
                 trusted: bool = False) -> None:
        if trusted and isinstance(indices, np.ndarray) and indices.dtype == np.int64:
            arr = indices
        else:
            arr = _as_sorted_unique(indices)
        if arr.flags.writeable:
            # Freeze a *view*, never the caller's array: both the trusted
            # path and ``np.asarray`` can hand back the caller's own
            # buffer, whose writeability the caller still owns.
            arr = arr.view()
            arr.setflags(write=False)
        self._indices = arr
        self.size = arr.size
        if arr.size:
            self._lo = int(arr[0])
            self._hi = int(arr[-1])
        else:
            self._lo = 0
            self._hi = -1
        self._uid = None  # fastpath intern memo: (generation, uid)

    def __getstate__(self):
        # _uid is process-local (checkpoints pickle whole runtimes and may
        # be restored in another process); ship only the content.  Tuple-
        # wrapped: a bare empty array is falsy and pickle would then skip
        # __setstate__ entirely.
        return (self._indices,)

    def __setstate__(self, state) -> None:
        self.__init__(np.asarray(state[0], dtype=np.int64), trusted=True)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty() -> "IndexSpace":
        """The empty index space."""
        return _EMPTY_SPACE

    @staticmethod
    def from_indices(values: Iterable[int] | np.ndarray) -> "IndexSpace":
        """Build from any iterable of integers (deduplicated and sorted)."""
        return IndexSpace(values)

    @staticmethod
    def from_range(start: int, stop: int) -> "IndexSpace":
        """The half-open contiguous range ``[start, stop)``."""
        if stop < start:
            raise GeometryError(f"invalid range [{start}, {stop})")
        return IndexSpace(np.arange(start, stop, dtype=np.int64), trusted=True)

    @staticmethod
    def from_rect(rect: Rect, extent: Extent) -> "IndexSpace":
        """The row-major linearization of ``rect`` inside ``extent``."""
        return IndexSpace(rect.linearize(extent), trusted=True)

    @staticmethod
    def from_mask(mask: np.ndarray) -> "IndexSpace":
        """Build from a boolean mask over the flat root domain."""
        mask = np.asarray(mask, dtype=bool).ravel()
        return IndexSpace(np.flatnonzero(mask).astype(np.int64), trusted=True)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def indices(self) -> np.ndarray:
        """The sorted element indices (read-only view)."""
        return self._indices

    @property
    def is_empty(self) -> bool:
        """True when the space has no elements (hot paths test ``size``)."""
        return not self.size

    @property
    def bounds(self) -> tuple[int, int]:
        """Inclusive bounding interval ``(lo, hi)``; ``(0, -1)`` if empty."""
        return (self._lo, self._hi)

    def __len__(self) -> int:
        return self.size

    def __iter__(self) -> Iterator[int]:
        return iter(int(i) for i in self._indices)

    def __contains__(self, index: int) -> bool:
        if not self.size or index < self._lo or index > self._hi:
            return False
        pos = int(self._indices.searchsorted(index))
        return pos < self._indices.size and int(self._indices[pos]) == index

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IndexSpace):
            return NotImplemented
        return (self.size == other.size
                and bool(np.array_equal(self._indices, other._indices)))

    def __hash__(self) -> int:
        return hash((self.size, self._lo, self._hi,
                     self._indices.tobytes() if self.size <= 64 else
                     self._indices[:: max(1, self.size // 64)].tobytes()))

    def __repr__(self) -> str:
        if not self.size:
            return "IndexSpace(empty)"
        return f"IndexSpace(size={self.size}, bounds=[{self._lo}, {self._hi}])"

    # ------------------------------------------------------------------
    # set algebra
    # ------------------------------------------------------------------
    def bbox_overlaps(self, other: "IndexSpace") -> bool:
        """Cheap conservative overlap test on bounding intervals only."""
        if not (self.size and other.size):
            return False
        return self._lo <= other._hi and other._lo <= self._hi

    def intersection(self, other: "IndexSpace") -> "IndexSpace":
        """Elements present in both spaces (``X/Y`` on domains)."""
        if _op_cache is not None:
            return _op_cache.intersection(self, other)
        return self._intersection_raw(other)

    def _intersection_raw(self, other: "IndexSpace") -> "IndexSpace":
        if not self.bbox_overlaps(other):
            return _EMPTY_SPACE
        out = np.intersect1d(self._indices, other._indices, assume_unique=True)
        return IndexSpace(out, trusted=True)

    def difference(self, other: "IndexSpace") -> "IndexSpace":
        """Elements of this space not present in ``other`` (``X\\Y``)."""
        if _op_cache is not None:
            return _op_cache.difference(self, other)
        return self._difference_raw(other)

    def _difference_raw(self, other: "IndexSpace") -> "IndexSpace":
        if not self.bbox_overlaps(other):
            return self
        out = np.setdiff1d(self._indices, other._indices, assume_unique=True)
        return IndexSpace(out, trusted=True)

    def union(self, other: "IndexSpace") -> "IndexSpace":
        """Elements in either space."""
        if _op_cache is not None:
            return _op_cache.union(self, other)
        return self._union_raw(other)

    def _union_raw(self, other: "IndexSpace") -> "IndexSpace":
        if not self.size:
            return other
        if not other.size:
            return self
        out = np.union1d(self._indices, other._indices)
        return IndexSpace(out, trusted=True)

    def __and__(self, other: "IndexSpace") -> "IndexSpace":
        return self.intersection(other)

    def __sub__(self, other: "IndexSpace") -> "IndexSpace":
        return self.difference(other)

    def __or__(self, other: "IndexSpace") -> "IndexSpace":
        return self.union(other)

    def overlaps(self, other: "IndexSpace") -> bool:
        """True when the spaces share at least one element."""
        if _op_cache is not None:
            return _op_cache.overlaps(self, other)
        return self._overlaps_raw(other)

    def _overlaps_raw(self, other: "IndexSpace") -> bool:
        if not self.bbox_overlaps(other):
            return False
        # membership probe of the smaller into the larger beats a full
        # intersect1d when we only need a yes/no answer
        small, large = (self, other) if self.size <= other.size else (other, self)
        pos = large._indices.searchsorted(small._indices)
        pos = np.minimum(pos, large._indices.size - 1)
        return bool(np.logical_or.reduce(large._indices[pos]
                                         == small._indices))

    def isdisjoint(self, other: "IndexSpace") -> bool:
        """True when the spaces share no element."""
        return not self.overlaps(other)

    def issubset(self, other: "IndexSpace") -> bool:
        """True when every element of this space is in ``other``."""
        if _op_cache is not None:
            return _op_cache.issubset(self, other)
        return self._issubset_raw(other)

    def _issubset_raw(self, other: "IndexSpace") -> bool:
        if not self.size:
            return True
        if not other.size or self.size > other.size:
            return False
        if self._lo < other._lo or self._hi > other._hi:
            return False
        pos = other._indices.searchsorted(self._indices)
        if pos[-1] >= other._indices.size:
            return False
        return bool(np.logical_and.reduce(other._indices[pos]
                                          == self._indices))

    def issuperset(self, other: "IndexSpace") -> bool:
        """True when every element of ``other`` is in this space."""
        return other.issubset(self)

    # ------------------------------------------------------------------
    # positioning helpers used by the value layer
    # ------------------------------------------------------------------
    def positions_of(self, subset: "IndexSpace") -> np.ndarray:
        """Positions of ``subset``'s elements within this space's array.

        ``subset`` must be a subset of this space; the result ``p`` satisfies
        ``self.indices[p] == subset.indices``.  This is the gather map used
        when blending region values (Figure 7's ``⊕`` lifted to value
        arrays).  Maps of proper subsets come from the operation cache and
        are shared, hence read-only; index with them, never write to them.
        """
        if _op_cache is not None and subset.size != self.size:
            return _op_cache.positions(self, subset)
        return self._positions_raw(subset)

    def _positions_raw(self, subset: "IndexSpace") -> np.ndarray:
        if subset._indices.size == self._indices.size:
            # a same-size subset is the space itself: identity gather
            # (verified cheaply — a memcmp beats two searchsorted passes)
            if subset is self or np.array_equal(self._indices,
                                                subset._indices):
                return np.arange(self._indices.size)
            raise GeometryError("positions_of: argument is not a subset")
        pos = self._indices.searchsorted(subset._indices)
        if subset.size:
            if pos[-1] >= self._indices.size or not np.logical_and.reduce(
                self._indices[np.minimum(pos, self._indices.size - 1)]
                == subset._indices
            ):
                raise GeometryError("positions_of: argument is not a subset")
        return pos

    def membership_mask(self, other: "IndexSpace") -> np.ndarray:
        """Boolean mask over this space's elements: which are in ``other``."""
        if not self.size:
            return np.empty(0, dtype=bool)
        if not self.bbox_overlaps(other):
            return np.zeros(self.size, dtype=bool)
        return np.isin(self._indices, other._indices, assume_unique=True)

    @staticmethod
    def union_all(spaces: Sequence["IndexSpace"]) -> "IndexSpace":
        """Union of many spaces in one pass."""
        arrays = [s._indices for s in spaces if s.size]
        if not arrays:
            return _EMPTY_SPACE
        if len(arrays) == 1:
            return IndexSpace(arrays[0], trusted=True)
        # a sort and a neighbour mask: numpy 2's hash-based ``np.unique``
        # is several times slower at the sizes a capture unions
        merged = np.concatenate(arrays)
        merged.sort()
        return IndexSpace(merged[np.concatenate(
            ([True], merged[1:] != merged[:-1]))], trusted=True)

    def to_rect_coords(self, extent: Extent) -> np.ndarray:
        """Delinearize back to ``(n, dim)`` coordinates inside ``extent``."""
        return extent.delinearize(self._indices)

    def sample(self, k: int, rng: Optional[np.random.Generator] = None) -> "IndexSpace":
        """A random subset of at most ``k`` elements (for test workloads)."""
        if k >= self.size:
            return self
        rng = rng or np.random.default_rng()
        pick = rng.choice(self._indices, size=k, replace=False)
        return IndexSpace(pick)


_EMPTY_SPACE = IndexSpace(_EMPTY, trusted=True)
