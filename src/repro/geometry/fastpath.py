"""The geometry fast path: interning, operation caching, batched tests.

The paper's initialization-time results (section 8, Figs 12-14) are
dominated by the interference tests the coherence algorithms issue —
``&``, ``-``, ``|`` and ``overlaps`` on :class:`IndexSpace`, one
Python-level NumPy call at a time.  Iterative applications repeat the same
task stream every loop, so the same pairs of spaces are tested over and
over.  This module removes that redundancy with three cooperating pieces:

* :class:`SpaceInterner` semantics inside :class:`GeometryCache` — every
  distinct index-space *content* gets a stable small uid (hash-consing by
  content digest), memoized on the instance so repeat lookups are one
  attribute read.
* A **versioned operation cache** keyed on uid pairs for intersection,
  difference, union, the overlap test and — the two relations the value
  path asks every iteration — ``issubset`` and the ``positions_of`` gather
  map.  Public ``IndexSpace`` operators consult it through a module-level
  hook, so every call site in the repository benefits without change.
  Spaces are immutable, which makes cached results valid forever;
  :meth:`GeometryCache.invalidate` (wired to store mutations such as
  :meth:`BucketStore.rebucket`) drops results the stores no longer
  reference, bounding memory across phase changes.  Gather maps are the
  only cached values with an element per index: they are stored read-only
  (many call sites and threads index with one array), identity maps are
  never stored, and the table is bounded in bytes
  (:data:`POSITIONS_BYTES`) as well as in entries.
* :func:`batch_overlaps` — a **batched interference kernel** testing one
  query space against N candidates in a single vectorized pass: a stacked
  bounds prefilter, cache lookups per surviving pair and one merged
  ``searchsorted`` sweep resolving every remaining candidate at once.  No
  store calls it (both equivalence-set stores answer their exact tests
  from owner columns); it stays exported for two consumers, the ledger's
  ``geometry.batch_overlaps_us`` probe and the span-memo spec
  ``RederivingStore`` in ``tests/visibility/test_loose_eqsets.py``.

Correctness stance: the fast path must be *observationally invisible*.
Cached results are value-equal to recomputed ones (immutability makes
sharing safe), the batched kernel computes exactly the per-pair
``overlaps`` answers, and nothing here touches a
:class:`~repro.visibility.meter.CostMeter` — so analysis fingerprints
(which hash both structure and meter counts) cannot see it.
``tests/geometry/test_fastpath.py`` holds every cached operator equal to
its ``_*_raw`` body, the computation the cache runs on a miss.

Process hygiene: the cache is per-process state.  Sharded worker processes
call :func:`reset_geometry_cache` on (re)spawn so driver-side contents
never leak across workers.

Thread note: the thread backend shares this process-wide cache across
replica analyses.  Individual dict operations are atomic under the GIL and
cached values are immutable, so races are benign — at worst two threads
duplicate a miss computation (equal results; last write wins) or a counter
increment is lost.  The hit/miss statistics — and the gather-map table's
byte count, which restarts from zero at every clear — are therefore
approximate under the thread backend; they are observability data and a
memory bound, never part of a fingerprint.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.geometry import index_space as _ixmod
from repro.geometry.index_space import IndexSpace

_MISS = object()  # sentinel: cached False must be distinguishable

#: Bytes of gather maps the ``positions`` table may hold before it is
#: cleared wholesale like any full table.  The maps an iteration asks for
#: again (region vs. entry domain, region vs. root) total under 0.5 MiB on
#: the ledger's widest cell (64 pieces); maps asked exactly once — a cut
#: that retires its set (``EquivalenceSet.pieces``), an owner column's
#: fill or one-off lookup (``RefinementStore._fill_columns``,
#: ``BucketStore._owned``), the stencil and Pennant
#: build-time gathers — call ``_positions_raw`` and never come here (as
#: partition construction calls ``_issubset_raw``).  The bound keeps a
#: pathological stream of never-repeated pairs from showing in peak RSS.
POSITIONS_BYTES = 2 << 20

#: Globally unique generation tags.  Per-instance memos on IndexSpace
#: objects (``space._uid``) are tagged with the assigning cache's
#: generation; drawing generations from one process-wide counter means a
#: memo written by one cache instance can never be mistaken for an
#: assignment by another (tenant caches in the analysis service coexist
#: with the process-wide cache over the same interned spaces).
_GENERATIONS = iter(range(1 << 62)).__next__


def _cached(table: str, raw, symmetric: bool, store):
    """One cached operator of :class:`GeometryCache` over the result dict
    named ``table``: ``raw`` (an ``IndexSpace._*_raw`` body) computes a
    miss, which ``store`` (``GeometryCache._store`` or its gather-map
    form) keeps.  The key is the pair of
    content uids, sorted when the operator is ``symmetric``.  Each uid is
    read off its space's ``(generation, uid)`` memo in place: a warm
    operator is this one frame, and :meth:`GeometryCache.uid_of` runs
    only for a space whose memo is missing or stale."""

    def op(self, a: IndexSpace, b: IndexSpace, known=None):
        generation = self._generation
        memo = a._uid
        ua = memo[1] if memo is not None and memo[0] == generation \
            else self.uid_of(a)
        memo = b._uid
        ub = memo[1] if memo is not None and memo[0] == generation \
            else self.uid_of(b)
        key = (ub, ua) if symmetric and ub < ua else (ua, ub)
        results = getattr(self, table)
        got = results.get(key, _MISS)
        if got is not _MISS:
            self.hits += 1
            return got
        self.misses += 1
        out = raw(a, b) if known is None else known
        store(self, results, key, out)
        return out

    return op


class GeometryCache:
    """Process-wide interner + versioned operation cache for index spaces.

    The six cached operators are one form (:func:`_cached`): each reads
    both spaces' ``(generation, uid)`` memos in place and calls
    :meth:`uid_of` only for a missing or stale one, so a warm operator
    is one frame.

    ``capacity`` bounds each table (the intern table and each per-operator
    result table) independently; a full table is cleared wholesale —
    cheaper and simpler than LRU bookkeeping, and the working set of an
    iterative application re-warms in one iteration.  Interned uids are
    never reused (``_next_uid`` is monotonic), so clearing the intern
    table can only lose sharing, never correctness.
    """

    def __init__(self, capacity: int = 1 << 16) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._generation = _GENERATIONS()
        self._next_uid = 0
        self._init_state()

    def _init_state(self) -> None:
        self._intern: dict[tuple, int] = {}
        #: monotonically increasing; bumped by :meth:`invalidate`
        self.version = 0
        self._and: dict[tuple[int, int], IndexSpace] = {}
        self._or: dict[tuple[int, int], IndexSpace] = {}
        self._sub: dict[tuple[int, int], IndexSpace] = {}
        self._ovl: dict[tuple[int, int], bool] = {}
        self._subset: dict[tuple[int, int], bool] = {}
        self._pos: dict[tuple[int, int], np.ndarray] = {}
        self._pos_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # interning
    # ------------------------------------------------------------------
    def uid_of(self, space: IndexSpace) -> int:
        """The stable small uid of a space's *content*.

        Equal-content spaces share a uid (hash-consing); the assignment is
        memoized on the instance, tagged with the cache generation so
        memos from before a :meth:`reset` are never trusted.
        """
        memo = space._uid
        if memo is not None and memo[0] == self._generation:
            return memo[1]
        idx = space._indices
        key = (idx.size, space._lo, space._hi,
               hashlib.sha1(idx.tobytes()).digest())
        uid = self._intern.get(key)
        if uid is None:
            if len(self._intern) >= self.capacity:
                self.evictions += len(self._intern)
                self._intern.clear()
            uid = self._next_uid
            self._next_uid += 1
            self._intern[key] = uid
        space._uid = (self._generation, uid)
        return uid

    # ------------------------------------------------------------------
    # cached operators (called from IndexSpace via the module hook)
    # ------------------------------------------------------------------
    def _store(self, table: dict, key: tuple[int, int], value) -> None:
        if len(table) >= self.capacity:
            self.evictions += len(table)
            table.clear()
        table[key] = value

    def _store_positions(self, table: dict, key: tuple[int, int],
                         value: np.ndarray) -> None:
        """``_store`` for gather maps: read-only, and bounded in bytes."""
        value.setflags(write=False)
        if (len(table) >= self.capacity
                or self._pos_bytes + value.nbytes > POSITIONS_BYTES):
            self.evictions += len(table)
            table.clear()
            self._pos_bytes = 0
        table[key] = value
        self._pos_bytes += value.nbytes

    # ``intersection(a, b, known=None)`` is ``a & b``, shared on a hit; a
    # caller that already holds the answer another way passes it as
    # ``known`` to be stored on a miss.  ``positions(a, b)`` is the gather
    # map of a *proper* subset ``b`` within ``a``, read-only and shared on
    # a hit (:meth:`IndexSpace.positions_of` builds the identity map
    # itself, never stored); a non-subset raises from the miss path every
    # time, and nothing is stored for it.
    intersection = _cached("_and", IndexSpace._intersection_raw, True, _store)
    union = _cached("_or", IndexSpace._union_raw, True, _store)
    difference = _cached("_sub", IndexSpace._difference_raw, False, _store)
    overlaps = _cached("_ovl", IndexSpace._overlaps_raw, True, _store)
    issubset = _cached("_subset", IndexSpace._issubset_raw, False, _store)
    positions = _cached("_pos", IndexSpace._positions_raw, False,
                        _store_positions)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def invalidate(self) -> None:
        """Drop every cached operation result and bump the version.

        Wired to store mutations that retire whole populations of spaces
        (e.g. :meth:`BucketStore.rebucket`): the results stay *valid* —
        spaces are immutable — but the stores will never ask about those
        pairs again, so holding them is pure memory pressure.  Interned
        uids survive (content-addressed, monotonic, never reused).
        """
        self._and.clear()
        self._or.clear()
        self._sub.clear()
        self._ovl.clear()
        self._subset.clear()
        self._pos.clear()
        self._pos_bytes = 0
        self.version += 1
        self.invalidations += 1

    def reset(self) -> None:
        """Return to a pristine state, distrusting every per-instance memo.

        Sharded worker processes call this on (re)spawn: a forked worker
        inherits the driver's cache by memory copy, and per-process cache
        state must be rebuilt, not leaked.
        """
        self._generation = _GENERATIONS()
        self._init_state()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Counter snapshot (also the ``--profile`` table source)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "interned": len(self._intern),
            "entries": (len(self._and) + len(self._or)
                        + len(self._sub) + len(self._ovl)
                        + len(self._subset) + len(self._pos)),
        }

    def render(self) -> str:
        """One-line summary for the CLI ``--profile`` output."""
        s = self.stats()
        total = s["hits"] + s["misses"]
        rate = (100.0 * s["hits"] / total) if total else 0.0
        return (f"geometry cache: {s['hits']} hits / "
                f"{s['misses']} misses ({rate:.1f}% hit rate), "
                f"{s['interned']} interned, {s['entries']} entries, "
                f"{s['evictions']} evicted, "
                f"{s['invalidations']} invalidations")

    def __repr__(self) -> str:
        return f"GeometryCache({self.render()})"


# ----------------------------------------------------------------------
# the process-wide instance and its hook into IndexSpace
# ----------------------------------------------------------------------
_CACHE = GeometryCache()
_ixmod._op_cache = _CACHE  # IndexSpace operators dispatch through this

# Per-thread cache overrides (tenant isolation for the analysis service).
# Routing is *engaged* only while at least one override is installed:
# the default state keeps IndexSpace dispatching straight at the global
# cache, so non-service runs pay nothing for this seam.
_TLS = threading.local()
_ROUTING_LOCK = threading.Lock()
_ROUTING = 0  # live override count; > 0 => router installed


class _CacheRouter:
    """Dispatch target installed while tenant overrides exist: routes
    each operator call to the calling thread's override cache, falling
    back to the process-wide cache for threads without one."""

    __slots__ = ()

    def intersection(self, a, b):
        return active_geometry_cache().intersection(a, b)

    def difference(self, a, b):
        return active_geometry_cache().difference(a, b)

    def union(self, a, b):
        return active_geometry_cache().union(a, b)

    def overlaps(self, a, b):
        return active_geometry_cache().overlaps(a, b)

    def issubset(self, a, b):
        return active_geometry_cache().issubset(a, b)

    def positions(self, a, subset):
        return active_geometry_cache().positions(a, subset)


_ROUTER = _CacheRouter()


def active_geometry_cache() -> GeometryCache:
    """The cache serving the calling thread: its installed override
    when routing is engaged, else the process-wide instance."""
    if _ROUTING:
        override = getattr(_TLS, "cache", None)
        if override is not None:
            return override
    return _CACHE


@contextmanager
def tenant_geometry_cache(cache: GeometryCache) -> Iterator[GeometryCache]:
    """Serve every geometry operation on the calling thread from
    ``cache`` for the duration of the block.

    The analysis service wraps each tenant session's driver-side
    analysis in this scope so one tenant's churn can never evict
    another's cached results (worker processes are already isolated:
    each tenant's backend owns its workers, and each worker resets its
    process-wide cache on spawn via :func:`reset_geometry_cache`).
    Overrides nest; restoring the outer value on exit.
    """
    global _ROUTING
    previous = getattr(_TLS, "cache", None)
    _TLS.cache = cache
    with _ROUTING_LOCK:
        _ROUTING += 1
        _ixmod._op_cache = _ROUTER
    try:
        yield cache
    finally:
        _TLS.cache = previous
        with _ROUTING_LOCK:
            _ROUTING -= 1
            if _ROUTING == 0:
                _ixmod._op_cache = _CACHE


def geometry_cache() -> GeometryCache:
    """The process-wide cache instance."""
    return _CACHE


def reset_geometry_cache() -> None:
    """Reset the process-wide cache (worker spawn/respawn hygiene)."""
    _CACHE.reset()


# ----------------------------------------------------------------------
# the batched interference kernel
# ----------------------------------------------------------------------
def batch_overlaps(query: IndexSpace,
                   candidates: Sequence[IndexSpace]) -> np.ndarray:
    """``[query.overlaps(c) for c in candidates]`` in one vectorized pass.

    Three steps, mirroring a graphics broad-phase/narrow-phase split:

    1. **Stacked bounds prefilter** — candidate ``(lo, hi)`` intervals are
       stacked into arrays and tested against the query's bounds with two
       vector comparisons; empty candidates and bbox-disjoint ones resolve
       to False without touching element data.
    2. **Cache probe** — surviving pairs already answered by the operation
       cache are filled in directly.
    3. **Merged-run sweep** — every remaining candidate's indices are
       concatenated into one array, located in the query with a *single*
       ``searchsorted``, and reduced to per-candidate verdicts with one
       ``logical_or.reduceat`` over the segment starts (overlap is
       symmetric, so probing candidates into the query is equivalent to
       the scalar path's smaller-into-larger probe).

    The per-pair answers are exactly what scalar ``overlaps`` returns, and
    resolved pairs are stored back into the cache.  No meter is touched —
    callers that meter per-candidate tests keep doing so themselves.
    """
    n = len(candidates)
    out = np.zeros(n, dtype=bool)
    if n == 0 or query.is_empty:
        return out
    qlo, qhi = query.bounds
    lo = np.fromiter((c._lo for c in candidates), dtype=np.int64, count=n)
    hi = np.fromiter((c._hi for c in candidates), dtype=np.int64, count=n)
    live = np.flatnonzero((lo <= qhi) & (hi >= qlo) & (lo <= hi))
    if not live.size:
        return out
    cache = active_geometry_cache()
    unresolved: list[tuple[int, tuple[int, int]]] = []
    uq = cache.uid_of(query)
    table = cache._ovl
    for i in live.tolist():
        uc = cache.uid_of(candidates[i])
        key = (uq, uc) if uq <= uc else (uc, uq)
        got = table.get(key, _MISS)
        if got is _MISS:
            unresolved.append((i, key))
        else:
            cache.hits += 1
            out[i] = got
    if not unresolved:
        return out

    qidx = query._indices
    segments = [candidates[i]._indices for i, _ in unresolved]
    lengths = np.fromiter((s.size for s in segments), dtype=np.int64,
                          count=len(segments))
    stacked = segments[0] if len(segments) == 1 else np.concatenate(segments)
    pos = np.searchsorted(qidx, stacked)
    np.minimum(pos, qidx.size - 1, out=pos)
    found = qidx[pos] == stacked
    starts = np.zeros(len(segments), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    verdicts = np.logical_or.reduceat(found, starts)
    for (i, key), verdict in zip(unresolved, verdicts):
        hit = bool(verdict)
        out[i] = hit
        cache.misses += 1
        cache._store(cache._ovl, key, hit)
    return out
