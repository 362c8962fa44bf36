"""The optimized painter's algorithm (section 5.1).

Instead of one global history, each region-tree node keeps a *subhistory*,
and the invariant is maintained that materializing a region ``R`` only
requires replaying the **path history** — the concatenation of the
subhistories on the path from the root down to ``R``.

The invariant is preserved at task launch by hoisting: for every node ``N``
on the path, any child subtree ``C`` not on the path that (a) is *open*
(has recorded entries), (b) overlaps the new region, and (c) used
privileges that interfere with the new privilege, is snapshotted into an
immutable :class:`CompositeView` appended to ``N``'s subhistory, and the
raw subtree histories are deleted.  Composite views may nest (a captured
subhistory can itself contain earlier views).

An access walks its path once: each region's root path is built on its
first access and kept (the tree only grows, so it never changes), the
hoist and the count and summary updates read it instead of chasing
parents, and one walk of the path history hands the dependence scan its
entries and the paint that follows its own.

Two of the paper's three §5.1 optimizations are load-bearing here — the
open/closed subtree test and the subtree privilege summary; the third
(occlusion of old composite views) is implemented in the conservative form
the paper sketches: a write committed at ``R`` occludes everything earlier
in ``R``'s own subhistory, and a view whose write-domain covers an earlier
item's whole domain deletes it.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.errors import CoherenceError
from repro.geometry.index_space import IndexSpace
from repro.privileges import Privilege, READ_WRITE
from repro.regions.region import Region
from repro.regions.tree import RegionTree
from repro.visibility.base import CoherenceAlgorithm, INITIAL_TASK_ID
from repro.visibility.history import (UNVALUED, HistoryEntry, RegionValues,
                                      paint_into, scan_dependences)
from repro.visibility.meter import CostMeter, UidSource
from repro.obs import provenance as prov

# A privilege summary key: a privilege's ``commutes`` marker (None for
# read-write, which commutes with nothing).  An access commutes with
# ``{its marker}`` (nothing for read-write); a subtree or view whose
# summary is a subset of that can be skipped.
PrivKey = Optional[object]

_view_uid = UidSource()


class CompositeView:
    """An immutable snapshot of a subtree of subhistories (section 5.1).

    ``items`` is the captured subtree's non-empty subhistories
    concatenated top-down; items may themselves be composite views
    (nesting), and ``flat`` says none is (derived, so not pickled).
    Views are distributed objects: in Legion they are built
    bottom-up and replicated on demand, but retain a single logical root —
    which is why the painter bottlenecks at scale.
    """

    __slots__ = ("uid", "items", "domain", "write_domain", "priv_summary",
                 "flat")

    def __init__(self, items: list["PathItem"], domain: IndexSpace,
                 write_domain: IndexSpace, priv_summary: set[PrivKey]) -> None:
        self.uid = _view_uid.take()
        self.items = items
        self.domain = domain
        self.write_domain = write_domain
        self.priv_summary = priv_summary
        self.flat = CompositeView not in map(type, items)

    def __getstate__(self):
        state = {k: getattr(self, k) for k in self.__slots__[:-1]}
        state["priv_summary"] = _canonical(self.priv_summary)
        return None, state

    def __setstate__(self, state) -> None:
        _view_uid.restore(self, state)
        self.priv_summary = set(self.priv_summary)
        self.flat = CompositeView not in map(type, self.items)

    def __repr__(self) -> str:
        return f"CompositeView(uid={self.uid}, items={len(self.items)})"


PathItem = Union[HistoryEntry, CompositeView]


def _canonical(keys: set[PrivKey]) -> list[PrivKey]:
    """A summary's keys in a fixed order, as it pickles: a set iterates
    in hash order, and its markers hash by identity, which differs from
    one process to the next."""
    return sorted(keys, key=repr)


def _keys_of(item: PathItem) -> set[PrivKey]:
    if isinstance(item, CompositeView):
        return item.priv_summary
    return {item.privilege.commutes}


class _NodeState:
    """Mutable per-region analysis state."""

    __slots__ = ("entries", "subtree_count", "priv_summary", "open_children")

    def __init__(self) -> None:
        self.entries: list[PathItem] = []
        self.subtree_count = 0          # items in this subtree's raw histories
        self.priv_summary: set[PrivKey] = set()  # may be conservatively stale
        # open (non-empty) children per partition: partition name (unique
        # within the parent region, stable across pickling — unlike id())
        # -> {uid: Region}.  Hoisting only ever inspects open children, so
        # launches stay O(open work) instead of O(machine).
        self.open_children: dict[str, dict[int, Region]] = {}

    def __getstate__(self):
        state = {k: getattr(self, k) for k in self.__slots__}
        state["priv_summary"] = _canonical(self.priv_summary)
        return None, state

    def __setstate__(self, state) -> None:
        for name, value in state[1].items():
            setattr(self, name, value)
        self.priv_summary = set(self.priv_summary)


class TreePainterAlgorithm(CoherenceAlgorithm):
    """Painter's algorithm with region-tree subhistories and composite
    views."""

    name = "tree_painter"

    def __init__(self, tree: RegionTree, field: str,
                 initial: Optional[np.ndarray],
                 meter: Optional[CostMeter] = None) -> None:
        super().__init__(tree, field, initial, meter)
        root = tree.root
        self._states: dict[int, _NodeState] = {root.uid: _NodeState()}
        root_values = UNVALUED if initial is None else RegionValues(
            root.space, np.asarray(initial).copy())
        self._states[root.uid].entries.append(
            HistoryEntry(READ_WRITE, root.space, root_values,
                         INITIAL_TASK_ID))
        # each region's root path, root first, built on its first access:
        # apply_structure only adds regions, so a path never changes.
        # Derived, so never pickled.
        self._paths: dict[int, tuple[Region, ...]] = {}
        self._bump((root,), +1, (READ_WRITE.commutes,))

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k != "_paths"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():  # setattr interns, as pickle does
            setattr(self, name, value)
        self._paths = {}

    # ------------------------------------------------------------------
    # state plumbing
    # ------------------------------------------------------------------
    # (callers look in ``_paths``/``_states`` inline, these on a miss)
    def _path(self, region: Region) -> tuple[Region, ...]:
        path = self._paths[region.uid] = tuple(region.path_from_root())
        return path

    def _new_state(self, region: Region) -> _NodeState:
        st = self._states[region.uid] = _NodeState()
        return st

    def _bump(self, up, delta: int, keys=()) -> None:
        """Add ``delta`` to the subtree count and ``keys`` to the summary
        of each node of ``up`` (a node, then its ancestors)."""
        states = self._states
        for node in up:
            st = states.get(node.uid) or self._new_state(node)
            old = st.subtree_count
            st.subtree_count = new = old + delta
            if not (old and new):  # a zero crossing
                self._set_open(node, new)
            st.priv_summary.update(keys)

    def _set_open(self, node: Region, count: int) -> None:
        """(Un)list ``node`` in its parent's open-children index as its
        new subtree ``count`` is (zero) non-zero."""
        part = node.parent_partition
        if part is None:
            return
        st = self._states.get(part.parent.uid) or self._new_state(part.parent)
        bucket = st.open_children.setdefault(part.name, {})
        if count:
            bucket[node.uid] = node
        else:
            bucket.pop(node.uid, None)

    # ------------------------------------------------------------------
    # composite view construction
    # ------------------------------------------------------------------
    def _capture_subtrees(self, roots: list[Region],
                          up) -> Optional[CompositeView]:
        """Snapshot and clear every subhistory under (and at) each of
        ``roots`` — children of ``up[0]``, ``up`` the path back to the
        root — into one composite view (the paper captures an entire
        partition subtree as a unit — Figure 8's V0 covers all of P)."""
        items: list[PathItem] = []
        states = self._states

        def visit(node: Region) -> None:
            st = states.get(node.uid)
            if st is None:
                return
            if st.entries:
                self.meter.count("view_nodes_captured")
                items.extend(st.entries)
                st.entries = []
            st.priv_summary = set()
            # only descend into open subtrees, via the openness index
            if st.open_children:
                for bucket in st.open_children.values():
                    for child in list(bucket.values()):
                        visit(child)
                st.open_children = {}
            if st.subtree_count:  # the whole subtree is now closed
                st.subtree_count = 0
                self._set_open(node, 0)

        for root in roots:
            removed = states[root.uid].subtree_count
            visit(root)
            # the ancestors lose its captured items
            self._bump(up, -removed)
        if not items:
            return None
        self.meter.count("views_created")
        domains = [item.domain for item in items]
        writes = [item.write_domain if isinstance(item, CompositeView)
                  else item.domain for item in items
                  if isinstance(item, CompositeView) or item.privilege.is_write]
        domain = IndexSpace.union_all(domains)
        # an all-write capture keeps one space (and one pickle record)
        view = CompositeView(items, domain, domain if writes == domains
                             else IndexSpace.union_all(writes),
                             set().union(*map(_keys_of, items)))
        self.meter.touch(("view", view.uid))
        return view

    def _append_view(self, up, view: CompositeView, led) -> None:
        """Append ``view`` to ``up[0]``'s subhistory (``up`` as for
        :meth:`_capture_subtrees`)."""
        st = self._states[up[0].uid]
        # conservative occlusion: the new view deletes earlier same-node
        # items it fully overwrites
        if view.write_domain.size:
            self.meter.count("intersection_tests", len(st.entries))
            kept: list[PathItem] = []
            for item in st.entries:
                if item.domain.issubset(view.write_domain):
                    if led is not None:
                        src = (item.task_id
                               if isinstance(item, HistoryEntry)
                               else prov.AGGREGATE_SRC)
                        led.prune(src, "view_occluded",
                                  prov.domain_desc(item.domain))
                    continue
                kept.append(item)
            if len(kept) < len(st.entries):
                self._bump(up, len(kept) - len(st.entries))
            st.entries = kept
        st.entries.append(view)
        self._bump(up, +1, view.priv_summary)

    # ------------------------------------------------------------------
    # launch-time hoisting (step 2 of section 5.1)
    # ------------------------------------------------------------------
    def _hoist(self, privilege: Privilege, path: tuple[Region, ...],
               led) -> None:
        states = self._states
        mark = privilege.commutes
        compatible = set() if mark is None else {mark}
        space = path[-1].space
        lo, hi = space._lo, space._hi
        for depth, node in enumerate(path):
            node_st = states.get(node.uid)
            if node_st is None or not node_st.open_children:
                continue
            on_path = path[depth + 1] if depth + 1 < len(path) else None
            # iterate only partitions with open children (the openness
            # index keeps launches O(open work), not O(machine))
            for bucket in list(node_st.open_children.values()):
                tests, trigger = 0, False
                for child in bucket.values():
                    if child is on_path or \
                            states[child.uid].priv_summary <= compatible:
                        continue  # summary says nothing to hoist
                    # one modelled test; the bounds answer most of them
                    tests += 1
                    cs = child.space
                    trigger = (cs._lo <= hi and lo <= cs._hi
                               and cs.overlaps(space))
                    if trigger:
                        break
                if tests:
                    self.meter.counters["intersection_tests"] += tests
                if trigger:
                    # the paper snapshots the whole partition subtree as one
                    # composite view (Figure 8), not per-subregion views
                    up = path[depth::-1]
                    view = self._capture_subtrees(
                        [c for c in bucket.values() if c is not on_path], up)
                    if view is not None:
                        self._append_view(up, view, led)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def _walk(self, path: tuple[Region, ...], compatible: set[PrivKey],
              paint: bool = False) -> tuple[list, list, list]:
        """``(entries, scan, later)``: the path history of ``path[-1]``,
        oldest first — its path's subhistories, each view whose bounds
        meet the region's unfolded in place (a stack of item iterators; a
        view with no view inside all at once) unless its privilege
        summary is a subset of ``compatible`` (no summary is empty, so
        ``set()`` skips on bounds alone).  With ``paint`` one walk serves
        the scan and the paint after it: ``entries`` also unfolds the
        views the scan skips, ``scan`` is the scan's part of it (the same
        list unless it skipped one), and ``later`` the touch keys the
        paint owes for those, in the order a second walk would make them;
        ``views_traversed`` counts a view once per walk entering it."""
        space = path[-1].space
        lo, hi = space._lo, space._hi
        states = self._states
        out: list[HistoryEntry] = []
        skipped: list[tuple[int, int]] = []  # spans of ``out`` not scanned
        touches: list = []
        later: list = []
        traversed = 0
        for node in path:
            st = states.get(node.uid)
            if st is None or not st.entries:
                continue
            touches.append(("treenode", node.uid))
            # an iterator per level, and where in ``out`` the outermost
            # view the scan skips began (None while scanning)
            stack = [(iter(st.entries), None)]
            while stack:
                items, skip = stack[-1]
                for item in items:
                    if type(item) is not CompositeView:
                        out.append(item)
                        continue
                    d = item.domain
                    if hi < d._lo or d._hi < lo or d._hi < d._lo or hi < lo:
                        continue  # bounds apart, or either side empty
                    inner = skip
                    if skip is None and not item.priv_summary <= compatible:
                        touches.append(("view", item.uid))
                        traversed += 1 + paint
                    elif paint:
                        later.append(("view", item.uid))
                        traversed += 1
                        if skip is None:
                            inner = len(out)
                    else:
                        continue
                    if item.flat:  # no view inside: all its items at once
                        out += item.items
                        if skip is None and inner is not None:
                            skipped.append((inner, len(out)))
                        continue
                    stack.append((iter(item.items), inner))
                    break
                else:
                    stack.pop()
                    if skip is not None and stack[-1][1] is None:
                        skipped.append((skip, len(out)))
        self.meter.charge({"views_traversed": traversed}, touches)
        scan, at = out, 0
        if skipped:
            scan = []
            for start, end in skipped:
                scan += out[at:start]
                at = end
            scan += out[at:]
        return out, scan, later

    # ------------------------------------------------------------------
    # the store policy: hoist, then the path history is all that matters
    # ------------------------------------------------------------------
    def _locate(self, privilege: Privilege, region: Region, led) -> list:
        path = self._paths.get(region.uid) or self._path(region)
        # hoisting preserves the path-history invariant for later tasks,
        # so it runs whether or not this access scans
        self._hoist(privilege, path, led)
        self.meter.touch(("treenode", self.tree.root.uid))
        # the path; a scan that a paint follows appends the paint's
        # entries and its touch keys
        return [path]

    def _collect(self, privilege: Privilege, region: Region, found: list,
                 deps: set[int], led) -> None:
        mark = privilege.commutes
        compatible = set() if mark is None else {mark}
        paint = not privilege.is_reduce  # a reduction paints nothing
        entries, scan, later = self._walk(found[0], compatible, paint)
        if paint:
            found += entries, later
        if led is not None:
            led.set_source(("path",))
        scan_dependences(privilege, region.space, scan, deps, self.meter, led)
        if led is not None:
            led.visit("path_entries", len(scan))

    def _paint(self, region: Region, found: list) -> Optional[np.ndarray]:
        if len(found) > 1:  # the scan's walk gathered them
            entries, later = found[1], found[2]
            if later:
                self.meter.charge({}, later)
        else:  # a traced replay: no scan walked the path
            entries = self._walk(found[0], set())[0]
        values = self._canvas(region)
        paint_into(values, region.space, region.space, entries, self.meter)
        return values

    def _record(self, privilege: Privilege, region: Region,
                values: Optional[np.ndarray], task_id: int, led) -> None:
        path = self._paths.get(region.uid) or self._path(region)
        st = self._states.get(region.uid) or self._new_state(region)
        if privilege.is_write and st.entries:
            # a write at R occludes everything previously recorded at R
            if led is not None:
                led.set_source(("treenode", region.uid))
                for item in st.entries:
                    src = (item.task_id if isinstance(item, HistoryEntry)
                           else prov.AGGREGATE_SRC)
                    led.prune(src, "commit_occluded",
                              prov.domain_desc(item.domain))
            self.meter.count("entries_occluded", len(st.entries))
            self._bump(reversed(path), -len(st.entries))
            st.entries = []
            st.priv_summary = set()
        rv = None if privilege.is_read else UNVALUED if values is None \
            else RegionValues(region.space, values.copy())
        st.entries.append(HistoryEntry(privilege, region.space, rv, task_id))
        self._bump(reversed(path), +1, (privilege.commutes,))
        self.meter.touch(("treenode", region.uid))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def total_items(self) -> int:
        """Raw history items currently stored across the tree."""
        return self._states[self.tree.root.uid].subtree_count

    def structure_tokens(self) -> tuple:
        return super().structure_tokens() + (
            ("view_items", self.total_items()),)

    def describe(self) -> dict:
        views, captured = self.view_stats()
        return {"kind": "tree_painter", "total_items": self.total_items(),
                "views": views, "captured_entries": captured,
                "compaction_ratio": (round(captured / views, 4)
                                     if views else 0.0)}

    def check_invariants(self) -> None:
        """Counts ≡ entries: every ``subtree_count`` equals a recount of
        its subtree's items, and ``open_children`` holds exactly the
        children whose count is non-zero.  Skips are sound: a
        ``priv_summary`` holds read-write's None (interferes with
        everything) or the key of every item in its subtree.  Every
        cached root path is its region's."""
        count: dict[int, int] = {}
        keys: dict[int, set[PrivKey]] = {}
        for node in reversed(self.tree.regions):  # children before parents
            st = self._states.get(node.uid) or _NodeState()
            total = len(st.entries)
            held: set[PrivKey] = set().union(*map(_keys_of, st.entries))
            for part in node.partitions.values():
                opened = {c.uid for c in part.subregions if count[c.uid]}
                if set(st.open_children.get(part.name, ())) != opened:
                    raise CoherenceError(
                        f"open-children index of {node!r} / {part.name!r} "
                        "disagrees with its children's counts")
                total += sum(count[c.uid] for c in part.subregions)
                held.update(*(keys[c.uid] for c in part.subregions))
            if st.subtree_count != total:
                raise CoherenceError(
                    f"{node!r} counts {st.subtree_count} subtree items, "
                    f"holds {total}")
            if None not in st.priv_summary and not held <= st.priv_summary:
                raise CoherenceError(
                    f"{node!r}'s privilege summary misses "
                    f"{held - st.priv_summary!r} held in its subtree")
            count[node.uid] = total
            keys[node.uid] = held
        if any(path != tuple(path[-1].path_from_root())
               for path in self._paths.values()):
            raise CoherenceError("a cached root path left the tree")
        items = [item for st in self._states.values() for item in st.entries]
        while items:  # views nest: check one level, then open its views
            self._check_valued(i for i in items if type(i) is HistoryEntry)
            items = [i for view in items if type(view) is CompositeView
                     for i in view.items]

    def node_entries(self, region: Region) -> list[PathItem]:
        """The subhistory currently recorded at ``region`` (tests)."""
        st = self._states.get(region.uid)
        return [] if st is None else list(st.entries)

    def view_stats(self) -> tuple[int, int]:
        """``(live views, entries they compacted)`` across the whole tree,
        counting nested views once each (census diagnostics)."""
        views = captured = 0

        def scan(items: list[PathItem]) -> None:
            nonlocal views, captured
            for item in items:
                if isinstance(item, CompositeView):
                    views += 1
                    captured += len(item.items)
                    scan(item.items)

        for st in self._states.values():
            scan(st.entries)
        return views, captured
