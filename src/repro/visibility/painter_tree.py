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
    (nesting).  Views are distributed objects: in Legion they are built
    bottom-up and replicated on demand, but retain a single logical root —
    which is why the painter bottlenecks at scale.
    """

    __slots__ = ("uid", "items", "domain", "write_domain", "priv_summary")

    def __init__(self, items: list["PathItem"], domain: IndexSpace,
                 write_domain: IndexSpace, priv_summary: set[PrivKey]) -> None:
        self.uid = _view_uid.take()
        self.items = items
        self.domain = domain
        self.write_domain = write_domain
        self.priv_summary = priv_summary

    def __setstate__(self, state) -> None:
        _view_uid.restore(self, state)

    def __repr__(self) -> str:
        return f"CompositeView(uid={self.uid}, items={len(self.items)})"


PathItem = Union[HistoryEntry, CompositeView]


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


class TreePainterAlgorithm(CoherenceAlgorithm):
    """Painter's algorithm with region-tree subhistories and composite
    views."""

    name = "tree_painter"

    def __init__(self, tree: RegionTree, field: str,
                 initial: Optional[np.ndarray],
                 meter: Optional[CostMeter] = None) -> None:
        super().__init__(tree, field, initial, meter)
        self._states: dict[int, _NodeState] = {}
        root_state = self._state(tree.root)
        root_values = UNVALUED if initial is None else RegionValues(
            tree.root.space, np.asarray(initial).copy())
        root_state.entries.append(
            HistoryEntry(READ_WRITE, tree.root.space, root_values,
                         INITIAL_TASK_ID))
        self._bump_counts(tree.root, +1)
        self._add_summary(tree.root, READ_WRITE.commutes)

    # ------------------------------------------------------------------
    # state plumbing
    # ------------------------------------------------------------------
    def _state(self, region: Region) -> _NodeState:
        st = self._states.get(region.uid)
        if st is None:
            st = _NodeState()
            self._states[region.uid] = st
        return st

    def _bump_counts(self, region: Region, delta: int) -> None:
        node: Optional[Region] = region
        while node is not None:
            st = self._state(node)
            old = st.subtree_count
            st.subtree_count = old + delta
            self._update_openness(node, old, st.subtree_count)
            node = node.parent

    def _update_openness(self, node: Region, old: int, new: int) -> None:
        """Keep the parent's open-children index in sync with a child's
        subtree-count zero crossings."""
        if (old == 0) == (new == 0):
            return
        part = node.parent_partition
        if part is None:
            return
        bucket = self._state(part.parent).open_children.setdefault(
            part.name, {})
        if new > 0:
            bucket[node.uid] = node
        else:
            bucket.pop(node.uid, None)

    def _add_summary(self, region: Region, key: PrivKey) -> None:
        node: Optional[Region] = region
        while node is not None:
            self._state(node).priv_summary.add(key)
            node = node.parent

    # ------------------------------------------------------------------
    # composite view construction
    # ------------------------------------------------------------------
    def _capture_subtrees(self, roots: list[Region]) -> Optional[CompositeView]:
        """Snapshot and clear every subhistory under (and at) each of
        ``roots`` into one composite view (the paper captures an entire
        partition subtree as a unit — Figure 8's V0 covers all of P)."""
        items: list[PathItem] = []

        def visit(node: Region) -> None:
            st = self._states.get(node.uid)
            if st is not None and st.entries:
                self.meter.count("view_nodes_captured")
                items.extend(st.entries)
                st.entries = []
            if st is not None:
                st.priv_summary = set()
                # only descend into open subtrees, via the openness index
                if st.open_children:
                    for bucket in st.open_children.values():
                        for child in list(bucket.values()):
                            visit(child)
                    st.open_children = {}
                old = st.subtree_count
                st.subtree_count = 0  # the whole subtree is now closed
                self._update_openness(node, old, 0)

        for root in roots:
            removed = self._state(root).subtree_count
            visit(root)
            # ancestors strictly above each root lose its captured items
            node_up: Optional[Region] = root.parent
            while node_up is not None:
                up_st = self._state(node_up)
                old = up_st.subtree_count
                up_st.subtree_count = old - removed
                self._update_openness(node_up, old, up_st.subtree_count)
                node_up = node_up.parent
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

    def _append_view(self, node: Region, view: CompositeView, led) -> None:
        st = self._state(node)
        # conservative occlusion: the new view deletes earlier same-node
        # items it fully overwrites
        if view.write_domain.size:
            kept: list[PathItem] = []
            for item in st.entries:
                self.meter.count("intersection_tests")
                if item.domain.issubset(view.write_domain):
                    if led is not None:
                        src = (item.task_id
                               if isinstance(item, HistoryEntry)
                               else prov.AGGREGATE_SRC)
                        led.prune(src, "view_occluded",
                                  prov.domain_desc(item.domain))
                    self._bump_counts(node, -1)
                    continue
                kept.append(item)
            st.entries = kept
        st.entries.append(view)
        self._bump_counts(node, +1)
        st.priv_summary.update(view.priv_summary)
        node_up: Optional[Region] = node.parent
        while node_up is not None:
            self._state(node_up).priv_summary.update(view.priv_summary)
            node_up = node_up.parent

    # ------------------------------------------------------------------
    # launch-time hoisting (step 2 of section 5.1)
    # ------------------------------------------------------------------
    def _hoist(self, privilege: Privilege, region: Region, led) -> None:
        path = region.path_from_root()
        on_path = {r.uid for r in path}
        states = self._states
        mark = privilege.commutes
        compatible = set() if mark is None else {mark}
        space = region.space
        lo, hi = space._lo, space._hi
        for node in path:
            node_st = states.get(node.uid)
            if node_st is None or not node_st.open_children:
                continue
            # iterate only partitions with open children (the openness
            # index keeps launches O(open work), not O(machine))
            for bucket in list(node_st.open_children.values()):
                open_children: list[Region] = []
                tests, trigger = 0, False
                for child in bucket.values():
                    if child.uid in on_path:
                        continue
                    open_children.append(child)
                    if trigger or states[child.uid].priv_summary <= compatible:
                        continue  # summary says nothing to hoist
                    # one modelled test; the bounds answer most of them
                    tests += 1
                    cs = child.space
                    trigger = (cs._lo <= hi and lo <= cs._hi
                               and cs.overlaps(space))
                self.meter.charge({"intersection_tests": tests})
                if trigger:
                    # the paper snapshots the whole partition subtree as one
                    # composite view (Figure 8), not per-subregion views
                    view = self._capture_subtrees(open_children)
                    if view is not None:
                        self._append_view(node, view, led)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def _path_entries(self, region: Region,
                      privilege: Optional[Privilege] = None
                      ) -> list[HistoryEntry]:
        """All history entries relevant to ``region``'s path, oldest first.

        When ``privilege`` is given, whole composite views whose privilege
        summary cannot interfere are skipped (their values may still be
        needed for painting, so painting passes ``privilege=None``, which
        skips nothing: no view's summary is empty).
        Views nest: the walk keeps a stack of item iterators, a view
        pushing its item list.
        """
        space = region.space
        mark = None if privilege is None else privilege.commutes
        compatible = set() if mark is None else {mark}
        out: list[HistoryEntry] = []
        for node in region.path_from_root():
            st = self._states.get(node.uid)
            if st is None or not st.entries:
                continue
            self.meter.touch(("treenode", node.uid))
            stack = [iter(st.entries)]
            while stack:
                for item in stack[-1]:
                    if type(item) is not CompositeView:
                        out.append(item)
                    elif item.domain.bbox_overlaps(space) and \
                            not item.priv_summary <= compatible:
                        self.meter.count("views_traversed")
                        self.meter.touch(("view", item.uid))
                        stack.append(iter(item.items))
                        break
                else:
                    stack.pop()
        return out

    # ------------------------------------------------------------------
    # the store policy: hoist, then the path history is all that matters
    # ------------------------------------------------------------------
    def _locate(self, privilege: Privilege, region: Region, led) -> None:
        # hoisting preserves the path-history invariant for later tasks,
        # so it runs whether or not this access scans
        self._hoist(privilege, region, led)
        self.meter.touch(("treenode", self.tree.root.uid))

    def _collect(self, privilege: Privilege, region: Region, found,
                 deps: set[int], led) -> None:
        path = self._path_entries(region, privilege)
        if led is not None:
            led.set_source(("path",))
        scan_dependences(privilege, region.space, path, deps, self.meter, led)
        if led is not None:
            led.visit("path_entries", len(path))

    def _paint(self, region: Region, found) -> Optional[np.ndarray]:
        values = self._canvas(region)
        paint_into(values, region.space, region.space,
                   self._path_entries(region, None), self.meter)
        return values

    def _record(self, privilege: Privilege, region: Region,
                values: Optional[np.ndarray], task_id: int, led) -> None:
        st = self._state(region)
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
            self._bump_counts(region, -len(st.entries))
            st.entries = []
            st.priv_summary = set()
        rv = None if privilege.is_read else UNVALUED if values is None \
            else RegionValues(region.space, values.copy())
        st.entries.append(HistoryEntry(privilege, region.space, rv, task_id))
        self._bump_counts(region, +1)
        self._add_summary(region, privilege.commutes)
        self.meter.touch(("treenode", region.uid))

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def total_items(self) -> int:
        """Raw history items currently stored across the tree."""
        return self._state(self.tree.root).subtree_count

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
        everything) or the key of every item in its subtree."""
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
