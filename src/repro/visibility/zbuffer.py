"""A Z-buffer coherence algorithm — the fourth classic, beyond the paper.

The paper adapts three visibility algorithms (painter's, Warnock's, ray
casting) and concludes that the reduction admits "a general class of
solutions".  This module demonstrates the generality with the one classic
the paper does not adapt: **z-buffering** [Catmull 1974], which in
graphics keeps, per pixel, only the nearest fragment seen so far.

The coherence analog keeps, per *element*:

* the blended current value (depth-tested fragments → eagerly applied
  operations — z-buffering has no transparency, so reductions are applied
  immediately rather than accumulated lazily);
* the id of the last write (the opaque fragment);
* the set of readers since that write, and the set of (reducer, operator)
  pairs since that write — as interned (hash-consed) set ids, so
  region-granular accesses cost O(distinct sets), not O(elements×set).

Dependences come straight off the per-element records, so the computed
graph is *maximally precise*: every reported edge is a true interference
(per-element tracking never over-approximates a domain), and only
occluded pairs — those already covered by a path through the occluding
write — are pruned.  The price is the paper's reason no
distributed runtime works this way: the canonical per-element table is
one big mutable object — inherently centralized, impossible to replicate,
with O(elements) work per access.  The machine simulator prices it
accordingly (every analysis touches the single table), which makes the
z-buffer an instructive fifth configuration: best-possible precision,
worst-possible distribution.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import CoherenceError
from repro.privileges import Privilege
from repro.regions.region import Region
from repro.regions.tree import RegionTree
from repro.visibility.base import CoherenceAlgorithm, INITIAL_TASK_ID
from repro.visibility.meter import CostMeter
from repro.obs import provenance as prov

_EMPTY_SET_ID = 0


def _distinct(values: np.ndarray) -> list[int]:
    """The distinct ids in ``values``, ascending — NumPy's ``unique`` as
    a list — in one Python pass with no sort of the elements: a region's
    ids are few and mostly one, and up to 4 096 elements the set is
    never slower (2–3x faster at the usual 64)."""
    return sorted(set(values.tolist()))


class ZBufferAlgorithm(CoherenceAlgorithm):
    """Per-element last-visible tracking with interned access sets."""

    name = "zbuffer"

    def __init__(self, tree: RegionTree, field: str,
                 initial: Optional[np.ndarray],
                 meter: Optional[CostMeter] = None) -> None:
        super().__init__(tree, field, initial, meter)
        n = tree.root.space.size
        self._values = None if initial is None else np.asarray(initial).copy()
        self._last_write = np.full(n, INITIAL_TASK_ID, dtype=np.int64)
        # reader sets hold task ids; reducer sets hold (task, op) pairs so
        # an earlier different-operator reducer is never masked by later
        # same-operator ones
        self._reader_sid = np.full(n, _EMPTY_SET_ID, dtype=np.int64)
        self._reducer_sid = np.full(n, _EMPTY_SET_ID, dtype=np.int64)
        # interned sets: sid -> frozenset, with reverse lookup
        self._sets: list[frozenset] = [frozenset()]
        self._intern: dict[frozenset, int] = {frozenset(): 0}
        # reduction operators seen, by identity
        self._ops: list = []
        self._op_ids: dict[str, int] = {}
        # ids of the tasks whose writes committed (check_invariants)
        self._writers: set[int] = {INITIAL_TASK_ID}

    def __getstate__(self) -> dict:
        # Pickled bytes are a function of the state: every set sorted (a
        # set pickles in its iteration order, which depends on how it was
        # built); the reverse lookups are derived.
        state = {k: v for k, v in self.__dict__.items()
                 if k not in ("_intern", "_op_ids")}
        state["_sets"] = [tuple(sorted(s)) for s in self._sets]
        state["_writers"] = sorted(self._writers)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():  # setattr interns, as pickle does
            setattr(self, name, value)
        self._sets = [frozenset(s) for s in self._sets]
        self._intern = {s: sid for sid, s in enumerate(self._sets)}
        self._op_ids = {op.name: opid for opid, op in enumerate(self._ops)}
        self._writers = set(self._writers)
        # arrays unpickle with a private copy of their dtype; take the
        # shared one, as every other int64 array here has, so the next
        # pickle of this state writes the dtype once, as the first did
        for name in ("_last_write", "_reader_sid", "_reducer_sid"):
            setattr(self, name, np.asarray(getattr(self, name), np.int64))

    # ------------------------------------------------------------------
    # interning helpers
    # ------------------------------------------------------------------
    def _sid_of(self, members: frozenset) -> int:
        sid = self._intern.get(members)
        if sid is None:
            sid = len(self._sets)
            self._sets.append(members)
            self._intern[members] = sid
        return sid

    def _add_member(self, sid_array: np.ndarray, positions: np.ndarray,
                    member) -> None:
        """``sid_array[positions] = sid_array[positions] ∪ {member}``,
        via the intern table — O(distinct sets) set operations."""
        current = sid_array[positions]
        sids = _distinct(current)
        if len(sids) == 1:
            sid_array[positions] = self._sid_of(
                self._sets[sids[0]] | {member})
        else:
            for sid in sids:
                new_sid = self._sid_of(self._sets[sid] | {member})
                sid_array[positions[current == sid]] = new_sid
        # charge, not count: an empty region must leave no zero key behind
        self.meter.charge({"entries_scanned": len(sids)})

    def _collect_readers(self, deps: set[int], sids: np.ndarray) -> None:
        """Add every reader task id in the given interned sets."""
        ids = _distinct(sids)
        for sid in ids:
            if sid != _EMPTY_SET_ID:
                deps.update(self._sets[sid])
        self.meter.charge({"entries_scanned": len(ids)})

    def _collect_reducers(self, deps: set[int], sids: np.ndarray,
                          exclude_op: Optional[int] = None) -> None:
        """Add reducer task ids, optionally skipping one operator (the
        same-operator non-interference of section 4)."""
        ids = _distinct(sids)
        for sid in ids:
            if sid == _EMPTY_SET_ID:
                continue
            for task_id, opid in self._sets[sid]:
                if exclude_op is None or opid != exclude_op:
                    deps.add(task_id)
        self.meter.charge({"entries_scanned": len(ids)})

    def _op_id(self, redop) -> int:
        # registry name, not id(): operators pickle by name, so a restored
        # (unpickled) analysis must map them to the same slots
        key = redop.name
        opid = self._op_ids.get(key)
        if opid is None:
            opid = len(self._ops)
            self._ops.append(redop)
            self._op_ids[key] = opid
        return opid

    # ------------------------------------------------------------------
    # the store policy: one per-element table
    # ------------------------------------------------------------------
    def _locate(self, privilege: Privilege, region: Region,
                led) -> np.ndarray:
        pos = self.tree.root.space.positions_of(region.space)
        # the canonical table is one mutable, unreplicable object — the
        # centralization that makes this algorithm a distribution dead end
        self.meter.touch(("zbuffer_table", self.field))
        self.meter.count("elements_moved", pos.size)
        return pos

    def _collect(self, privilege: Privilege, region: Region,
                 pos: np.ndarray, deps: set[int], led) -> None:
        deps.update(_distinct(self._last_write[pos]))
        if privilege.is_read:
            self._collect_reducers(deps, self._reducer_sid[pos])
        elif privilege.is_write:
            self._collect_reducers(deps, self._reducer_sid[pos])
            self._collect_readers(deps, self._reader_sid[pos])
        else:
            assert privilege.redop is not None
            self._collect_readers(deps, self._reader_sid[pos])
            self._collect_reducers(deps, self._reducer_sid[pos],
                                   exclude_op=self._op_id(privilege.redop))
        if led is not None:
            # Observation-only replay of the collection above: attribute
            # each dependence to the table (last write / reader set /
            # reducer set) that held it.  Never touches the meter.
            self._emit_witnesses(led, privilege, region, pos)

    def _paint(self, region: Region, pos: np.ndarray) -> Optional[np.ndarray]:
        return None if self._values is None else self._values[pos].copy()

    def _emit_witnesses(self, led, privilege: Privilege, region: Region,
                        pos: np.ndarray) -> None:
        led.set_source(("zbuffer",))
        rdesc = prov.domain_desc(region.space)
        seen: set[tuple[int, str]] = set()

        def emit(task_id: int, kind: str, entry_priv: str) -> None:
            if task_id == INITIAL_TASK_ID or (task_id, kind) in seen:
                return
            seen.add((task_id, kind))
            led.edge(task_id, kind, entry_priv, rdesc)

        for t in _distinct(self._last_write[pos]):
            emit(t, "last_write", "read-write")
        exclude_op = (self._op_id(privilege.redop)
                      if privilege.is_reduce else None)
        if not privilege.is_read:
            for sid in _distinct(self._reader_sid[pos]):
                for t in self._sets[sid]:
                    emit(int(t), "reader", "read")
        for sid in _distinct(self._reducer_sid[pos]):
            for task_id, opid in self._sets[sid]:
                entry_priv = f"reduce({self._ops[opid].name})"
                if exclude_op is not None and opid == exclude_op:
                    if (task_id, "same_operator") not in seen:
                        seen.add((task_id, "same_operator"))
                        led.prune(int(task_id), "same_operator", rdesc)
                else:
                    emit(int(task_id), "reducer", entry_priv)
        led.visit("elements", int(pos.size))

    def _record(self, privilege: Privilege, region: Region,
                values: Optional[np.ndarray], task_id: int, led) -> None:
        pos = self.tree.root.space.positions_of(region.space)
        self.meter.touch(("zbuffer_table", self.field))
        if privilege.is_read:
            self._add_member(self._reader_sid, pos, task_id)
            return
        self.meter.count("elements_moved", pos.size)
        if values is not None:  # z-buffering is eager: fold at once
            self._values[pos] = values if privilege.is_write else \
                privilege.redop.fold(self._values[pos], values)
        if privilege.is_write:
            self._last_write[pos] = task_id
            self._writers.add(task_id)
            self._reader_sid[pos] = _EMPTY_SET_ID
            self._reducer_sid[pos] = _EMPTY_SET_ID
            return
        assert privilege.redop is not None
        self._add_member(self._reducer_sid, pos,
                         (task_id, self._op_id(privilege.redop)))

    # ------------------------------------------------------------------
    def interned_sets(self) -> int:
        """Size of the intern table (diagnostics)."""
        return len(self._sets)

    def structure_tokens(self) -> tuple:
        return super().structure_tokens() + (
            ("interned", len(self._sets)),)

    def describe(self) -> dict:
        return {"kind": "zbuffer", "interned_sets": len(self._sets),
                "elements": self.tree.root.space.size}

    def check_invariants(self) -> None:
        """The intern table is a bijection, every per-element set id
        indexes it, and every last write is a task that committed."""
        if (self._values is None) != (self.dtype is None):
            raise CoherenceError("the table mixes valued and unvalued state")
        if self._intern != {m: sid for sid, m in enumerate(self._sets)}:
            raise CoherenceError("intern table is not the inverse of _sets")
        for sids in (self._reader_sid, self._reducer_sid):
            if ((sids < 0) | (sids >= len(self._sets))).any():
                raise CoherenceError("set id outside the intern table")
        unknown = set(self._last_write.tolist()) - self._writers
        if unknown:
            raise CoherenceError(f"last writes by uncommitted {unknown}")
