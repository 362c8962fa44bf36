"""The common coherence-algorithm protocol (Figure 6) and its one driver.

``run_task`` in the paper is parameterized by two functions plus a state
representation.  The two functions are written once, here:

* :meth:`CoherenceAlgorithm.materialize` — returns the coherent values of a
  region argument *and* the set of earlier tasks the new task depends on
  (section 3.2 shows dependence analysis is a sub-problem of coherence, so
  both come out of the same traversal), and
* :meth:`CoherenceAlgorithm.commit` — records the task's effect.

Each algorithm is a *store policy* — the state representation — supplying
only the hooks the driver sequences: ``_locate``, ``_collect``, ``_paint``,
an optional ``_settle``, and ``_record`` (their docstrings below are the
contract).  A traced replay is the same path with ``_collect`` skipped.
``Runtime._run`` calls the two and checks the tracer once per launch: off,
they run bare; on, each runs under its own span (``led`` at the witness
level).  A direct call records no span.

An algorithm instance tracks exactly one field of one region tree; the
runtime owns one instance per field.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Type

import numpy as np

from repro.errors import CoherenceError
from repro.obs import provenance as prov
from repro.privileges import Privilege, READ
from repro.regions.region import Region
from repro.regions.tree import RegionTree
from repro.visibility.history import UNVALUED
from repro.visibility.meter import CostMeter

#: Task id used for the initial contents of the root region — the oldest,
#: fully opaque write at the bottom of every history.
INITIAL_TASK_ID = -1


@dataclass(frozen=True)
class AnalysisOutcome:
    """Result of materializing one region argument.

    Attributes
    ----------
    values:
        Array aligned with ``region.space.indices``.  For a reduction
        privilege this is an identity-filled accumulation buffer (lazy
        reductions, section 5); otherwise it holds the coherent current
        values.  ``None`` from an analysis-only store, which keeps none.
    dependences:
        Ids of earlier tasks the launching task must wait for (excluding
        :data:`INITIAL_TASK_ID`).
    """

    values: Optional[np.ndarray]
    dependences: frozenset[int]


class CoherenceAlgorithm(ABC):
    """Base class for the five visibility algorithms (``painter``,
    ``tree_painter``, ``warnock``, ``raycast``, ``zbuffer``).

    Parameters
    ----------
    tree:
        The region tree the algorithm analyzes.
    field:
        Field name this instance tracks.
    initial:
        Initial values of the root region, aligned with the root space;
        ``None`` makes an *analysis-only* store (``dtype`` None).
    meter:
        Optional :class:`CostMeter`; a private one is created when omitted.
    """

    #: Short registry name, overridden by each subclass.
    name: str = "abstract"

    def __init__(self, tree: RegionTree, field: str,
                 initial: Optional[np.ndarray],
                 meter: Optional[CostMeter] = None) -> None:
        if field not in tree.field_space:
            raise CoherenceError(f"region tree has no field {field!r}")
        size = tree.root.space.size
        if initial is not None and np.shape(initial) != (size,):
            raise CoherenceError(f"initial values shape {np.shape(initial)} "
                                 f"does not match root size {size}")
        self.tree = tree
        self.field = field
        self.dtype = None if initial is None else np.asarray(initial).dtype
        self.meter = meter if meter is not None else CostMeter()
        # Span category of this field's materialize/commit access spans.
        self._obs_cat = f"visibility.{type(self).name}"

    # ------------------------------------------------------------------
    # the Figure 6 protocol
    # ------------------------------------------------------------------
    def materialize(self, privilege: Privilege, region: Region,
                    scan: bool = True, led=None) -> AnalysisOutcome:
        """Coherent values for ``region`` plus the dependences of the task
        about to run with ``privilege`` on it.

        ``scan=False`` is the traced-replay form
        (:mod:`repro.runtime.tracing`): the dependences come from a
        memoized template, so ``_collect`` is skipped and the outcome
        reports none.  Every structural side effect (hoisting, refinement,
        dominating writes) still happens — they are what keeps future
        materializations correct.

        ``led`` is this access's open span while the tracer records
        witnesses (the runtime opens it), else None.
        """
        if region.tree is not self.tree:
            raise CoherenceError("region belongs to a different tree")
        if led is not None:
            prov.describe_access(led, self.field, type(self).name, privilege,
                                 region.space,
                                 "materialize" if scan else "replay")
        found = self._locate(privilege, region, led)
        deps: set[int] = set()
        if scan:
            self._collect(privilege, region, found, deps, led)
            deps.discard(INITIAL_TASK_ID)
        if privilege.is_reduce:
            # Lazy reductions (section 5): never look at values, hand
            # back an identity-filled accumulation buffer.
            assert privilege.redop is not None
            values = None if self.dtype is None else \
                privilege.redop.identity_array(region.space.size, self.dtype)
        else:
            values = self._paint(region, found)
            if privilege.is_write:
                self._settle(region, found, values, led)
        return AnalysisOutcome(values, frozenset(deps))

    def commit(self, privilege: Privilege, region: Region,
               values: Optional[np.ndarray], task_id: int,
               led=None) -> None:
        """Record a finished task's effect on ``region``.

        ``values`` is the task's final buffer for write privileges, the
        accumulated partial reductions for reduce privileges, and ``None``
        for reads; ``led`` as for :meth:`materialize`.
        """
        if region.tree is not self.tree:
            raise CoherenceError("region belongs to a different tree")
        if led is not None:
            prov.describe_access(led, self.field, type(self).name, privilege,
                                 region.space, "commit")
        self._record(privilege, region,
                     self._check_commit_values(privilege, region, values),
                     task_id, led)

    # ------------------------------------------------------------------
    # the store policy
    # ------------------------------------------------------------------
    # ``led`` is the open materialize/commit span while the tracer records
    # witnesses (its edge/prune/visit/set_source write the access record),
    # else None; ``found`` is whatever ``_locate`` returned.
    @abstractmethod
    def _locate(self, privilege: Privilege, region: Region, led):
        """The structural step of an access to ``region`` — hoist, refine,
        localize buckets, or find element positions — with its meter
        touches.  Runs on every materialize, replays included."""

    @abstractmethod
    def _collect(self, privilege: Privilege, region: Region, found,
                 deps: set[int], led) -> None:
        """The dependence scan: add to ``deps`` the id of every earlier
        task the access interferes with.  Skipped on a traced replay, so
        it must not change the store."""

    @abstractmethod
    def _paint(self, region: Region, found) -> Optional[np.ndarray]:
        """Current values of ``region``, aligned with its space (not
        called for reductions); None, after the same walk, if unvalued."""

    def _canvas(self, region: Region) -> Optional[np.ndarray]:
        """The zeroed buffer ``_paint`` blends into (None if unvalued)."""
        return None if self.dtype is None else np.zeros(region.space.size,
                                                        dtype=self.dtype)

    def _settle(self, region: Region, found, values: Optional[np.ndarray],
                led) -> None:
        """Reshape the store once a write has materialized ``values``
        (ray casting's dominating write; nothing elsewhere)."""

    @abstractmethod
    def _record(self, privilege: Privilege, region: Region,
                values: Optional[np.ndarray], task_id: int, led) -> None:
        """Store one committed operation; ``values`` is already validated
        and must be copied before it is kept (None, and kept UNVALUED, in
        an analysis-only store)."""

    @abstractmethod
    def describe(self) -> dict:
        """This field's census block (:mod:`repro.obs.census`): a
        ``kind`` key plus the numbers that kind requires."""

    # ------------------------------------------------------------------
    def read_root(self) -> np.ndarray:
        """Materialize the entire root region with read privilege.

        Used to observe final state (and by the equivalence tests: all
        algorithms must agree with the sequential reference executor).
        """
        return self.materialize(READ, self.tree.root).values

    def structure_tokens(self) -> tuple:
        """Stable, hashable description of the current analysis structure.

        DCR's determinism contract requires every control-replicated shard
        to evolve *identical* analysis state, not merely identical
        dependence graphs; the parallel shard-analysis executor hashes
        these tokens (see :mod:`repro.distributed.verify`) to enforce it.
        Each policy extends this prefix with its own state: the set
        decomposition plus the refinement trace each history encodes
        (Warnock, ray casting), the history length (painter), the live
        item count (tree painter), the intern-table size (z-buffer).
        """
        return (type(self).name, self.field)

    def check_invariants(self) -> None:
        """Raise :class:`CoherenceError` if the store's redundant state
        (columns, counts, indexes) disagrees with what it mirrors."""

    def _check_valued(self, entries) -> None:
        """Raise unless every one of ``entries`` keeps the entry rules
        (:meth:`HistoryEntry.check`, which no store's constructor runs)
        and the visible ones are all UNVALUED (in an analysis-only store)
        or all valued."""
        for entry in entries:
            entry.check()
            if entry.is_visible and \
                    (entry.values is UNVALUED) != (self.dtype is None):
                raise CoherenceError(f"{entry!r} mixes valued and unvalued")

    def _check_commit_values(self, privilege: Privilege,
                             region: Region,
                             values: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Validate the values passed to :meth:`commit`."""
        if privilege.is_read or self.dtype is None:
            if values is not None:
                raise CoherenceError("this commit carries no values")
            return None
        if values is None:
            raise CoherenceError(f"{privilege!r} commit requires values")
        values = np.asarray(values)
        if values.shape != (region.space.size,):
            raise CoherenceError(
                f"commit values shape {values.shape} does not match region "
                f"size {region.space.size}")
        return values

    def __repr__(self) -> str:
        return f"{type(self).__name__}(field={self.field!r})"


def make_algorithm(name: str, tree: RegionTree, field: str,
                   initial: Optional[np.ndarray],
                   meter: Optional[CostMeter] = None) -> CoherenceAlgorithm:
    """Instantiate a coherence algorithm by registry name.

    Known names: ``painter``, ``tree_painter``, ``warnock``, ``raycast``,
    ``zbuffer``.
    """
    from repro.visibility import ALGORITHMS

    try:
        cls: Type[CoherenceAlgorithm] = ALGORITHMS[name]
    except KeyError:
        raise CoherenceError(
            f"unknown algorithm {name!r}; known: {sorted(ALGORITHMS)}"
        ) from None
    return cls(tree, field, initial, meter)
