"""The common coherence-algorithm protocol (Figure 6).

``run_task`` in the paper is parameterized by two functions plus a state
representation; here each algorithm is a class with

* :meth:`CoherenceAlgorithm.materialize` — returns the coherent values of a
  region argument *and* the set of earlier tasks the new task depends on
  (section 3.2 shows dependence analysis is a sub-problem of coherence, so
  both come out of the same history scan), and
* :meth:`CoherenceAlgorithm.commit` — records the task's effect.

An algorithm instance tracks exactly one field of one region tree; the
runtime owns one instance per field.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Type

import numpy as np

from repro.errors import CoherenceError
from repro.privileges import Privilege, READ
from repro.regions.region import Region
from repro.regions.tree import RegionTree
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
        values.
    dependences:
        Ids of earlier tasks the launching task must wait for (excluding
        :data:`INITIAL_TASK_ID`).
    """

    values: np.ndarray
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
        Initial values of the root region, aligned with the root space.
    meter:
        Optional :class:`CostMeter`; a private one is created when omitted.
    """

    #: Short registry name, overridden by each subclass.
    name: str = "abstract"

    def __init__(self, tree: RegionTree, field: str,
                 initial: np.ndarray,
                 meter: Optional[CostMeter] = None) -> None:
        if field not in tree.field_space:
            raise CoherenceError(f"region tree has no field {field!r}")
        initial = np.asarray(initial)
        if initial.shape != (tree.root.space.size,):
            raise CoherenceError(
                f"initial values shape {initial.shape} does not match root "
                f"size {tree.root.space.size}")
        self.tree = tree
        self.field = field
        self.dtype = initial.dtype
        self.meter = meter if meter is not None else CostMeter()
        # Span category for the @traced materialize/commit instrumentation.
        self._obs_cat = f"visibility.{type(self).name}"

    # ------------------------------------------------------------------
    @abstractmethod
    def materialize(self, privilege: Privilege, region: Region) -> AnalysisOutcome:
        """Coherent values for ``region`` plus the dependences of the task
        about to run with ``privilege`` on it."""

    @abstractmethod
    def commit(self, privilege: Privilege, region: Region,
               values: Optional[np.ndarray], task_id: int) -> None:
        """Record a finished task's effect on ``region``.

        ``values`` is the task's final buffer for write privileges, the
        accumulated partial reductions for reduce privileges, and ``None``
        for reads.
        """

    def materialize_values(self, privilege: Privilege,
                           region: Region) -> np.ndarray:
        """Values-only materialization for traced replays.

        Dynamic tracing (:mod:`repro.runtime.tracing`) replays a memoized
        dependence template, so only the value side of ``materialize`` is
        needed.  The default runs the full analysis and discards the
        dependences; subclasses override with a fast path that skips the
        dependence scan.  All structural side effects (hoisting,
        refinement, dominating writes) must still happen — they are what
        keeps future materializations correct.
        """
        return self.materialize(privilege, region).values

    # ------------------------------------------------------------------
    def read_root(self) -> np.ndarray:
        """Materialize the entire root region with read privilege.

        Used to observe final state (and by the equivalence tests: all
        algorithms must agree with the sequential reference executor).
        """
        return self.materialize(READ, self.tree.root).values

    def identity_buffer(self, privilege: Privilege, n: int) -> np.ndarray:
        """Identity-filled accumulation buffer for a reduce privilege."""
        assert privilege.redop is not None
        return privilege.redop.identity_array(n, self.dtype)

    def structure_tokens(self) -> tuple:
        """Stable, hashable description of the current analysis structure.

        DCR's determinism contract requires every control-replicated shard
        to evolve *identical* analysis state, not merely identical
        dependence graphs; the parallel shard-analysis executor hashes
        these tokens (see :mod:`repro.distributed.verify`) to enforce it.
        The default introspects the structures each algorithm exposes:
        equivalence-set stores (Warnock, ray casting — the set
        decomposition plus the refinement trace each history encodes),
        history lengths (painter), composite-view item counts
        (tree painter) and interned access sets (z-buffer).
        """
        tokens: list = [type(self).name, self.field]
        store = getattr(self, "store", None)
        if store is not None and hasattr(store, "all_sets"):
            for eqset in sorted(store.all_sets(),
                                key=lambda s: (s.space.bounds, s.space.size)):
                entries = tuple(
                    (repr(entry.privilege), entry.task_id,
                     tuple(sorted(entry.collapsed_ids)),
                     entry.domain.bounds if hasattr(entry, "domain")
                     else None)
                    for entry in eqset.history)
                tokens.append(("eqset", eqset.space.bounds,
                               eqset.space.size,
                               eqset.space.indices.tobytes(), entries))
        elif hasattr(self, "total_items"):
            tokens.append(("view_items", self.total_items()))
        elif hasattr(self, "history_length"):
            tokens.append(("history", self.history_length))
        elif hasattr(self, "interned_sets"):
            tokens.append(("interned", self.interned_sets()))
        return tuple(tokens)

    def _check_commit_values(self, privilege: Privilege,
                             region: Region,
                             values: Optional[np.ndarray]) -> Optional[np.ndarray]:
        """Validate the values passed to :meth:`commit`."""
        if privilege.is_read:
            if values is not None:
                raise CoherenceError("read commits carry no values")
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
                   initial: np.ndarray,
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
