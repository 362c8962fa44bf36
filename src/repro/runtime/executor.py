"""The sequential reference executor — ground truth for coherence.

Applies every task eagerly in program order against full per-field arrays,
with none of the lazy-reduction or history machinery: a write stores, a
reduction folds immediately, a read observes.  By section 3.1's definition
of the blending function ``B``, this *is* the specification each visibility
algorithm must match; every equivalence test in the suite compares against
it.  The eager step lives here once (:func:`gather`, the body,
:func:`scatter`, over a ``{field: 1-D array}`` store): the parallel
executor and each shard of the sharded runtime run it too.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Mapping

import numpy as np

from repro.errors import TaskError
from repro.obs import tracer as obs
from repro.regions.tree import RegionTree
from repro.runtime.task import RegionRequirement, Task, TaskStream

_UNLOCKED = nullcontext()

def initial_fields(tree: RegionTree,
                   initial: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every field's initial values (not copied), each checked to hold
    one value per root element; :class:`TaskError` if not."""
    root_size = tree.root.space.size
    fields: dict[str, np.ndarray] = {}
    for name in tree.field_space.names:
        if name not in initial:
            raise TaskError(f"missing initial values for field {name!r}")
        values = np.asarray(initial[name])
        if values.shape != (root_size,):
            raise TaskError(
                f"initial values for {name!r} have shape {values.shape}, "
                f"expected ({root_size},)")
        fields[name] = values
    return fields


def gather(fields: Mapping[str, np.ndarray], req: RegionRequirement,
           positions: np.ndarray) -> np.ndarray:
    """One requirement's buffer: a copy of the values at ``positions``
    (write-protected for a read), or the reduction's identity."""
    if req.privilege.is_reduce:
        return req.privilege.redop.identity_array(
            positions.size, fields[req.field].dtype)
    buf = fields[req.field][positions]  # an index array: a fresh copy
    if req.privilege.is_read:
        buf.setflags(write=False)
    return buf


def scatter(fields: Mapping[str, np.ndarray], req: RegionRequirement,
            positions: np.ndarray, buf: np.ndarray) -> None:
    """Apply one requirement's buffer: store a write, fold a reduction."""
    if req.privilege.is_write:
        fields[req.field][positions] = buf
    elif req.privilege.is_reduce:
        current = fields[req.field]
        current[positions] = req.privilege.redop.fold(current[positions], buf)


class SequentialExecutor:
    """Eager, in-order execution with a global view of every field."""

    def __init__(self, tree: RegionTree,
                 initial: Mapping[str, np.ndarray]) -> None:
        self.tree = tree
        self._fields = {name: values.copy() for name, values
                        in initial_fields(tree, initial).items()}

    # ------------------------------------------------------------------
    def run(self, task: Task) -> None:
        """Execute one task eagerly."""
        with obs.span(task.name, "runtime.execute", task_id=task.task_id):
            self._run(task)

    def _run(self, task: Task, lock=_UNLOCKED) -> None:
        """Gather every requirement's buffer, run the body, scatter; the
        gather and the scatter each hold ``lock``, the body does not (the
        parallel executor passes its state lock)."""
        root_space = self.tree.root.space
        with lock:
            positions = [root_space.positions_of(req.region.space)
                         for req in task.requirements]
            buffers = [gather(self._fields, req, pos)
                       for req, pos in zip(task.requirements, positions)]
        if task.body is not None:
            task.body(*buffers)
        with lock:
            for req, pos, buf in zip(task.requirements, positions, buffers):
                scatter(self._fields, req, pos, buf)

    def run_stream(self, stream: TaskStream) -> None:
        """Execute every task of a stream in program order."""
        for task in stream:
            self.run(task)

    # ------------------------------------------------------------------
    def field(self, name: str) -> np.ndarray:
        """Current values of a field over the root region (copy)."""
        return self._fields[name].copy()

    def fields(self) -> dict[str, np.ndarray]:
        """Snapshot of every field."""
        return {k: v.copy() for k, v in self._fields.items()}

    def fingerprint(self) -> str:
        """Stable digest of the current field contents.

        The differential tests compare this against
        :meth:`ShardedRuntime.state_fingerprint` of a sharded run: equal
        digests mean bit-identical distributed state without
        materializing a field-by-field comparison.
        """
        from repro.distributed.verify import fields_fingerprint

        return fields_fingerprint(self._fields)
