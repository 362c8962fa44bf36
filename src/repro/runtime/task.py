"""Tasks and region requirements (paper section 4).

A task call ``T(P1 R1, ..., Pn Rn)`` names, for each region argument, the
privilege the task holds on it.  The runtime enforces the model's one
restriction on argument aliasing: two region arguments on the same field
must have disjoint domains unless their privileges are non-interfering
(both reads, or both reductions with the same operator) — intra-task
coherence is out of scope (paper footnote 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from repro.errors import TaskError
from repro.privileges import READ, READ_WRITE, Privilege, reduce
from repro.regions.region import Region

#: A task body receives one NumPy buffer per requirement, in declaration
#: order, and mutates them in place.  Read buffers arrive write-protected;
#: reduce buffers arrive identity-filled and the body folds contributions
#: into them.
TaskBody = Callable[..., None]


@dataclass(frozen=True)
class RegionRequirement:
    """One region argument: which elements, which field, which privilege."""

    region: Region
    field: str
    privilege: Privilege

    def __post_init__(self) -> None:
        if self.field not in self.region.tree.field_space:
            raise TaskError(
                f"region tree has no field {self.field!r}; known: "
                f"{self.region.tree.field_space.names}")

    @staticmethod
    def for_fields(region: Region, fields: Sequence[str],
                   privilege: Privilege) -> list["RegionRequirement"]:
        """One requirement per field — Legion's field-set requirements,
        expanded (coherence is tracked per field, so a multi-field
        requirement is exactly this list)."""
        if not fields:
            raise TaskError("for_fields requires at least one field")
        return [RegionRequirement(region, f, privilege) for f in fields]

    def interferes(self, other: "RegionRequirement") -> bool:
        """Whether two requirements could carry a dependence: same field,
        interfering privileges (:meth:`Privilege.interferes`, inlined on
        the ``commutes`` markers: every launch validates its pairs),
        overlapping domains."""
        if self.field != other.field:
            return False
        mark = self.privilege.commutes
        if mark is not None and other.privilege.commutes is mark:
            return False
        return self.region.space.overlaps(other.region.space)

    def __repr__(self) -> str:
        return (f"Req({self.region.name}.{self.field}, "
                f"{self.privilege!r})")


@dataclass(frozen=True)
class Task:
    """A recorded task launch.

    ``task_id`` is assigned by the runtime in program order — the "global
    clock" of section 3.1.
    """

    task_id: int
    name: str
    requirements: tuple[RegionRequirement, ...]
    body: Optional[TaskBody] = None
    #: Index-launch point: which piece of the machine this task belongs to.
    #: Used by the simulator's sharding functor (DCR assigns the analysis of
    #: point ``i`` to shard ``i % nodes``); None for singleton launches.
    point: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.requirements:
            raise TaskError(f"task {self.name!r} has no region requirements")
        validate_requirements(self.requirements, self.name)

    def __repr__(self) -> str:
        reqs = ", ".join(repr(r) for r in self.requirements)
        return f"Task(t{self.task_id} {self.name!r}: {reqs})"


def validate_requirements(requirements: Sequence[RegionRequirement],
                          task_name: str = "<task>") -> None:
    """Enforce the section 4 restriction on intra-task argument aliasing."""
    trees = {r.region.tree for r in requirements}
    if len(trees) > 1:
        raise TaskError(
            f"task {task_name!r} mixes regions from different region trees")
    for i, a in enumerate(requirements):
        for b in requirements[i + 1:]:
            if a.interferes(b):
                raise TaskError(
                    f"task {task_name!r}: arguments {a!r} and {b!r} alias "
                    "with interfering privileges (intra-task coherence is "
                    "not supported)")


def check_tree(task: Task, tree) -> None:
    """Refuse a task that names a region of a tree other than ``tree``."""
    for req in task.requirements:
        if req.region.tree is not tree:
            raise TaskError(
                f"task {task.name!r} names a region from a different tree")


class TaskStream:
    """An ordered sequence of task launches, replayable onto any executor.

    Streams decouple *what the application does* from *which algorithm
    analyzes it*: the apps build streams, and tests/benchmarks replay one
    stream through the reference executor and through all coherence
    algorithms, comparing results.
    """

    def __init__(self) -> None:
        self._tasks: list[Task] = []

    def append(self, name: str,
               requirements: Iterable[RegionRequirement],
               body: Optional[TaskBody] = None,
               point: Optional[int] = None) -> Task:
        """Record one launch; ids are assigned densely in program order."""
        task = Task(len(self._tasks), name, tuple(requirements), body, point)
        self._tasks.append(task)
        return task

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __getitem__(self, i: int) -> Task:
        return self._tasks[i]

    def extend_from(self, other: "TaskStream") -> None:
        """Append a re-numbered copy of another stream's launches."""
        for task in other:
            self.append(task.name, task.requirements, task.body, task.point)

    def __repr__(self) -> str:
        return f"TaskStream(n={len(self._tasks)})"


# picklable task-stream encoding: what worker replicas are shipped, and
# the structural signature dynamic tracing keys a trace on
def encode_privilege(privilege: Privilege) -> tuple:
    """A picklable privilege descriptor (reduction ops hold lambdas, so
    ship the registry name instead of the object)."""
    if privilege.is_reduce:
        assert privilege.redop is not None
        return ("reduce", privilege.redop.name)
    return ("kind", "read" if privilege.is_read else "read-write")


def decode_privilege(desc: tuple) -> Privilege:
    tag, value = desc
    if tag == "reduce":
        return reduce(value)
    return READ if value == "read" else READ_WRITE


def encode_tasks(stream: TaskStream) -> list[tuple]:
    """Encode a stream for shipping: names, region uids, fields,
    privilege descriptors and points — everything the analysis observes,
    nothing it does not (bodies stay behind)."""
    return [(task.name,
             tuple((req.region.uid, req.field,
                    encode_privilege(req.privilege))
                   for req in task.requirements),
             task.point)
            for task in stream]
