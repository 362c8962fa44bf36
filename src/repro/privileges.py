"""Privileges and the interference relation (paper section 4).

Each region argument of a task carries one privilege:

* ``READ`` — the task only observes values,
* ``READ_WRITE`` — the task may overwrite values (fully opaque in the
  visibility analogy of section 3.1),
* ``reduce(f)`` — the task folds contributions with operator ``f``
  (partially transparent).

Two privileges *interfere* when tasks holding them on overlapping data may
not be reordered.  The only non-interfering combinations are read/read and
reduce_f/reduce_f with the **same** operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.errors import PrivilegeError
from repro.reductions import ReductionOp, get_reduction


class PrivilegeKind(Enum):
    """The three access kinds of the model."""

    READ = "read"
    READ_WRITE = "read-write"
    REDUCE = "reduce"

    # members are singletons (and unpickle as themselves): hash by
    # identity, in C — ``READ`` is the reads' ``commutes`` marker, which
    # privilege summaries hash on every launch
    __hash__ = object.__hash__


@dataclass(frozen=True)
class Privilege:
    """A privilege: kind plus, for reductions, the operator.

    Use the module-level constants :data:`READ` / :data:`READ_WRITE` and the
    factory :func:`reduce` rather than constructing directly.
    """

    kind: PrivilegeKind
    redop: Optional[ReductionOp] = None
    #: Kind flags and the commutation marker, precomputed: the
    #: interference test runs once per history entry per analysis, so
    #: these must be attribute loads, not property calls.
    is_read: bool = field(init=False, compare=False, default=False)
    is_write: bool = field(init=False, compare=False, default=False)
    is_reduce: bool = field(init=False, compare=False, default=False)
    #: What this privilege commutes with, as one object: ``PrivilegeKind.
    #: READ`` for a read, the operator for ``reduce(f)``, None for
    #: read-write (which commutes with nothing).  Two privileges commute
    #: exactly when their markers are the same non-None object — the
    #: whole of :meth:`interferes`, which hot loops inline.  Both kinds of
    #: marker unpickle as themselves (an enum member by name, an operator
    #: through its registry), so a privilege restored from a checkpoint
    #: still commutes with a fresh one; a plain string would not.
    commutes: Optional[object] = field(init=False, compare=False,
                                       default=None)

    def __post_init__(self) -> None:
        if self.kind is PrivilegeKind.REDUCE and self.redop is None:
            raise PrivilegeError("reduce privilege requires a reduction operator")
        if self.kind is not PrivilegeKind.REDUCE and self.redop is not None:
            raise PrivilegeError(f"{self.kind.value} privilege takes no operator")
        object.__setattr__(self, "is_read",
                           self.kind is PrivilegeKind.READ)
        object.__setattr__(self, "is_write",
                           self.kind is PrivilegeKind.READ_WRITE)
        object.__setattr__(self, "is_reduce",
                           self.kind is PrivilegeKind.REDUCE)
        object.__setattr__(self, "commutes", self.redop if self.is_reduce
                           else self.kind if self.is_read else None)

    def interferes(self, other: "Privilege") -> bool:
        """Whether two tasks with these privileges on overlapping data may
        have a dependence (section 4's interference relation): unless
        they commute, read with read or ``reduce(f)`` with ``reduce(f)``."""
        return self.commutes is None or other.commutes is not self.commutes

    def __repr__(self) -> str:
        if self.is_reduce:
            assert self.redop is not None
            return f"reduce({self.redop.name})"
        return self.kind.value


READ = Privilege(PrivilegeKind.READ)
"""The plain read privilege (fully transparent)."""

READ_WRITE = Privilege(PrivilegeKind.READ_WRITE)
"""The read-write privilege (fully opaque)."""


def reduce(op: str | ReductionOp) -> Privilege:
    """Build a reduction privilege from an operator or its registry name."""
    if isinstance(op, str):
        op = get_reduction(op)
    return Privilege(PrivilegeKind.REDUCE, op)


def interferes(a: Privilege, b: Privilege) -> bool:
    """Module-level convenience wrapper for :meth:`Privilege.interferes`."""
    return a.interferes(b)
