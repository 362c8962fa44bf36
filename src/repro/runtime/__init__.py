"""The implicitly-parallel task runtime substrate.

This package is the Legion-shaped harness around the visibility algorithms:
applications launch tasks carrying region requirements (region + field +
privilege); the runtime materializes coherent arguments, runs the task
body, commits its effects, and accumulates the dependence graph that a
scheduler would use to relax program order into parallel execution
(section 3.2).

Ground truth for every test lives here too: the
:class:`~repro.runtime.executor.SequentialExecutor` applies the same task
stream eagerly in program order with no analysis at all, and the
:func:`~repro.runtime.dependence.oracle_dependences` oracle computes the
exact pairwise interference relation.
"""

from repro.runtime.task import RegionRequirement, Task, TaskStream
from repro.runtime.dependence import DependenceGraph, oracle_dependences
from repro.runtime.executor import SequentialExecutor
from repro.runtime.context import Runtime

__all__ = [
    "DependenceGraph",
    "RegionRequirement",
    "Runtime",
    "SequentialExecutor",
    "Task",
    "TaskStream",
    "oracle_dependences",
]
