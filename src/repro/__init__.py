"""repro — visibility algorithms for dynamic dependence analysis and
distributed coherence.

A faithful, laptop-scale reproduction of Bauer et al., *Visibility
Algorithms for Dynamic Dependence Analysis and Distributed Coherence*
(PPoPP 2023): the painter's algorithm, Warnock's algorithm and ray casting
adapted to content-based coherence, an implicitly-parallel task runtime to
drive them, the paper's three benchmark applications (Stencil, Circuit,
Pennant), and a distributed-machine cost simulator that regenerates the
paper's six figures from the algorithms' real metered work.

See ``examples/quickstart.py`` for a complete program and DESIGN.md for the
system inventory.
"""

from repro.errors import (CoherenceError, GeometryError, MachineError,
                          PrivilegeError, RegionTreeError, ReproError,
                          TaskError)
from repro.geometry import Extent, IndexSpace, KDTree, Rect
from repro.privileges import READ, READ_WRITE, Privilege, interferes, reduce
from repro.reductions import (ReductionOp, get_reduction, known_reductions,
                              register_reduction)
from repro.regions import Field, FieldSpace, Partition, Region, RegionTree
from repro.regions.dependent import (difference_partition, equal_partition,
                                     image_partition, intersection_partition,
                                     partition_by_field,
                                     partition_by_predicate,
                                     preimage_partition, union_partition)
from repro.runtime import (DependenceGraph, RegionRequirement, Runtime,
                           SequentialExecutor, Task, TaskStream,
                           oracle_dependences)
from repro.runtime.parallel import ExecutionLog, ParallelExecutor
from repro.visibility import (ALGORITHMS, CoherenceAlgorithm, CostMeter,
                              PainterAlgorithm, RayCastAlgorithm,
                              TreePainterAlgorithm, WarnockAlgorithm,
                              make_algorithm)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "CoherenceAlgorithm",
    "CoherenceError",
    "CostMeter",
    "DependenceGraph",
    "ExecutionLog",
    "Extent",
    "Field",
    "FieldSpace",
    "GeometryError",
    "IndexSpace",
    "KDTree",
    "MachineError",
    "PainterAlgorithm",
    "ParallelExecutor",
    "Partition",
    "Privilege",
    "PrivilegeError",
    "RayCastAlgorithm",
    "READ",
    "READ_WRITE",
    "Rect",
    "ReductionOp",
    "Region",
    "RegionRequirement",
    "RegionTree",
    "RegionTreeError",
    "ReproError",
    "Runtime",
    "SequentialExecutor",
    "Task",
    "TaskError",
    "TaskStream",
    "TreePainterAlgorithm",
    "WarnockAlgorithm",
    "difference_partition",
    "equal_partition",
    "get_reduction",
    "image_partition",
    "interferes",
    "intersection_partition",
    "known_reductions",
    "make_algorithm",
    "oracle_dependences",
    "partition_by_field",
    "partition_by_predicate",
    "preimage_partition",
    "reduce",
    "register_reduction",
    "union_partition",
]
