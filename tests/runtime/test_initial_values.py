"""Every runtime that keeps values checks its initial values the same way:
a missing field or a wrong shape raises :class:`TaskError` with one
message, before any worker process is started."""

import multiprocessing as mp
import re

import numpy as np
import pytest

from repro import RegionTree, Runtime, TaskError
from repro.distributed import ShardedRuntime
from repro.runtime.executor import SequentialExecutor
from repro.runtime.parallel import ParallelExecutor

CONSTRUCTORS = {
    "runtime": lambda tree, initial: Runtime(tree, initial),
    "sequential": SequentialExecutor,
    "parallel": ParallelExecutor,
    "sharded-serial": lambda tree, initial: ShardedRuntime(
        tree, initial, shards=2, backend="serial"),
    "sharded-process": lambda tree, initial: ShardedRuntime(
        tree, initial, shards=2, backend="process"),
}

CASES = {
    "missing": ({"x": np.zeros(8)},
                "missing initial values for field 'y'"),
    "shape": ({"x": np.zeros(8), "y": np.zeros(3)},
              "initial values for 'y' have shape (3,), expected (8,)"),
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("kind", list(CONSTRUCTORS))
def test_bad_initial_values_raise_one_error(kind, case):
    tree = RegionTree(8, {"x": np.float64, "y": np.float64})
    initial, message = CASES[case]
    children = {p.pid for p in mp.active_children()}
    with pytest.raises(TaskError, match=f"^{re.escape(message)}$"):
        CONSTRUCTORS[kind](tree, initial)
    # checked before the process backend spawns a worker
    assert {p.pid for p in mp.active_children()} == children
