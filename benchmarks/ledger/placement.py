"""Where the benchmark's processes run.

The driver thread is pinned to the first CPU it is allowed on, and the
worker processes the program spawns to the others.  Left to Linux,
placement made otherwise identical repetitions bimodal: a worker woken
through a pipe is often put on its waker's CPU (wake-affine), where the
"parallel" replica then runs after the reference replica instead of
beside it — sessions 1.5x apart from one fresh interpreter to the next,
sticky for the life of the process.  Nothing in the program is touched:
the pids come from ``multiprocessing.active_children``.  With a single
allowed CPU there is nothing to choose and nothing is pinned.
"""

from __future__ import annotations

import multiprocessing
import os

_ALLOWED = sorted(os.sched_getaffinity(0))
#: Where the program's worker processes are put (empty on one CPU).
WORKER_CPUS = frozenset(_ALLOWED[1:])
_pinned: set[int] = set()


def pin_driver() -> None:
    """Pin the calling thread (and threads and processes it starts from
    now on, until re-pinned) to the first allowed CPU."""
    if WORKER_CPUS:
        os.sched_setaffinity(0, {_ALLOWED[0]})


def pin_workers() -> None:
    """Move every live worker process not yet moved onto the other
    CPUs.  Cheap enough to call after every operation that may have
    spawned one."""
    if not WORKER_CPUS:
        return
    for child in multiprocessing.active_children():
        if child.pid in _pinned:
            continue
        try:
            os.sched_setaffinity(child.pid, WORKER_CPUS)
        except OSError:
            continue  # exited between the listing and the call
        _pinned.add(child.pid)
