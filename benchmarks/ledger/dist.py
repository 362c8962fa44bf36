"""Replicated cells: ``ShardedRuntime.execute`` over one-iteration windows.

Each window is one timed ``execute`` call (replicated analysis on every
shard, deterministic-merge verification, sharded execution with explicit
messages).  What happens inside a worker process cannot be bracketed
from outside, so besides the call's own span the ledger reads what the
program already exposes: the ``PhaseProfile`` (analyze / analyze.shard<i>
/ verify / execute / ship), the ``MessageLog`` and the
``RecoveryReport``; and it times the two public functions the backends
run per window — ``encode_tasks`` and ``analysis_fingerprint`` — on the
same streams.

Correct means: every replica reported the same fingerprint in every
window, and the gathered field state equals the sequential executor's.
"""

from __future__ import annotations

import gc
import time

import numpy as np

from repro.distributed import ShardedRuntime, analysis_fingerprint
from repro.distributed.backends import encode_tasks
from repro.geometry import reset_geometry_cache
from repro.runtime import SequentialExecutor

from placement import pin_workers
from stream import Cell, build_app, phases

clock = time.perf_counter

SHARDS = 2
CHECKS_PER_CELL = 2


def run_cell(cell: Cell, seed: int, cal, backend: str = "process",
             log=None, probes: bool = False) -> dict:
    """One app x algorithm: build, spawn, ``execute`` init + one window
    per iteration, close.  ``log`` records a span per call; ``probes``
    (needs ``log``) adds the encode and fingerprint timings — extra
    work, so the traced pass only."""
    gc.collect()
    reset_geometry_cache()
    key = f"{cell.key}@{backend}"
    t0 = clock()
    app = build_app(cell.app, cell.pieces, seed)
    runtime = ShardedRuntime(app.tree, app.initial, shards=SHARDS,
                             algorithm=cell.alg, backend=backend)
    t1 = clock()
    pin_workers()
    ends, durs, sizes = [], [], []
    encode_s = fingerprint_s = 0.0
    diverged = raised = 0
    try:
        for label, stream in phases(app, cell.iterations):
            base = runtime.backend.tasks_analyzed
            a = clock()
            try:
                reports = runtime.execute(stream)
            except Exception:  # noqa: BLE001 - counted, not hidden
                reports = ()
                raised += 1
            b = clock()
            ends.append(b)
            durs.append(b - a)
            sizes.append(len(stream))
            if len({r.fingerprint for r in reports}) != 1:
                diverged += 1
            if log is not None:
                log.add("execute", a, b, -1, key,
                        {"window": label, "tasks": len(stream)})
            if probes:
                a = clock()
                encode_tasks(stream)
                b = clock()
                analysis_fingerprint(runtime.backend.reference, base,
                                     len(stream))
                c = clock()
                log.add("encode_tasks", a, b, -1, key)
                log.add("analysis_fingerprint", b, c, -1, key)
                encode_s += cal.ref_seconds(a, b)
                fingerprint_s += cal.ref_seconds(b, c)
            cal.maybe(clock())
        profile = runtime.profile.snapshot()
        messages = runtime.log.messages
        recovery = runtime.recovery
        state = runtime.state_fingerprint()
    finally:
        runtime.close()
    cal.tick()
    raw = np.asarray(durs)
    ref_speed = raw * cal.scale(ends)

    executor = SequentialExecutor(app.tree, app.initial)
    for _, stream in phases(app, cell.iterations):
        executor.run_stream(stream)
    problems = []
    if diverged or raised:
        problems.append(f"{key}: {diverged} windows with diverging replica "
                        f"fingerprints, {raised} raised")
    if state != executor.fingerprint():
        problems.append(f"{key}: sharded field state differs from the "
                        "sequential executor")
    return {
        "cell": cell, "tasks": sum(sizes),
        "windows": len(durs), "raw": raw, "ref": ref_speed,
        "build_s": cal.ref_seconds(t0, t1), "build_raw_s": t1 - t0,
        "profile": profile, "messages": messages,
        "checkpoints": recovery.checkpoints if recovery else 0,
        "recoveries": recovery.recoveries if recovery else 0,
        "encode_s": encode_s, "fingerprint_s": fingerprint_s,
        "problems": problems,
    }
