"""Parallel shard-analysis executor benchmark (honest wall clock).

Unlike the figure benchmarks — which replay metered operation counts onto
a *simulated* machine — this one measures real elapsed time: the same
8-shard stencil stream analyzed by the serial, thread and process
backends with deterministic-merge verification on.  It writes
``parallel_analysis.tsv`` with per-phase perf counters (analysis wall
clock, slowest shard window, merge/verify time, pickled bytes shipped)
and asserts the cross-backend determinism contract on every run; the
process-beats-serial wall-clock assertion additionally requires real
parallel hardware (≥ 2 usable cores) — on a single core all backends
time-slice the same CPU and only overheads differ.  It compares each
backend's best of :data:`ROUNDS` rounds: on two cores eight process
shards share the CPU with the driver, and one sample's order flips with
the load of the moment.  The table holds the first round.
"""

from __future__ import annotations

import os

import pytest

from repro.apps import APPS
from repro.bench.harness import render_parallel_rows, run_parallel_analysis

from benchmarks.conftest import write_result

SHARDS = 8
BACKENDS = ("serial", "thread", "process")
ROUNDS = 3


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@pytest.mark.benchmark(group="parallel-analysis")
def test_parallel_analysis_backends(benchmark):
    rounds = benchmark.pedantic(
        lambda: [run_parallel_analysis(
            lambda shards: APPS["stencil"](pieces=shards),
            shards=SHARDS, backends=BACKENDS) for _ in range(ROUNDS)],
        rounds=1, iterations=1)
    text = render_parallel_rows(rounds[0])
    print("\n" + text)
    write_result("parallel_analysis.tsv", text)

    rows = [row for rows in rounds for row in rows]
    # determinism contract: every backend reaches the identical analysis
    assert len({row.fingerprint for row in rows}) == 1, rows
    assert all(row.ship_bytes > 0 for row in rows
               if row.backend == "process")
    assert all(row.verify_time > 0 for row in rows)

    best = {backend: min(row.analyze_time for row in rows
                         if row.backend == backend)
            for backend in BACKENDS}
    if _usable_cores() >= 2:
        assert best["process"] < best["serial"], (
            f"process backend should beat serial on parallel hardware "
            f"(best of {ROUNDS} rounds: {best}): " + text)
