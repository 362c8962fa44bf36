"""Microbenchmarks: real wall-clock analysis throughput per algorithm.

Unlike the figure benchmarks (which replay metered costs onto simulated
clocks), these measure the actual Python execution time of one steady
iteration of analysis per algorithm — an honest like-for-like comparison
of this implementation's constants.  At this single-process scale the
painter is clearly slowest; Warnock and ray casting are within a small
factor of each other (Warnock's domain-aligned histories have lower
per-entry constants, ray casting's sub-domain entries pay for index
arithmetic).  The *distributed* advantages of ray casting — fewer sets,
no centralized structures, stable steady state — are what the figure
benchmarks measure.
"""

import time
from pathlib import Path

import pytest

from repro import Runtime
from repro.apps import CircuitApp
from repro.geometry.fastpath import reset_geometry_cache

PIECES = 32
ALGOS = ("tree_painter", "warnock", "raycast", "painter")
RESULTS_DIR = Path(__file__).resolve().parent / "results"


@pytest.mark.parametrize("algorithm", ALGOS)
def test_steady_iteration_analysis(benchmark, algorithm):
    app = CircuitApp(pieces=PIECES, nodes_per_piece=16, wires_per_piece=24)
    rt = Runtime(app.tree, app.initial, algorithm=algorithm)
    rt.replay(app.init_stream())
    rt.replay(app.iteration_stream())  # warm up structures and memos

    benchmark(rt.replay, app.iteration_stream())


@pytest.mark.parametrize("algorithm", ("warnock", "raycast"))
def test_cold_start_analysis(benchmark, algorithm):
    """First-iteration (structure-building) cost: the initialization
    figures' microscopic counterpart."""
    app = CircuitApp(pieces=PIECES, nodes_per_piece=16, wires_per_piece=24)

    def cold():
        rt = Runtime(app.tree, app.initial, algorithm=algorithm)
        rt.replay(app.init_stream())
        rt.replay(app.iteration_stream())

    benchmark.pedantic(cold, rounds=5, iterations=1)


# ----------------------------------------------------------------------
# order labels: O(1) soundness checks on a long steady-state stream
# (>= 2k tasks)
# ----------------------------------------------------------------------
PREC_PIECES = 32
PREC_ITERATIONS = 32  # 32 init + 32 * 64 steady tasks = 2080 >= 2k
_PREC_CACHE: dict = {}


def _precedence_data() -> dict:
    """Analyze a 2080-task Stencil stream, then time the closure
    soundness check answered by order labels vs. plain BFS.  Built once
    and shared by the smoke test and the bench-document emission (the
    runtime is the expensive part)."""
    if _PREC_CACHE:
        return _PREC_CACHE
    from repro import DependenceGraph
    from repro.apps import StencilApp

    app = StencilApp(pieces=PREC_PIECES, tile=2)
    rt = Runtime(app.tree, app.initial, algorithm="raycast")
    rt.replay(app.init_stream())
    for _ in range(PREC_ITERATIONS):
        rt.replay(app.iteration_stream())

    # "Are all these known-true orderings present transitively?" over
    # every direct edge.  The label-backed graph answers each pair with
    # O(1) bit tests; the BFS graph re-walks ancestors.
    pairs = [(dep, tid) for tid in rt.graph.task_ids
             for dep in rt.graph.dependences_of(tid)]
    reps = 3
    t0 = time.perf_counter()
    for _ in range(reps):
        assert rt.graph.missing_pairs(pairs) == []
    labels_s = (time.perf_counter() - t0) / reps

    bfs_graph = DependenceGraph()
    bfs_graph.add_task(-1, [])  # a negative id drops the labels: BFS only
    for tid in rt.graph.task_ids:
        bfs_graph.add_task(tid, rt.graph.dependences_of(tid))
    t0 = time.perf_counter()
    assert bfs_graph.missing_pairs(pairs) == []
    bfs_s = time.perf_counter() - t0

    _PREC_CACHE.update(tasks=len(rt.tasks), labels_s=labels_s, bfs_s=bfs_s,
                       pairs=len(pairs))
    return _PREC_CACHE


def test_precedence_soundness_smoke():
    """On the 2080-task stream the label-backed soundness check must beat
    repeated BFS."""
    data = _precedence_data()
    assert data["tasks"] >= 2000
    assert data["labels_s"] < data["bfs_s"], (
        f"labels {data['labels_s']:.4f}s vs bfs {data['bfs_s']:.4f}s")
    print(f"precedence: {data['tasks']} tasks, soundness "
          f"({data['pairs']} pairs) labels "
          f"{data['labels_s'] * 1e3:.2f}ms vs bfs "
          f"{data['bfs_s'] * 1e3:.2f}ms "
          f"({data['bfs_s'] / max(data['labels_s'], 1e-9):.0f}x)")


# ----------------------------------------------------------------------
# columnar histories: one whole-history scan on the vector front-end
# ----------------------------------------------------------------------
COLUMNAR_ENTRIES = 2048
COLUMNAR_REPS = 5
_COLUMNAR_CACHE: dict = {}


def _columnar_scan_data() -> dict:
    """Time one whole-history dependence scan over a long reduction
    history (Pennant's ``dt`` pattern: one write, then same-operator
    reductions forever)."""
    if _COLUMNAR_CACHE:
        return _COLUMNAR_CACHE
    import numpy as np
    from repro.geometry.index_space import IndexSpace
    from repro.privileges import READ_WRITE, reduce as reduce_priv
    from repro.visibility.history import (ColumnarHistory, HistoryEntry,
                                          RegionValues, scan_dependences)
    from repro.visibility.meter import CostMeter

    n = 4096
    root = IndexSpace.from_indices(range(n))
    entries = [HistoryEntry(READ_WRITE, root,
                            RegionValues(root, np.zeros(n)), 0)]
    priv = reduce_priv("sum")
    for i in range(1, COLUMNAR_ENTRIES):
        lo = (i * 17) % (n - 64)
        dom = IndexSpace.from_indices(range(lo, lo + 64))
        entries.append(HistoryEntry(priv, dom,
                                    RegionValues(dom, np.ones(64)), i))
    history = ColumnarHistory(entries)
    query = IndexSpace.from_indices(range(128, 256))

    reset_geometry_cache()
    meter = CostMeter()
    scan_dependences(priv, query, history, set(), meter)  # warm
    t0 = time.perf_counter()
    for _ in range(COLUMNAR_REPS):
        deps: set = set()
        scan_dependences(priv, query, history, deps, meter)
    seconds = (time.perf_counter() - t0) / COLUMNAR_REPS
    reset_geometry_cache()
    _COLUMNAR_CACHE.update(deps=deps, meter=meter.snapshot(),
                           seconds=seconds, entries=len(history))
    return _COLUMNAR_CACHE


def test_columnar_scan_smoke():
    """Only the opening write interferes with a same-operator reduction:
    one dependence, one intersection test per scan, every entry
    counted."""
    data = _columnar_scan_data()
    scans = COLUMNAR_REPS + 1
    assert data["deps"] == {0}
    assert data["meter"] == {"entries_scanned": scans * COLUMNAR_ENTRIES,
                             "intersection_tests": scans}
    print(f"columnar_scan: {data['entries']} entries, "
          f"{data['seconds'] * 1e3:.3f}ms")


# ----------------------------------------------------------------------
# machine-readable bench document + soft gate (runs in smoke mode too)
# ----------------------------------------------------------------------
def test_bench_json_emission():
    """Emit ``BENCH_micro_analysis.json`` — one timed steady-iteration
    row per algorithm, self-describing environment block — validate it
    through the gate loader, and self-compare (a document must always
    pass the gate against itself).  CI uploads the file as an artifact
    and soft-gates it against ``benchmarks/baseline.json``."""
    from repro.bench.gate import compare, load_bench
    from repro.bench.harness import BENCH_SCHEMA_ID, write_bench_json

    app = CircuitApp(pieces=8, nodes_per_piece=8, wires_per_piece=12)
    rows = []
    for algorithm in ALGOS:
        rt = Runtime(app.tree, app.initial, algorithm=algorithm)
        rt.replay(app.init_stream())
        rt.replay(app.iteration_stream())  # warm structures and memos
        stream = app.iteration_stream()
        t0 = time.perf_counter()
        rt.replay(stream)
        seconds = time.perf_counter() - t0
        rows.append({"name": f"steady_iteration[{algorithm}]",
                     "seconds": seconds, "tasks": len(rt.tasks)})

    # the labels-vs-BFS soundness-check timing (the measured O(1)-precedes
    # speedup on a >= 2k-task stream)
    prec = _precedence_data()
    rows.append({"name": "precedence_soundness[labels]",
                 "seconds": prec["labels_s"], "pairs": prec["pairs"]})
    rows.append({"name": "precedence_soundness[bfs]",
                 "seconds": prec["bfs_s"], "pairs": prec["pairs"]})

    col = _columnar_scan_data()
    rows.append({"name": "columnar_scan[columnar]",
                 "seconds": col["seconds"], "entries": col["entries"]})

    out = write_bench_json(RESULTS_DIR / "BENCH_micro_analysis.json",
                           "micro_analysis", rows,
                           extra={"pieces": 8, "iterations": 1})
    doc = load_bench(out)
    assert doc["schema"] == BENCH_SCHEMA_ID
    assert doc["bench"] == "micro_analysis"
    assert {row["name"] for row in doc["rows"]} \
        == ({f"steady_iteration[{a}]" for a in ALGOS}
            | {"precedence_soundness[labels]", "precedence_soundness[bfs]",
               "columnar_scan[columnar]"})
    assert all(row["seconds"] > 0 for row in doc["rows"])
    assert "python" in doc["environment"]

    self_gate = compare(doc, doc)
    assert all(r.status == "ok" for r in self_gate), self_gate
