"""The metric and workload catalogue — the single list ``BENCHMARK.json``,
the runner's output check, ``compare.py`` and the README are held to.

Imports nothing from ``repro``: the runner can describe itself (and
refuse to run) in a directory that holds only the benchmark.
"""

from __future__ import annotations

ALGS = ("raycast", "warnock", "tree_painter", "zbuffer", "painter")
APP_NAMES = ("stencil", "circuit", "pennant")

#: ``--seconds`` at which the sizes equal the issue's; the contract's
#: ``run_seconds`` (20) scales every size by 20/50 = 0.4.
FULL_SECONDS = 50
RUN_SECONDS = 20

#: Repetitions per workload, each in a fresh interpreter.
REPETITIONS = 3

WORKLOADS = {
    "steady_deep": (
        "16 pieces, many iterations, 3 apps x 5 algorithms on one Runtime: "
        "history depth, scan and graph growth dominate; setup and "
        "refinement are negligible"),
    "cold_wide": (
        "64 pieces (128 at full scale), init + 2 iterations, same 15 cells: "
        "refinement, BVH/K-d build and first-touch cache misses dominate; "
        "history depth <= 3"),
    "replicated": (
        "ShardedRuntime(2 shards, process backend).execute over "
        "one-iteration windows: encode/ship, worker IPC, fingerprints, "
        "verification and sharded messages that the stream workloads bypass"),
    "service_mix": (
        "AnalysisService, 5 tenants, 8 pieces x 2 iterations per session, "
        "solo closed-loop then open-loop phase: per-session fixed costs "
        "and queueing outweigh analysis"),
}

# (name, unit, better, bound).  The bound is the driver's: one figure per
# metric for all four workloads, so it is set by the noisiest of them —
# service_mix, whose sessions cross threads and processes on two shared
# cores (see README.md, "How steady").  ``LEDGER_BOUNDS`` holds what each
# workload can be held to on its own; ``compare.py`` uses those.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("tasks_per_s.raycast", "1/s", "higher", 0.25),
    ("tasks_per_s.warnock", "1/s", "higher", 0.25),
    ("tasks_per_s.tree_painter", "1/s", "higher", 0.25),
    ("tasks_per_s.zbuffer", "1/s", "higher", 0.25),
    ("tasks_per_s.painter", "1/s", "higher", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Per-workload regression bounds for ``compare.py``: the issue's 7% /
#: 10% / 15% where the measured spread between runs of one commit stays
#: under a third of that, otherwise three times the measured spread,
#: never above the driver's bound.  ``tasks_per_s`` covers the five
#: per-algorithm metrics.
LEDGER_BOUNDS = {
    "steady_deep": {"tasks_per_s": 0.10, "ops_per_s": 0.07,
                    "op_ms_p50": 0.10, "op_ms_p90": 0.10},
    "cold_wide": {"tasks_per_s": 0.15, "ops_per_s": 0.12,
                  "op_ms_p50": 0.10, "op_ms_p90": 0.15},
    "replicated": {"tasks_per_s": 0.20, "ops_per_s": 0.12,
                   "op_ms_p50": 0.12, "op_ms_p90": 0.15},
    "service_mix": {"tasks_per_s": 0.25, "ops_per_s": 0.25,
                    "op_ms_p50": 0.25, "op_ms_p90": 0.25},
}


def ledger_bound(workload: str, metric: str) -> float:
    """The bound ``compare.py`` holds ``metric`` to on ``workload``."""
    family = metric.split(".")[0]
    driver = {name: bound for name, _, _, bound in END_TO_END}[metric]
    return LEDGER_BOUNDS[workload].get(family, driver)


def _per_layer():
    rows = []
    for alg in ALGS:
        for app in APP_NAMES:
            rows.append((f"visibility.{alg}.{app}.tasks_per_s", "1/s",
                         "higher"))
    for alg in ALGS:
        rows += [
            (f"visibility.{alg}.materialize_us", "us", "lower"),
            (f"visibility.{alg}.commit_us", "us", "lower"),
            (f"visibility.{alg}.entries_scanned_per_task", "count", "lower"),
            (f"visibility.{alg}.intersection_tests_per_task", "count",
             "lower"),
            (f"visibility.{alg}.eqsets_visited_per_task", "count", "lower"),
            (f"visibility.{alg}.init_s", "s", "lower"),
            (f"visibility.{alg}.iter1_s", "s", "lower"),
            (f"visibility.{alg}.iter2_s", "s", "lower"),
        ]
    rows += [
        ("runtime.graph_add_us", "us", "lower"),
        ("runtime.launch_overhead_us", "us", "lower"),
        ("runtime.launch_us_p99", "us", "lower"),
        ("runtime.trace_replay_us", "us", "lower"),
        ("runtime.py_calls_per_task", "count", "lower"),
        ("geometry.batch_overlaps_us", "us", "lower"),
        ("geometry.setop_us", "us", "lower"),
        ("geometry.cache_hit_rate", "%", "higher"),
        ("geometry.cache_evictions", "count", "lower"),
        ("apps.build_s", "s", "lower"),
        ("apps.body_us", "us", "lower"),
        ("distributed.encode_us_per_task", "us", "lower"),
        ("distributed.ship_bytes_per_task", "B", "lower"),
        ("distributed.fingerprint_ms", "ms", "lower"),
        ("distributed.verify_ms", "ms", "lower"),
        ("distributed.analyze_s", "s", "lower"),
        ("distributed.execute_s", "s", "lower"),
        ("distributed.messages_per_task", "count", "lower"),
        ("distributed.replica_skew", "ratio", "lower"),
        ("distributed.serial.tasks_per_s", "1/s", "higher"),
        ("distributed.thread.tasks_per_s", "1/s", "higher"),
        ("distributed.process.tasks_per_s", "1/s", "higher"),
        ("distributed.checkpoints", "count", "lower"),
        ("distributed.recoveries", "count", "lower"),
        ("service.queue_wait_ms_p50", "ms", "lower"),
        ("service.queue_wait_ms_p95", "ms", "lower"),
        ("service.analysis_ms_p50", "ms", "lower"),
        ("service.analysis_ms_p95", "ms", "lower"),
        ("service.slot_build_ms", "ms", "lower"),
        ("service.reject_path_us", "us", "lower"),
        ("service.reject_share.overload", "%", "lower"),
        ("service.rejects.rate", "count", "lower"),
        ("service.rejects.capacity", "count", "lower"),
        ("service.rejects.backpressure", "count", "lower"),
        ("service.degraded_sessions", "count", "lower"),
        ("service.drift_ratio", "ratio", "lower"),
        ("service.closed_sessions_per_s", "1/s", "higher"),
        ("service.loadgen_late_ms_p95", "ms", "lower"),
        ("service.session_ms_p95", "ms", "lower"),
        ("service.session_ms_p95.half_rate", "ms", "lower"),
        ("service.session_ms_p95.double_rate", "ms", "lower"),
        ("service.max_rate_ok", "1/s", "higher"),
        ("service.verify_s", "s", "lower"),
        ("obs.tracer_armed_overhead_pct", "%", "lower"),
        ("bench.trace_overhead_pct", "%", "lower"),
        ("bench.cal_ticks_per_s", "1/s", "higher"),
        ("bench.cal_share", "%", "lower"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()

def benchmark_json() -> dict:
    """The document at the root of the repository, generated from the
    catalogue so the two cannot drift."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
