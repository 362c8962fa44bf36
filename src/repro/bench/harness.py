"""Experiment runner emitting the artifact's measurement schema.

The paper's artifact (appendix A.4) reports one TSV row per run:

    system  nodes  procs_per_node  rep  init_time  elapsed_time

``system`` is ``<algorithm>_<dcr|nodcr>`` (the artifact's ``neweqcr`` is
our ``raycast``, ``oldeqcr`` is ``warnock``, ``paint`` is the optimized
painter).  The simulator is deterministic, so every rep of a configuration
produces identical times; the rep column is kept for schema compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.apps import session_stream
from repro.apps.base import Application
from repro.machine.costmodel import CostModel
from repro.machine.simulator import SimResult, simulate_app
from repro.machine.topology import MachineSpec
from repro.visibility.meter import PhaseProfile

#: The five configurations of section 8's figures, in legend order.
PAPER_CONFIGS: tuple[tuple[str, bool], ...] = (
    ("raycast", True),
    ("raycast", False),
    ("warnock", True),
    ("warnock", False),
    ("tree_painter", False),   # "Paint, No DCR" — predates DCR
)

#: Map from our algorithm names to the artifact's directory names.
ARTIFACT_NAMES = {
    "raycast": "neweqcr",
    "warnock": "oldeqcr",
    "tree_painter": "paint",
    "painter": "paint_naive",
}


@dataclass(frozen=True)
class BenchRow:
    """One TSV row of the artifact schema."""

    system: str
    nodes: int
    procs_per_node: int
    rep: int
    init_time: float
    elapsed_time: float

    def tsv(self) -> str:
        return (f"{self.system}\t{self.nodes}\t{self.procs_per_node}\t"
                f"{self.rep}\t{self.init_time:.6f}\t{self.elapsed_time:.6f}")


def run_sweep(app_factory: Callable[[int], Application],
              node_counts: Sequence[int],
              configs: Sequence[tuple[str, bool]] = PAPER_CONFIGS,
              steady_iterations: int = 3,
              spec: Optional[MachineSpec] = None,
              cost_model: Optional[CostModel] = None
              ) -> dict[tuple[str, int], SimResult]:
    """Run every (config, nodes) cell of one figure's sweep.

    Returns results keyed by (system, nodes); one sweep feeds both the
    initialization figure and the weak-scaling figure of its application.
    """
    out: dict[tuple[str, int], SimResult] = {}
    for nodes in node_counts:
        for algorithm, dcr in configs:
            app = app_factory(nodes)
            result = simulate_app(app, algorithm, dcr=dcr,
                                  steady_iterations=steady_iterations,
                                  spec=spec, cost_model=cost_model)
            out[(result.system, nodes)] = result
    return out


def sweep_to_rows(sweep: dict[tuple[str, int], SimResult],
                  reps: int = 5) -> list[BenchRow]:
    """Expand a sweep into artifact-schema rows.

    The simulator is deterministic; the paper runs 5 reps per job, so we
    emit ``reps`` identical rows per cell to match the schema exactly.
    """
    rows: list[BenchRow] = []
    for (system, nodes), result in sorted(sweep.items()):
        algo, dcr = system.rsplit("_", 1)
        artifact_system = f"{ARTIFACT_NAMES.get(algo, algo)}_{dcr}"
        for rep in range(reps):
            rows.append(BenchRow(
                system=artifact_system, nodes=nodes, procs_per_node=1,
                rep=rep, init_time=result.init_time,
                elapsed_time=result.elapsed_time))
    return rows


def render_rows(rows: Sequence[BenchRow]) -> str:
    """Render rows as the artifact's parse_results.py TSV table."""
    header = "system\tnodes\tprocs_per_node\trep\tinit_time\telapsed_time"
    return "\n".join([header, *(r.tsv() for r in rows)])


# ----------------------------------------------------------------------
# environment block of a benchmark result file
# ----------------------------------------------------------------------
def bench_environment() -> dict:
    """Provenance block stamped into every benchmark result file:
    interpreter, platform, numpy version, CPU count, and the git commit —
    enough to judge whether two results are comparable at all.

    ``commit`` is reported only when this file sits at its place in the
    work tree git resolves: an export unpacked inside some other checkout
    would otherwise be stamped with that checkout's HEAD.
    """
    import os
    import platform
    import subprocess

    import numpy

    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "cpus": os.cpu_count() or 1,
    }
    here = Path(__file__).resolve()
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5, check=False,
            cwd=here.parent)
    except OSError:  # pragma: no cover - no git in the environment
        return env
    top, _, commit = proc.stdout.strip().partition("\n")
    # this file is <tree>/src/repro/bench/harness.py
    if (proc.returncode == 0 and commit
            and Path(top).resolve() == here.parents[3]):
        env["commit"] = commit
    return env


# ----------------------------------------------------------------------
# parallel shard-analysis benchmark (honest wall clock, not simulated)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ParallelAnalysisRow:
    """One backend × shard-count cell of the parallel-analysis bench.

    ``analyze_time``/``verify_time`` are wall-clock seconds from the
    :class:`PhaseProfile`; ``shard_time_max`` is the slowest single
    shard's analysis window; ``ship_bytes`` counts pickled payload moved
    to worker processes; ``speedup`` is serial analyze time over this
    backend's (1.0 for the serial row itself).
    """

    backend: str
    shards: int
    tasks: int
    analyze_time: float
    shard_time_max: float
    verify_time: float
    ship_bytes: int
    speedup: float
    fingerprint: str

    def tsv(self) -> str:
        return (f"{self.backend}\t{self.shards}\t{self.tasks}\t"
                f"{self.analyze_time:.6f}\t{self.shard_time_max:.6f}\t"
                f"{self.verify_time:.6f}\t{self.ship_bytes}\t"
                f"{self.speedup:.3f}\t{self.fingerprint[:16]}")


def run_parallel_analysis(app_factory: Callable[[int], Application],
                          shards: int = 8,
                          backends: Sequence[str] = ("serial", "thread",
                                                     "process"),
                          steady_iterations: int = 3,
                          algorithm: str = "raycast"
                          ) -> list[ParallelAnalysisRow]:
    """Benchmark the replicated shard analysis across execution backends.

    Runs the same application stream through every backend at the given
    shard count, with deterministic-merge verification on; returns one
    row per backend, including the cross-checked analysis fingerprint
    (all rows must agree — the caller should assert it).
    """
    from repro.distributed import ShardedRuntime

    rows: list[ParallelAnalysisRow] = []
    serial_time: Optional[float] = None
    for backend in backends:
        app = app_factory(shards)
        stream = session_stream(app, steady_iterations)
        profile = PhaseProfile()
        with ShardedRuntime(app.tree, app.initial, shards=shards,
                            algorithm=algorithm, backend=backend,
                            profile=profile) as srt:
            reports = srt.analyze(stream)
        analyze = profile.stat("analyze").seconds
        if serial_time is None:
            serial_time = analyze
        rows.append(ParallelAnalysisRow(
            backend=backend, shards=shards, tasks=len(stream),
            analyze_time=analyze,
            shard_time_max=max(r.seconds for r in reports),
            verify_time=profile.stat("verify").seconds,
            ship_bytes=profile.stat("ship").bytes,
            speedup=serial_time / analyze if analyze > 0 else float("inf"),
            fingerprint=reports[0].fingerprint))
    return rows


def render_parallel_rows(rows: Sequence[ParallelAnalysisRow]) -> str:
    """TSV table for the parallel-analysis bench (one row per backend)."""
    header = ("backend\tshards\ttasks\tanalyze_time\tshard_time_max\t"
              "verify_time\tship_bytes\tspeedup\tfingerprint")
    return "\n".join([header, *(r.tsv() for r in rows)])


# ----------------------------------------------------------------------
# chaos-recovery benchmark (seeded fault injection, honest wall clock)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosRow:
    """One fault-rate cell of the chaos-recovery bench.

    ``faults`` counts injected faults the supervisor detected;
    ``recovery_time`` is wall-clock seconds spent inside recovery
    (respawn + restore + replay); ``replayed_tasks`` counts task
    launches re-analyzed during replay; ``matches_baseline`` records
    whether the recovered run reproduced the fault-free fingerprint
    (the whole point — it must always be 1).
    """

    fault_rate: float
    shards: int
    tasks: int
    faults: int
    retries: int
    respawns: int
    replayed_tasks: int
    workers_lost: int
    recovery_time: float
    analyze_time: float
    matches_baseline: int
    fingerprint: str

    def tsv(self) -> str:
        return (f"{self.fault_rate:.3f}\t{self.shards}\t{self.tasks}\t"
                f"{self.faults}\t{self.retries}\t{self.respawns}\t"
                f"{self.replayed_tasks}\t{self.workers_lost}\t"
                f"{self.recovery_time:.6f}\t{self.analyze_time:.6f}\t"
                f"{self.matches_baseline}\t{self.fingerprint[:16]}")


def run_chaos_bench(app_factory: Callable[[int], Application],
                    shards: int = 4,
                    fault_rates: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
                    seed: int = 7,
                    steady_iterations: int = 3,
                    algorithm: str = "raycast",
                    max_workers: Optional[int] = None,
                    recv_timeout: float = 2.0,
                    checkpoint_interval: int = 2
                    ) -> list[ChaosRow]:
    """Benchmark supervised recovery under seeded fault injection.

    Analyzes the same application stream — one iteration window at a
    time, so checkpoints and replay have stream boundaries to work with —
    once per fault rate on the process backend, and compares every
    recovered fingerprint against the fault-free (rate 0) baseline.
    """
    from repro.distributed import FaultPlan, ShardedRuntime

    rows: list[ChaosRow] = []
    baseline: Optional[str] = None
    for rate in fault_rates:
        app = app_factory(shards)
        windows = [session_stream(app, 0)]
        windows += [session_stream(app, 1, include_init=False)
                    for _ in range(steady_iterations)]
        faults = FaultPlan(seed=seed, rate=rate)
        profile = PhaseProfile()
        tasks = 0
        with ShardedRuntime(app.tree, app.initial, shards=shards,
                            algorithm=algorithm, backend="process",
                            max_workers=max_workers, profile=profile,
                            faults=faults, recv_timeout=recv_timeout,
                            checkpoint_interval=checkpoint_interval) as srt:
            for stream in windows:
                tasks += len(stream)
                reports = srt.analyze(stream)
            recovery = srt.recovery
        fingerprint = reports[0].fingerprint
        if baseline is None:
            baseline = fingerprint
        rows.append(ChaosRow(
            fault_rate=rate, shards=shards, tasks=tasks,
            faults=recovery.total_faults, retries=recovery.retries,
            respawns=recovery.respawns,
            replayed_tasks=recovery.replayed_tasks,
            workers_lost=recovery.workers_lost,
            recovery_time=recovery.recovery_seconds,
            analyze_time=profile.stat("analyze").seconds,
            matches_baseline=int(fingerprint == baseline),
            fingerprint=fingerprint))
    return rows


def render_chaos_rows(rows: Sequence[ChaosRow]) -> str:
    """TSV table for the chaos-recovery bench (one row per fault rate)."""
    header = ("fault_rate\tshards\ttasks\tfaults\tretries\trespawns\t"
              "replayed_tasks\tworkers_lost\trecovery_time\tanalyze_time\t"
              "matches_baseline\tfingerprint")
    return "\n".join([header, *(r.tsv() for r in rows)])
