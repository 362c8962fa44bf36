"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``demo``
    Run the paper's Figure 1 program and show the region tree, coherent
    results, and discovered parallel waves.
``validate``
    Replay a benchmark application through every coherence algorithm and
    the sequential reference, checking value equivalence and dependence
    soundness (the DESIGN.md obligations).
``figure``
    Regenerate one of the paper's figures (fig12–fig17) on the machine
    simulator and print its table.
``artifact``
    Print the artifact appendix A.4 TSV table for one application.
``inspect``
    Run an application under one algorithm and dump its structures:
    equivalence-set map, cost-meter summary, and optional DOT graph.
``analyze``
    Run the control-replicated dependence analysis of an application on
    a parallel backend (``--parallel N``), verify the deterministic
    merge, and optionally print per-phase perf counters (``--profile``),
    write a Perfetto trace (``--trace-out FILE.json``), or report the
    longest weighted path through the task DAG (``--critical-path``).
``prof``
    Analyze a recorded trace file offline: span summary per category,
    per-phase duration histograms, recovery incidents, critical path.
``explain``
    Re-run an application with the tracer recording witnesses and print
    the witness chain behind one task's dependences: which history
    entry, equivalence set, or Z-buffer cell produced each edge, and
    which candidate edges were pruned (and why).
``census``
    Run an application and print the analysis-state census: per-field
    equivalence-set count/size/history distributions, composite-view
    compaction, occlusion kill rates (``--json`` for the
    schema-validated document).
``census-diff``
    Structurally diff two census JSON documents; exit 1 when they
    differ.
``serve``
    Boot the always-on multi-tenant analysis service and drive it with
    the seeded load generator: admission control, backpressure,
    deadlines, circuit-breaker degradation, and (``--verify``) the
    cold-replay fingerprint differential over every completed session.
    ``--chaos SEED`` injects seeded worker faults while tenants are
    live; ``--telemetry-out DIR`` streams registry readings and SLO
    burn-rate alerts as size-rotated trace-event segments;
    ``--flight-out DIR`` arms the flight recorder, which dumps an
    incident trace when an SLO fires, a breaker opens, a deadline
    expires, or a worker fault recovers.
``top``
    Terminal dashboard over a telemetry stream (live-follow or
    ``--once`` snapshot): per-tenant QPS, queue depth, windowed latency
    percentiles, breaker/degradation state, and firing SLO alerts.
``blackbox``
    Render a flight-recorder dump as an incident report: trigger,
    configuration, event timeline, critical path over the captured
    spans, slowest exemplars, and ``repro explain`` cross-links.

``prof``, ``top`` and ``blackbox`` are views over one file kind, the
trace-event file every obs writer produces, with one error contract:
exit 2 when the file is missing, exit 1 when it is invalid.
``doctor``
    Print every ``REPRO_*`` escape hatch with its current in-effect
    value and origin (environment override vs default).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Visibility algorithms for dynamic dependence analysis "
                    "and distributed coherence (PPoPP'23 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="run the Figure 1 program")

    val = sub.add_parser("validate", help="cross-check all algorithms")
    val.add_argument("--app", choices=["stencil", "circuit", "pennant"],
                     default="circuit")
    val.add_argument("--pieces", type=int, default=4)
    val.add_argument("--iterations", type=int, default=3)

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("figure", choices=[f"fig{i}" for i in range(12, 18)])
    fig.add_argument("--max-nodes", type=int, default=64)
    fig.add_argument("--iterations", type=int, default=3)
    fig.add_argument("--plot", action="store_true",
                     help="also render an ASCII log-log plot")

    art = sub.add_parser("artifact", help="print the A.4 artifact table")
    art.add_argument("--app", choices=["stencil", "circuit", "pennant"],
                     default="stencil")
    art.add_argument("--reps", type=int, default=5)

    ins = sub.add_parser("inspect", help="dump one algorithm's structures")
    ins.add_argument("--app", choices=["stencil", "circuit", "pennant"],
                     default="circuit")
    ins.add_argument("--algorithm",
                     choices=["painter", "tree_painter", "warnock",
                              "raycast", "zbuffer"], default="raycast")
    ins.add_argument("--pieces", type=int, default=4)
    ins.add_argument("--iterations", type=int, default=2)
    ins.add_argument("--dot", action="store_true",
                     help="emit the dependence graph as Graphviz DOT")

    ana = sub.add_parser("analyze",
                         help="replicated analysis on a parallel backend")
    ana.add_argument("--app", choices=["stencil", "circuit", "pennant"],
                     default="stencil")
    ana.add_argument("--algorithm",
                     choices=["painter", "tree_painter", "warnock",
                              "raycast", "zbuffer"], default="raycast")
    ana.add_argument("--pieces", type=int, default=4)
    ana.add_argument("--iterations", type=int, default=3)
    ana.add_argument("--shards", type=int, default=4,
                     help="control-replicated shard count")
    ana.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="analysis workers (1 = serial backend)")
    ana.add_argument("--backend", choices=["serial", "thread", "process"],
                     default=None,
                     help="force a backend (default: process when "
                          "--parallel > 1, else serial)")
    ana.add_argument("--profile", action="store_true",
                     help="print per-phase perf counters")
    ana.add_argument("--chaos", type=int, default=None, metavar="SEED",
                     help="chaos mode: inject seeded deterministic worker "
                          "faults (crashes, hangs, corrupt replies) and "
                          "recover; forces the process backend")
    ana.add_argument("--fault-rate", type=float, default=0.05, metavar="P",
                     help="per-request fault probability in chaos mode "
                          "(default 0.05)")
    ana.add_argument("--trace-out", default=None, metavar="FILE",
                     help="write a Chrome trace-event / Perfetto JSON "
                          "timeline of the run to FILE")
    ana.add_argument("--critical-path", action="store_true",
                     help="print the longest weighted path through the "
                          "analyzed task DAG with per-task and per-phase "
                          "attribution")
    ana.add_argument("--recv-timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="supervised receive timeout (default: 60, or 2 "
                          "in chaos mode so injected hangs recover fast)")

    prof = sub.add_parser("prof",
                          help="analyze a recorded trace file: span "
                               "summary, per-phase histograms, critical "
                               "path")
    prof.add_argument("trace", help="trace-event file or directory "
                                    "(analyze --trace-out, serve "
                                    "--telemetry-out or --flight-out)")
    prof.add_argument("--top", type=int, default=10, metavar="K",
                      help="rows in the critical-path table (default 10)")

    def _run_args(p) -> None:
        p.add_argument("--app", choices=["stencil", "circuit", "pennant"],
                       default="circuit")
        p.add_argument("--algorithm",
                       choices=["painter", "tree_painter", "warnock",
                                "raycast", "zbuffer"], default="raycast")
        p.add_argument("--pieces", type=int, default=4)
        p.add_argument("--iterations", type=int, default=2)

    exp = sub.add_parser("explain",
                         help="explain why one task's dependence edges "
                              "exist (witness chains + pruned candidates)")
    exp.add_argument("task", type=int, metavar="TASK_ID",
                     help="task id to explain (program order, 0-based)")
    exp.add_argument("--edge", default=None, metavar="SRC:DST",
                     help="restrict to one edge; DST must equal TASK_ID")
    _run_args(exp)

    cen = sub.add_parser("census",
                         help="census the analysis state after a run")
    cen.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the schema-validated JSON document")
    _run_args(cen)

    cdf = sub.add_parser("census-diff",
                         help="diff two census JSON documents")
    cdf.add_argument("old", help="baseline census JSON file")
    cdf.add_argument("new", help="census JSON file to compare")

    rep = sub.add_parser("report",
                         help="assemble benchmark results into markdown")
    rep.add_argument("--results", default="benchmarks/results",
                     help="directory of result TSVs")
    rep.add_argument("--output", default=None,
                     help="write to a file instead of stdout")

    srv = sub.add_parser("serve",
                         help="boot the multi-tenant analysis service and "
                              "drive it with the seeded load generator")
    srv.add_argument("--backend", choices=["serial", "thread", "process"],
                     default="process",
                     help="backend for tenant runtime slots (default: "
                          "process)")
    srv.add_argument("--shards", type=int, default=2,
                     help="shards per tenant runtime (default 2)")
    srv.add_argument("--tenants", type=int, default=3,
                     help="concurrent tenants in the load schedule")
    srv.add_argument("--sessions", type=int, default=24,
                     help="total sessions across all tenants")
    srv.add_argument("--pieces", type=int, default=4)
    srv.add_argument("--iterations", type=int, default=1,
                     help="analysis iterations per session")
    srv.add_argument("--seed", type=int, default=0,
                     help="load-schedule seed (same seed, same schedule)")
    srv.add_argument("--skew", type=float, default=1.0,
                     help="zipf skew over tenant ranks (0 = uniform)")
    srv.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="per-session deadline budget")
    srv.add_argument("--rate", type=float, default=50.0,
                     help="per-tenant admission tokens per second")
    srv.add_argument("--burst", type=float, default=16.0,
                     help="per-tenant admission burst size")
    srv.add_argument("--max-inflight", type=int, default=8,
                     help="global inflight session cap")
    srv.add_argument("--queue-limit", type=int, default=8,
                     help="per-tenant queue bound")
    srv.add_argument("--chaos", type=int, default=None, metavar="SEED",
                     help="inject seeded worker faults into the tenant "
                          "process pools (forces the process backend)")
    srv.add_argument("--fault-rate", type=float, default=0.05, metavar="P",
                     help="per-request fault probability in chaos mode")
    srv.add_argument("--verify", action="store_true",
                     help="cold-replay every completed session and "
                          "require bit-identical fingerprints (exit 1 "
                          "on any mismatch)")
    srv.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the load summary as JSON")
    srv.add_argument("--telemetry-out", default=None, metavar="DIR",
                     help="stream registry readings + SLO burn-rate "
                          "alerts into DIR as size-rotated trace-event "
                          "segments (render with 'repro top DIR')")
    srv.add_argument("--telemetry-interval", type=float, default=1.0,
                     metavar="SECONDS",
                     help="telemetry sampling period (default 1.0)")
    srv.add_argument("--flight-out", default=None, metavar="DIR",
                     help="arm the flight recorder: bounded rings of "
                          "recent spans/instants/ledger events, dumped "
                          "as a trace-event file into DIR when an "
                          "SLO fires, a breaker opens, a deadline "
                          "expires, or a fault recovers (render with "
                          "'repro blackbox FILE'; REPRO_PROVENANCE=1 "
                          "adds dependence witnesses to the spans)")
    srv.add_argument("--flight-cooldown", type=float, default=5.0,
                     metavar="SECONDS",
                     help="minimum seconds between flight-recorder "
                          "dumps (default 5.0)")

    top = sub.add_parser("top",
                         help="terminal dashboard over a telemetry "
                              "stream: per-tenant QPS, queue depth, "
                              "windowed latency percentiles, breaker "
                              "state, firing SLO alerts")
    top.add_argument("path", metavar="DIR_OR_FILE",
                     help="telemetry directory (or one segment) "
                          "written by serve --telemetry-out")
    top.add_argument("--window", default="1m",
                     choices=["10s", "1m", "5m"],
                     help="sliding window to aggregate over (default 1m)")
    top.add_argument("--width", type=int, default=100,
                     help="terminal width to render at (default 100)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (tests/CI)")
    top.add_argument("--refresh", type=float, default=1.0,
                     metavar="SECONDS",
                     help="live repaint period (default 1.0)")

    bbx = sub.add_parser("blackbox",
                         help="render a flight-recorder incident dump "
                              "(timeline, critical path, exemplar "
                              "offenders, explain cross-links)")
    bbx.add_argument("dump", metavar="FILE",
                     help="incident dump written by serve --flight-out")
    bbx.add_argument("--top", type=int, default=5, metavar="K",
                     help="rows in the critical-path and exemplar "
                          "tables (default 5)")

    sub.add_parser("doctor",
                   help="print every REPRO_* escape hatch with its "
                        "in-effect value and origin")
    return parser


def _make_app(name: str, pieces: int):
    from repro.apps import APPS
    return APPS[name](pieces=pieces)


def _full_stream(app, iterations: int):
    from repro.runtime.task import TaskStream
    stream = TaskStream()
    stream.extend_from(app.init_stream())
    for _ in range(iterations):
        stream.extend_from(app.iteration_stream())
    return stream


def _cmd_demo() -> int:
    from repro import (READ_WRITE, Extent, IndexSpace, RegionRequirement,
                       RegionTree, Runtime, reduce)
    from repro.analysis.render import render_region_tree, render_waves

    tree = RegionTree(Extent((12,)), {"up": np.float64, "down": np.float64},
                      name="N")
    P = tree.root.create_partition(
        "P", [IndexSpace.from_range(i * 4, (i + 1) * 4) for i in range(3)],
        disjoint=True, complete=True)
    G = tree.root.create_partition(
        "G", [IndexSpace.from_indices([3, 4]),
              IndexSpace.from_indices([0, 7, 8]),
              IndexSpace.from_indices([0, 4, 11])])
    print(render_region_tree(tree))
    rt = Runtime(tree, {"up": np.arange(12.0), "down": np.zeros(12)})

    def t1(p, g):
        p += 1.0
        g += 2.0

    def t2(p, g):
        p *= 0.5
        g += 3.0

    for _ in range(2):
        for i in range(3):
            rt.launch(f"t1[{i}]",
                      [RegionRequirement(P[i], "up", READ_WRITE),
                       RegionRequirement(G[i], "down", reduce("sum"))],
                      t1, point=i)
        for i in range(3):
            rt.launch(f"t2[{i}]",
                      [RegionRequirement(P[i], "down", READ_WRITE),
                       RegionRequirement(G[i], "up", reduce("sum"))],
                      t2, point=i)
    print(f"\nup   = {rt.read_field('up')}")
    print(f"down = {rt.read_field('down')}\n")
    print(render_waves(rt.tasks, rt.graph))
    return 0


def _cmd_validate(args) -> int:
    from repro.analysis import compare_algorithms, profile_graph

    app = _make_app(args.app, args.pieces)
    stream = _full_stream(app, args.iterations)
    print(f"validating {args.app} ({args.pieces} pieces, "
          f"{len(stream)} tasks) across all algorithms...")
    runs = compare_algorithms(app.tree, app.initial, stream, exact=False)
    for name, run in runs.items():
        print(f"  {name:>14}: values ✓  dependences ✓  "
              f"[{profile_graph(run.graph)}]")
    print("all algorithms agree with the sequential reference")
    return 0


def _cmd_figure(args) -> int:
    from repro.bench.figures import (FIGURES, PAPER_NODE_COUNTS, check_shape,
                                     figure_series, render_series)
    from repro.bench.harness import run_sweep

    spec = FIGURES[args.figure]
    nodes = tuple(n for n in PAPER_NODE_COUNTS if n <= args.max_nodes)
    print(f"sweeping {spec.app} across {nodes} nodes...", file=sys.stderr)
    sweep = run_sweep(spec.app_factory, nodes,
                      steady_iterations=args.iterations)
    series = figure_series(spec, sweep)
    print(render_series(spec, series))
    if args.plot:
        from repro.bench.plots import plot_figure
        print()
        print(plot_figure(spec, series))
    problems = check_shape(spec, sweep)
    if problems:
        print(f"shape violations: {problems}", file=sys.stderr)
        return 1
    print("# shape claims of section 8: OK", file=sys.stderr)
    return 0


def _cmd_artifact(args) -> int:
    from repro.bench.figures import FIGURES
    from repro.bench.harness import render_rows, run_sweep, sweep_to_rows

    spec = next(s for s in FIGURES.values() if s.app == args.app)
    sweep = run_sweep(spec.app_factory, (1, 2))
    print(render_rows(sweep_to_rows(sweep, reps=args.reps)))
    return 0


#: One line per census kind (``CoherenceAlgorithm.describe``).
_INSPECT_LINES = {
    "eqsets": "{count} equivalence sets",
    "tree_painter": "{total_items} history items",
    "painter": "{history_length} history entries",
    "zbuffer": "{interned_sets} interned access sets (z-buffer)",
}


def _cmd_inspect(args) -> int:
    from repro import Runtime
    from repro.analysis.render import (dependence_dot, render_eqset_map,
                                       summarize_costs)

    app = _make_app(args.app, args.pieces)
    rt = Runtime(app.tree, app.initial, algorithm=args.algorithm)
    rt.replay(_full_stream(app, args.iterations))
    if args.dot:
        print(dependence_dot(rt.tasks, rt.graph, title=args.app))
        return 0
    print(f"{args.app} under {args.algorithm} "
          f"({args.pieces} pieces, {args.iterations} iterations)\n")
    for field in app.tree.field_space.names:
        algo = rt.algorithm_for(field)
        state = algo.describe()
        print(f"field {field!r}: "
              + _INSPECT_LINES[state["kind"]].format(**state))
        if state["kind"] == "eqsets":
            print(render_eqset_map(algo))
        print()
    print("metered operations:")
    print(summarize_costs(rt.meter.counters))
    return 0


def _cmd_analyze(args) -> int:
    import os
    import time

    from repro import obs
    from repro.distributed import (DeterminismError, FaultPlan,
                                   ShardedRuntime)
    from repro.errors import MachineError
    from repro.geometry.fastpath import geometry_cache
    from repro.runtime.tracing import signature_digest

    backend = args.backend
    if backend is None:
        backend = "process" if args.parallel > 1 else "serial"
    faults = None
    recv_timeout = args.recv_timeout if args.recv_timeout is not None \
        else 60.0
    if args.chaos is not None:
        if args.backend not in (None, "process"):
            print("error: --chaos requires the process backend",
                  file=sys.stderr)
            return 2
        backend = "process"
        faults = FaultPlan(seed=args.chaos, rate=args.fault_rate)
        if args.recv_timeout is None:
            recv_timeout = 2.0
    app = _make_app(args.app, args.pieces)
    stream = _full_stream(app, args.iterations)
    workers = (f", {args.parallel} workers"
               if args.parallel > 1 and backend != "serial" else "")
    chaos = (f", chaos seed {args.chaos} rate {args.fault_rate}"
             if faults is not None else "")
    print(f"analyzing {args.app} ({args.pieces} pieces, {len(stream)} "
          f"tasks, stream {signature_digest(stream)[:12]}) under "
          f"{args.algorithm}: {args.shards} shards, {backend} backend"
          + workers + chaos)
    tracing = bool(args.trace_out or args.critical_path)
    previous_tracer = obs.set_tracer(obs.Tracer()) if tracing else None
    try:
        with ShardedRuntime(app.tree, app.initial, shards=args.shards,
                            algorithm=args.algorithm, backend=backend,
                            max_workers=args.parallel, faults=faults,
                            recv_timeout=recv_timeout) as srt:
            try:
                analyze_start = time.perf_counter()
                reports = srt.analyze(stream)
                analyze_seconds = time.perf_counter() - analyze_start
            except DeterminismError as exc:
                print(f"DIVERGED: {exc}", file=sys.stderr)
                for divergence in exc.divergences:
                    print(f"  {divergence}", file=sys.stderr)
                return 1
            for report in reports:
                print(f"  shard {report.shard}: fingerprint "
                      f"{report.fingerprint[:16]}  "
                      f"analysis {report.seconds:.4f}s")
            graph = srt.graph
            print(f"merge verified: {len(reports)} identical analyses "
                  f"({len(graph)} tasks, {graph.edge_count()} edges, "
                  f"critical path {graph.critical_path_length()})")
            if srt.recovery is not None and (faults is not None
                                             or srt.recovery.has_activity):
                print(f"recovery: {srt.recovery.render()}")
            if args.profile:
                print()
                print(srt.profile.render())
                print(geometry_cache().render())
            if tracing:
                buffer = obs.active_tracer().snapshot()
                if args.trace_out:
                    registry = obs.MetricsRegistry()
                    registry.publish(
                        "meter", srt.backend.reference.meter.snapshot())
                    for phase, stat in srt.profile.snapshot().items():
                        registry.publish("profile", vars(stat),
                                         gauges=("seconds",), phase=phase)
                    registry.publish("geom.cache", geometry_cache().stats(),
                                     gauges=("interned", "entries"))
                    if srt.recovery is not None:
                        registry.publish("recovery", srt.recovery.counters(),
                                         gauges=("seconds",))
                    seconds_hist = registry.histogram(
                        "analysis.shard_seconds")
                    for report in reports:
                        seconds_hist.observe(report.seconds)
                    path = obs.write_trace(args.trace_out, buffer, registry)
                    print(f"trace written: {path} ({len(buffer.spans)} "
                          f"spans, {len(buffer.instants)} instants)")
                if args.critical_path:
                    crit = obs.critical_path(buffer.spans, graph=graph)
                    print()
                    print(crit.render(top_k=10))
                    print(f"(analyze wall-clock: {analyze_seconds:.6f}s)")
    except MachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if previous_tracer is not None:
            obs.set_tracer(previous_tracer)
    return 0


def _view(render) -> int:
    """Run one view over a trace file with the views' error contract:
    exit 2 when the file is missing, 1 when it is invalid."""
    from repro.errors import MachineError

    try:
        return render()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, MachineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_prof(args) -> int:
    from repro import obs
    from repro.obs.metrics import Histogram

    raw, spans = obs.load_trace(args.trace)
    events = raw["traceEvents"]
    instants = [e for e in events if e.get("ph") == "i"]
    print(f"{args.trace}: {len(events)} events, {len(spans)} spans, "
          f"{len(instants)} instants")

    # per-category summary + duration histogram
    by_cat: dict[str, list] = {}
    for span in spans:
        by_cat.setdefault(span.category or "uncategorized",
                          []).append(span)
    rows = [("category", "spans", "seconds")]
    for cat in sorted(by_cat):
        total = sum(s.duration for s in by_cat[cat])
        rows.append((cat, str(len(by_cat[cat])), f"{total:.6f}"))
    widths = [max(len(r[k]) for r in rows) for k in range(3)]
    for row in rows:
        print("  " + "  ".join(
            col.ljust(w) if k == 0 else col.rjust(w)
            for k, (col, w) in enumerate(zip(row, widths))))
    print()
    print("span-duration histograms:")
    for cat in sorted(by_cat):
        hist = Histogram(cat, {})
        for span in by_cat[cat]:
            hist.observe(span.duration)
        print(f"{cat}:")
        print(hist.render())
    if instants:
        print()
        print("instant events:")
        for event in instants:
            detail = {k: v for k, v in (event.get("args") or {}).items()}
            print(f"  {event['ts'] / 1e6:.6f}s  {event['name']}  {detail}")
    print()
    print(obs.critical_path(spans).render(top_k=args.top))
    return 0


def _cmd_explain(args) -> int:
    from repro import Runtime, obs
    from repro.obs import provenance as prov

    edge = None
    if args.edge is not None:
        try:
            src_s, dst_s = args.edge.split(":")
            edge = (int(src_s), int(dst_s))
        except ValueError:
            print(f"error: --edge wants SRC:DST, got {args.edge!r}",
                  file=sys.stderr)
            return 2
        if edge[1] != args.task:
            print(f"error: --edge destination {edge[1]} is not the "
                  f"explained task {args.task}", file=sys.stderr)
            return 2
    app = _make_app(args.app, args.pieces)
    stream = _full_stream(app, args.iterations)
    if not 0 <= args.task < len(stream):
        print(f"error: task id {args.task} out of range "
              f"(stream has {len(stream)} tasks)", file=sys.stderr)
        return 2
    tracer = obs.Tracer(witnesses=True)
    previous = obs.set_tracer(tracer)
    try:
        rt = Runtime(app.tree, app.initial, algorithm=args.algorithm)
        rt.replay(stream)
    finally:
        obs.set_tracer(previous)
    deps = sorted(rt.graph.dependences_of(args.task))
    print(f"{args.app} under {args.algorithm} ({args.pieces} pieces, "
          f"{len(stream)} tasks); task {args.task} depends on {deps}\n")
    print(prov.explain_task(prov.Witnesses(tracer.snapshot()), args.task,
                            tasks=rt.tasks, edge=edge))
    return 0


def _cmd_census(args) -> int:
    import json

    from repro import Runtime
    from repro.obs.census import census, render_census, validate_census

    app = _make_app(args.app, args.pieces)
    rt = Runtime(app.tree, app.initial, algorithm=args.algorithm)
    rt.replay(_full_stream(app, args.iterations))
    doc = census(rt)
    validate_census(doc)
    if args.as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"{args.app} ({args.pieces} pieces, "
              f"{args.iterations} iterations)")
        print(render_census(doc))
    return 0


def _cmd_census_diff(args) -> int:
    import json

    from repro.obs.census import census_diff, validate_census

    docs = []
    for path in (args.old, args.new):
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            print(f"error: no such census file: {path}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        try:
            validate_census(doc)
        except ValueError as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return 2
        docs.append(doc)
    diff = census_diff(docs[0], docs[1])
    if not diff:
        print("census documents are identical")
        return 0
    print(f"{len(diff)} differing leaves:")
    for path, (va, vb) in diff.items():
        print(f"  {path}: {va!r} -> {vb!r}")
    return 1


def _cmd_report(args) -> int:
    from pathlib import Path

    from repro.bench.report import generate_report

    try:
        text = generate_report(args.results)
    except FileNotFoundError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
    import json
    import time

    from repro import obs
    from repro.distributed.faults import FaultPlan
    from repro.errors import MachineError
    from repro.obs.doctor import config_snapshot
    from repro.obs.flight import RING_CAPACITY, FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.service import verify_sessions
    from repro.service.loadgen import LoadSpec, run_load

    faults = None
    backend = args.backend
    if args.chaos is not None:
        faults = FaultPlan(seed=args.chaos, rate=args.fault_rate,
                           kinds=("crash",))
        backend = "process"
        print(f"chaos mode: seed={args.chaos} rate={args.fault_rate} "
              f"(process backend forced)")
    spec = LoadSpec(seed=args.seed, tenants=args.tenants,
                    sessions=args.sessions, pieces=args.pieces,
                    iterations=args.iterations, skew=args.skew,
                    deadline=args.deadline)
    registry = MetricsRegistry()
    hub = None
    if args.telemetry_out:
        from repro.obs.slo import SloEvaluator, default_service_slos
        from repro.obs.telemetry import (TelemetryHub, TelemetrySink,
                                         WINDOWS)

        sink = TelemetrySink(
            args.telemetry_out,
            meta={"interval": args.telemetry_interval,
                  "windows": WINDOWS, "seed": args.seed,
                  "tenants": args.tenants, "backend": backend})
        hub = TelemetryHub(
            registry, interval=args.telemetry_interval, sink=sink,
            evaluator=SloEvaluator(default_service_slos(),
                                   registry=registry))

    # the doctor registry decides what counts as "set", so serve and
    # `repro doctor` cannot disagree
    witnesses = config_snapshot()["REPRO_PROVENANCE"]["origin"] == "env"
    recorder = previous_tracer = None
    if args.flight_out:
        # the recorder reads a bounded tracer: session, task and worker
        # spans are kept as a ring of the recent past, not for the
        # process lifetime
        recorder = FlightRecorder(
            obs.Tracer(capacity=RING_CAPACITY, witnesses=witnesses),
            args.flight_out, cooldown=args.flight_cooldown,
            exemplar_source=registry.exemplars)
        previous_tracer = obs.set_tracer(recorder.tracer)
    if witnesses:
        print("witnesses: recorded on the flight ring's spans "
              "(REPRO_PROVENANCE)" if recorder is not None else
              "witnesses: REPRO_PROVENANCE has no effect without "
              "--flight-out", file=sys.stderr)
    # exemplar reservoirs ride along whenever something will surface
    # them: the telemetry stream (top's offender rows) or a dump
    exemplar_seed = (args.seed if (hub is not None or recorder is not None)
                     else None)
    t0 = time.perf_counter()
    try:
        results, summary = run_load(
            spec, backend=backend, shards=args.shards, rate=args.rate,
            burst=args.burst, max_inflight=args.max_inflight,
            queue_limit=args.queue_limit, faults=faults, registry=registry,
            hub=hub, recorder=recorder, exemplar_seed=exemplar_seed,
            recv_timeout=30.0 if args.chaos is not None else 10.0)
    except MachineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if hub is not None:
            hub.close()
        if previous_tracer is not None:
            obs.set_tracer(previous_tracer)
    wall = time.perf_counter() - t0
    summary["wall_seconds"] = round(wall, 6)
    if recorder is not None:
        last = (f" (last {recorder.last_dump.name})"
                if recorder.last_dump is not None else "")
        print(f"flight: {recorder.dumps_written} dump(s) from "
              f"{recorder.triggers_seen} trigger(s), "
              f"{recorder.dumps_suppressed} in cooldown -> "
              f"{args.flight_out}{last}", file=sys.stderr)
    if hub is not None:
        firing = hub.firing_alerts()
        print(f"telemetry: {len(hub)} samples "
              f"({len(hub.sink.paths)} segment(s), "
              f"{len(hub.alerts)} alert transition(s), "
              f"{len(firing)} firing) -> {args.telemetry_out}",
              file=sys.stderr)

    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        lat = summary["latency"]
        print(f"served {summary['sessions']} sessions over "
              f"{args.tenants} tenants in {wall:.2f}s "
              f"({backend} backend, {args.shards} shards)")
        print(f"  statuses: {summary['by_status']}")
        print(f"  per tenant: {summary['by_tenant']}")
        print(f"  latency: p50={lat['p50'] * 1e3:.1f}ms "
              f"p95={lat['p95'] * 1e3:.1f}ms p99={lat['p99'] * 1e3:.1f}ms "
              f"mean={lat['mean'] * 1e3:.1f}ms")
        svc_block = summary.get("service", {})
        if svc_block.get("degraded_sessions"):
            print(f"  degraded sessions: {svc_block['degraded_sessions']} "
                  f"(breaker state {svc_block['breaker_state']})")

    if args.verify:
        ok = [r for r in results if r.ok]
        problems = verify_sessions(results)
        if problems:
            print(f"VERIFY FAILED: {len(problems)} session group(s) "
                  "diverged from cold replay:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"verify: {len(ok)} completed sessions replay "
              "bit-identical from cold")

    # non-ok sessions are structured outcomes, not failures — but chaos
    # mode demands every session resolved one way or the other
    unresolved = [r for r in results
                  if r.status not in ("ok", "overloaded",
                                      "deadline_exceeded", "error")]
    if unresolved:
        print(f"error: {len(unresolved)} sessions with unknown status",
              file=sys.stderr)
        return 1
    return 0


def _cmd_blackbox(args) -> int:
    from repro.obs import load_trace, render_blackbox

    data, _ = load_trace(args.dump)
    print(render_blackbox(data, top_k=args.top))
    return 0


def _cmd_doctor() -> int:
    from repro.obs.doctor import render_doctor

    print(render_doctor())
    return 0


def _cmd_top(args) -> int:
    from repro.obs.top import run_top

    return run_top(args.path, window=args.window, width=args.width,
                   once=args.once, refresh=args.refresh)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "figure":
        return _cmd_figure(args)
    if args.command == "artifact":
        return _cmd_artifact(args)
    if args.command == "inspect":
        return _cmd_inspect(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "prof":
        return _view(lambda: _cmd_prof(args))
    if args.command == "explain":
        return _cmd_explain(args)
    if args.command == "census":
        return _cmd_census(args)
    if args.command == "census-diff":
        return _cmd_census_diff(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "top":
        return _view(lambda: _cmd_top(args))
    if args.command == "blackbox":
        return _view(lambda: _cmd_blackbox(args))
    if args.command == "doctor":
        return _cmd_doctor()
    raise AssertionError(f"unhandled command {args.command!r}")


def cli() -> None:
    """Console-script entry point (``repro-cli``)."""
    raise SystemExit(main())
