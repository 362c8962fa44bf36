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
``figure`` / ``artifact``
    Regenerate one of the paper's figures (fig12–fig17) on the machine
    simulator, or the artifact appendix A.4 TSV table of one application.
``analyze``
    Run the control-replicated dependence analysis of an application on
    a parallel backend (``--parallel N``), verify the deterministic
    merge, and optionally print per-phase perf counters (``--profile``),
    write a Perfetto trace (``--trace-out FILE.json``), or report the
    longest weighted path through the task DAG (``--critical-path``).
``explain``
    Re-run an application with the tracer recording witnesses and print
    the witness chain behind one task's dependences: which history
    entry, equivalence set, or Z-buffer cell produced each edge, and
    which candidate edges were pruned (and why).
``census`` / ``census-diff``
    Run an application and print the analysis-state census: per-field
    equivalence-set count/size/history distributions, composite-view
    compaction, occlusion kill rates, each equivalence-set map and the
    metered operations (``--json`` for the schema-validated document,
    ``--dot`` for the dependence graph as Graphviz DOT); structurally
    diff two census documents, exit 1 when they differ.
``serve``
    Boot the always-on multi-tenant analysis service and drive it with
    the seeded load generator: admission control, backpressure,
    deadlines, breaker degradation, ``--verify``'s cold-replay
    fingerprint differential, ``--chaos`` worker faults, a
    ``--telemetry-out`` stream and the ``--flight-out`` recorder.
``prof`` / ``top`` / ``blackbox``
    Views over one file kind, the trace-event file every obs writer
    produces: a trace's span summary, histograms and critical path; a
    terminal dashboard over a telemetry stream; a flight-recorder dump
    as an incident report.
``doctor``
    Print every ``REPRO_*`` escape hatch with its in-effect value and
    origin (environment override vs default).

Every command has one error contract, kept by :func:`main`: an input the
library rejects or an unreadable file prints ``error: ...`` on stderr
and exits 2, never a traceback; the views exit 1 on an invalid file.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro import (READ_WRITE, Extent, IndexSpace, RegionRequirement,
                   RegionTree, Runtime, obs, reduce)
from repro.apps import APPS, make_app, session_stream
from repro.distributed import (BACKENDS, DeterminismError, FaultPlan,
                               ShardedRuntime)
from repro.errors import (GeometryError, MachineError, RegionTreeError,
                          TaskError)
from repro.geometry.fastpath import geometry_cache
from repro.obs import provenance as prov
from repro.obs.census import (census, census_diff, load_census,
                              render_census, validate_census)
from repro.obs.doctor import config_snapshot, render_doctor
from repro.obs.flight import RING_CAPACITY, FlightRecorder
from repro.obs.top import run_top
from repro.visibility import ALGORITHMS

#: What the library raises when it rejects an input.  ``CoherenceError``
#: is not one: it means a bug (see :mod:`repro.errors`) and propagates.
REJECTED = (GeometryError, RegionTreeError, TaskError, MachineError)


def _run_options(algorithm: bool = True) -> argparse.ArgumentParser:
    """The parent of every command that builds and replays an app.  Each
    command gets a fresh one: argparse shares a parent's actions among
    its children, so one child's ``set_defaults`` would move the rest."""
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--app", choices=list(APPS))
    if algorithm:
        run.add_argument("--algorithm", choices=list(ALGORITHMS))
    run.add_argument("--pieces", type=int)
    run.add_argument("--iterations", type=int)
    return run


def _build_parser() -> argparse.ArgumentParser:
    """The command table: one row per subcommand, its parser and (as the
    ``run`` default) its handler.  An unreadable file exits ``missing``
    and an input in :data:`REJECTED` exits 2; a command that reads a file
    sets ``invalid``, the exit code for a ``ValueError`` (the file does
    not parse or validate) or a rejected input."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Visibility algorithms for dynamic dependence analysis "
                    "and distributed coherence (PPoPP'23 reproduction)")
    parser.set_defaults(missing=2, invalid=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, parents=(), **defaults):
        row = sub.add_parser(name, help=help, parents=list(parents))
        row.set_defaults(run=run, **defaults)
        return row

    command("demo", _cmd_demo, "run the Figure 1 program")

    command("validate", _cmd_validate, "cross-check all algorithms",
            [_run_options(algorithm=False)],
            app="circuit", pieces=4, iterations=3)

    fig = command("figure", _cmd_figure, "regenerate a paper figure")
    fig.add_argument("figure", choices=[f"fig{i}" for i in range(12, 18)])
    fig.add_argument("--max-nodes", type=int, default=64)
    fig.add_argument("--iterations", type=int, default=3)
    fig.add_argument("--plot", action="store_true",
                     help="also render an ASCII log-log plot")

    art = command("artifact", _cmd_artifact, "print the A.4 artifact table")
    art.add_argument("--app", choices=list(APPS), default="stencil")
    art.add_argument("--reps", type=int, default=5)

    ana = command("analyze", _cmd_analyze,
                  "replicated analysis on a parallel backend",
                  [_run_options()], app="stencil", algorithm="raycast",
                  pieces=4, iterations=3)
    ana.add_argument("--shards", type=int, default=4,
                     help="control-replicated shard count")
    ana.add_argument("--parallel", type=int, default=1, metavar="N",
                     help="analysis workers (1 = serial backend)")
    ana.add_argument("--backend", choices=BACKENDS, default=None,
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
    ana.add_argument("--recv-timeout", type=float, metavar="SECONDS",
                     help="supervised receive timeout (default: 60, or 2 "
                          "in chaos mode so injected hangs recover fast)")

    prof = command("prof", _cmd_prof,
                   "analyze a recorded trace file: span summary, "
                   "per-phase histograms, critical path", invalid=1)
    prof.add_argument("trace", help="trace-event file or directory "
                                    "(analyze --trace-out, serve "
                                    "--telemetry-out or --flight-out)")
    prof.add_argument("--top", type=int, default=10, metavar="K",
                      help="rows in the critical-path table (default 10)")

    exp = command("explain", _cmd_explain,
                  "explain why one task's dependence edges exist "
                  "(witness chains + pruned candidates)",
                  [_run_options()], app="circuit", algorithm="raycast",
                  pieces=4, iterations=2)
    exp.add_argument("task", type=int, metavar="TASK_ID",
                     help="task id to explain (program order, 0-based)")
    exp.add_argument("--edge", default=None, metavar="SRC:DST",
                     help="restrict to one edge; DST must equal TASK_ID")

    cen = command("census", _cmd_census,
                  "census the analysis state after a run",
                  [_run_options()], app="circuit", algorithm="raycast",
                  pieces=4, iterations=2)
    cen.add_argument("--json", action="store_true", dest="as_json",
                     help="emit the schema-validated JSON document")
    cen.add_argument("--dot", action="store_true",
                     help="emit the dependence graph as Graphviz DOT")

    cdf = command("census-diff", _cmd_census_diff,
                  "diff two census JSON documents", invalid=2)
    cdf.add_argument("old", help="baseline census JSON file")
    cdf.add_argument("new", help="census JSON file to compare")

    rep = command("report", _cmd_report,
                  "assemble benchmark results into markdown", missing=1)
    rep.add_argument("--results", default="benchmarks/results",
                     help="directory of result TSVs")
    rep.add_argument("--output", default=None,
                     help="write to a file instead of stdout")

    srv = command("serve", _cmd_serve,
                  "boot the multi-tenant analysis service and drive it "
                  "with the seeded load generator")
    srv.add_argument("--backend", choices=BACKENDS, default="process",
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
    srv.add_argument("--deadline", type=float, metavar="SECONDS",
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

    top = command("top", _cmd_top,
                  "terminal dashboard over a telemetry stream: per-tenant "
                  "QPS, queue depth, windowed latency percentiles, "
                  "breaker state, firing SLO alerts", invalid=1)
    top.add_argument("path", metavar="DIR_OR_FILE",
                     help="telemetry directory (or one segment) "
                          "written by serve --telemetry-out")
    top.add_argument("--window", default="1m", choices=["10s", "1m", "5m"],
                     help="sliding window to aggregate over (default 1m)")
    top.add_argument("--width", type=int, default=100,
                     help="terminal width to render at (default 100)")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (tests/CI)")
    top.add_argument("--refresh", type=float, default=1.0, metavar="SECONDS",
                     help="live repaint period (default 1.0)")

    bbx = command("blackbox", _cmd_blackbox,
                  "render a flight-recorder incident dump (timeline, "
                  "critical path, exemplar offenders, explain "
                  "cross-links)", invalid=1)
    bbx.add_argument("dump", metavar="FILE",
                     help="incident dump written by serve --flight-out")
    bbx.add_argument("--top", type=int, default=5, metavar="K",
                     help="rows in the critical-path and exemplar "
                          "tables (default 5)")

    command("doctor", _cmd_doctor, "print every REPRO_* escape hatch with "
            "its in-effect value and origin")
    return parser


def _replay(args, tracer=None):
    """``(stream, runtime)``: ``args``' app replayed under its algorithm on
    a fresh Runtime, recording on ``tracer`` when one is given."""
    app = make_app(args.app, args.pieces)
    stream = session_stream(app, args.iterations)
    previous = obs.set_tracer(tracer if tracer is not None
                              else obs.active_tracer())
    try:
        rt = Runtime(app.tree, app.initial, algorithm=args.algorithm)
        rt.replay(stream)
    finally:
        obs.set_tracer(previous)
    return stream, rt


def _cmd_demo(args) -> int:
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

    app = make_app(args.app, args.pieces)
    stream = session_stream(app, args.iterations)
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
    if not nodes:
        raise MachineError(f"--max-nodes {args.max_nodes} is below the "
                           f"smallest node count {PAPER_NODE_COUNTS[0]}")
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


def _cmd_analyze(args) -> int:
    from repro.runtime.tracing import signature_digest

    backend = args.backend or ("process" if args.parallel > 1 else "serial")
    faults, recv_timeout = None, 60.0
    if args.chaos is not None:
        if args.backend not in (None, "process"):
            raise MachineError("--chaos requires the process backend")
        backend = "process"
        faults = FaultPlan(seed=args.chaos, rate=args.fault_rate)
        recv_timeout = 2.0
    if args.recv_timeout is not None:
        recv_timeout = args.recv_timeout
    app = make_app(args.app, args.pieces)
    stream = session_stream(app, args.iterations)
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
                    registry.publish_runtime(
                        srt.profile.snapshot(), geometry_cache().stats(),
                        srt.recovery and srt.recovery.counters())
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
    finally:
        if previous_tracer is not None:
            obs.set_tracer(previous_tracer)
    return 0


def _cmd_prof(args) -> int:
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
        hist = obs.Histogram(cat, {})
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
    edge = None
    if args.edge is not None:
        match = re.fullmatch(r"(\d+):(\d+)", args.edge)
        if match is None:
            raise TaskError(f"--edge wants SRC:DST, got {args.edge!r}")
        edge = (int(match[1]), int(match[2]))
        if edge[1] != args.task:
            raise TaskError(f"--edge destination {edge[1]} is not the "
                            f"explained task {args.task}")
    tracer = obs.Tracer(witnesses=True)
    stream, rt = _replay(args, tracer)
    if not 0 <= args.task < len(stream):
        raise TaskError(f"task id {args.task} out of range "
                        f"(stream has {len(stream)} tasks)")
    deps = sorted(rt.graph.dependences_of(args.task))
    print(f"{args.app} under {args.algorithm} ({args.pieces} pieces, "
          f"{len(stream)} tasks); task {args.task} depends on {deps}\n")
    print(prov.explain_task(prov.Witnesses(tracer.snapshot()), args.task,
                            tasks=rt.tasks, edge=edge))
    return 0


def _cmd_census(args) -> int:
    from repro.analysis.render import (dependence_dot, render_eqset_map,
                                       summarize_costs)

    _, rt = _replay(args)
    if args.dot:
        print(dependence_dot(rt.tasks, rt.graph, title=args.app))
        return 0
    doc = census(rt)
    validate_census(doc)
    if args.as_json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"{args.app} ({args.pieces} pieces, "
          f"{args.iterations} iterations)")
    print(render_census(doc))
    for name in sorted(doc["fields"]):
        if doc["fields"][name]["kind"] == "eqsets":
            print(f"\nfield {name!r} equivalence sets:")
            print(render_eqset_map(rt.algorithm_for(name)))
    print("\nmetered operations:")
    print(summarize_costs(rt.meter.counters))
    return 0


def _cmd_census_diff(args) -> int:
    diff = census_diff(load_census(args.old), load_census(args.new))
    if not diff:
        print("census documents are identical")
        return 0
    print(f"{len(diff)} differing leaves:")
    for path, (va, vb) in diff.items():
        print(f"  {path}: {va!r} -> {vb!r}")
    return 1


def _cmd_report(args) -> int:
    from repro.bench.report import generate_report

    text = generate_report(args.results)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_serve(args) -> int:
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
    registry = obs.MetricsRegistry()
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
    data, _ = obs.load_trace(args.dump)
    print(obs.render_blackbox(data, top_k=args.top))
    return 0


def _cmd_doctor(args) -> int:
    print(render_doctor())
    return 0


def _cmd_top(args) -> int:
    return run_top(args.path, window=args.window, width=args.width,
                   once=args.once, refresh=args.refresh)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code, and is the one place
    that turns an error into one (see :func:`_build_parser`)."""
    args = _build_parser().parse_args(argv)
    rejected = REJECTED if args.invalid is None else (ValueError, *REJECTED)
    try:
        return args.run(args)
    except OSError as exc:
        code, error = args.missing, exc
    except rejected as exc:
        code, error = args.invalid or 2, exc
    print(f"error: {error}", file=sys.stderr)
    return code


def cli() -> None:
    """Console-script entry point (``repro-cli``)."""
    raise SystemExit(main())
