"""Sizes, the four measured workloads, and the outside-in traced pass.

A measured repetition returns the end-to-end metrics of one workload;
the traced pass walks every measured layer from the outside in — service
-> distributed -> runtime -> visibility -> geometry -> apps — on the
workload's own shape where the workload exercises the layer, and at a
small fixed *probe* size where it bypasses it, so that the ledger is
complete on every workload and a change to a bypassed layer still shows
somewhere.  Compare a probed row only with itself.
"""

from __future__ import annotations

import math
from statistics import geometric_mean as geomean

import numpy as np

import catalogue
import dist
import stream
import svc
from catalogue import ALGS, APP_NAMES, FULL_SECONDS
from spans import SpanLog
from stream import Cell

LATENCY_LIMIT_MS = 250.0    # the open-loop limit on session p95
CAL_SHARE_LIMIT = 15.0      # % of measured time spent calibrating
LATE_SHARE_LIMIT = 0.25     # generator lateness p95 / mean arrival gap


def sizes(seconds: float) -> dict:
    """Every size, from ``--seconds`` alone: one factor,
    ``seconds / FULL_SECONDS``, scales the iteration, window and session
    counts of the issue's full sizes.  ``cold_wide``'s depth is fixed by
    design (init + 2 iterations), so the factor scales its width, to the
    nearest power of two."""
    f = seconds / FULL_SECONDS

    def whole(full: float, floor: int = 2) -> int:
        return max(floor, round(full * f))

    return {
        "deep_pieces": 16,
        "deep_iterations": {"raycast": whole(60), "warnock": whole(60),
                            "zbuffer": whole(60),
                            "tree_painter": whole(40),
                            "painter": whole(20)},
        "wide_pieces": max(8, 2 ** round(math.log2(128 * f))),
        "wide_iterations": 2,
        "windows": whole(30),
        # per tenant rank, tenants in turn: about half a second each
        "solo_sessions": [whole(70), whole(50), whole(20), whole(70),
                          whole(70)],
        "slot_iterations": svc.ITERATIONS * whole(25),
        "closed_seconds": max(0.5, 4 * f),  # reference-seconds
        "open_seconds": max(0.5, 15 * f),
        "open_rate": 9.0,                   # sessions per reference-second
        "overload_seconds": max(0.5, 3 * f),
        "overload_rate": 150.0,             # ~3x closed-loop capacity
    }


def stream_cells(workload: str, sz: dict, factor: float = 1.0):
    """The 15 cells of a stream shape.  ``factor`` shortens the deep
    iteration counts (the traced pass runs at half depth)."""
    if workload == "cold_wide":
        return [Cell(app, alg, sz["wide_pieces"], sz["wide_iterations"])
                for app in APP_NAMES for alg in ALGS]
    if workload == "steady_deep":
        its = {alg: max(2, round(n * factor))
               for alg, n in sz["deep_iterations"].items()}
        return [Cell(app, alg, sz["deep_pieces"], its[alg])
                for app in APP_NAMES for alg in ALGS]
    if workload == "replicated":
        return [Cell(app, alg, sz["deep_pieces"], sz["windows"])
                for app in APP_NAMES for alg in ALGS]
    # service_mix: the streams a tenant slot accumulates, at session width
    return [Cell(app, alg, svc.PIECES, sz["slot_iterations"])
            for app in APP_NAMES for alg in ALGS]


def pct(values, q: float) -> float:
    return float(np.percentile(values, q))


# ----------------------------------------------------------------------
# measured repetitions: end-to-end metrics, tracing off
# ----------------------------------------------------------------------
def _cell_metrics(runs, latency_runs) -> dict:
    """``{metric: [reference-speed value, raw value]}`` from timed cells:
    per-algorithm throughput (geometric mean over the apps), pooled
    operations per second, and operation latency percentiles."""
    m = {}
    for alg in ALGS:
        mine = [r for r in runs if r["cell"].alg == alg]
        m[f"tasks_per_s.{alg}"] = [
            geomean(r["tasks"] / r[kind].sum() for r in mine)
            for kind in ("ref", "raw")]
    m["ops_per_s"] = [sum(r[kind].size for r in runs)
                      / sum(r[kind].sum() for r in runs)
                      for kind in ("ref", "raw")]
    for name, q in (("op_ms_p50", 50), ("op_ms_p90", 90)):
        m[name] = [pct(np.concatenate([r[kind] for r in latency_runs]), q)
                   * 1e3 for kind in ("ref", "raw")]
    return m


def measure_stream(workload: str, sz: dict, seed: int, cal,
                   corrupt: bool = False) -> dict:
    cells = stream_cells(workload, sz)
    refs = stream.references(cells, seed, corrupt)
    runs = [stream.run_untraced(cell, seed, cal,
                                refs[(cell.app, cell.pieces)])
            for cell in cells]
    problems = [p for r in runs for p in r["problems"]]
    raised = sum(r["raised"] for r in runs)
    launches = sum(r["tasks"] for r in runs)
    # latency is read on the raycast cells: the production default, and
    # the one that bounds the smallest profitable task
    metrics = _cell_metrics(
        runs, [r for r in runs if r["cell"].alg == "raycast"])
    return {
        "metrics": metrics,
        "setup": [sum(r["app_build_s"] + r["runtime_build_s"]
                      for r in runs),
                  sum(r["build_raw_s"] for r in runs)],
        "attempted": launches + stream.CHECKS_PER_CELL * len(runs),
        "failed": raised + len(problems),
        "problems": problems,
        "samples": {"ops": launches,
                    "latency": sum(r["tasks"] for r in runs
                                   if r["cell"].alg == "raycast")},
    }


def measure_replicated(sz: dict, seed: int, cal) -> dict:
    cal.both_cpus = True
    cells = stream_cells("replicated", sz)
    runs = [dist.run_cell(cell, seed, cal) for cell in cells]
    problems = [p for r in runs for p in r["problems"]]
    windows = sum(r["windows"] for r in runs)
    return {
        "metrics": _cell_metrics(runs, runs),
        "setup": [sum(r["build_s"] for r in runs),
                  sum(r["build_raw_s"] for r in runs)],
        "attempted": windows + dist.CHECKS_PER_CELL * len(runs),
        "failed": len(problems),
        "problems": problems,
        "samples": {"ops": windows, "latency": windows},
    }


def _waited(rows, cal) -> tuple[float, float]:
    """Seconds a closed-loop client spent waiting for ``rows`` of
    ``(sent, done, result)``: ``(at reference speed, raw)``."""
    raw = np.array([done - sent for sent, done, _ in rows])
    return (float(np.dot(raw, cal.scale([done for _, done, _ in rows]))),
            float(raw.sum()))


def measure_service(sz: dict, seed: int, cal, rep: int) -> dict:
    """Solo phase -> per-tenant throughput and sessions per second;
    open phase -> session latency.  Each repetition draws its own open
    schedule from the seed, so the median over repetitions also evens
    out the luck of one arrival sequence."""
    cal.both_cpus = True
    spec = svc.load_spec(seed)
    per_session = svc.session_tasks(spec)
    solo = svc.solo_phase(spec, sz["solo_sessions"], cal)
    requests, due = svc.open_schedule(seed * catalogue.REPETITIONS + rep,
                                      sz["open_rate"], sz["open_seconds"])
    opened = svc.open_phase(spec, requests, due, cal)
    phases = (solo, opened)

    metrics = {}
    for rank, rows in enumerate(solo["per_tenant"]):
        tasks = sum(per_session[rank][0 if r.fresh else 1]
                    for _, _, r in rows if r.ok)
        metrics[f"tasks_per_s.{svc.TENANT_ALGS[rank]}"] = [
            tasks / seconds for seconds in _waited(rows, cal)]
    rows = [row for tenant in solo["per_tenant"] for row in tenant]
    done = sum(r.ok for _, _, r in rows)
    metrics["ops_per_s"] = [done / seconds for seconds in _waited(rows, cal)]
    lat = svc.open_latencies(opened, cal)
    for name, q in (("op_ms_p50", 50), ("op_ms_p90", 90)):
        metrics[name] = [pct(lat["latency_ms"][lat["ok"]], q),
                         pct(lat["raw_latency_ms"][lat["ok"]], q)]

    refused = sum(not r.ok for phase in phases for r in phase["results"])
    problems = [p for phase in phases
                for p in svc.verify(phase["results"], cal)[0]]
    failed = refused + len(problems)
    if refused:
        problems.append(f"{refused} sessions did not end ok")
    return {
        "metrics": metrics,
        "setup": [sum(phase["start_s"] for phase in phases)] * 2,
        "attempted": sum(len(phase["results"]) + 1 for phase in phases),
        "failed": failed,
        "problems": problems,
        "noisy": _late_generator(lat, sz["open_rate"]),
        "samples": {"ops": done, "latency": int(lat["ok"].sum())},
    }


def _late_generator(lat: dict, rate: float) -> list[str]:
    late = pct(lat["late_ms"], 95)
    gap_ms = 1e3 / rate
    if late > LATE_SHARE_LIMIT * gap_ms:
        return [f"load generator ran late: p95 {late:.1f} ms against a "
                f"mean arrival gap of {gap_ms:.0f} ms"]
    return []


def measure(workload: str, seconds: float, seed: int, cal,
            corrupt: bool = False, rep: int = 0) -> dict:
    sz = sizes(seconds)
    if workload in ("steady_deep", "cold_wide"):
        return measure_stream(workload, sz, seed, cal, corrupt)
    if workload == "replicated":
        return measure_replicated(sz, seed, cal)
    return measure_service(sz, seed, cal, rep)


# ----------------------------------------------------------------------
# the traced pass
# ----------------------------------------------------------------------
def stream_stage(cells, seed: int, cal, log: SpanLog, replays: int) -> dict:
    """Untraced ``Runtime.launch`` pass, then the benchmark's Figure-6
    loop over the same cells; the raycast cells once more with a
    ``Tracer`` armed; the single-function probes."""
    cal.both_cpus = False
    refs = stream.references(cells, seed)
    untraced, armed, problems = [], [], []
    attempted = 0
    for cell in cells:
        ref = refs[(cell.app, cell.pieces)]
        run = stream.run_untraced(cell, seed, cal, ref)
        fingerprint = stream.run_figure6(cell, seed, cal, log)
        attempted += run["tasks"] + stream.CHECKS_PER_CELL + 1
        problems += run["problems"]
        if run["raised"]:
            problems.append(f"{cell.key}: {run['raised']} launches raised")
        if fingerprint != run["fingerprint"]:
            problems.append(f"{cell.key}: the Figure-6 loop's graph "
                            "fingerprint differs from Runtime's")
        untraced.append(run)
        if cell.alg == "raycast":
            armed.append(stream.run_untraced(cell, seed, cal, ref,
                                             armed=True))
    cal.tick()
    spans = log.self_times(cal.scale)

    def span_sum(name, alg=None):
        """(calls, seconds) of one span name over the cells of ``alg``."""
        calls = seconds = 0.0
        for (cell_key, span_name), acc in spans.items():
            if span_name == name and (alg is None
                                      or cell_key.endswith("/" + alg)):
                calls += acc[0]
                seconds += acc[1]
        return calls, seconds

    m = {}
    for run in untraced:
        cell = run["cell"]
        m[f"visibility.{cell.alg}.{cell.app}.tasks_per_s"] = \
            run["tasks"] / run["ref"].sum()
    for alg in ALGS:
        mine = [r for r in untraced if r["cell"].alg == alg]
        tasks = sum(r["tasks"] for r in mine)
        for name in ("materialize", "commit"):
            calls, seconds = span_sum(name, alg)
            m[f"visibility.{alg}.{name}_us"] = seconds / calls * 1e6
        for count in stream.METER_COUNTS:
            m[f"visibility.{alg}.{count}_per_task"] = \
                sum(r["meter"].get(count, 0) for r in mine) / tasks
        for label in ("init", "iter1", "iter2"):
            m[f"visibility.{alg}.{label}_s"] = sum(
                float(r["ref"][slice(*r["marks"][label])].sum())
                for r in mine)
    launches = sum(r["tasks"] for r in untraced)
    untraced_s = sum(float(r["ref"].sum()) for r in untraced)
    inside = sum(span_sum(name)[1]
                 for name in ("materialize", "body", "commit", "add_task"))
    calls, seconds = span_sum("add_task")
    m["runtime.graph_add_us"] = seconds / calls * 1e6
    m["runtime.launch_overhead_us"] = (untraced_s - inside) / launches * 1e6
    ray = [r for r in untraced if r["cell"].alg == "raycast"]
    m["runtime.launch_us_p99"] = pct(
        np.concatenate([r["ref"] for r in ray]), 99) * 1e6
    calls, seconds = span_sum("body")
    m["apps.body_us"] = seconds / calls * 1e6
    m["apps.build_s"] = sum(r["app_build_s"] for r in untraced)
    hits = sum(r["cache"]["hits"] for r in untraced)
    misses = sum(r["cache"]["misses"] for r in untraced)
    m["geometry.cache_hit_rate"] = 100.0 * hits / (hits + misses)
    m["geometry.cache_evictions"] = sum(r["cache"]["evictions"]
                                        for r in untraced)
    m["obs.tracer_armed_overhead_pct"] = 100.0 * (
        sum(float(r["ref"].sum()) for r in armed)
        / sum(float(r["ref"].sum()) for r in ray) - 1.0)
    m["bench.trace_overhead_pct"] = 100.0 * (
        span_sum("launch")[1] / untraced_s - 1.0)

    pieces = cells[0].pieces
    probes = [stream.probe_geometry(stream.build_app(app, pieces, seed), cal)
              for app in APP_NAMES]
    for name in ("batch_overlaps_us", "setop_us"):
        m[f"geometry.{name}"] = sum(p[name] for p in probes) / len(probes)
    ray_cells = [r["cell"] for r in ray]
    m["runtime.trace_replay_us"] = sum(
        stream.probe_replay(cell, seed, cal, replays)
        for cell in ray_cells) / len(ray_cells)
    m["runtime.py_calls_per_task"] = sum(
        stream.probe_py_calls(cell, seed)
        for cell in ray_cells) / len(ray_cells)
    return {"metrics": m, "attempted": attempted, "problems": problems,
            "table": layer_table(untraced, span_sum)}


def layer_table(untraced, span_sum) -> dict:
    """Where the µs/task go: per algorithm, the untraced launch mean
    split into the traced boundaries' means, plus what is left over."""
    table = {}
    for alg in ALGS:
        mine = [r for r in untraced if r["cell"].alg == alg]
        tasks = sum(r["tasks"] for r in mine)
        row = {"untraced": sum(float(r["ref"].sum()) for r in mine)
               / tasks * 1e6}
        inside = ("materialize", "commit", "body", "add_task")
        for name in inside:
            row[name] = span_sum(name, alg)[1] / tasks * 1e6
        row["residual"] = row["untraced"] - sum(row[n] for n in inside)
        table[alg] = row
    return table


def dist_stage(cells, seed: int, cal, log: SpanLog) -> dict:
    """``cells`` on the process backend, spans and probes on; the
    raycast cells again on the serial and thread backends."""
    cal.both_cpus = True
    runs = [dist.run_cell(cell, seed, cal, "process", log, probes=True)
            for cell in cells]
    ray = [c for c in cells if c.alg == "raycast"]
    others = {backend: [dist.run_cell(cell, seed, cal, backend, log)
                        for cell in ray]
              for backend in ("serial", "thread")}
    others["process"] = [r for r in runs if r["cell"].alg == "raycast"]
    everything = runs + others["serial"] + others["thread"]
    problems = [p for r in everything for p in r["problems"]]

    tasks = sum(r["tasks"] for r in runs)
    windows = sum(r["windows"] for r in runs)

    def profile_s(run, phase):
        """A profile phase's seconds at reference speed: the program
        timed it, so it is scaled by the cell's own mean factor."""
        stat = run["profile"].get(phase)
        if stat is None:
            return 0.0
        return stat.seconds * float(run["ref"].sum() / run["raw"].sum())

    m = {}
    for backend, group in others.items():
        m[f"distributed.{backend}.tasks_per_s"] = geomean(
            r["tasks"] / r["ref"].sum() for r in group)
    m["distributed.encode_us_per_task"] = \
        sum(r["encode_s"] for r in runs) / tasks * 1e6
    m["distributed.ship_bytes_per_task"] = \
        sum(r["profile"]["ship"].bytes for r in runs) / tasks
    m["distributed.fingerprint_ms"] = \
        sum(r["fingerprint_s"] for r in runs) / windows * 1e3
    m["distributed.verify_ms"] = sum(
        profile_s(r, "verify") for r in runs) / windows * 1e3
    m["distributed.analyze_s"] = sum(profile_s(r, "analyze") for r in runs)
    m["distributed.execute_s"] = sum(profile_s(r, "execute") for r in runs)
    m["distributed.messages_per_task"] = \
        sum(r["messages"] for r in runs) / tasks
    skews = []
    for r in runs:
        shards = [s.seconds for name, s in r["profile"].items()
                  if name.startswith("analyze.shard")]
        skews.append(max(shards) / min(shards))
    m["distributed.replica_skew"] = sum(skews) / len(skews)
    m["distributed.checkpoints"] = sum(r["checkpoints"] for r in runs)
    m["distributed.recoveries"] = sum(r["recoveries"] for r in runs)
    return {"metrics": m,
            "attempted": sum(r["windows"] + dist.CHECKS_PER_CELL
                             for r in everything),
            "problems": problems}


def service_stage(sz: dict, seed: int, cal, log: SpanLog) -> dict:
    """Solo and closed phases, open phases at half, base and double
    rate, and an overload phase with small admission limits."""
    cal.both_cpus = True
    spec = svc.load_spec(seed)
    phases = {"solo": svc.solo_phase(spec, sz["solo_sessions"], cal),
              "closed": svc.closed_phase(spec, sz["closed_seconds"], cal)}
    base = sz["open_rate"]
    rates = {"half_rate": base / 2, "base": base, "double_rate": base * 2}
    for label, rate in rates.items():
        requests, due = svc.open_schedule(seed, rate, sz["open_seconds"])
        phases[label] = svc.open_phase(spec, requests, due, cal)
    requests, due = svc.open_schedule(seed, sz["overload_rate"],
                                      sz["overload_seconds"])
    phases["overload"] = svc.open_phase(spec, requests, due, cal, svc.TIGHT)

    m = {}
    # slot build: what a tenant's first session costs beyond its analysis
    builds = [(done - sent - r.seconds) * float(cal.scale([done])[0])
              for phase in phases.values()
              for sent, done, r in phase["warm"] if r.ok]
    m["service.slot_build_ms"] = float(np.median(builds)) * 1e3
    # drift: a tenant's analysis time late in its slot's life over early
    drifts = []
    for rank, rows in enumerate(phases["solo"]["per_tenant"]):
        seconds = [r.seconds for _, _, r in rows if r.ok]
        quarter = max(1, len(seconds) // 4)
        drifts.append(float(np.median(seconds[-quarter:])
                            / np.median(seconds[:quarter])))
        for sent, done, result in rows:
            log.add("session", sent, done, -1, f"solo/tenant{rank}",
                    {"status": result.status,
                     "analysis_s": result.seconds})
    m["service.drift_ratio"] = float(np.median(drifts))
    # closed-loop capacity: sessions that ended inside the fixed window
    closed = phases["closed"]
    begin, end = closed["begin"], closed["end"]
    m["service.closed_sessions_per_s"] = sum(
        r.ok and done <= end for rows in closed["per_tenant"]
        for _, done, r in rows) / cal.ref_seconds(begin, end)
    for rank, rows in enumerate(closed["per_tenant"]):
        for sent, done, result in rows:
            log.add("session", sent, done, -1, f"closed/tenant{rank}",
                    {"status": result.status,
                     "analysis_s": result.seconds})

    best = 0.0
    for label, rate in rates.items():
        phase = phases[label]
        lat = svc.open_latencies(phase, cal)
        for (due_at, sent, done, result), ms in zip(phase["rows"],
                                                    lat["latency_ms"]):
            log.add("session", due_at, done, -1,
                    f"open.{label}/{result.tenant}",
                    {"status": result.status, "sent": sent,
                     "analysis_s": result.seconds, "ref_ms": float(ms)})
        ok = lat["ok"]
        p95 = pct(lat["latency_ms"][ok], 95)
        # a refused or failed session misses any limit
        within = float(np.mean(ok & (lat["latency_ms"]
                                     <= LATENCY_LIMIT_MS)))
        if within >= 0.95 and not svc.backlog_grows(phase):
            best = max(best, rate)
        if label == "base":
            m["service.session_ms_p95"] = p95
            for name, key in (("queue_wait", "wait_ms"),
                              ("analysis", "analysis_ms")):
                for q in (50, 95):
                    m[f"service.{name}_ms_p{q}"] = pct(lat[key][ok], q)
            m["service.loadgen_late_ms_p95"] = pct(lat["late_ms"], 95)
        else:
            m[f"service.session_ms_p95.{label}"] = p95
    m["service.max_rate_ok"] = best

    # overload: only the refusals are read
    rows = phases["overload"]["rows"]
    refused = [(sent, done, r) for _, sent, done, r in rows
               if r.status == "overloaded"]
    for due_at, sent, done, result in rows:
        log.add("session", due_at, done, -1, f"overload/{result.tenant}",
                {"status": result.status, "reason": result.reason})
    m["service.reject_share.overload"] = 100.0 * len(refused) / len(rows)
    m["service.reject_path_us"] = float(np.mean(
        [(done - sent) * float(cal.scale([done])[0])
         for sent, done, _ in refused])) * 1e6 if refused else 0.0
    for reason in ("rate", "capacity", "backpressure"):
        m[f"service.rejects.{reason}"] = sum(
            r.reason == reason for _, _, r in refused)

    problems, verify_s, attempted, degraded = [], 0.0, 0, 0
    for label, phase in phases.items():
        degraded += phase["census"]["degraded_sessions"]
        bad = sum(not r.ok for r in phase["results"])
        if bad and label != "overload":
            problems.append(f"{label}: {bad} sessions did not end ok")
        found, seconds = svc.verify(phase["results"], cal)
        problems += [f"{label}: {p}" for p in found]
        verify_s += seconds
        attempted += len(phase["results"]) + 1
    m["service.degraded_sessions"] = degraded
    m["service.verify_s"] = verify_s
    return {"metrics": m, "attempted": attempted, "problems": problems}


#: Fixed small sizes for the layers a workload bypasses.
PROBE_SECONDS = 6.0


def trace(workload: str, seconds: float, seed: int, cal, log: SpanLog) -> dict:
    """One traced run: every stage, on the workload's shape or at probe
    size; returns every per-layer metric."""
    sz = sizes(seconds)
    probe = sizes(min(PROBE_SECONDS, seconds))
    # the traced stream pass runs at half the measured depth: it does
    # the work twice (untraced, then span by span)
    cells = stream_cells(workload, sz, factor=0.5)
    replays = 4 if workload == "cold_wide" else 10
    stages = [stream_stage(cells, seed, cal, log, replays)]

    if workload == "replicated":
        dist_cells = stream_cells("replicated", sz)
    else:
        pieces = cells[0].pieces if workload == "service_mix" \
            else probe["deep_pieces"]
        dist_cells = [Cell(app, "raycast", pieces, probe["windows"])
                      for app in APP_NAMES]
    stages.append(dist_stage(dist_cells, seed, cal, log))
    stages.append(service_stage(sz if workload == "service_mix" else probe,
                                seed, cal, log))

    metrics, problems, attempted = {}, [], 0
    for stage in stages:
        metrics.update(stage["metrics"])
        problems += stage["problems"]
        attempted += stage["attempted"]
    return {"metrics": metrics, "attempted": attempted,
            "failed": len(problems), "problems": problems,
            "table": stages[0]["table"]}
