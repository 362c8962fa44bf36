"""Stream cells: one (app, algorithm) pair driven through one runtime.

Two drivers over the same task streams:

* :func:`run_untraced` times every ``Runtime.launch`` from outside —
  the measured path, and the untraced half of the traced pass;
* :func:`run_figure6` is the benchmark's own copy of the paper's
  Figure-6 loop over the public calls ``materialize`` -> body ->
  ``commit`` -> ``DependenceGraph.add_task``, with a span at each
  boundary.  It must reproduce ``Runtime``'s dependence graph exactly
  (checked by fingerprint), or its spans describe a different program.

Correctness is checked outside timing against a :class:`Reference`
built per application: sequential field values, and the exact
interference oracle on the init + 2-iteration prefix.
"""

from __future__ import annotations

import gc
import sys
import time
from dataclasses import dataclass

import numpy as np

from repro.apps import APPS
from repro.distributed.verify import graph_fingerprint
from repro.geometry import (batch_overlaps, geometry_cache,
                            reset_geometry_cache)
from repro.obs.tracer import Tracer, set_tracer
from repro.runtime import (DependenceGraph, Runtime, SequentialExecutor,
                           TaskStream, oracle_dependences)
from repro.runtime.task import validate_requirements
from repro.visibility import CostMeter, make_algorithm

from spans import SpanLog

clock = time.perf_counter

#: Iterations of the prefix the interference oracle is computed on.
PREFIX_ITERATIONS = 2

METER_COUNTS = ("entries_scanned", "intersection_tests", "eqsets_visited")


@dataclass(frozen=True)
class Cell:
    app: str
    alg: str
    pieces: int
    iterations: int

    @property
    def key(self) -> str:
        return f"{self.app}/{self.alg}"


def build_app(name: str, pieces: int, seed: int):
    """``--seed`` reaches the program only here: the circuit's random
    graph.  Stencil and Pennant are regular meshes with no free seed."""
    if name == "circuit":
        return APPS[name](pieces=pieces, seed=seed)
    return APPS[name](pieces=pieces)


def phases(app, iterations: int):
    """``[(label, stream)]``: ``init`` then ``iter1`` .. ``iterN``."""
    out = [("init", app.init_stream())]
    for k in range(1, iterations + 1):
        out.append((f"iter{k}", app.iteration_stream()))
    return out


class Reference:
    """Ground truth for every cell of one application.

    ``corrupt=True`` perturbs one reference value — the self-test's way
    of proving that a wrong result fails the run.
    """

    def __init__(self, name: str, pieces: int, seed: int,
                 iteration_counts, corrupt: bool = False) -> None:
        app = build_app(name, pieces, seed)
        wanted = set(iteration_counts)
        executor = SequentialExecutor(app.tree, app.initial)
        executor.run_stream(app.init_stream())
        self.fields: dict[int, dict] = {}
        for k in range(1, max(wanted) + 1):
            executor.run_stream(app.iteration_stream())
            if k in wanted:
                self.fields[k] = executor.fields()
        prefix = TaskStream()
        for _, stream in phases(app, min(PREFIX_ITERATIONS, min(wanted))):
            prefix.extend_from(stream)
        self.pairs = oracle_dependences(list(prefix))
        if corrupt:
            for fields in self.fields.values():
                first = next(iter(fields.values()))
                first[0] += 1.0

    def check(self, cell: Cell, read_field, graph) -> list[str]:
        """Failure descriptions for one finished cell (empty = correct).
        One entry per check that failed; ``CHECKS_PER_CELL`` are made."""
        problems = []
        bad = [name for name, want in self.fields[cell.iterations].items()
               if not np.allclose(read_field(name), want)]
        if bad:
            problems.append(f"{cell.key}: fields {bad} differ from the "
                            "sequential executor")
        missing = graph.missing_pairs(self.pairs)
        if missing:
            problems.append(f"{cell.key}: {len(missing)} oracle pairs not "
                            f"covered, first {missing[0]}")
        return problems


CHECKS_PER_CELL = 2


def references(cells, seed: int, corrupt: bool = False) -> dict:
    """One :class:`Reference` per application appearing in ``cells``."""
    counts: dict[tuple, set] = {}
    for cell in cells:
        counts.setdefault((cell.app, cell.pieces), set()).add(
            cell.iterations)
    return {key: Reference(key[0], key[1], seed, its, corrupt)
            for key, its in counts.items()}


# ----------------------------------------------------------------------
# the measured path
# ----------------------------------------------------------------------
def run_untraced(cell: Cell, seed: int, cal, ref: Reference,
                 armed: bool = False) -> dict:
    """Launch the cell's streams through ``Runtime.launch``, timing each
    call.  ``armed`` installs an enabled ``Tracer`` first (the obs
    overhead probe).  Returns raw samples plus everything read from the
    program's own counters; checks run last, outside timing."""
    gc.collect()
    reset_geometry_cache()
    t0 = clock()
    app = build_app(cell.app, cell.pieces, seed)
    t1 = clock()
    runtime = Runtime(app.tree, app.initial, algorithm=cell.alg)
    t2 = clock()
    ends: list[float] = []
    durs: list[float] = []
    marks = {}
    raised = 0
    previous = set_tracer(Tracer()) if armed else None
    try:
        launch = runtime.launch
        for label, stream in phases(app, cell.iterations):
            first = len(durs)
            for task in stream:
                a = clock()
                try:
                    launch(task.name, task.requirements, task.body,
                           task.point)
                except Exception:  # noqa: BLE001 - counted, not hidden
                    raised += 1
                b = clock()
                ends.append(b)
                durs.append(b - a)
                cal.maybe(b)
            marks[label] = (first, len(durs))
    finally:
        if previous is not None:
            set_tracer(previous)
    meter = runtime.meter.snapshot()
    cache = geometry_cache().stats()
    cal.tick()  # close the bracket so the last launches interpolate
    raw = np.asarray(durs)
    ref_speed = raw * cal.scale(ends)
    problems = ref.check(cell, runtime.read_field, runtime.graph)
    return {
        "cell": cell, "tasks": len(durs), "raised": raised,
        "raw": raw, "ref": ref_speed, "marks": marks,
        "app_build_s": cal.ref_seconds(t0, t1),
        "runtime_build_s": cal.ref_seconds(t1, t2),
        "build_raw_s": t2 - t0,
        "meter": meter, "cache": cache,
        "fingerprint": graph_fingerprint(runtime.graph),
        "problems": problems,
    }


# ----------------------------------------------------------------------
# the traced path: Figure 6, one span per boundary
# ----------------------------------------------------------------------
def run_figure6(cell: Cell, seed: int, cal, log: SpanLog) -> str:
    """Drive the cell through the benchmark's own Figure-6 loop, a span
    per boundary; returns the ``graph_fingerprint`` of the graph it
    built."""
    gc.collect()
    reset_geometry_cache()
    key = cell.key
    rows = log.rows
    a = clock()
    app = build_app(cell.app, cell.pieces, seed)
    b = clock()
    log.add("apps.build", a, b, -1, key)
    tree = app.tree
    meter = CostMeter()
    algorithms = {
        name: make_algorithm(cell.alg, tree, name,
                             np.asarray(app.initial[name]), meter)
        for name in tree.field_space.names}
    graph = DependenceGraph()
    log.add("runtime.build", b, clock(), -1, key)
    task_id = 0
    for label, stream in phases(app, cell.iterations):
        for task in stream:
            reqs = task.requirements
            top = log.reserve("launch", key)
            start = clock()
            validate_requirements(reqs, task.name)
            meter.begin_task()
            deps: set[int] = set()
            buffers = []
            for req in reqs:
                a = clock()
                outcome = algorithms[req.field].materialize(
                    req.privilege, req.region)
                b = clock()
                rows.append(["materialize", a, b, top, key, None])
                deps.update(outcome.dependences)
                buf = outcome.values
                if req.privilege.is_read:
                    buf.setflags(write=False)
                buffers.append(buf)
            if task.body is not None:
                a = clock()
                task.body(*buffers)
                b = clock()
                rows.append(["body", a, b, top, key, None])
            for req, buf in zip(reqs, buffers):
                values = None if req.privilege.is_read else buf
                a = clock()
                algorithms[req.field].commit(req.privilege, req.region,
                                             values, task_id)
                b = clock()
                rows.append(["commit", a, b, top, key, None])
            a = clock()
            graph.add_task(task_id, deps)
            b = clock()
            rows.append(["add_task", a, b, top, key, None])
            log.finish(top, start, b)
            task_id += 1
            cal.maybe(b)
    return graph_fingerprint(graph)


# ----------------------------------------------------------------------
# probes of single public functions
# ----------------------------------------------------------------------
def probe_geometry(app, cal, rounds: int = 3) -> dict:
    """``batch_overlaps`` (each requirement's space against every
    subregion of its partition, N = pieces) and ``&``/``-`` on
    neighbouring subregions, from a cold cache each round."""
    queries = []
    partitions = {}
    seen = set()
    for task in app.iteration_stream():
        for req in task.requirements:
            part = req.region.parent_partition
            if part is None or req.region.uid in seen:
                continue
            seen.add(req.region.uid)
            partitions[id(part)] = part
            queries.append((req.region.space,
                            [sub.space for sub in part.subregions]))
    pairs = [(subs[i].space, subs[i + 1].space)
             for subs in (p.subregions for p in partitions.values())
             for i in range(len(subs) - 1)]
    overlap_s = setop_s = 0.0
    for _ in range(rounds):
        reset_geometry_cache()
        a = clock()
        for query, candidates in queries:
            batch_overlaps(query, candidates)
        b = clock()
        overlap_s += cal.ref_seconds(a, b)
        reset_geometry_cache()
        a = clock()
        for left, right in pairs:
            left & right
            left - right
        b = clock()
        setop_s += cal.ref_seconds(a, b)
    return {
        "batch_overlaps_us": overlap_s / (rounds * len(queries)) * 1e6,
        "setop_us": setop_s / (rounds * 2 * len(pairs)) * 1e6,
    }


def probe_replay(cell: Cell, seed: int, cal, replays: int) -> float:
    """µs per task of ``execute_trace`` replays (the first execution
    runs untraced, the second captures, later ones replay)."""
    reset_geometry_cache()
    app = build_app(cell.app, cell.pieces, seed)
    runtime = Runtime(app.tree, app.initial, algorithm=cell.alg)
    runtime.replay(app.init_stream())
    stream = app.iteration_stream()
    runtime.execute_trace("iteration", stream)
    runtime.execute_trace("iteration", stream)
    spent = 0.0
    for _ in range(replays):
        a = clock()
        runtime.execute_trace("iteration", stream)
        b = clock()
        spent += cal.ref_seconds(a, b)
    return spent / (replays * len(stream)) * 1e6


def probe_py_calls(cell: Cell, seed: int) -> float:
    """Python-level function calls per launch (``sys.setprofile`` call
    events; exact and repeatable) over init + 2 iterations."""
    reset_geometry_cache()
    app = build_app(cell.app, cell.pieces, seed)
    runtime = Runtime(app.tree, app.initial, algorithm=cell.alg)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    streams = phases(app, PREFIX_ITERATIONS)
    sys.setprofile(count)
    try:
        for _, stream in streams:
            runtime.replay(stream)
    finally:
        sys.setprofile(None)
    return calls / len(runtime.tasks)
