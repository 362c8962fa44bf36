"""Service phases: closed-loop capacity, open-loop latency, overload.

One process, one thread, asyncio — the way a client of
``AnalysisService`` would drive it.  Every phase boots a fresh service.

* **solo** — the tenants one after the other, each a single closed-loop
  client with the service otherwise idle: what one tenant's algorithm
  costs per session when nothing contends for the interpreter lock or
  the cores.
* **closed** — one client per tenant, all at once for a fixed time, each
  submitting its next session only when the previous one resolved: a
  slow service receives less load, so this measures capacity, not
  latency.
* **open** — seeded Poisson arrivals at a fixed rate, tenants in
  zipf(1.0) proportion (see :func:`open_schedule`);
  sessions are sent on schedule whatever the service is doing, and each
  is timed from when it was *due*, so a stall is charged to everything
  queued behind it.  The schedule is in reference-seconds: it is
  stretched by the calibration rate measured just before the phase, so
  a slower machine state is offered the same load relative to its speed.
* **overload** — an open phase far above capacity with small admission
  limits; only its refusals are read.

Tenant ``i`` analyzes ``APP_NAMES[i % 3]`` with ``TENANT_ALGS[i]``: five
tenants cover the five algorithms.
"""

from __future__ import annotations

import asyncio
import random
import time

import numpy as np

from repro.service import (AnalysisService, make_app, session_stream,
                           verify_sessions)
from repro.service.loadgen import LoadSpec

from cal import CAL_REF
from catalogue import APP_NAMES
from placement import pin_workers

clock = time.perf_counter

#: Which algorithm each tenant rank runs.  Rank decides a tenant's share
#: of the open-loop traffic (zipf: 44, 22, 15, 11, 9%), and ``painter``'s
#: sessions are the slowest by far, so it sits at rank 2: the slowest 15%
#: of sessions are then one tenant's, and p90 falls inside that group.
#: With ``painter`` last (9%) p90 sat on the edge between two tenants'
#: latencies and moved 17% between runs of one commit.
TENANT_ALGS = ("raycast", "warnock", "painter", "tree_painter", "zbuffer")
TENANTS = len(TENANT_ALGS)
PIECES = 8
ITERATIONS = 2

#: Admission limits that never refuse at the measured rates, so an open
#: phase shows queueing as latency instead of hiding it as refusals.
ROOMY = dict(max_inflight=256, queue_limit=256, rate=1e6, burst=1e6)
#: The overload phase's limits (the issue's values).
TIGHT = dict(max_inflight=8, queue_limit=8)

SERVICE = dict(backend="process", shards=2)


def load_spec(seed: int) -> LoadSpec:
    """The tenant population; ``request_for(rank)`` is its only use (the
    schedules are drawn in :func:`open_schedule`)."""
    return LoadSpec(seed=seed, tenants=TENANTS, pieces=PIECES,
                    iterations=ITERATIONS, apps=APP_NAMES,
                    algorithms=TENANT_ALGS)


def open_schedule(seed: int, rate: float, seconds: float):
    """``(requests, due times in reference-seconds)`` of one open phase,
    a function of the seed and the rate alone.

    ``rate * seconds`` sessions arrive as a Poisson process conditioned
    on that count (sorted uniform times).  The tenant mix is zipf(1.0)
    over the ranks, *apportioned* rather than sampled: a seed decides
    the order and the arrival times but not how many sessions each
    tenant sends, so two seeds offer the same load and a latency
    percentile does not move with the luck of the draw."""
    rng = random.Random(seed * 7919 + 17)
    count = max(TENANTS, round(rate * seconds))
    due = sorted(rng.uniform(0.0, seconds) for _ in range(count))
    weights = [1.0 / (rank + 1) for rank in range(TENANTS)]
    shares = [count * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(TENANTS),
                          key=lambda r: shares[r] - counts[r], reverse=True)
    for rank in by_remainder[:count - sum(counts)]:
        counts[rank] += 1
    ranks = [rank for rank, n in enumerate(counts) for _ in range(n)]
    rng.shuffle(ranks)
    spec = load_spec(seed)
    return [spec.request_for(rank) for rank in ranks], due


def session_tasks(spec: LoadSpec) -> dict[int, tuple[int, int]]:
    """``{rank: (tasks in a fresh session, tasks in a later one)}``."""
    out = {}
    for rank in range(spec.tenants):
        request = spec.request_for(rank)
        app = make_app(request.app, request.pieces)
        out[rank] = tuple(
            len(session_stream(app, request.iterations, include_init=flag))
            for flag in (True, False))
    return out


async def _with_service(kwargs: dict, cal, spec: LoadSpec, drive):
    """Boot a service, warm one slot per tenant, run ``drive(service)``,
    stop it.  Returns a dict: ``start_s`` (``AnalysisService.start``),
    ``warm`` (the warm-up ``(sent, done, result)`` rows, one per
    tenant), ``out`` (what ``drive`` returned) and ``census``.

    The warm-up session builds the tenant's slot — application, sharded
    runtime, worker process — which a tenant pays once in its life; it
    is timed on its own (``service.slot_build_ms``) and kept out of
    every throughput and latency figure.  It also lets the worker be
    moved to its CPU before anything is timed.

    Calibration brackets the phase with a burst on either side.  Inside
    a phase a slice runs only at moments when no session is in flight:
    the reference replica of every session is analyzed on a thread of
    this process, and a slice that shares the interpreter lock with it
    reads low and erratic (measured: it made closed-loop throughput
    three times noisier than leaving it raw)."""
    a = clock()
    service = AnalysisService(**SERVICE, **kwargs)
    await service.start()
    start_s = clock() - a
    try:
        warm = []
        for rank in range(spec.tenants):
            a = clock()
            result = await service.submit(spec.request_for(rank))
            warm.append((a, clock(), result))
            pin_workers()
        cal.burst()
        out = await drive(service)
        census = service.census_block()
    finally:
        await service.stop()
    cal.burst()
    return {"start_s": start_s, "warm": warm, "out": out, "census": census}


def _phase(spec, cal, drive, kwargs=ROOMY) -> dict:
    """Run one phase to completion: what ``_with_service`` returns,
    merged with the dict ``drive`` returned, plus ``results`` — every
    ``SessionResult``, warm-up first (the verifier needs each slot's
    fresh session to anchor its replay)."""
    phase = asyncio.run(_with_service(kwargs, cal, spec, drive))
    phase.update(phase.pop("out"))
    rows = phase.get("rows") or [row for tenant in phase["per_tenant"]
                                 for row in tenant]
    phase["results"] = [row[-1] for row in phase["warm"] + rows]
    return phase


def solo_phase(spec: LoadSpec, sessions, cal) -> dict:
    """``per_tenant``: ``[(sent, done, result)]`` rows of each tenant,
    the tenants one after the other; tenant ``i`` submits
    ``sessions[i]`` sessions."""
    async def drive(service):
        per_tenant = []
        for rank in range(spec.tenants):
            rows = []
            for _ in range(sessions[rank]):
                a = clock()
                result = await service.submit(spec.request_for(rank))
                b = clock()
                rows.append((a, b, result))
                cal.maybe(b)       # idle between sessions
            per_tenant.append(rows)
        return {"per_tenant": per_tenant}
    return _phase(spec, cal, drive)


def closed_phase(spec: LoadSpec, seconds: float, cal) -> dict:
    """One client per tenant, all at once, each looping until
    ``seconds`` reference-seconds have passed (a fixed duration, not a
    fixed count: every client is active for the whole phase, so there
    is no tail in which the slowest tenant runs alone).  ``begin``,
    ``end`` (the deadline) and ``per_tenant`` ``[(sent, done, result)]``
    rows; a session in flight at the deadline is in the rows but ends
    after ``end``."""
    async def drive(service):
        begin = clock()
        end = begin + seconds * CAL_REF / float(np.median(cal.rates[-5:]))

        async def client(rank: int):
            rows = []
            while clock() < end:
                a = clock()
                result = await service.submit(spec.request_for(rank))
                rows.append((a, clock(), result))
            return rows
        per_tenant = await asyncio.gather(
            *(client(rank) for rank in range(spec.tenants)))
        return {"begin": begin, "end": end, "per_tenant": per_tenant}
    return _phase(spec, cal, drive)


def open_phase(spec: LoadSpec, requests, due_ref, cal,
               kwargs=ROOMY) -> dict:
    """``rows``: ``[(due, sent, done, result)]`` in arrival order;
    ``backlog``: the in-flight count seen at each arrival."""
    async def drive(service):
        # local seconds per reference-second, from the burst just run
        stretch = CAL_REF / float(np.median(cal.rates[-5:]))
        rows = [None] * len(requests)
        inflight = 0
        backlog = []

        async def one(i, request, due):
            nonlocal inflight
            inflight += 1
            sent = clock()
            result = await service.submit(request)
            inflight -= 1
            done = clock()
            rows[i] = (due, sent, done, result)
            if inflight == 0:
                cal.maybe(done)

        begin = clock()
        pending = []
        for i, (request, at) in enumerate(zip(requests, due_ref)):
            due = begin + at * stretch
            delay = due - clock()
            if delay > 0:
                await asyncio.sleep(delay)
            backlog.append(inflight)
            pending.append(asyncio.ensure_future(one(i, request, due)))
        await asyncio.gather(*pending)
        return {"rows": rows, "backlog": backlog}
    return _phase(spec, cal, drive, kwargs)


# ----------------------------------------------------------------------
# reading a phase
# ----------------------------------------------------------------------
def open_latencies(phase: dict, cal) -> dict:
    """Reference-speed arrays over an open phase's sessions."""
    rows = phase["rows"]
    due = np.array([r[0] for r in rows])
    sent = np.array([r[1] for r in rows])
    done = np.array([r[2] for r in rows])
    scale = cal.scale(done)
    ok = np.array([r[3].ok for r in rows])
    analysis = np.array([r[3].seconds for r in rows]) * scale
    latency = (done - due) * scale
    return {"ok": ok, "latency_ms": latency * 1e3,
            "late_ms": (sent - due) * scale * 1e3,
            "analysis_ms": analysis * 1e3,
            "wait_ms": (latency - analysis) * 1e3,
            "raw_latency_ms": (done - due) * 1e3}


def backlog_grows(phase: dict) -> bool:
    """In-flight sessions at the last arrivals against the middle ones."""
    seen = phase["backlog"]
    if len(seen) < 8:
        return False
    third = len(seen) // 3
    middle = float(np.median(seen[third:2 * third]))
    last = float(np.median(seen[2 * third:]))
    return last > max(4.0, 2.0 * middle)


def verify(results, cal) -> tuple[list[str], float]:
    """Cold-replay one phase's sessions; ``(problems, reference-speed
    seconds it took)``."""
    a = clock()
    problems = verify_sessions(results, shards=1)
    return problems, cal.ref_seconds(a, clock())
