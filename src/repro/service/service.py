"""The always-on multi-tenant analysis service.

:class:`AnalysisService` is a long-lived asyncio front-end over the
repository's replicated analysis: many tenants submit
:class:`~repro.service.session.SessionRequest` jobs concurrently, and
each tenant's jobs run *in order* on a persistent per-tenant
:class:`~repro.distributed.sharded.ShardedRuntime` slot (analysis state
must evolve sequentially per tenant), while different tenants run in
parallel on an executor-thread pool.

Robustness is structural, not incidental:

* **Admission control** — a per-tenant :class:`TokenBucket` plus a
  global inflight cap; a request that would exceed either resolves
  immediately to a structured ``overloaded`` result instead of joining
  an unbounded queue.
* **Backpressure** — per-tenant queues are bounded, with
  :class:`WatermarkGate` hysteresis pausing intake at the high-water
  mark; queue depth and paused state are live ``service.*`` gauges.
* **Deadlines** — every session carries a :class:`DeadlineBudget`
  started at admission; expiry (queued or mid-analysis) cancels the
  work, ledgers the cancellation, and poisons the slot so the next
  session starts on verified-clean state.
* **Graceful degradation** — a :class:`CircuitBreaker` guards the
  process backend: repeated infrastructure failures (worker loss,
  timeouts) shed it, new slots fall back to serial in-process analysis
  (``degraded=True`` results), and a half-open probe restores the
  process backend automatically.
* **Tenant isolation** — each tenant owns its geometry cache
  (:func:`~repro.geometry.fastpath.tenant_geometry_cache`) and its
  dependence witnesses are tenant-tagged (everything a session records
  sits under its ``service.session`` span, which names the tenant);
  worker processes are per-tenant by construction (each slot owns its
  backend).

Correctness bar: :func:`verify_sessions` cold-replays every completed
session's stream on a fresh single-tenant runtime and demands
bit-identical analysis fingerprints — the visibility-reasoning
obligation that concurrent tenants observe results *as if* their stream
ran alone.
"""

from __future__ import annotations

import asyncio
import threading
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.apps import make_app, session_stream
from repro.clock import SystemClock
from repro.distributed.backends import BACKENDS
from repro.distributed.faults import FaultPlan
from repro.distributed.sharded import ShardedRuntime
from repro.errors import MachineError
from repro.geometry.fastpath import GeometryCache, tenant_geometry_cache
from repro.obs import tracer as tracing
from repro.service.admission import DeadlineBudget, TokenBucket, WatermarkGate
from repro.service.breaker import HALF_OPEN, STATE_CODES, CircuitBreaker
from repro.service.errors import (DEADLINE_EXCEEDED, ERROR, OK, OVERLOADED,
                                  REJECT_BACKPRESSURE, REJECT_CAPACITY,
                                  REJECT_RATE, ServiceLedger)
from repro.service.metrics import ServiceMetrics
from repro.service.session import SessionRequest, SessionResult
from repro.visibility.meter import PhaseProfile

#: Ledger kind -> the name its count is read under: a key of
#: :attr:`AnalysisService.counts` and the census block, and the
#: ``service.<name>`` series.
READ_AS = {"admitted": "admitted", "rejected": "rejected",
           "completed": "completed", "expired": "expired",
           "cancelled": "expired", "errored": "errors",
           "degraded": "degraded_sessions"}


@dataclass
class _Slot:
    """One persistent per-tenant runtime (lazy-built, poisoned on any
    non-ok session so slot state always equals its ordered ok
    sessions)."""

    key: tuple
    app: object
    runtime: Optional[ShardedRuntime]
    backend: str
    epoch: int
    windows: int = 0    #: ok sessions analyzed on this slot so far
    probe: bool = False  #: this slot is the breaker's half-open probe


@dataclass
class _Tenant:
    name: str
    bucket: TokenBucket
    gate: WatermarkGate
    cache: GeometryCache = field(default_factory=GeometryCache)
    queue: deque = field(default_factory=deque)
    slots: dict = field(default_factory=dict)
    epochs: dict = field(default_factory=dict)
    #: Every slot the tenant ever has times its phases here, and
    #: ``recovered`` keeps the recovery totals of the slots it no longer
    #: has: the tenant's published totals never fall when a slot is
    #: replaced, and a window sees each unit of work once.
    profile: PhaseProfile = field(default_factory=PhaseProfile)
    recovered: Counter = field(default_factory=Counter)
    wake: Optional[asyncio.Event] = None
    worker: Optional[asyncio.Task] = None


class _Pending:
    __slots__ = ("request", "session", "budget", "future", "abandoned")

    def __init__(self, request: SessionRequest, session: int,
                 budget: DeadlineBudget, future: asyncio.Future) -> None:
        self.request = request
        self.session = session
        self.budget = budget
        self.future = future
        #: Set when a deadline fired while the executor thread was still
        #: analyzing: the thread owns runtime teardown on its way out.
        self.abandoned = threading.Event()


class AnalysisService:
    """See module docstring.  Use as an async context manager::

        async with AnalysisService() as svc:
            result = await svc.submit(SessionRequest(tenant="a"))
    """

    def __init__(self, *,
                 backend: str = "process",
                 shards: int = 2,
                 max_inflight: int = 8,
                 queue_limit: int = 8,
                 high_water: Optional[int] = None,
                 low_water: Optional[int] = None,
                 rate: float = 50.0,
                 burst: float = 16.0,
                 breaker_threshold: int = 3,
                 breaker_reset: float = 5.0,
                 default_deadline: Optional[float] = None,
                 registry=None,
                 clock=None,
                 faults: Optional[FaultPlan] = None,
                 recv_timeout: float = 10.0,
                 checkpoint_interval: int = 2,
                 max_threads: int = 4,
                 analyze_fn: Optional[Callable] = None,
                 exemplar_seed: Optional[int] = None,
                 recorder=None) -> None:
        if backend not in BACKENDS:
            raise MachineError(f"unknown service backend {backend!r}")
        if max_inflight < 1 or queue_limit < 1:
            raise MachineError("max_inflight and queue_limit must be >= 1")
        self.backend = backend
        self.shards = shards
        self.max_inflight = max_inflight
        self.queue_limit = queue_limit
        self.high_water = high_water if high_water is not None \
            else max(1, (queue_limit * 3) // 4)
        self.low_water = low_water if low_water is not None \
            else max(0, self.high_water // 2)
        self.rate = rate
        self.burst = burst
        self.default_deadline = default_deadline
        self.faults = faults
        self.recv_timeout = recv_timeout
        self.checkpoint_interval = checkpoint_interval
        self._clock = clock if clock is not None else SystemClock()
        self._real_time = isinstance(self._clock, SystemClock)
        self.metrics = ServiceMetrics(registry, exemplar_seed)
        self.ledger = ServiceLedger()
        self.recorder = recorder
        if recorder is not None:
            # every control-plane event reaches the flight recorder; the
            # listener trips blackbox dumps on alert/breaker/deadline
            # (session and task spans reach it through its tracer)
            self.ledger.listener = recorder.record_event
            if registry is not None and recorder.exemplar_source is None:
                recorder.exemplar_source = registry.exemplars
        self.breaker = CircuitBreaker(
            failure_threshold=breaker_threshold,
            reset_timeout=breaker_reset, clock=self._clock,
            on_transition=self._on_breaker)
        self._analyze_fn = analyze_fn
        self._tenants: dict[str, _Tenant] = {}
        self._inflight = 0
        self._next_session = 0
        self._running = False
        self._stopping = False
        self._max_threads = max_threads
        self._executor: Optional[ThreadPoolExecutor] = None

    # -- the tally ------------------------------------------------------
    def _outcome(self, kind: str, tenant: str, session: int = -1,
                 detail: Optional[str] = None, **labels) -> None:
        """The one call an outcome site makes: the ledger counts it —
        and keeps it as an event when it comes with a ``detail`` — and
        the ``service.*`` series it is read under follows the ledger."""
        if detail is None:
            self.ledger.tally(kind, tenant, **labels)
        else:
            self.ledger.record(kind, tenant, session, detail,
                               at=self._clock.monotonic(), **labels)
        if self.metrics.enabled:
            name = READ_AS[kind]
            self.metrics.outcome(name, sum(
                self.ledger.count(k, tenant, **labels)
                for k, read_as in READ_AS.items() if read_as == name),
                tenant=tenant, **labels)

    @property
    def counts(self) -> dict:
        """Session outcome totals, read from the ledger."""
        out = dict.fromkeys(("sessions", *READ_AS.values()), 0)
        for kind, n in self.ledger.counts().items():
            if kind in READ_AS:
                out[READ_AS[kind]] += n
        out["sessions"] = out["admitted"] + out["rejected"]
        return out

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> "AnalysisService":
        if self._running:
            return self
        self._executor = ThreadPoolExecutor(
            max_workers=self._max_threads,
            thread_name_prefix="service-session")
        self._running = True
        self._stopping = False
        self.metrics.gauge("breaker", STATE_CODES[self.breaker.state])
        return self

    async def stop(self) -> None:
        if not self._running:
            return
        self._stopping = True
        workers = []
        for tenant in self._tenants.values():
            if tenant.wake is not None:
                tenant.wake.set()
            if tenant.worker is not None:
                workers.append(tenant.worker)
        if workers:
            await asyncio.gather(*workers, return_exceptions=True)
        # close every surviving slot (spawned workers must not outlive
        # the service)
        loop = asyncio.get_running_loop()
        closers = []
        for tenant in self._tenants.values():
            for slot in list(tenant.slots.values()):
                self._drop(tenant, slot)
                if slot.runtime is not None:
                    closers.append(loop.run_in_executor(
                        self._executor, slot.runtime.close))
        if closers:
            await asyncio.gather(*closers, return_exceptions=True)
        self._executor.shutdown(wait=True)
        self._executor = None
        self._running = False

    async def __aenter__(self) -> "AnalysisService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.stop()

    # -- admission ------------------------------------------------------
    async def submit(self, request: SessionRequest) -> SessionResult:
        """Admit, queue, run; resolves to the session's terminal result.

        Never raises for load/deadline/infrastructure conditions — those
        become structured statuses on the result.
        """
        if not self._running or self._stopping:
            raise MachineError("service is not running")
        tenant = self._tenant(request.tenant)
        session = self._next_session
        self._next_session += 1
        if not tenant.bucket.try_acquire():
            return self._reject(request, session, REJECT_RATE)
        if self._inflight >= self.max_inflight:
            return self._reject(request, session, REJECT_CAPACITY)
        if tenant.gate.paused or len(tenant.queue) >= self.queue_limit:
            return self._reject(request, session, REJECT_BACKPRESSURE)
        self._outcome("admitted", request.tenant)
        deadline = request.deadline if request.deadline is not None \
            else self.default_deadline
        pending = _Pending(request, session,
                           DeadlineBudget(deadline, self._clock),
                           asyncio.get_running_loop().create_future())
        self._inflight += 1
        self.metrics.gauge("inflight", self._inflight)
        tenant.queue.append(pending)
        self._queue_moved(tenant)
        tenant.wake.set()
        return await pending.future

    def _reject(self, request: SessionRequest, session: int,
                reason: str) -> SessionResult:
        self._outcome("rejected", request.tenant, session, reason,
                      reason=reason)
        return SessionResult(request=request, session=session,
                             status=OVERLOADED, reason=reason)

    def _tenant(self, name: str) -> _Tenant:
        tenant = self._tenants.get(name)
        if tenant is None:
            tenant = _Tenant(
                name=name,
                bucket=TokenBucket(self.rate, self.burst, self._clock),
                gate=WatermarkGate(self.high_water, self.low_water))
            tenant.wake = asyncio.Event()
            tenant.worker = asyncio.get_running_loop().create_task(
                self._drain(tenant))
            self._tenants[name] = tenant
            self.metrics.gauge("tenants", len(self._tenants))
        return tenant

    def _queue_moved(self, tenant: _Tenant) -> None:
        paused = tenant.gate.update(len(tenant.queue))
        self.metrics.gauge("queue_depth", len(tenant.queue),
                           tenant=tenant.name)
        self.metrics.gauge("paused", int(paused), tenant=tenant.name)

    # -- per-tenant serial drain ----------------------------------------
    async def _drain(self, tenant: _Tenant) -> None:
        while True:
            while not tenant.queue:
                if self._stopping:
                    return
                tenant.wake.clear()
                await tenant.wake.wait()
            pending = tenant.queue.popleft()
            self._queue_moved(tenant)
            if self._stopping:
                result = SessionResult(
                    request=pending.request, session=pending.session,
                    status=ERROR, error="service stopped")
                self._outcome("errored", tenant.name, pending.session,
                              "service stopped")
            else:
                result = await self._run(tenant, pending)
            self._resolve(pending, result)

    def _resolve(self, pending: _Pending, result: SessionResult) -> None:
        self._inflight -= 1
        self.metrics.gauge("inflight", self._inflight)
        if not pending.future.done():
            pending.future.set_result(result)

    # -- session execution ----------------------------------------------
    async def _run(self, tenant: _Tenant,
                   pending: _Pending) -> SessionResult:
        request = pending.request
        if pending.budget.expired():
            return self._expire(tenant, pending, "expired in queue",
                                slot=None)
        slot = tenant.slots.get(request.slot_key)
        fresh = slot is None
        if not fresh and slot.backend != self.backend \
                and self.backend == "process":
            # degraded slot while the breaker would allow the process
            # backend again: retire it and rebuild (automatic recovery;
            # the rebuild is the half-open probe when one is pending)
            backend, probe = self._choose_backend()
            if backend == "process":
                self._drop(tenant, slot)
                if slot.runtime is not None and self._executor is not None:
                    self._executor.submit(slot.runtime.close)
                self.ledger.record("slot_retired", tenant.name,
                                   pending.session, "recovering from "
                                   f"{slot.backend} to process",
                                   at=self._clock.monotonic())
                slot = None
                fresh = True
                try:
                    slot = await self._build_slot(tenant, request,
                                                  backend, probe)
                except Exception as exc:  # noqa: BLE001
                    return self._fail(tenant, pending, None, exc)
        if fresh and slot is None:
            backend, probe = self._choose_backend()
            try:
                slot = await self._build_slot(tenant, request, backend,
                                              probe)
            except Exception as exc:  # noqa: BLE001 - structured surface
                return self._fail(tenant, pending, None, exc)
        start = self._clock.monotonic()
        try:
            fingerprint, trace_ref = await self._analyze(tenant, slot,
                                                         pending)
        except asyncio.TimeoutError:
            # the executor thread is still analyzing; hand it runtime
            # teardown (it checks this flag on the way out)
            pending.abandoned.set()
            return self._expire(tenant, pending, "cancelled mid-analysis",
                                slot=slot)
        except Exception as exc:  # noqa: BLE001 - structured surface
            return self._fail(tenant, pending, slot, exc)
        seconds = self._clock.monotonic() - start
        if pending.budget.expired():
            # completed, but past the promise — still a deadline miss
            return self._expire(tenant, pending, "finished past deadline",
                                slot=slot)
        slot.windows += 1
        if slot.backend == "process":
            self.breaker.record_success()
            slot.probe = False
        degraded = self.backend == "process" and slot.backend != "process"
        if degraded:
            self._outcome("degraded", tenant.name, pending.session,
                          f"served on {slot.backend} backend")
        self._outcome("completed", tenant.name)
        exemplar = None
        if self.metrics.exemplars:
            exemplar = {"trace": trace_ref, "tenant": tenant.name,
                        "session": pending.session,
                        "backend": slot.backend}
        self.metrics.observe_latency(tenant.name, seconds, exemplar)
        return SessionResult(
            request=request, session=pending.session, status=OK,
            fingerprint=fingerprint, backend=slot.backend,
            epoch=slot.epoch, fresh=fresh, degraded=degraded,
            seconds=seconds)

    def _choose_backend(self) -> tuple:
        """Consult the breaker for the backend of the next slot build.

        Returns ``(backend, probe)``; consuming the half-open probe when
        one is available, falling back to serial when the breaker is
        open (or the probe is already taken)."""
        if self.backend != "process":
            return self.backend, False
        state = self.breaker.state
        if self.breaker.allow():
            return "process", state == HALF_OPEN
        return "serial", False

    async def _build_slot(self, tenant: _Tenant, request: SessionRequest,
                          backend: str, probe: bool) -> _Slot:
        epoch = tenant.epochs.get(request.slot_key, -1) + 1
        tenant.epochs[request.slot_key] = epoch
        if self._analyze_fn is not None:
            slot = _Slot(key=request.slot_key, app=None, runtime=None,
                         backend=backend, epoch=epoch, probe=probe)
            tenant.slots[request.slot_key] = slot
            return slot

        def build() -> _Slot:
            # app/tree/runtime construction does geometry work too: keep
            # it on the tenant's cache, never the process-global one
            with tenant_geometry_cache(tenant.cache):
                app = make_app(request.app, request.pieces)
                runtime = ShardedRuntime(
                    app.tree, app.initial, shards=self.shards,
                    algorithm=request.algorithm, backend=backend,
                    profile=tenant.profile,
                    faults=self.faults if backend == "process" else None,
                    recv_timeout=self.recv_timeout,
                    checkpoint_interval=self.checkpoint_interval)
            return _Slot(key=request.slot_key, app=app, runtime=runtime,
                         backend=backend, epoch=epoch, probe=probe)

        slot = await asyncio.get_running_loop().run_in_executor(
            self._executor, build)
        tenant.slots[request.slot_key] = slot
        return slot

    def _session_span(self, tenant: _Tenant, slot: _Slot,
                      pending: _Pending):
        """The per-session trace span: its id is the exemplar trace
        reference, and its args let ``repro blackbox`` replay the exact
        analysis (``repro explain`` cross-links).  No-op (span_id 0)
        when the tracer is disabled."""
        request = pending.request
        return tracing.span(
            "session", "service.session", tenant=tenant.name,
            session=pending.session, app=request.app,
            pieces=request.pieces, iterations=request.iterations,
            algorithm=request.algorithm, backend=slot.backend)

    async def _analyze(self, tenant: _Tenant, slot: _Slot,
                       pending: _Pending) -> tuple:
        """Returns ``(fingerprint, trace_ref)`` — the session span's id
        (0 when tracing is off), threaded into the latency exemplar."""
        request = pending.request
        if self._analyze_fn is not None:
            # injected analysis (FakeClock unit tests): run inline so
            # the control plane stays single-threaded and sleep-free
            with self._session_span(tenant, slot, pending) as sp:
                fingerprint = self._analyze_fn(request, slot.backend,
                                               tenant.name)
            return fingerprint, getattr(sp, "span_id", 0)
        runtime = slot.runtime
        app = slot.app
        iterations = request.iterations
        include_init = slot.windows == 0

        def work() -> tuple:
            try:
                with self._session_span(tenant, slot, pending) as sp, \
                        tenant_geometry_cache(tenant.cache):
                    # stream construction builds tasks and region
                    # requirements — tenant-cache traffic as well
                    stream = session_stream(app, iterations, include_init)
                    reports = runtime.analyze(stream)
                return (reports[0].fingerprint,
                        getattr(sp, "span_id", 0))
            finally:
                if pending.abandoned.is_set():
                    # deadline fired while we were analyzing; the slot
                    # was already dropped — tear the runtime down from
                    # the thread that owns it
                    try:
                        runtime.close()
                    except Exception:  # pragma: no cover - best effort
                        pass

        future = asyncio.get_running_loop().run_in_executor(
            self._executor, work)
        remaining = pending.budget.remaining()
        if self._real_time and remaining is not None:
            return await asyncio.wait_for(future, timeout=remaining)
        return await future

    # -- failure paths ---------------------------------------------------
    def _expire(self, tenant: _Tenant, pending: _Pending, detail: str,
                slot: Optional[_Slot]) -> SessionResult:
        self._outcome("expired" if slot is None else "cancelled",
                      tenant.name, pending.session, detail)
        if slot is not None:
            if slot.backend == "process":
                self.breaker.record_failure()
            self._poison(tenant, pending, slot, detail)
        return SessionResult(request=pending.request,
                             session=pending.session,
                             status=DEADLINE_EXCEEDED, reason=detail,
                             seconds=pending.budget.elapsed())

    def _fail(self, tenant: _Tenant, pending: _Pending,
              slot: Optional[_Slot], exc: Exception) -> SessionResult:
        self._outcome("errored", tenant.name, pending.session,
                      f"{type(exc).__name__}: {exc}")
        if (slot is None or slot.backend == "process") \
                and self.backend == "process":
            # worker loss / spawn failure / corrupt pipes: count against
            # the process pool's breaker
            self.breaker.record_failure()
        if slot is not None:
            self._poison(tenant, pending, slot, type(exc).__name__)
        return SessionResult(request=pending.request,
                             session=pending.session, status=ERROR,
                             error=f"{type(exc).__name__}: {exc}",
                             seconds=pending.budget.elapsed())

    def _poison(self, tenant: _Tenant, pending: _Pending, slot: _Slot,
                detail: str) -> None:
        """Drop a slot whose state can no longer be trusted; the next
        session on its key starts a fresh epoch."""
        self._drop(tenant, slot)
        self.ledger.record("slot_poisoned", tenant.name, pending.session,
                           detail, at=self._clock.monotonic())
        runtime = slot.runtime
        if runtime is None:
            return
        if pending.abandoned.is_set():
            return  # the abandoned analysis thread closes it
        if self._executor is not None:
            self._executor.submit(runtime.close)
        else:  # pragma: no cover - defensive
            runtime.close()

    def _drop(self, tenant: _Tenant, slot: _Slot) -> None:
        """Take a slot out of the tenant, keeping what it had counted."""
        tenant.slots.pop(slot.key, None)
        if slot.runtime is not None and slot.runtime.recovery is not None:
            tenant.recovered.update(slot.runtime.recovery.counters())

    def _on_breaker(self, old: str, new: str) -> None:
        self.metrics.gauge("breaker", STATE_CODES[new])
        self.ledger.record("breaker", "", detail=f"{old}->{new}",
                           at=self._clock.monotonic())

    # -- telemetry -------------------------------------------------------
    def telemetry_sampler(self):
        """A :meth:`~repro.obs.telemetry.TelemetryHub.add_sampler`
        callable publishing live runtime internals into the registry
        before each tick: per tenant, its geometry-cache counters, its
        analysis profile and its recovery totals — over every slot the
        tenant has and has had, so the totals are monotone across slot
        rebuilds and several live slots.

        Must run on the service's event loop (``repro serve`` ticks the
        hub from an asyncio task), where slot maps are only ever
        mutated — no extra locking needed.
        """
        def sample(registry) -> None:
            for tenant in self._tenants.values():
                recovered = Counter(tenant.recovered)
                for slot in tenant.slots.values():
                    if slot.runtime is not None \
                            and slot.runtime.recovery is not None:
                        recovered.update(slot.runtime.recovery.counters())
                registry.publish_runtime(tenant.profile.snapshot(),
                                         tenant.cache.stats(), recovered,
                                         tenant=tenant.name)
        return sample

    # -- introspection ---------------------------------------------------
    def census_block(self) -> dict:
        """The census ``service`` block (all ints; see
        :data:`repro.obs.census.CENSUS_SCHEMA`)."""
        return {
            "tenants": len(self._tenants),
            **self.counts,
            "breaker_state": STATE_CODES[self.breaker.state],
            "breaker_transitions": self.ledger.count("breaker"),
        }

    def render(self) -> str:
        c = self.counts
        q = self.metrics.latency_quantiles()
        lat = (f" latency p50={q['p50'] * 1e3:.1f}ms "
               f"p95={q['p95'] * 1e3:.1f}ms p99={q['p99'] * 1e3:.1f}ms"
               if self.metrics.enabled and c["completed"] else "")
        return (f"service: {len(self._tenants)} tenants, "
                f"{c['sessions']} sessions "
                f"({c['completed']} ok, {c['rejected']} rejected, "
                f"{c['expired']} expired, {c['errors']} errors, "
                f"{c['degraded_sessions']} degraded), "
                f"breaker {self.breaker.state}{lat}")


# ----------------------------------------------------------------------
# cold-replay verification
# ----------------------------------------------------------------------
def verify_sessions(results, shards: int = 1) -> list[str]:
    """Cold-replay every completed session and compare fingerprints.

    Groups ok results by ``(tenant, slot_key, epoch)`` — exactly one
    persistent runtime's life — replays each group's streams in session
    order on a fresh serial runtime, and returns a list of mismatch
    descriptions (empty ⇔ every session observed analysis results
    bit-identical to an isolated single-tenant run: no cross-tenant
    leaks, no corrupted recovery)."""
    groups: dict[tuple, list] = {}
    for result in results:
        if result.status != OK:
            continue
        key = (result.tenant,) + result.request.slot_key + (result.epoch,)
        groups.setdefault(key, []).append(result)
    problems: list[str] = []
    for key, sessions in sorted(groups.items()):
        sessions.sort(key=lambda r: r.session)
        if not sessions[0].fresh:
            problems.append(
                f"group {key}: first ok session {sessions[0].session} is "
                "not the epoch head (missing fresh session — cannot "
                "anchor the replay)")
            continue
        first = sessions[0].request
        app = make_app(first.app, first.pieces)
        with ShardedRuntime(app.tree, app.initial, shards=shards,
                            algorithm=first.algorithm,
                            backend="serial") as runtime:
            for result in sessions:
                stream = session_stream(app, result.request.iterations,
                                        include_init=result is sessions[0])
                fingerprint = runtime.analyze(stream)[0].fingerprint
                if fingerprint != result.fingerprint:
                    problems.append(
                        f"group {key}: session {result.session} "
                        f"fingerprint {result.fingerprint[:16]} != cold "
                        f"replay {fingerprint[:16]}")
    return problems
