"""The recorder: spans, dependence witnesses and the recent-past ring.

Legion ships Legion Prof because the costs the paper measures (dependence
analysis, equivalence-set refinement, shipping, recovery) are invisible
without per-phase attribution.  This module records them as **spans**: a
named, categorized interval with a start/end timestamp, a process/thread
attribution (``pid``/``tid`` — mapped to shard ids by the distributed
backends), a parent link (spans nest through a thread-local stack), and a
free-form ``args`` mapping.  Alongside spans a tracer buffers **instant
events** (recovery incidents: crash, respawn, replay, local fallback) and
timestamped **counter samples**.

It is the only recorder and the only store on the recording side; every
other view is a reading of its :class:`TraceBuffer`: the Chrome / Perfetto
timeline (:mod:`repro.obs.export`), the critical path
(:mod:`repro.obs.critpath`), the witness chain behind each dependence
edge (:mod:`repro.obs.provenance` — at the witness level the
``materialize``/``commit`` span *is* the access record and the store
policies write edges and prunes into its args), and the incident dump
(:mod:`repro.obs.flight`, which reads a bounded tracer when it fires).

Design constraints, in order:

1. **A disabled tracer is (almost) free.**  The process-global default
   tracer is disabled; every instrumentation point goes through
   :func:`span`, whose fast path is one attribute check returning a
   shared no-op context manager; a runtime launch makes that check once
   and, off, opens no span at all.  That check is the only switch:
   ``benchmarks/test_obs_overhead.py`` counts every guard a launch
   evaluates and holds the sum under 5% of analysis time.
2. **Injectable clock.**  Timestamps come from a :mod:`repro.clock`
   (:class:`~repro.clock.SystemClock` by default, a
   :class:`~repro.clock.FakeClock` in tests), so trace tests assert on
   exact synthetic times instead of real elapsed time.
3. **Thread-safe, picklable payloads.**  Finished spans append under a
   lock (the thread backend interleaves replica analyses); the
   :class:`Span` records themselves are plain dataclasses of primitives,
   so a worker process ships its drained buffer home as the one wire
   fragment and the driver's :meth:`Tracer.absorb` merges it.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.clock import SystemClock

#: pid used for the driver (control) process; workers use ``shard + 1``.
DRIVER_PID = 0


@dataclass
class Span:
    """One finished, named interval.  Times are clock-monotonic seconds;
    the exporter converts to trace-event microseconds."""

    name: str
    category: str
    start: float
    end: float
    pid: int = DRIVER_PID
    tid: int = 0
    span_id: int = 0
    parent_id: Optional[int] = None
    args: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Instant:
    """A zero-duration event (recovery incidents, markers)."""

    name: str
    category: str
    ts: float
    pid: int = DRIVER_PID
    tid: int = 0
    args: dict = field(default_factory=dict)


@dataclass
class CounterSample:
    """One timestamped sample of a named numeric series."""

    name: str
    ts: float
    value: float
    pid: int = DRIVER_PID


@dataclass
class TraceBuffer:
    """A self-contained copy of what a tracer holds: spans track by track
    (ascending ``tid``, finish order within a track), instants, counter
    samples.  A drained buffer is also the wire fragment a worker ships
    home; ``clock`` is the recording tracer's time when the copy was
    taken, which :meth:`Tracer.absorb` aligns on."""

    spans: list[Span] = field(default_factory=list)
    instants: list[Instant] = field(default_factory=list)
    counters: list[CounterSample] = field(default_factory=list)
    clock: Optional[float] = None

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)

    def absorbable(self) -> bool:
        """Whether :meth:`Tracer.absorb` can take this buffer (a worker's
        reply fragment, from another process): spans with numeric
        times and integer ids, their parent links free of cycles; instants
        and counter samples with a numeric ``ts``; a numeric or no clock."""
        num = (int, float)
        if not (isinstance(self.clock, (*num, type(None)))
                and all(type(events) is list for events in (
                    self.spans, self.instants, self.counters))
                and all(type(s) is Span and isinstance(s.start, num)
                        and isinstance(s.end, num)
                        and isinstance(s.parent_id, (int, type(None)))
                        and all(isinstance(i, int)
                                for i in (s.pid, s.tid, s.span_id))
                        for s in self.spans)
                and all(type(i) is Instant and isinstance(i.ts, num)
                        for i in self.instants)
                and all(type(c) is CounterSample and isinstance(c.ts, num)
                        for c in self.counters)):
            return False
        parents = {s.span_id: s.parent_id for s in self.spans}
        rooted: set = set()  # ids whose parent chain leaves the buffer
        for span_id in parents:
            path = set()
            while span_id in parents and span_id not in rooted:
                if span_id in path:
                    return False
                path.add(span_id)
                span_id = parents[span_id]
            rooted |= path
        return True


#: Span ids are unique within a process; :meth:`Tracer.absorb` re-numbers
#: another process's spans into this sequence.
_span_ids = itertools.count(1)


class _NoopSpan:
    """Shared do-nothing context manager: the disabled-tracer fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> None:
        """Discard args (mirrors :meth:`_OpenSpan.set`)."""


_NOOP = _NoopSpan()


class _OpenSpan:
    """An in-flight span: context manager and mutable handle.

    At the witness level :func:`call_traced` hands it to the store-policy
    hooks as their ``led``: ``edge``/``prune``/``visit`` write the witness
    payload into ``args`` (``edges``, ``pruned``, ``visited``), which
    :class:`repro.obs.provenance.Witnesses` reads back as typed records.
    The hooks only observe — they never touch a meter or steer the
    analysis.
    """

    __slots__ = ("_tracer", "name", "category", "args", "start",
                 "span_id", "parent_id", "pid", "tid", "_source")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 args: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self._source = ("history",)

    def set(self, **args) -> None:
        """Attach or update args while the span is open (e.g. the
        dependence list, known only once the scan finishes)."""
        self.args.update(args)

    def set_source(self, desc: tuple) -> None:
        """Name the structure later edges/prunes are witnessed by (e.g.
        ``("eqset", lo, hi, n)``)."""
        self._source = desc

    def edge(self, src: int, kind: str, privilege: str, domain: tuple,
             collapsed=()) -> None:
        self.args.setdefault("edges", []).append(
            (int(src), kind, privilege, domain, self._source,
             tuple(sorted(int(t) for t in collapsed))))

    def prune(self, src: int, reason: str, domain: tuple) -> None:
        self.args.setdefault("pruned", []).append(
            (int(src), reason, domain, self._source))

    def visit(self, kind: str, n: int = 1) -> None:
        if n:
            visited = self.args.setdefault("visited", {})
            visited[kind] = visited.get(kind, 0) + int(n)

    def __enter__(self) -> "_OpenSpan":
        tracer = self._tracer
        self.span_id = next(_span_ids)
        stack = tracer._stack()
        self.parent_id = stack[-1].span_id if stack else None
        self.pid, self.tid = tracer._attribution()
        stack.append(self)
        self.start = tracer.clock.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer.clock.monotonic()
        stack = tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        finished = Span(self.name, self.category, self.start, end,
                        self.pid, self.tid, self.span_id, self.parent_id,
                        self.args)
        with tracer._lock:
            tracer._spans[self.tid].append(finished)
        return False


class _Scope:
    """Thread-local pid/tid override (shard attribution)."""

    __slots__ = ("_tracer", "_pid", "_tid", "_prev")

    def __init__(self, tracer: "Tracer", pid: Optional[int],
                 tid: Optional[int]) -> None:
        self._tracer = tracer
        self._pid = pid
        self._tid = tid

    def __enter__(self) -> "_Scope":
        local = self._tracer._local
        self._prev = getattr(local, "override", None)
        prev_pid, prev_tid = self._prev if self._prev else (None, None)
        local.override = (self._pid if self._pid is not None else prev_pid,
                          self._tid if self._tid is not None else prev_tid)
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._local.override = self._prev
        return False


class Tracer:
    """Records spans, instants and counter samples with per-thread nesting.

    Parameters
    ----------
    clock:
        Monotonic clock (``monotonic()``); defaults to
        :class:`~repro.clock.SystemClock`.  Inject a
        :class:`~repro.clock.FakeClock` for exact-time tests.
    enabled:
        When False every recording entry point is a no-op; flip the
        attribute at any time.
    pid:
        Default process attribution for recorded events
        (:data:`DRIVER_PID` for the control process).
    capacity:
        ``None`` keeps everything (``analyze --trace-out``).  A number
        makes the store a ring of the recent past — at most that many
        spans per track (``tid``: shard or thread), that many instants
        and that many counter samples, oldest evicted first — so a
        long-lived service (``serve --flight-out``) records in bounded
        memory.
    witnesses:
        Also record why each dependence edge exists: :func:`traced` hands
        the open ``materialize``/``commit`` span to the analysis as the
        access record (see :class:`_OpenSpan`).
    """

    #: Called with every recorded :class:`Instant` (the flight recorder's
    #: recovery trigger; same shape as ``ServiceLedger.listener``).
    listener: Optional[Callable[[Instant], None]] = None

    def __init__(self, clock=None, enabled: bool = True,
                 pid: int = DRIVER_PID, capacity: Optional[int] = None,
                 witnesses: bool = False) -> None:
        self.clock = clock if clock is not None else SystemClock()
        self.enabled = enabled
        self.pid = pid
        self.capacity = capacity
        self.witnesses = witnesses
        self._lock = threading.Lock()
        self._spans: dict[int, deque] = defaultdict(
            lambda: deque(maxlen=capacity))
        self._instants: deque = deque(maxlen=capacity)
        self._counters: deque = deque(maxlen=capacity)
        self._local = threading.local()
        self._tids: dict[int, int] = {}

    @property
    def level(self) -> int:
        """What is being recorded, as one number (the field the analyze
        message carries to workers): 0 nothing, 1 spans, 2 spans and
        witnesses."""
        return 1 + self.witnesses if self.enabled else 0

    # ------------------------------------------------------------------
    # per-thread state
    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _attribution(self) -> tuple[int, int]:
        """(pid, tid) for an event recorded on the calling thread."""
        override = getattr(self._local, "override", None)
        pid = tid = None
        if override is not None:
            pid, tid = override
        if pid is None:
            pid = self.pid
        if tid is None:
            ident = threading.get_ident()
            tid = self._tids.get(ident)
            if tid is None:
                with self._lock:
                    tid = self._tids.setdefault(ident, len(self._tids))
        return pid, tid

    def scope(self, pid: Optional[int] = None, tid: Optional[int] = None):
        """Context manager attributing everything recorded by this thread
        to the given pid/tid (the backends map both to shard ids)."""
        if not self.enabled:
            return _NOOP
        return _Scope(self, pid, tid)

    def current(self) -> Optional[_OpenSpan]:
        """The innermost open span of the calling thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "", **args):
        """Open a span as a context manager; ``with tracer.span(...)``."""
        if not self.enabled:
            return _NOOP
        return _OpenSpan(self, name, category, args)

    def instant(self, name: str, category: str = "", **args) -> None:
        """Record a zero-duration event at the current time."""
        if not self.enabled:
            return
        pid, tid = self._attribution()
        event = Instant(name, category, self.clock.monotonic(), pid, tid,
                        args)
        with self._lock:
            self._instants.append(event)
        if self.listener is not None:
            self.listener(event)

    def counter(self, name: str, value: float) -> None:
        """Record one timestamped sample of a counter series."""
        if not self.enabled:
            return
        pid, _ = self._attribution()
        sample = CounterSample(name, self.clock.monotonic(), float(value),
                               pid)
        with self._lock:
            self._counters.append(sample)

    # ------------------------------------------------------------------
    # buffer management
    # ------------------------------------------------------------------
    def absorb(self, fragment: TraceBuffer) -> None:
        """Merge another tracer's drained buffer (a worker's reply
        fragment) into this one.

        Times move by the offset between the two clocks.  Span ids are
        per-process counters, so the fragment's spans are re-numbered into
        this process's id space with their parent links remapped, and its
        roots are parented under the calling thread's open span — the
        merged buffer stays keyed by ``span_id`` and a worker span's
        ancestry reaches the driver span that requested it.
        """
        offset = (0.0 if fragment.clock is None
                  else self.clock.monotonic() - fragment.clock)
        root = self.current()
        root_id = None if root is None else root.span_id
        ids = {s.span_id: next(_span_ids) for s in fragment.spans}
        spans = [replace(s, start=s.start + offset, end=s.end + offset,
                         span_id=ids[s.span_id],
                         parent_id=ids.get(s.parent_id, root_id))
                 for s in fragment.spans]
        instants = [replace(i, ts=i.ts + offset) for i in fragment.instants]
        with self._lock:
            for s in spans:
                self._spans[s.tid].append(s)
            self._instants.extend(instants)
            self._counters.extend(replace(c, ts=c.ts + offset)
                                  for c in fragment.counters)
        if self.listener is not None:
            for event in instants:
                self.listener(event)

    def _copy(self) -> TraceBuffer:
        return TraceBuffer([s for tid in sorted(self._spans)
                            for s in self._spans[tid]],
                           list(self._instants), list(self._counters),
                           self.clock.monotonic())

    def snapshot(self) -> TraceBuffer:
        """Copy of everything held."""
        with self._lock:
            return self._copy()

    def drain(self) -> TraceBuffer:
        """Remove and return everything held (workers drain their buffer
        into each analyze reply)."""
        with self._lock:
            out = self._copy()
            self._spans.clear()
            self._instants.clear()
            self._counters.clear()
        return out

    def __repr__(self) -> str:
        state = ("disabled", "spans", "spans+witnesses")[self.level]
        return (f"Tracer({state}, capacity={self.capacity}, "
                f"spans={sum(len(r) for r in self._spans.values())}, "
                f"instants={len(self._instants)})")


# ----------------------------------------------------------------------
# the process-global active tracer
# ----------------------------------------------------------------------
#: Instrumentation points record against this tracer (like the root
#: logger); the default is disabled, so unconfigured runs pay only the
#: ``enabled`` check.
_ACTIVE = Tracer(enabled=False)


def active_tracer() -> Tracer:
    """The process-global tracer instrumentation records against."""
    return _ACTIVE


def set_tracer(tracer: Tracer) -> Tracer:
    """Install a new active tracer; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def span(name: str, category: str = "", **args):
    """Open a span on the active tracer (no-op when disabled)."""
    tracer = _ACTIVE
    if not tracer.enabled:
        return _NOOP
    return _OpenSpan(tracer, name, category, args)


def instant(name: str, category: str = "", **args) -> None:
    """Record an instant event on the active tracer."""
    tracer = _ACTIVE
    if tracer.enabled:
        tracer.instant(name, category, **args)


def counter(name: str, value: float) -> None:
    """Record a counter sample on the active tracer."""
    tracer = _ACTIVE
    if tracer.enabled:
        tracer.counter(name, value)


def call_traced(tracer: Tracer, method, *args):
    """Call a bound ``method`` under a span named after it, in its
    instance's ``_obs_cat`` category, on an enabled ``tracer`` — handed
    to it as ``led=`` when the tracer records witnesses (how a runtime
    launch that found its tracer enabled calls each access)."""
    with _OpenSpan(tracer, method.__name__, method.__self__._obs_cat,
                   {}) as sp:
        if tracer.witnesses:
            return method(*args, led=sp)
        return method(*args)
