"""Operation metering for the coherence algorithms.

The paper's evaluation attributes each algorithm's scalability to concrete
algorithmic quantities: history entries scanned, composite views created
and traversed, equivalence sets refined or coalesced, and which distributed
objects each analysis touches (touching a remote object costs a message).
The :class:`CostMeter` records exactly those quantities while the real
algorithms run; the machine simulator replays them onto simulated node
clocks.

Event vocabulary (shared by all algorithms)
-------------------------------------------
``entries_scanned``      history entries examined for dependences/painting
``intersection_tests``   exact index-space overlap tests
``elements_moved``       region values copied or folded (data-movement proxy)
``views_created``        composite views constructed (painter)
``view_nodes_captured``  subtree nodes captured into composite views
``views_traversed``      composite views walked during a path scan
``eqsets_created``       equivalence sets newly created
``eqsets_split``         equivalence-set refinements (Warnock/ray cast)
``eqsets_coalesced``     equivalence sets destroyed by a dominating write
``eqsets_visited``       equivalence sets consulted by an analysis
``bvh_nodes_visited``    acceleration-structure nodes walked

The counts are *modelled*: an access answered from a memo is charged what
the walk it stands for would have been — data (a ``{event: n}`` mapping on
the memo entry) applied by the one :meth:`CostMeter.charge`, never
compensating ``count`` calls sprinkled through a fast path.
"""

from __future__ import annotations

import threading
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping

from repro.clock import SystemClock


class UidSource:
    """Process-wide uids for one kind of distributed object.  A uid is the
    identity in a touch key (``("eqset", uid, lo)``) and every field of a
    runtime charges one meter, so the source is per process, not per
    store — and a restored object reserves the uid it brings, or a fresh
    interpreter (starting at 0) would hand it out a second time."""

    def __init__(self) -> None:
        self._next, self._lock = 0, threading.Lock()

    def take(self) -> int:
        """A uid nothing in this process carries."""
        with self._lock:
            self._next += 1
            return self._next - 1

    def restore(self, obj, state) -> None:
        """``__setstate__`` of a slotted uid carrier: the default slot
        restore, then never hand out that uid or any below it."""
        for name, value in state[1].items():
            setattr(obj, name, value)
        with self._lock:
            self._next = max(self._next, obj.uid + 1)


@dataclass(frozen=True)
class TaskCost:
    """Per-task slice of the meter: operation counts plus touched objects.

    ``touches`` are keys of distributed objects this analysis step read or
    wrote (e.g. ``("eqset", 17)``), each once, in first-touch order; the
    simulator maps keys to owner nodes and charges the messages in the
    order the analysis sent them (owner queues make the order matter, and
    a hash-ordered set would tie it to ``PYTHONHASHSEED``).
    """

    counters: dict[str, int]
    touches: tuple[Hashable, ...]

    @property
    def total_ops(self) -> int:
        """Sum of all counted operations."""
        return sum(self.counters.values())


class CostMeter:
    """Accumulates operation counts and distributed-object touches.

    A meter is shared by one algorithm instance.  Counts accumulate for the
    lifetime of the meter; :meth:`begin_task`/:meth:`end_task` bracket one
    task launch so callers can extract per-task deltas.

    A meter has one owner, the :class:`~repro.runtime.context.Runtime`
    whose algorithms charge it, driven by one thread at a time (each
    thread-backend replica and service slot owns its own): so it takes
    no lock, which cost ~19 acquisitions a launch.
    """

    __slots__ = ("counters", "_mark", "_task_touches")

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self._mark: dict[str, int] = {}
        # a dict for its insertion order: the task's first-touch sequence
        self._task_touches: dict[Hashable, None] = {}

    def count(self, event: str, n: int = 1) -> None:
        """Record ``n`` occurrences of ``event``."""
        self.counters[event] += n

    def touch(self, key: Hashable) -> None:
        """Record that the current analysis touched distributed object
        ``key``."""
        self._task_touches[key] = None

    def charge(self, counts: Mapping[str, int],
               touches: Iterable[Hashable] = ()) -> None:
        """Apply the modelled cost of one access: every ``{event: n}`` of
        ``counts`` (a zero leaves no key behind — the snapshot is hashed)
        and the touch keys, in order."""
        counters = self.counters
        for event, n in counts.items():
            if n:
                counters[event] += n
        for key in touches:
            self._task_touches[key] = None

    def begin_task(self, mark: bool = True) -> None:
        """Start one task's slice: forget the last task's touches and, if
        ``mark``, copy the counters :meth:`end_task` subtracts."""
        if mark:
            self._mark = dict(self.counters)
        self._task_touches = {}

    def end_task(self) -> TaskCost:
        """Return the counts and touches accumulated since
        :meth:`begin_task`."""
        delta = Counter(self.counters)
        delta.subtract(self._mark)
        counters = {k: v for k, v in delta.items() if v}
        return TaskCost(counters=counters, touches=tuple(self._task_touches))

    def snapshot(self) -> dict[str, int]:
        """Copy of the lifetime counters."""
        return dict(self.counters)

    def reset(self) -> None:
        """Clear all accumulated state."""
        self.counters.clear()
        self._mark.clear()
        self._task_touches.clear()

    def __repr__(self) -> str:
        top = ", ".join(f"{k}={v}" for k, v in self.counters.most_common(4))
        return f"CostMeter({top})"


@dataclass
class PhaseStat:
    """Accumulated wall-clock and data-volume totals for one named phase."""

    calls: int = 0
    seconds: float = 0.0
    bytes: int = 0


def _human_bytes(n: int) -> str:
    """1536 → '1.5KiB'; exact byte counts below 1 KiB stay integral."""
    if n < 1024:
        return f"{n}B"
    for unit in ("KiB", "MiB", "GiB", "TiB"):
        n /= 1024.0
        if n < 1024:
            return f"{n:.1f}{unit}"
    return f"{n:.1f}PiB"


class PhaseProfile:
    """Wall-clock perf counters for multi-phase operations.

    Where :class:`CostMeter` counts *algorithmic* operations (deterministic,
    replayable onto the machine simulator), a phase profile records *honest
    wall-clock time and data volume* per named phase of a real execution —
    the parallel shard-analysis executor uses one to attribute time to
    analysis (per shard), merge/verify, shipping, and sharded execution.

    Phase names are hierarchical by convention (``"analyze"``,
    ``"analyze.shard3"``); :meth:`render` groups them lexicographically.

    The clock is injectable (default :class:`~repro.clock.SystemClock`):
    tests pass a :class:`~repro.clock.FakeClock` and assert exact phase
    times.  Mutation is lock-protected — the thread backend merges worker
    profiles and credits shard phases concurrently.  Each timed phase also
    emits a span on the active :mod:`repro.obs` tracer, so the profile
    table and the Perfetto timeline agree by construction.
    """

    def __init__(self, clock=None) -> None:
        self._stats: dict[str, PhaseStat] = {}
        self._clock = clock if clock is not None else SystemClock()
        self._lock = threading.RLock()

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock")
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("_clock", SystemClock())
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def stat(self, name: str) -> PhaseStat:
        """The (created-on-demand) accumulator for one phase."""
        with self._lock:
            try:
                return self._stats[name]
            except KeyError:
                stat = self._stats[name] = PhaseStat()
                return stat

    @contextmanager
    def phase(self, name: str) -> Iterator[PhaseStat]:
        """Time one phase occurrence with a context manager."""
        from repro.obs import tracer as obs_tracer
        start = self._clock.monotonic()
        stat = self.stat(name)
        try:
            with obs_tracer.span(name, "phase"):
                yield stat
        finally:
            elapsed = self._clock.monotonic() - start
            with self._lock:
                stat.calls += 1
                stat.seconds += elapsed

    def add_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Credit externally measured time (e.g. from a worker process)."""
        with self._lock:
            stat = self.stat(name)
            stat.calls += calls
            stat.seconds += seconds

    def add_bytes(self, name: str, n: int) -> None:
        """Credit data volume (e.g. pickled bytes shipped to a worker)."""
        with self._lock:
            self.stat(name).bytes += n

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, PhaseStat]:
        """Copy of every phase's totals."""
        with self._lock:
            return {name: PhaseStat(s.calls, s.seconds, s.bytes)
                    for name, s in self._stats.items()}

    def merge(self, other: "PhaseProfile") -> None:
        """Fold another profile's totals into this one."""
        for name, s in other.snapshot().items():
            with self._lock:
                stat = self.stat(name)
                stat.calls += s.calls
                stat.seconds += s.seconds
                stat.bytes += s.bytes

    def reset(self) -> None:
        with self._lock:
            self._stats.clear()

    def __contains__(self, name: str) -> bool:
        return name in self._stats

    def render(self) -> str:
        """Aligned text table of every phase, sorted by name, with
        human-readable byte volumes and a ``total`` footer row."""
        stats = self.snapshot()
        if not stats:
            return "(no phases recorded)"
        rows = [("phase", "calls", "seconds", "bytes")]
        for name in sorted(stats):
            s = stats[name]
            rows.append((name, str(s.calls), f"{s.seconds:.6f}",
                         _human_bytes(s.bytes) if s.bytes else "-"))
        total = PhaseStat(sum(s.calls for s in stats.values()),
                          sum(s.seconds for s in stats.values()),
                          sum(s.bytes for s in stats.values()))
        rows.append(("total", str(total.calls), f"{total.seconds:.6f}",
                     _human_bytes(total.bytes) if total.bytes else "-"))
        widths = [max(len(r[k]) for r in rows) for k in range(4)]
        return "\n".join(
            "  ".join(col.ljust(w) if k == 0 else col.rjust(w)
                      for k, (col, w) in enumerate(zip(row, widths)))
            for row in rows)

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{name}={s.seconds:.3f}s" for name, s in
            sorted(self._stats.items()))
        return f"PhaseProfile({inner})"
