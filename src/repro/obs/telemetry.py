"""Streaming telemetry: windowed time-series over the live service.

The cumulative instruments in :mod:`repro.obs.metrics` answer
*post-mortem* questions — totals since process start.  A long-lived
:class:`~repro.service.service.AnalysisService` needs the *streaming*
questions answered while it runs: what is p99 latency right now, is a
tenant burning its error budget, did the breaker flap in the last
minute.  This module answers them from readings of those totals:

* :class:`TelemetryHub` periodically reads a
  :class:`~repro.obs.metrics.MetricsRegistry` (after any registered
  *samplers* publish live runtime internals into it) into a ring of
  :class:`TelemetrySample` readings.  A window query differences the
  newest reading against the one just before the window (a histogram's
  with :meth:`~repro.obs.metrics.QuantileDigest.minus`): one
  subtraction, and no raw samples kept.
* A tick is trace events — :func:`~repro.obs.export.metric_events`'s
  ``C`` readings plus ``exemplar`` and ``slo`` instants — which
  :class:`TelemetrySink` appends to size-rotated JSON Array segments.
  :func:`load_telemetry` replays a recording through the path a live
  tick takes, so ``repro top`` renders a file exactly as it renders live.

The clock is injectable (:class:`~repro.clock.SystemClock` /
:class:`~repro.clock.FakeClock`), so every windowing and
burn-rate behavior is testable without real sleeps: advance the clock,
call :meth:`TelemetryHub.sample`, assert.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro.clock import SystemClock
from repro.errors import MachineError
from repro.obs.export import (instant_event, is_number, load_trace,
                              metric_events)
from repro.obs.metrics import Histogram, MetricsRegistry, QuantileDigest
from repro.obs.tracer import DRIVER_PID

#: Default sliding windows (name -> seconds).
WINDOWS = {"10s": 10.0, "1m": 60.0, "5m": 300.0}

#: Name of the metadata event opening every telemetry segment.
META_EVENT = "repro.telemetry"

_FULL_NAME = re.compile(r'^(?P<name>[^{]+)(\{(?P<labels>.*)\})?$')
_LABEL = re.compile(r'(\w+)="([^"]*)"')


@lru_cache(maxsize=8192)
def _parse_cached(full_name: str) -> tuple[str, tuple]:
    match = _FULL_NAME.match(full_name)
    if match is None:  # pragma: no cover - regex accepts everything
        return full_name, ()
    labels = tuple(_LABEL.findall(match.group("labels") or ""))
    return match.group("name"), labels


def parse_full_name(full_name: str) -> tuple[str, dict]:
    """Split ``name{k="v",...}`` into ``(name, labels)`` — the inverse
    of :func:`repro.obs.metrics.format_labels`.  Metric names recur
    every tick, so the parse is memoized (a fresh labels dict is handed
    out per call; mutate freely)."""
    name, labels = _parse_cached(full_name)
    return name, dict(labels)


# ----------------------------------------------------------------------
# one reading
# ----------------------------------------------------------------------
@dataclass
class TelemetrySample:
    """One hub tick's reading of the registry.

    ``counters`` and ``digests`` are cumulative, as the registry held
    them; ``gauges`` hold values.  Keys are metric ``full_name`` strings
    (labels included), so per-tenant series stay distinct.
    ``exemplars`` carry the histogram exemplar rows *offered since the
    previous tick* (keyed like ``digests``), so a windowed p99 can point
    at the concrete sessions behind it.  ``interval`` is the time since
    the previous reading.
    """

    ts: float
    interval: float
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    digests: dict[str, QuantileDigest] = field(default_factory=dict)
    exemplars: dict[str, list] = field(default_factory=dict)

    def base_totals(self) -> dict[str, float]:
        """Counter totals folded by base name (labels stripped), built
        lazily and cached — readings are immutable once ringed, and the
        SLO evaluator asks for this fold every tick."""
        cache = getattr(self, "_base_totals", None)
        if cache is None:
            cache = {}
            for name, value in self.counters.items():
                base = _parse_cached(name)[0]
                cache[base] = cache.get(base, 0.0) + value
            self._base_totals = cache
        return cache


#: The reading before anything was counted: the baseline of a window
#: that reaches back past the first reading.
_NOTHING = TelemetrySample(0.0, 0.0)


def _alert(event: dict) -> dict:
    """An ``slo`` instant as the alert record the hub keeps and ``top``
    renders (named and timed by its event)."""
    line = dict(event.get("args") or {}, name=event["name"],
                ts=event["ts"] / 1e6)
    burn, windows = line.get("burn"), line.get("windows")
    if (line.get("state") not in ("firing", "resolved")
            or not isinstance(burn, dict)
            or not all(is_number(burn.get(k)) for k in ("short", "long"))
            or not is_number(line.get("objective"))
            or not isinstance(windows, list)
            or not all(isinstance(w, str) for w in windows)):
        raise ValueError(f"slo event {event['name']!r} needs a firing/"
                         "resolved state, a burn pair, an objective and "
                         "its windows")
    return line


# ----------------------------------------------------------------------
# trace-event segments with size-based rotation
# ----------------------------------------------------------------------
class TelemetrySink:
    """Appends a hub's events under a directory, rotating by size.

    Files are ``<prefix>-00000.json``, ``<prefix>-00001.json``, ... in
    the trace-event JSON Array Format: each opens with ``[`` and a
    :data:`META_EVENT` metadata event (``meta`` plus the segment index),
    then holds one event per line, each followed by a comma.
    :meth:`close` writes the closing ``]``, which readers do not need —
    a killed ``serve`` still leaves loadable segments.  ``max_bytes``
    bounds one segment (the metadata and at least one event always fit).
    """

    def __init__(self, directory: str | Path, *,
                 max_bytes: int = 1 << 20,
                 prefix: str = "telemetry",
                 meta: Optional[dict] = None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max(1024, int(max_bytes))
        self.prefix = prefix
        self.meta = dict(meta or {})
        self._index = 0
        self._handle = None
        self._written = 0

    @property
    def paths(self) -> list[Path]:
        """Every segment written so far, in rotation order."""
        return sorted(self.directory.glob(f"{self.prefix}-*.json"))

    def _open_segment(self) -> None:
        path = self.directory / f"{self.prefix}-{self._index:05d}.json"
        self._handle = path.open("w", encoding="utf-8")
        self._handle.write("[\n")
        self._written = 2
        self._emit({"name": META_EVENT, "ph": "M", "pid": DRIVER_PID,
                    "tid": 0, "args": dict(self.meta, segment=self._index)})

    def _emit(self, event: dict) -> None:
        text = json.dumps(event, sort_keys=True,
                          separators=(",", ":")) + ",\n"
        self._handle.write(text)
        self._written += len(text)

    def write(self, events: Sequence[dict]) -> None:
        """Append one tick's events, rotating first whenever the
        segment is full."""
        for event in events:
            if self._handle is None:
                self._open_segment()
            elif self._written >= self.max_bytes:
                self.close()
                self._index += 1
                self._open_segment()
            self._emit(event)
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.write("]\n")
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# the hub
# ----------------------------------------------------------------------
class TelemetryHub:
    """Periodic reader + sliding-window query surface.

    Pull-based by design: nothing in the analysis or service hot paths
    knows the hub exists — they keep publishing cumulative instruments
    exactly as before, and the hub reads those totals at each
    :meth:`sample`.  A run without a hub therefore pays *zero* telemetry
    cost (the overhead proof in ``benchmarks/test_obs_overhead.py`` pins
    this).

    ``samplers`` are callables invoked with the registry at the top of
    every tick; they ``publish`` live runtime internals (per-tenant
    phase profiles, recovery counters, geometry caches) so the
    subsequent reading sees them.  ``evaluator`` (an
    :class:`~repro.obs.slo.SloEvaluator`) is consulted once per tick;
    alert transitions are appended to :attr:`alerts` and written to the
    sink.
    """

    def __init__(self,
                 registry: Optional[MetricsRegistry] = None,
                 *,
                 clock=None,
                 interval: float = 1.0,
                 windows: Optional[dict[str, float]] = None,
                 sink: Optional[TelemetrySink] = None,
                 evaluator=None) -> None:
        if interval <= 0:
            raise MachineError(f"sample interval {interval} must be > 0")
        self.registry = registry
        self.clock = clock if clock is not None else SystemClock()
        self.interval = float(interval)
        self.windows = dict(windows if windows is not None else WINDOWS)
        if not self.windows:
            raise MachineError("hub needs at least one window")
        capacity = int(math.ceil(max(self.windows.values())
                                 / self.interval)) + 1
        self.samples: deque[TelemetrySample] = deque(maxlen=capacity)
        #: the reading the ring evicted last — the baseline of a window
        #: that reaches back past the oldest reading held
        self._evicted: Optional[TelemetrySample] = None
        self.sink = sink
        self.evaluator = evaluator
        self.alerts: list[dict] = []
        self._samplers: list[Callable] = []
        self._last_exemplar_seq: dict[str, int] = {}

    # -- sampling -------------------------------------------------------
    def add_sampler(self, sampler: Callable) -> None:
        """Register ``sampler(registry)`` to run before each reading."""
        self._samplers.append(sampler)

    def sample(self) -> TelemetrySample:
        """Take one tick: publish samplers, read the registry into the
        ring, evaluate SLOs, write the tick's events to the sink."""
        if self.registry is None:
            raise MachineError("replayed hub cannot sample (no registry)")
        for sampler in self._samplers:
            sampler(self.registry)
        now = self.clock.monotonic()
        ts = round(now * 1e6, 3)
        events = metric_events(self.registry, ts) + self._exemplars(ts)
        sample = self._push(ts / 1e6, events)
        if self.evaluator is not None:
            for status in self.evaluator.evaluate(self, now):
                if status.changed:
                    event = instant_event(status.name, "slo", ts,
                                          status.to_args())
                    self.alerts.append(_alert(event))
                    events.append(event)
        if self.sink is not None:
            self.sink.write(events)
        return sample

    def _exemplars(self, ts: float) -> list[dict]:
        """One ``exemplar`` instant per row offered since the last tick
        (the monotone per-histogram ``seq`` is the cursor)."""
        events = []
        for metric in self.registry:
            if not (isinstance(metric, Histogram)
                    and metric.exemplar_capacity):
                continue
            name = metric.full_name
            last = self._last_exemplar_seq.get(name, 0)
            fresh = [row for row in metric.exemplars() if row["seq"] > last]
            if fresh:
                self._last_exemplar_seq[name] = fresh[-1]["seq"]
                events += [instant_event(name, "exemplar", ts, row)
                           for row in fresh]
        return events

    def _push(self, ts: float, events: Sequence[dict]) -> TelemetrySample:
        """Ring one tick's ``C`` and ``exemplar`` events as a reading."""
        last = self.samples[-1] if self.samples else self._evicted
        sample = TelemetrySample(ts, ts - last.ts if last is not None
                                 else self.interval)
        for event in events:
            name, cat = event["name"], event.get("cat")
            args = event.get("args") or {}
            if cat == "histogram":
                sample.digests[name] = QuantileDigest.from_args(args)
            elif cat == "exemplar":
                if not is_number(args.get("value")):
                    raise ValueError(f"exemplar of {name!r} has no "
                                     "numeric value")
                sample.exemplars.setdefault(name, []).append(args)
            elif cat in ("counter", "gauge"):
                if "value" not in args:
                    raise ValueError(f"{cat} reading {name!r} has no value")
                kind = sample.counters if cat == "counter" else sample.gauges
                kind[name] = args["value"]
        if len(self.samples) == self.samples.maxlen:
            self._evicted = self.samples[0]
        self.samples.append(sample)
        return sample

    def close(self) -> None:
        if self.sink is not None:
            self.sink.close()

    # -- windowed queries -----------------------------------------------
    def window_seconds(self, window: str | float) -> float:
        """Resolve a window name (or raw seconds) to seconds."""
        if isinstance(window, str):
            if window not in self.windows:
                raise MachineError(
                    f"unknown window {window!r}; have "
                    f"{sorted(self.windows)}")
            return self.windows[window]
        return float(window)

    def _ends(self, window: str | float
              ) -> tuple[TelemetrySample, TelemetrySample]:
        """The newest reading and the one just before the window."""
        seconds = self.window_seconds(window)
        if not self.samples:
            return _NOTHING, _NOTHING
        newest = self.samples[-1]
        before = self._evicted or _NOTHING
        for sample in self.samples:
            if sample.ts > newest.ts - seconds:
                break
            before = sample
        return newest, before

    def samples_in(self, window: str | float) -> list[TelemetrySample]:
        """Readings whose timestamp falls inside the trailing window."""
        if not self.samples:
            return []
        horizon = self.samples[-1].ts - self.window_seconds(window)
        return [s for s in self.samples if s.ts > horizon]

    def span(self, window: str | float) -> float:
        """Seconds of data actually covered by the window's readings."""
        return sum(s.interval for s in self.samples_in(window))

    def delta(self, name: str, window: str | float) -> float:
        """How far a counter moved over the window (0.0 when unseen)."""
        newest, before = self._ends(window)
        return newest.counters.get(name, 0.0) - before.counters.get(name, 0.0)

    def delta_matching(self, base_name: str,
                       window: str | float) -> float:
        """Summed deltas of every counter whose *base* name (labels
        stripped) equals ``base_name`` — the cross-tenant fold."""
        newest, before = self._ends(window)
        return (newest.base_totals().get(base_name, 0.0)
                - before.base_totals().get(base_name, 0.0))

    def gauge(self, name: str, default: float = 0.0) -> float:
        """The newest reading of a gauge."""
        if not self.samples:
            return default
        return self.samples[-1].gauges.get(name, default)

    def digest(self, name: str,
               window: str | float) -> Optional[QuantileDigest]:
        """What a histogram series observed over the window (``None``
        when it observed nothing)."""
        newest, before = self._ends(window)
        current = newest.digests.get(name)
        if current is None:
            return None
        part = current.minus(before.digests.get(name))
        return part if part.count else None

    def quantiles(self, name: str, window: str | float,
                  qs: Sequence[float] = (0.5, 0.95, 0.99)) -> dict:
        """Windowed quantile summary (NaNs when the window is empty)."""
        digest = self.digest(name, window) or QuantileDigest((math.inf,))
        return digest.quantiles(qs)

    def exemplars_in(self, name: str, window: str | float) -> list[dict]:
        """Every exemplar row shipped for ``name`` inside the window,
        slowest first — what ``repro top`` renders as the concrete
        offenders behind the windowed p95/p99."""
        rows: list[dict] = []
        for sample in self.samples_in(window):
            rows.extend(sample.exemplars.get(name, ()))
        rows.sort(key=lambda r: -r["value"])
        return rows

    def series_names(self) -> dict[str, set]:
        """Every key seen across the ring, by record kind."""
        out = {"counters": set(), "gauges": set(), "digests": set()}
        for sample in self.samples:
            out["counters"].update(sample.counters)
            out["gauges"].update(sample.gauges)
            out["digests"].update(sample.digests)
        return out

    def firing_alerts(self) -> list[dict]:
        """Alert records still in the firing state (latest transition per
        alert name wins — correct for live and replayed hubs alike)."""
        latest: dict[str, dict] = {}
        for line in self.alerts:
            latest[line["name"]] = line
        return [line for _, line in sorted(latest.items())
                if line["state"] == "firing"]

    def __len__(self) -> int:
        return len(self.samples)


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------
def _positive(value) -> bool:
    return is_number(value) and 0 < value < math.inf


def load_telemetry(source: str | Path) -> TelemetryHub:
    """Replay a recording (read by :func:`~repro.obs.export.load_trace`)
    into a query-only hub: each timestamp's ``C`` and ``exemplar`` events
    become one reading, the ``slo`` instants the alert log.  Raises
    ``ValueError`` for anything the readings cannot be built from."""
    events = load_trace(source)[0]["traceEvents"]
    meta = next((e.get("args") or {} for e in events
                 if e["ph"] == "M" and e["name"] == META_EVENT), {})
    interval = meta.get("interval", 1.0)
    windows = meta.get("windows", WINDOWS)
    if not (_positive(interval) and isinstance(windows, dict) and windows
            and all(_positive(w) for w in windows.values())):
        raise ValueError(f"{source}: {META_EVENT} metadata needs a "
                         "positive interval and positive windows")
    hub = TelemetryHub(None, interval=interval, windows=windows)
    tick: list[dict] = []
    for event in events:
        if event["ph"] == "C" or (event["ph"] == "i"
                                  and event.get("cat") == "exemplar"):
            if tick and event["ts"] != tick[0]["ts"]:
                hub._push(tick[0]["ts"] / 1e6, tick)
                tick = []
            tick.append(event)
        elif event["ph"] == "i" and event.get("cat") == "slo":
            hub.alerts.append(_alert(event))
    if tick:
        hub._push(tick[0]["ts"] / 1e6, tick)
    return hub
