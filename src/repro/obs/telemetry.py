"""Streaming telemetry: windowed time-series over the live service.

The cumulative instruments in :mod:`repro.obs.metrics` answer
*post-mortem* questions — totals since process start.  A long-lived
:class:`~repro.service.service.AnalysisService` needs the *streaming*
questions answered while it runs: what is p99 latency right now, is a
tenant burning its error budget, did the breaker flap in the last
minute.  This module maintains that state incrementally — the
observability analogue of the paper's core move of updating analysis
state per task instead of recomputing from scratch:

* :class:`TelemetryHub` periodically samples a
  :class:`~repro.obs.metrics.MetricsRegistry` (plus any registered
  *samplers* that publish live runtime internals into it first) into a
  ring buffer of per-tick :class:`TelemetrySample` records.  Counters
  are stored as **deltas** (cumulative totals are differenced, with
  reset detection), gauges as last values, and histograms as per-tick
  :class:`QuantileDigest` deltas — so any sliding window is a cheap
  fold over at most ``window / interval`` small records and raw samples
  are never retained.
* A tick's histogram record is the
  :class:`~repro.obs.metrics.QuantileDigest` the instrument holds now
  ``minus`` the one it held at the previous tick; merging the ticks of
  a window adds counts, and a window quantile is one cumulative walk
  over the same buckets as the cumulative instrument's.
* :class:`TelemetrySink` writes every sample (and every SLO alert
  transition) as one JSON line in the ``repro.telemetry/1`` schema,
  with size-based rotation; :func:`validate_telemetry` is the schema
  checker CI runs over emitted files, and :func:`load_telemetry`
  replays a recorded stream back into a hub so ``repro-cli top`` can
  render from a file exactly as it renders live.

The clock is injectable (:class:`~repro.distributed.faults.SystemClock`
/ :class:`~repro.distributed.faults.FakeClock`), so every windowing and
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
from typing import Callable, Iterable, Optional, Sequence

from repro.errors import MachineError
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               QuantileDigest, format_labels)

#: Schema identifier stamped on every telemetry JSONL file.
TELEMETRY_SCHEMA = "repro.telemetry/1"

#: Line kinds a telemetry stream may carry.
LINE_KINDS = ("meta", "sample", "alert")

#: Default sliding windows (name -> seconds).
WINDOWS = {"10s": 10.0, "1m": 60.0, "5m": 300.0}

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
# one sampling tick
# ----------------------------------------------------------------------
@dataclass
class TelemetrySample:
    """Everything one hub tick extracted from the registry.

    ``counters`` hold **deltas** since the previous tick (reset-aware),
    ``gauges`` hold current values, ``digests`` hold per-tick histogram
    deltas as :class:`QuantileDigest` records.  Keys are metric
    ``full_name`` strings (labels included), so per-tenant series stay
    distinct.  ``exemplars`` carry the histogram exemplar rows *offered
    since the previous tick* (keyed like ``digests``; present only when
    a histogram has exemplar reservoirs enabled), so a windowed p99 can
    point at the concrete sessions behind it.
    """

    ts: float
    interval: float
    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    digests: dict[str, QuantileDigest] = field(default_factory=dict)
    exemplars: dict[str, list] = field(default_factory=dict)

    def to_line(self) -> dict:
        line = {
            "kind": "sample", "ts": round(self.ts, 6),
            "interval": round(self.interval, 6),
            "counters": {k: self.counters[k]
                         for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "digests": {k: self.digests[k].to_dict()
                        for k in sorted(self.digests)},
        }
        if self.exemplars:
            line["exemplars"] = {k: self.exemplars[k]
                                 for k in sorted(self.exemplars)}
        return line

    @classmethod
    def from_line(cls, line: dict) -> "TelemetrySample":
        return cls(
            ts=float(line["ts"]), interval=float(line.get("interval", 0.0)),
            counters={k: float(v)
                      for k, v in (line.get("counters") or {}).items()},
            gauges={k: float(v)
                    for k, v in (line.get("gauges") or {}).items()},
            digests={k: QuantileDigest.from_dict(v)
                     for k, v in (line.get("digests") or {}).items()},
            exemplars={k: list(v)
                       for k, v in (line.get("exemplars") or {}).items()})

    def base_totals(self) -> dict[str, float]:
        """Counter deltas folded by base name (labels stripped), built
        lazily and cached — samples are immutable once ringed, and the
        SLO evaluator asks for this fold every tick."""
        cache = getattr(self, "_base_totals", None)
        if cache is None:
            cache = {}
            for name, value in self.counters.items():
                base = _parse_cached(name)[0]
                cache[base] = cache.get(base, 0.0) + value
            self._base_totals = cache
        return cache


# ----------------------------------------------------------------------
# JSONL sink with size-based rotation
# ----------------------------------------------------------------------
class TelemetrySink:
    """Writes telemetry lines under a directory, rotating by size.

    Files are ``<prefix>-00000.jsonl``, ``<prefix>-00001.jsonl``, ...;
    every file opens with its own ``meta`` line so each rotation segment
    is self-describing.  ``max_bytes`` bounds one segment (the meta +
    at least one record always fit — a single oversized record never
    wedges the sink).
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
        self.lines = 0
        self.rotations = 0

    @property
    def paths(self) -> list[Path]:
        """Every segment written so far, in rotation order."""
        return sorted(self.directory.glob(f"{self.prefix}-*.jsonl"))

    def _open_segment(self) -> None:
        path = self.directory / f"{self.prefix}-{self._index:05d}.jsonl"
        self._handle = path.open("w")
        self._written = 0
        meta = dict(self.meta, kind="meta", schema=TELEMETRY_SCHEMA,
                    segment=self._index)
        self._emit(meta)

    def _emit(self, obj: dict) -> None:
        text = json.dumps(obj, sort_keys=True,
                          separators=(",", ":")) + "\n"
        self._handle.write(text)
        self._handle.flush()
        self._written += len(text)
        self.lines += 1

    def write(self, obj: dict) -> None:
        """Append one line, rotating first when the segment is full."""
        if self._handle is None:
            self._open_segment()
        elif self._written >= self.max_bytes:
            self._handle.close()
            self._index += 1
            self.rotations += 1
            self._open_segment()
        self._emit(obj)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# the hub
# ----------------------------------------------------------------------
class TelemetryHub:
    """Periodic sampler + sliding-window query surface.

    Pull-based by design: nothing in the analysis or service hot paths
    knows the hub exists — they keep publishing cumulative instruments
    exactly as before, and the hub differences those totals at each
    :meth:`sample`.  A run without a hub therefore pays *zero* telemetry
    cost (the overhead proof in ``benchmarks/test_obs_overhead.py`` pins
    this).

    ``samplers`` are callables invoked with the registry at the top of
    every tick; they ``publish`` live runtime internals (per-tenant
    phase profiles, recovery counters, geometry caches) so the
    subsequent snapshot sees them.  ``evaluator`` (an
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
        if clock is None:
            from repro.distributed.faults import SystemClock
            clock = SystemClock()
        self.registry = registry
        self.clock = clock
        self.interval = float(interval)
        self.windows = dict(windows if windows is not None else WINDOWS)
        if not self.windows:
            raise MachineError("hub needs at least one window")
        capacity = int(math.ceil(max(self.windows.values())
                                 / self.interval)) + 1
        self.samples: deque[TelemetrySample] = deque(maxlen=capacity)
        self.sink = sink
        self.evaluator = evaluator
        self.alerts: list[dict] = []
        self._samplers: list[Callable] = []
        self._last_counters: dict[str, float] = {}
        self._last_hist: dict[str, QuantileDigest] = {}
        self._last_exemplar_seq: dict[str, int] = {}
        self._last_ts: Optional[float] = None

    # -- sampling -------------------------------------------------------
    def add_sampler(self, sampler: Callable) -> None:
        """Register ``sampler(registry)`` to run before each snapshot."""
        self._samplers.append(sampler)

    def sample(self) -> TelemetrySample:
        """Take one tick: publish samplers, difference the registry,
        append to the ring, evaluate SLOs, write the sink."""
        if self.registry is None:
            raise MachineError("replayed hub cannot sample (no registry)")
        for sampler in self._samplers:
            sampler(self.registry)
        now = self.clock.monotonic()
        elapsed = (now - self._last_ts if self._last_ts is not None
                   else self.interval)
        self._last_ts = now
        sample = TelemetrySample(ts=now, interval=max(0.0, elapsed))
        for metric in self.registry:
            name = metric.full_name
            if isinstance(metric, Counter):
                current = metric.value
                last = self._last_counters.get(name)
                # reset-aware delta: a total below the last seen value
                # means the source restarted; its whole total is new
                delta = current if last is None or current < last \
                    else current - last
                self._last_counters[name] = current
                sample.counters[name] = delta
            elif isinstance(metric, Histogram):
                current = metric.digest()
                digest = current.minus(self._last_hist.get(name))
                self._last_hist[name] = current
                if digest.count:
                    sample.digests[name] = digest
                if metric.exemplar_capacity:
                    # ship only exemplars offered since the last tick
                    # (monotone per-histogram seq), mirroring the delta
                    # treatment of every other record kind
                    last_seq = self._last_exemplar_seq.get(name, 0)
                    fresh = [row for row in metric.exemplars()
                             if row["seq"] > last_seq]
                    if fresh:
                        self._last_exemplar_seq[name] = \
                            max(row["seq"] for row in fresh)
                        sample.exemplars[name] = fresh
            elif isinstance(metric, Gauge):
                sample.gauges[name] = metric.value
        self._derive_hit_rates(sample)
        self.samples.append(sample)
        if self.sink is not None:
            self.sink.write(sample.to_line())
        if self.evaluator is not None:
            for status in self.evaluator.evaluate(self, now):
                if status.changed:
                    line = status.to_line()
                    self.alerts.append(line)
                    if self.sink is not None:
                        self.sink.write(line)
        return sample

    def _derive_hit_rates(self, sample: TelemetrySample) -> None:
        """Instantaneous ``geom.cache.hit_rate`` gauges from the tick's
        hit/miss deltas (one per label set; only when there was
        traffic)."""
        for name, hits in sample.counters.items():
            base, labels = parse_full_name(name)
            if base != "geom.cache.hits":
                continue
            miss_name = name.replace("geom.cache.hits",
                                     "geom.cache.misses", 1)
            misses = sample.counters.get(miss_name, 0.0)
            if hits + misses > 0:
                sample.gauges["geom.cache.hit_rate"
                              + format_labels(labels)] = \
                    hits / (hits + misses)

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

    def samples_in(self, window: str | float) -> list[TelemetrySample]:
        """Samples whose timestamp falls inside the trailing window."""
        if not self.samples:
            return []
        horizon = self.samples[-1].ts - self.window_seconds(window)
        return [s for s in self.samples if s.ts > horizon]

    def span(self, window: str | float) -> float:
        """Seconds of data actually covered by the window's samples."""
        return sum(s.interval for s in self.samples_in(window))

    def delta(self, name: str, window: str | float) -> float:
        """Summed counter delta over the window (0.0 when unseen)."""
        return sum(s.counters.get(name, 0.0)
                   for s in self.samples_in(window))

    def delta_matching(self, base_name: str,
                       window: str | float) -> float:
        """Summed deltas of every counter whose *base* name (labels
        stripped) equals ``base_name`` — the cross-tenant fold."""
        return sum(s.base_totals().get(base_name, 0.0)
                   for s in self.samples_in(window))

    def rate(self, name: str, window: str | float) -> float:
        """Per-second rate of a counter over the window."""
        seconds = self.span(window)
        return self.delta(name, window) / seconds if seconds > 0 else 0.0

    def gauge(self, name: str, default: float = 0.0) -> float:
        """Most recent value of a gauge (scans back for samplers that
        publish intermittently)."""
        for sample in reversed(self.samples):
            if name in sample.gauges:
                return sample.gauges[name]
        return default

    def digest(self, name: str,
               window: str | float) -> Optional[QuantileDigest]:
        """Merged digest of a histogram series over the window (``None``
        when the window saw no observations)."""
        merged: Optional[QuantileDigest] = None
        for sample in self.samples_in(window):
            part = sample.digests.get(name)
            if part is None:
                continue
            if merged is None:
                merged = part.copy()
            else:
                merged.merge(part)
        return merged

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
        rows.sort(key=lambda r: -r.get("value", 0.0))
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
        """Alert lines still in the firing state (latest transition per
        alert name wins — correct for live and replayed hubs alike)."""
        latest: dict[str, dict] = {}
        for line in self.alerts:
            latest[line["name"]] = line
        return [line for _, line in sorted(latest.items())
                if line["state"] == "firing"]

    def __len__(self) -> int:
        return len(self.samples)


# ----------------------------------------------------------------------
# schema validation + replay
# ----------------------------------------------------------------------
def _telemetry_paths(source: str | Path) -> list[Path]:
    path = Path(source)
    if path.is_dir():
        paths = sorted(path.glob("*.jsonl"))
        if not paths:
            raise FileNotFoundError(
                f"no *.jsonl telemetry segments under {path}")
        return paths
    if not path.exists():
        raise FileNotFoundError(f"no such telemetry file: {path}")
    return [path]


def validate_telemetry(source) -> list[str]:
    """Schema-check a telemetry stream; returns human-readable problems
    (empty means valid).

    ``source`` is a file path, a directory of segments, or an iterable
    of already-parsed line dicts.  Checks: every line is an object with
    a known ``kind``; each segment opens with a ``repro.telemetry/1``
    meta line; sample timestamps are monotone per segment; counter
    deltas are non-negative numbers; digests carry aligned, increasing
    centroid vectors with non-negative counts; alerts carry a name and
    a firing/resolved state.
    """
    if isinstance(source, (str, Path)):
        try:
            paths = _telemetry_paths(source)
        except FileNotFoundError as exc:
            return [str(exc)]
        segments = []
        for path in paths:
            lines = []
            for k, text in enumerate(path.read_text().splitlines()):
                try:
                    lines.append(json.loads(text))
                except json.JSONDecodeError as exc:
                    return [f"{path.name} line {k}: not JSON ({exc})"]
            segments.append((path.name, lines))
    else:
        segments = [("<lines>", list(source))]

    problems: list[str] = []
    for segment, lines in segments:
        if not lines:
            problems.append(f"{segment}: empty segment")
            continue
        last_ts = None
        for k, line in enumerate(lines):
            where = f"{segment} line {k}"
            if not isinstance(line, dict):
                problems.append(f"{where}: not an object")
                continue
            kind = line.get("kind")
            if kind not in LINE_KINDS:
                problems.append(f"{where}: unknown kind {kind!r}")
                continue
            if k == 0:
                if kind != "meta":
                    problems.append(
                        f"{where}: segment must open with a meta line")
                elif line.get("schema") != TELEMETRY_SCHEMA:
                    problems.append(
                        f"{where}: schema {line.get('schema')!r} != "
                        f"{TELEMETRY_SCHEMA!r}")
                continue
            if kind == "meta":
                continue
            ts = line.get("ts")
            if not isinstance(ts, (int, float)):
                problems.append(f"{where}: 'ts' must be a number")
                continue
            if kind == "sample":
                if last_ts is not None and ts < last_ts:
                    problems.append(
                        f"{where}: sample ts {ts} precedes {last_ts}")
                last_ts = ts
                for group in ("counters", "gauges"):
                    values = line.get(group, {})
                    if not isinstance(values, dict):
                        problems.append(f"{where}: {group!r} must be an "
                                        "object")
                        continue
                    for name, value in values.items():
                        if not isinstance(value, (int, float)):
                            problems.append(
                                f"{where}: {group}[{name!r}] not a "
                                "number")
                        elif group == "counters" and value < 0:
                            problems.append(
                                f"{where}: counter delta {name!r} is "
                                f"negative ({value})")
                for name, digest in (line.get("digests") or {}).items():
                    problems.extend(
                        f"{where}: digests[{name!r}]: {p}"
                        for p in _digest_problems(digest))
                exemplars = line.get("exemplars", {})
                if not isinstance(exemplars, dict):
                    problems.append(
                        f"{where}: 'exemplars' must be an object")
                else:
                    for name, rows in exemplars.items():
                        problems.extend(
                            f"{where}: exemplars[{name!r}]{p}"
                            for p in _exemplar_problems(rows))
            elif kind == "alert":
                if not isinstance(line.get("name"), str):
                    problems.append(f"{where}: alert needs a 'name'")
                if line.get("state") not in ("firing", "resolved"):
                    problems.append(
                        f"{where}: alert state must be firing/resolved, "
                        f"got {line.get('state')!r}")
    return problems


def _exemplar_problems(rows) -> list[str]:
    """Problems with one sample line's exemplar rows; each message is
    suffix key-path form (``[k].value: ...``)."""
    if not isinstance(rows, list):
        return [": must be an array"]
    problems = []
    for k, row in enumerate(rows):
        if not isinstance(row, dict):
            problems.append(f"[{k}]: must be an object")
            continue
        if not isinstance(row.get("value"), (int, float)):
            problems.append(f"[{k}].value: missing or not a number")
        if not isinstance(row.get("seq"), int) or row.get("seq", 0) < 1:
            problems.append(f"[{k}].seq: missing or not a positive "
                            "integer")
    return problems


def _digest_problems(digest) -> list[str]:
    if not isinstance(digest, dict):
        return ["not an object"]
    centroids = digest.get("centroids")
    counts = digest.get("counts")
    if not isinstance(centroids, list) or not isinstance(counts, list):
        return ["needs 'centroids' and 'counts' lists"]
    if len(centroids) != len(counts):
        return [f"{len(centroids)} centroids vs {len(counts)} counts"]
    finite = [c for c in centroids if c is not None]
    if finite != sorted(set(finite)):
        return ["centroids not strictly increasing"]
    if any(not isinstance(n, int) or n < 0 for n in counts):
        return ["counts must be non-negative integers"]
    return []


def load_telemetry(source: str | Path) -> TelemetryHub:
    """Replay a recorded stream into a query-only hub.

    The returned hub has no registry (``sample()`` is refused) but the
    full windowed query surface and the recorded alert transitions —
    ``repro-cli top --once`` renders from it exactly as from a live
    hub."""
    paths = _telemetry_paths(source)
    problems = validate_telemetry(source)
    if problems:
        detail = "; ".join(problems[:5])
        if len(problems) > 5:
            detail += f"; ... {len(problems) - 5} more"
        raise ValueError(f"{source} is not a valid telemetry stream: "
                         f"{detail}")
    interval = 1.0
    windows: Optional[dict] = None
    samples: list[TelemetrySample] = []
    alerts: list[dict] = []
    for path in paths:
        for text in path.read_text().splitlines():
            line = json.loads(text)
            kind = line.get("kind")
            if kind == "meta":
                interval = float(line.get("interval", interval))
                if isinstance(line.get("windows"), dict):
                    windows = {str(k): float(v)
                               for k, v in line["windows"].items()}
            elif kind == "sample":
                samples.append(TelemetrySample.from_line(line))
            elif kind == "alert":
                alerts.append(line)
    hub = TelemetryHub(None, clock=_FrozenClock(), interval=interval,
                       windows=windows)
    for sample in samples:
        hub.samples.append(sample)
    hub.alerts = alerts
    return hub


class _FrozenClock:
    """Clock for replayed hubs — never consulted, never sleeps."""

    def monotonic(self) -> float:  # pragma: no cover - defensive
        return 0.0

    def sleep(self, seconds: float) -> None:  # pragma: no cover
        raise MachineError("replayed telemetry hub cannot sleep")
