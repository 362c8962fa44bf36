"""The metrics registry — one labelled store behind every instrument.

Three instrument kinds, all labelled:

* :class:`Counter` — a monotonically published total;
* :class:`Gauge` — a last-value-wins measurement;
* :class:`Histogram` — a labelled, lock-protected
  :class:`QuantileDigest` (the one bucketed distribution: observations
  fall into the first bucket whose upper bound is >= the value, plus a
  +inf overflow bucket) and an optional exemplar reservoir.

Sources that keep their own cumulative totals (``CostMeter.snapshot()``,
``GeometryCache.stats()``, ``RecoveryReport.counters()``, a phase's
``PhaseStat``) reach the store through the one bridge,
:meth:`MetricsRegistry.publish`.

All mutation is lock-protected: registries are shared across the thread
backend's workers.
"""

from __future__ import annotations

import math
import random
import threading
import zlib
from bisect import bisect_left
from typing import Collection, Iterator, Mapping, Optional, Sequence

from repro.errors import MachineError

#: Default histogram buckets (seconds): spans from microseconds to
#: minutes, log-spaced — the range analysis phases actually cover.
DEFAULT_BUCKETS = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0)


class DigestError(MachineError, ValueError):
    """A malformed bucket vector or quantile: a ``MachineError`` to the
    telemetry layer's callers, a ``ValueError`` to the registry's."""


def _label_key(labels: dict) -> tuple:
    return tuple(sorted(labels.items()))


def format_labels(labels: dict) -> str:
    """Render labels Prometheus-style: ``{k="v",...}`` (empty → '')."""
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


class QuantileDigest:
    """A mergeable quantile summary over a fixed centroid vector.

    ``centroids`` are inclusive upper bounds in strictly increasing
    order; a trailing ``+inf`` centroid is appended when absent, so the
    digest covers the whole line.  Observations land on the first
    centroid >= value.  Merging digests with identical centroids is an
    elementwise count add — O(centroids), no raw samples kept — and
    :meth:`minus` is its inverse over two readings of one source.
    """

    __slots__ = ("centroids", "counts", "count", "sum")

    def __init__(self, centroids: Sequence[float]) -> None:
        bounds = tuple(float(c) for c in centroids)
        if not bounds:
            raise DigestError("digest needs at least one centroid")
        if list(bounds) != sorted(set(bounds)):
            raise DigestError("digest centroids must be strictly "
                              "increasing")
        if not math.isinf(bounds[-1]):
            bounds = bounds + (math.inf,)
        self.centroids = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float, n: int = 1) -> int:
        """Fold ``n`` observations of ``value`` in; returns the index of
        the bucket they landed in."""
        k = bisect_left(self.centroids, value)
        self.counts[k] += n
        self.count += n
        self.sum += value * n
        return k

    def merge(self, other: "QuantileDigest") -> "QuantileDigest":
        """Fold ``other`` into this digest (identical centroids only)."""
        if other.centroids != self.centroids:
            raise DigestError("cannot merge digests with different "
                              "centroid vectors")
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self.count += other.count
        self.sum += other.sum
        return self

    def minus(self, previous: Optional["QuantileDigest"]
              ) -> "QuantileDigest":
        """What one source observed between its ``previous`` reading and
        this one.  A previous reading with other centroids, or with more
        in any bucket than there is now, means the source restarted:
        everything in this reading is new."""
        out = self.copy()
        if previous is not None and previous.centroids == self.centroids \
                and all(p <= c for p, c in zip(previous.counts,
                                               self.counts)):
            out.counts = [c - p for c, p in zip(self.counts,
                                                previous.counts)]
            out.count -= previous.count
            out.sum -= previous.sum
        return out

    def quantile(self, q: float) -> float:
        """Centroid of the bucket holding the ``q``-quantile — always an
        occupied one (NaN when empty: no data is not a latency of 0)."""
        if not 0.0 <= q <= 1.0:
            raise DigestError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return math.nan
        target = q * self.count
        seen = 0
        for centroid, n in zip(self.centroids, self.counts):
            seen += n
            if n and seen >= target:
                return centroid
        return self.centroids[-1]

    def quantiles(self, qs: Sequence[float] = (0.5, 0.95, 0.99)) -> dict:
        """``{"p50": ..., "p95": ..., "p99": ...}`` centroids."""
        return {f"p{round(q * 100) if q < 1 else 100}": self.quantile(q)
                for q in qs}

    def fraction_at_most(self, bound: float) -> float:
        """Fraction of observations on centroids <= ``bound`` (NaN when
        empty) — the latency-SLO 'good events' reader."""
        if self.count == 0:
            return math.nan
        good = sum(n for c, n in zip(self.centroids, self.counts)
                   if c <= bound)
        return good / self.count

    def copy(self) -> "QuantileDigest":
        out = QuantileDigest.__new__(QuantileDigest)  # bounds are checked
        out.centroids, out.counts = self.centroids, list(self.counts)
        out.count, out.sum = self.count, self.sum
        return out

    def to_args(self) -> dict:
        """The args of a histogram ``C`` event: ``count``, ``sum`` and
        one count per bucket, keyed by its bound (``le=0.1``, ``le=inf``)."""
        args = {"count": self.count, "sum": round(self.sum, 9)}
        args.update((f"le={bound!r}", n)
                    for bound, n in zip(self.centroids, self.counts))
        return args

    @classmethod
    def from_args(cls, args: dict) -> "QuantileDigest":
        """The digest a histogram ``C`` event's args carry."""
        buckets = {}
        for key, n in args.items():
            if key.startswith("le="):
                try:
                    buckets[float(key[3:])] = n
                except ValueError:
                    raise DigestError(f"histogram bucket bound {key!r} is "
                                      "not a number") from None
        digest = cls(sorted(buckets))
        digest.counts = [buckets.get(bound, 0) for bound in digest.centroids]
        digest.count, digest.sum = sum(digest.counts), args.get("sum", 0.0)
        return digest

    def __repr__(self) -> str:
        return (f"QuantileDigest(count={self.count}, "
                f"centroids={len(self.centroids)})")


class Metric:
    """Base: a named instrument with one fixed label set."""

    kind = "abstract"

    def __init__(self, name: str, labels: dict) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()

    @property
    def full_name(self) -> str:
        return self.name + format_labels(self.labels)

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_lock")
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()


class Counter(Metric):
    """A published monotonic total."""

    kind = "counter"

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        with self._lock:
            self.value += n

    def set_total(self, total: float) -> None:
        """Move the total forward (:meth:`MetricsRegistry.publish` is
        the caller; it never hands a lower one)."""
        if total < self.value:
            raise ValueError(
                f"counter {self.name!r} cannot move backwards "
                f"({self.value} -> {total})")
        with self._lock:
            self.value = total


class Gauge(Metric):
    """A last-value-wins measurement."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict) -> None:
        super().__init__(name, labels)
        self.value: float = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += delta


class Histogram(Metric):
    """A labelled, lock-protected :class:`QuantileDigest`.

    ``buckets`` are inclusive upper bounds in increasing order; an
    implicit +inf bucket catches the overflow.  :meth:`digest` is the
    only reader: a tear-free copy, safe to take while other threads
    observe.

    With ``exemplars > 0`` each bucket additionally keeps a bounded
    **exemplar reservoir**: up to that many concrete observations
    (value plus caller-supplied context: trace/span id, task, tenant,
    shard) chosen by reservoir sampling.  Sampling is driven by a
    private :class:`random.Random` seeded from ``exemplar_seed`` and the
    instrument's full name — never the salted builtin ``hash`` — so the
    same observation stream always yields byte-identical reservoirs.
    """

    kind = "histogram"

    def __init__(self, name: str, labels: dict,
                 buckets: Sequence[float] = DEFAULT_BUCKETS,
                 exemplars: int = 0, exemplar_seed: int = 0) -> None:
        super().__init__(name, labels)
        self._digest = QuantileDigest(buckets)
        self.exemplar_capacity = int(exemplars)
        self.exemplar_seed = int(exemplar_seed)
        if self.exemplar_capacity:
            self._reservoirs: list[list[dict]] = \
                [[] for _ in self._digest.centroids]
            self._reservoir_seen = [0] * len(self._reservoirs)
            self._exemplar_seq = 0
            # crc32 keeps the derivation stable across processes and
            # PYTHONHASHSEED values (str hash is salted; crc32 is not)
            self._rng = random.Random(
                self.exemplar_seed ^ zlib.crc32(self.full_name.encode()))

    def observe(self, value: float,
                exemplar: Optional[dict] = None) -> None:
        with self._lock:
            k = self._digest.observe(value)
            if self.exemplar_capacity and exemplar is not None:
                self._offer_exemplar(k, value, exemplar)

    def digest(self) -> QuantileDigest:
        """Tear-free copy of the distribution so far."""
        with self._lock:
            return self._digest.copy()

    def _offer_exemplar(self, k: int, value: float,
                        context: dict) -> None:
        """Reservoir-sample (Algorithm R) into bucket ``k``'s reservoir.
        Caller holds ``_lock``."""
        self._exemplar_seq += 1
        entry = dict(context)
        entry["value"] = float(value)
        entry["seq"] = self._exemplar_seq
        reservoir = self._reservoirs[k]
        self._reservoir_seen[k] += 1
        if len(reservoir) < self.exemplar_capacity:
            reservoir.append(entry)
            return
        j = self._rng.randrange(self._reservoir_seen[k])
        if j < self.exemplar_capacity:
            reservoir[j] = entry

    def exemplars(self) -> list[dict]:
        """Snapshot of every bucket reservoir, flattened.

        Each entry carries the caller's context keys plus ``value``,
        ``seq`` (monotone per-histogram offer number — lets the
        telemetry hub ship only new-since-last-tick exemplars) and
        ``bucket`` (the bucket's upper bound; ``None`` for +inf so the
        payload stays JSON-clean).
        """
        if not self.exemplar_capacity:
            return []
        with self._lock:
            out = []
            for bound, reservoir in zip(self._digest.centroids,
                                        self._reservoirs):
                for entry in reservoir:
                    row = dict(entry)
                    row["bucket"] = None if math.isinf(bound) else bound
                    out.append(row)
        out.sort(key=lambda e: e["seq"])
        return out

    def render(self, width: int = 40) -> str:
        """ASCII bar chart of the bucket distribution."""
        digest = self.digest()
        if digest.count == 0:
            return "(no samples)"
        peak = max(digest.counts)
        lines = []
        for bound, n in zip(digest.centroids, digest.counts):
            if n == 0:
                continue
            label = "+inf" if math.isinf(bound) else _si(bound)
            bar = "#" * max(1, round(width * n / peak))
            lines.append(f"  <= {label:>8}  {n:>6}  {bar}")
        return "\n".join(lines)


def _si(seconds: float) -> str:
    """Human-scale seconds: 1e-05 → '10us'."""
    for scale, unit in ((1.0, "s"), (1e-3, "ms"), (1e-6, "us")):
        if seconds >= scale:
            value = seconds / scale
            return (f"{value:.0f}{unit}" if value >= 1
                    else f"{value:g}{unit}")
    return f"{seconds:g}s"


class MetricsRegistry:
    """Process-wide store of labelled instruments.

    ``counter``/``gauge``/``histogram`` are get-or-create: the same
    (name, labels) pair always returns the same instrument, and asking
    for an existing name with a different kind is an error.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple, Metric] = {}
        #: the total each published series' source last reported
        self._published: dict[tuple, float] = {}

    def _get(self, cls, name: str, labels: dict, **kwargs) -> Metric:
        key = (name, _label_key(labels))
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = self._metrics[key] = cls(name, labels, **kwargs)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}")
            return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  buckets: Sequence[float] = DEFAULT_BUCKETS,
                  exemplars: int = 0, exemplar_seed: int = 0,
                  **labels) -> Histogram:
        # get-or-create: exemplar settings (like buckets) only apply on
        # first creation of a given (name, labels) instrument
        return self._get(Histogram, name, labels, buckets=buckets,
                         exemplars=exemplars, exemplar_seed=exemplar_seed)

    def publish(self, prefix: str, totals: Mapping[str, float],
                gauges: Collection[str] = (), **labels) -> None:
        """The one bridge from a source's cumulative totals to series.

        ``totals[name]`` becomes the counter ``<prefix>.<name>`` (a
        gauge when ``name`` is in ``gauges``) under ``labels``.
        Idempotent: publishing the same totals again changes nothing.  A
        total below the one this series' source reported last means the
        source restarted — its whole total is new — so a published
        counter never moves backwards; a counter nothing has been
        counted on yet gets no series.
        """
        key = _label_key(labels)
        for name, total in totals.items():
            series = f"{prefix}.{name}"
            if name in gauges:
                self.gauge(series, **labels).set(total)
            elif total or (series, key) in self._published:
                counter = self.counter(series, **labels)
                with self._lock:
                    last = self._published.get((series, key), 0)
                    self._published[series, key] = total
                    counter.set_total(counter.value + (
                        total - last if total >= last else total))

    def publish_runtime(self, phases: Mapping[str, object],
                        cache: Mapping[str, float],
                        recovery: Optional[Mapping[str, float]] = None,
                        **labels) -> None:
        """A runtime's phase profile, geometry cache and recovery totals
        as ``profile.*``, ``geom.cache.*`` and ``recovery.*`` series: the
        one place that says which of them are gauges."""
        for phase, stat in phases.items():
            self.publish("profile", vars(stat), gauges=("seconds",),
                         phase=phase, **labels)
        self.publish("geom.cache", cache, gauges=("interned", "entries"),
                     **labels)
        if recovery is not None:
            self.publish("recovery", recovery, gauges=("seconds",), **labels)

    def exemplars(self) -> list[dict]:
        """Every exemplar across every histogram, each row tagged with
        its instrument's ``metric`` full name (the flight recorder's
        dump source)."""
        out: list[dict] = []
        for metric in self:
            if isinstance(metric, Histogram) and metric.exemplar_capacity:
                for row in metric.exemplars():
                    row["metric"] = metric.full_name
                    out.append(row)
        return out

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Metric]:
        with self._lock:
            metrics = list(self._metrics.values())
        return iter(sorted(metrics, key=lambda m: m.full_name))

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def find(self, name: str, **labels) -> Optional[Metric]:
        """Look an instrument up without creating it."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def snapshot(self) -> dict[str, float | dict]:
        """Flat ``{full_name: value}`` mapping (histograms nest a dict)."""
        out: dict[str, float | dict] = {}
        for metric in self:
            if isinstance(metric, Histogram):
                digest = metric.digest()
                out[metric.full_name] = {"count": digest.count,
                                         "sum": digest.sum}
            else:
                out[metric.full_name] = metric.value
        return out
