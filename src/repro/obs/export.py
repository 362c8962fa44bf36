"""The one file kind on disk: Chrome trace-event / Perfetto JSON.

Every file :mod:`repro.obs` writes is a trace-event file
(https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
opened directly in ``chrome://tracing`` or https://ui.perfetto.dev:

* every finished :class:`~repro.obs.tracer.Span` becomes a complete
  (``"ph": "X"``) event with microsecond ``ts``/``dur``;
* every :class:`~repro.obs.tracer.Instant` becomes an instant
  (``"ph": "i"``) event, as do a telemetry stream's ``exemplar``/``slo``
  rows and a flight dump's ``ledger`` events;
* a :class:`~repro.obs.metrics.MetricsRegistry` reading becomes counter
  (``"ph": "C"``) events through :func:`metric_events`: a ``C`` event is
  always a *cumulative* reading;
* metadata (``"ph": "M"``) events name each pid (0 the driver, ``s + 1``
  shard ``s``'s worker) and open each telemetry segment.

``analyze --trace-out`` and flight dumps use the JSON Object Format,
telemetry segments the JSON Array Format.  :func:`load_trace` is the one
reader — ``prof``, ``top`` and ``blackbox`` are views over it — and
:func:`validate_trace` the one check.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import DRIVER_PID, Span, TraceBuffer

#: Keys every emitted event carries.
REQUIRED_KEYS = ("name", "ph", "pid", "tid")

#: Event phases this exporter emits.
KNOWN_PHASES = ("X", "i", "C", "M")


def _us(seconds: float, base: float) -> float:
    """Clock seconds → microseconds relative to the trace origin."""
    return round((seconds - base) * 1e6, 3)


def instant_event(name: str, category: str, ts: float, args: dict,
                  pid: int = DRIVER_PID, tid: int = 0) -> dict:
    """One global-scope instant event at trace time ``ts`` (µs)."""
    return {"name": name, "cat": category, "ph": "i", "s": "g", "ts": ts,
            "pid": pid, "tid": tid, "args": args}


def metric_events(registry: MetricsRegistry, ts: float) -> list[dict]:
    """One reading of ``registry`` at trace time ``ts`` (µs): a ``C``
    event per instrument, ``cat`` naming its kind.  Counters and gauges
    carry ``{"value": v}``; a histogram its digest's
    :meth:`~repro.obs.metrics.QuantileDigest.to_args`, so Perfetto
    stacks the buckets and a reader rebuilds the digest exactly."""
    return [{"name": metric.full_name, "cat": metric.kind, "ph": "C",
             "ts": ts, "pid": DRIVER_PID, "tid": 0,
             "args": (metric.digest().to_args()
                      if isinstance(metric, Histogram)
                      else {"value": metric.value})}
            for metric in registry]


def trace_events(buffer: TraceBuffer,
                 registry: Optional[MetricsRegistry] = None,
                 origin: Optional[float] = None) -> list[dict]:
    """Lower a trace buffer (plus optional metrics totals, read at the
    last event) to trace-event dicts, sorted by timestamp with metadata
    first.  ``origin`` is the clock time ``ts`` 0 stands for: by default
    the earliest event; a flight dump passes ``0.0`` to keep the tracer
    clock's own times, which its trigger and ledger events carry too."""
    starts = ([s.start for s in buffer.spans]
              + [i.ts for i in buffer.instants]
              + [c.ts for c in buffer.counters])
    base = origin if origin is not None else min(starts, default=0.0)
    end_ts = max(([s.end for s in buffer.spans]
                  + [i.ts for i in buffer.instants]
                  + [c.ts for c in buffer.counters]) or [base])

    events: list[dict] = []
    pids = {DRIVER_PID}
    for span in buffer.spans:
        pids.add(span.pid)
        events.append({
            "name": span.name, "cat": span.category or "default",
            "ph": "X", "ts": _us(span.start, base),
            "dur": round(max(0.0, span.duration) * 1e6, 3),
            "pid": span.pid, "tid": span.tid,
            "args": dict(span.args, span_id=span.span_id,
                         parent_id=span.parent_id),
        })
    for inst in buffer.instants:
        pids.add(inst.pid)
        events.append(instant_event(inst.name, inst.category or "default",
                                    _us(inst.ts, base), dict(inst.args),
                                    inst.pid, inst.tid))
    for sample in buffer.counters:
        pids.add(sample.pid)
        events.append({
            "name": sample.name, "cat": "counter", "ph": "C",
            "ts": _us(sample.ts, base), "pid": sample.pid, "tid": 0,
            "args": {"value": sample.value},
        })
    if registry is not None:
        events.extend(metric_events(registry, _us(end_ts, base)))
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))

    metadata = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                 "args": {"name": "driver" if pid == DRIVER_PID
                          else f"shard {pid - 1}"}}
                for pid in sorted(pids)]
    return metadata + events


def to_chrome_trace(buffer: TraceBuffer,
                    registry: Optional[MetricsRegistry] = None) -> dict:
    """The complete trace-event JSON object for one run."""
    return {
        "traceEvents": trace_events(buffer, registry),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_trace(path: str | Path, buffer: TraceBuffer,
                registry: Optional[MetricsRegistry] = None) -> Path:
    """Serialize one run's trace to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(to_chrome_trace(buffer, registry),
                               separators=(",", ":")) + "\n")
    return path


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def is_number(value) -> bool:
    return isinstance(value, (int, float))


def _time(value) -> bool:
    """A finite, non-negative number of microseconds."""
    return is_number(value) and 0 <= value < math.inf


def validate_trace(data) -> list[str]:
    """Check one parsed trace object for everything the views
    (``prof``, ``top``, ``blackbox``) rely on.

    Returns human-readable problems (empty means valid), each naming the
    offending event's index, name and key path (``traceEvents[3]
    ('s0').dur: ...``): the container (``otherData`` an object when
    present), required keys, string ``name``/``cat``, integer
    ``pid``/``tid``, known phases, an object ``args`` (numbers on ``C``,
    integer span ids on ``X``), finite ``ts``/``dur`` >= 0 in monotone
    order, and instant scopes.
    """
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["$: top level must be an object with a "
                "'traceEvents' list"]
    events = data["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents: must be a list, got "
                f"{type(events).__name__}"]
    problems: list[str] = []
    if not isinstance(data.get("otherData", {}), dict):
        problems.append("otherData: must be an object")
    last_ts = None
    last_where = ""
    for k, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"traceEvents[{k}]: not an object, got "
                            f"{type(event).__name__}")
            continue
        name = event.get("name")
        where = f"traceEvents[{k}]" + \
            (f" ({name!r})" if isinstance(name, str) else "")
        for key in REQUIRED_KEYS:
            if key not in event:
                problems.append(f"{where}: missing required key {key!r}")
        for key, types, what in (("name", str, "a string"),
                                 ("cat", str, "a string"),
                                 ("pid", int, "an integer"),
                                 ("tid", int, "an integer")):
            if key in event and not isinstance(event[key], types):
                problems.append(f"{where}.{key}: must be {what}, got "
                                f"{type(event[key]).__name__}")
        args = event.get("args", {})
        if not isinstance(args, dict):
            problems.append(f"{where}.args: must be an object, got "
                            f"{type(args).__name__}")
            args = {}
        ph = event.get("ph")
        if ph not in KNOWN_PHASES:
            problems.append(f"{where}.ph: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not _time(ts):
            problems.append(f"{where}.ts: 'ts' must be a number >= 0, "
                            f"got {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"{where}.ts: ts {ts} precedes {last_where} ts "
                f"{last_ts} (timestamps not monotonically ordered)")
        last_ts = ts
        last_where = f"traceEvents[{k}]"
        if ph == "C":
            problems.extend(f"{where}.args[{key!r}]: counter value must "
                            f"be a number, got {value!r}"
                            for key, value in args.items()
                            if not is_number(value))
        if ph == "X":
            if not _time(event.get("dur")):
                problems.append(f"{where}.dur: complete event needs "
                                f"'dur' >= 0, got {event.get('dur')!r}")
            problems.extend(f"{where}.args[{key!r}]: must be an integer"
                            for key in ("span_id", "parent_id")
                            if args.get(key) is not None
                            and not isinstance(args[key], int))
        if ph == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"{where}.s: instant needs scope 's' in "
                            f"g/p/t, got {event.get('s')!r}")
    return problems


# ----------------------------------------------------------------------
# loading: the one reader
# ----------------------------------------------------------------------
def spans_from_events(events: Sequence[dict]) -> list[Span]:
    """Rebuild :class:`Span` records from complete events (the inverse of
    :func:`trace_events` up to the time origin)."""
    spans: list[Span] = []
    for event in events:
        if event.get("ph") != "X":
            continue
        args = dict(event.get("args") or {})
        span_id = args.pop("span_id", 0)
        parent_id = args.pop("parent_id", None)
        start = event["ts"] / 1e6
        spans.append(Span(
            name=event["name"], category=event.get("cat", ""),
            start=start, end=start + event.get("dur", 0.0) / 1e6,
            pid=event["pid"], tid=event["tid"], span_id=span_id,
            parent_id=parent_id, args=args))
    return spans


def _read(path: Path):
    """One file as a trace object.  A JSON Array Format segment is
    wrapped as ``{"traceEvents": [...]}``; its closing ``]`` is optional,
    and a segment whose writer was killed keeps its complete lines."""
    text = path.read_text(encoding="utf-8")
    if not text.lstrip().startswith("["):
        return json.loads(text)
    body = text.rstrip()
    if body.endswith("]"):
        body = body[:-1]
    else:
        body = text[:text.rfind(",\n") + 1] or "["
    return {"traceEvents": json.loads(body.rstrip().rstrip(",") + "]")}


def _check(data, where) -> None:
    problems = validate_trace(data)
    if problems:
        detail = "; ".join(problems[:5])
        if len(problems) > 5:
            detail += f"; ... {len(problems) - 5} more"
        raise ValueError(f"{where} is not a valid trace: {detail}")


def load_trace(path: str | Path) -> tuple[dict, list[Span]]:
    """Read a JSON object, a JSON Array segment (returned wrapped as
    ``{"traceEvents": [...]}``) or a directory of segments read in name
    order as one stream; returns ``(trace_object, spans)``.  Raises
    ``FileNotFoundError`` when there is nothing to read and
    ``ValueError`` with the schema problems when it does not validate.
    """
    path = Path(path)
    if not path.is_dir():
        data = _read(path)
    else:
        files = sorted(path.glob("*.json"))
        if not files:
            raise FileNotFoundError(f"no *.json trace files under {path}")
        data = {"traceEvents": []}
        for file in files:
            segment = _read(file)
            _check(segment, file)
            data["traceEvents"] += segment["traceEvents"]
    _check(data, path)
    return data, spans_from_events(data["traceEvents"])
