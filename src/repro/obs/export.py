"""Chrome trace-event / Perfetto JSON export and schema validation.

Any traced run can be written as a JSON object in the trace-event format
(https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU)
and opened directly in ``chrome://tracing`` or https://ui.perfetto.dev:

* every finished :class:`~repro.obs.tracer.Span` becomes a complete
  (``"ph": "X"``) event with microsecond ``ts``/``dur``;
* every :class:`~repro.obs.tracer.Instant` (recovery incidents: crash,
  respawn, replay, adoption) becomes an instant (``"ph": "i"``) event;
* counter samples and the final totals of a
  :class:`~repro.obs.metrics.MetricsRegistry` become counter
  (``"ph": "C"``) events, rendered by Perfetto as counter tracks;
* metadata (``"ph": "M"``) events name each pid — pid 0 is the driver,
  pid ``s + 1`` is the worker hosting shard ``s``.

:func:`validate_trace` is the schema checker the tests and the CI smoke
job run over emitted files; :func:`load_trace` parses a file back into
spans so ``repro-cli prof`` can analyze its own output (round-trip).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Sequence

from repro.obs.metrics import MetricsRegistry, Histogram
from repro.obs.tracer import DRIVER_PID, Span, TraceBuffer

#: Keys every emitted event carries.
REQUIRED_KEYS = ("name", "ph", "pid", "tid")

#: Event phases this exporter emits.
KNOWN_PHASES = ("X", "i", "C", "M")


def _us(seconds: float, base: float) -> float:
    """Clock seconds → microseconds relative to the trace origin."""
    return round((seconds - base) * 1e6, 3)


def trace_events(buffer: TraceBuffer,
                 registry: Optional[MetricsRegistry] = None,
                 process_names: Optional[dict[int, str]] = None
                 ) -> list[dict]:
    """Lower a trace buffer (plus optional metrics totals) to trace-event
    dicts, sorted by timestamp with metadata first."""
    starts = ([s.start for s in buffer.spans]
              + [i.ts for i in buffer.instants]
              + [c.ts for c in buffer.counters])
    base = min(starts) if starts else 0.0
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
        events.append({
            "name": inst.name, "cat": inst.category or "default",
            "ph": "i", "s": "g", "ts": _us(inst.ts, base),
            "pid": inst.pid, "tid": inst.tid, "args": dict(inst.args),
        })
    for sample in buffer.counters:
        pids.add(sample.pid)
        events.append({
            "name": sample.name, "cat": "counter", "ph": "C",
            "ts": _us(sample.ts, base), "pid": sample.pid, "tid": 0,
            "args": {"value": sample.value},
        })
    if registry is not None:
        for metric in registry:
            if isinstance(metric, Histogram):
                digest = metric.digest()
                args = {"count": digest.count,
                        "sum": round(digest.sum, 9)}
            else:
                args = {"value": metric.value}
            events.append({
                "name": metric.full_name, "cat": "metrics", "ph": "C",
                "ts": _us(end_ts, base), "pid": DRIVER_PID, "tid": 0,
                "args": args,
            })
    events.sort(key=lambda e: (e["ts"], e["pid"], e["tid"], e["name"]))

    names = dict(process_names or {})
    metadata = []
    for pid in sorted(pids):
        default = "driver" if pid == DRIVER_PID else f"shard {pid - 1}"
        metadata.append({
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": names.get(pid, default)},
        })
    return metadata + events


def to_chrome_trace(buffer: TraceBuffer,
                    registry: Optional[MetricsRegistry] = None,
                    process_names: Optional[dict[int, str]] = None) -> dict:
    """The complete trace-event JSON object for one run."""
    return {
        "traceEvents": trace_events(buffer, registry, process_names),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_trace(path: str | Path, buffer: TraceBuffer,
                registry: Optional[MetricsRegistry] = None,
                process_names: Optional[dict[int, str]] = None) -> Path:
    """Serialize one run's trace to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(
        to_chrome_trace(buffer, registry, process_names),
        separators=(",", ":")) + "\n")
    return path


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
def validate_trace(data) -> list[str]:
    """Check one parsed trace object against the trace-event schema.

    Returns a list of human-readable problems — empty means valid.
    Every problem names the offending event's index *and* key path
    (``traceEvents[3].ts: ...``), plus the event name when it has one,
    so a violation in a multi-thousand-event file is findable without
    bisecting.  Checks: the container shape, required keys per event,
    known phases, numeric non-negative ``ts``/``dur``, and that complete
    events are monotonically ordered by ``ts`` (the exporter sorts
    them, so a violation means timestamps went backwards somewhere).
    """
    problems: list[str] = []
    if not isinstance(data, dict) or "traceEvents" not in data:
        return ["$: top level must be an object with a "
                "'traceEvents' list"]
    events = data["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents: must be a list, got "
                f"{type(events).__name__}"]
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
        ph = event.get("ph")
        if ph not in KNOWN_PHASES:
            problems.append(f"{where}.ph: unknown phase {ph!r}")
            continue
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}.ts: 'ts' must be a number >= 0, "
                            f"got {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(
                f"{where}.ts: ts {ts} precedes {last_where} ts "
                f"{last_ts} (timestamps not monotonically ordered)")
        last_ts = ts
        last_where = f"traceEvents[{k}]"
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}.dur: complete event needs "
                                f"'dur' >= 0, got {dur!r}")
        if ph == "i" and event.get("s") not in ("g", "p", "t"):
            problems.append(f"{where}.s: instant needs scope 's' in "
                            f"g/p/t, got {event.get('s')!r}")
    return problems


# ----------------------------------------------------------------------
# round-trip loading
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


def load_trace(path: str | Path) -> tuple[dict, list[Span]]:
    """Parse a trace file; returns ``(raw_object, spans)``.

    Raises ``ValueError`` with the schema problems when the file does not
    validate — ``repro-cli prof`` refuses malformed input loudly.
    """
    data = json.loads(Path(path).read_text())
    problems = validate_trace(data)
    if problems:
        detail = "; ".join(problems[:5])
        if len(problems) > 5:
            detail += f"; ... {len(problems) - 5} more"
        raise ValueError(f"{path} is not a valid trace: {detail}")
    return data, spans_from_events(data["traceEvents"])
