"""The flight recorder — tail-latency forensics.

The obs stack *detects* trouble (SLO burn-rate alerts, breaker trips,
deadline expiries, recovery instants) but detection keeps no evidence: by
the time an alert fires the spans and ledger events that explain it are
gone.  The flight recorder closes that gap the way aircraft do — the
*recent past* is always being recorded in bounded memory, and is
snapshotted to disk the moment something goes wrong.

The recording itself is the tracer's: a :class:`~repro.obs.tracer.Tracer`
built with a ``capacity`` is the ring of recent spans (per shard) and
instants, fed by the instrumentation that is already there — worker
shards included, through the backends' reply fragments.  What is the
recorder's own:

* **Triggers** — when an SLO transitions to firing, a breaker opens, a
  deadline expires, or a recovery instant lands, the recorder snapshots
  the tracer's ring, its own per-tenant ring of ServiceLedger events and
  the registry's histogram exemplars into a trace-event dump: the ring
  plus one ``ledger`` instant per kept event, with the trigger,
  configuration, exemplars and shedding account in ``otherData``.  Dumps
  are size-capped (oldest half of each track dropped until the payload
  fits), rotated, and debounced by a cooldown so an alert storm produces
  a handful of files, not thousands.
* :func:`render_blackbox` — the ``repro blackbox FILE`` incident report
  (timeline, critical path, exemplar offenders, ``repro explain``
  cross-links) over a dump read by :func:`~repro.obs.export.load_trace`.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, defaultdict, deque
from pathlib import Path
from typing import Callable, Optional

from repro.obs.doctor import config_snapshot
from repro.obs.export import is_number, spans_from_events, trace_events
from repro.obs.tracer import Instant, Span, Tracer

#: Schema tag in every dump's ``otherData``.
BLACKBOX_SCHEMA = "repro.blackbox/2"

#: Trigger kinds a dump can carry.
TRIGGER_KINDS = ("slo", "breaker", "deadline", "recovery", "manual")

#: Ring size of the tracer ``serve --flight-out`` records into: spans per
#: shard, and instants.
RING_CAPACITY = 256


def _trigger(kind: str, name: str, ts: float, detail: str = "",
             tenant: str = "", session: int = -1) -> dict:
    return {"kind": kind, "name": name, "detail": detail, "tenant": tenant,
            "session": session, "ts": ts}


def _ledger_instant(event) -> Instant:
    """A ServiceLedger event as a ``ledger`` instant (duck-typed — the
    service layer sits above obs in the import graph, so no ServiceEvent
    import here)."""
    return Instant(event.kind, "ledger", event.at,
                   args={"tenant": event.tenant, "session": event.session,
                         "detail": event.detail})


def _track(event: dict) -> Optional[tuple]:
    """The ring an event was kept in, which the size cap halves: spans
    per shard, instants, ledger events per tenant (metadata and counter
    events are never shed)."""
    if event["ph"] == "X":
        return "spans", event["tid"]
    if event["ph"] == "i" and event["cat"] == "ledger":
        return "events", event["args"]["tenant"]
    return ("instants",) if event["ph"] == "i" else None


class FlightRecorder:
    """Anomaly-triggered dumps of a bounded tracer's recent past.

    Parameters
    ----------
    tracer:
        The recorder whose spans and instants a dump holds — build it
        with a ``capacity`` so it is a ring.  The flight recorder becomes
        its instant listener (recovery instants trigger dumps) and uses
        its clock.
    directory:
        Where dump files go.  ``None`` keeps the recorder purely
        in-memory: triggers are counted, but nothing is written.
    event_capacity:
        Ledger events kept per tenant.  This ring is the recorder's own:
        ``ServiceLedger`` trims globally, so reading it at dump time
        would let one noisy tenant evict another's evidence.
    max_bytes:
        Dump size cap.  Oversized payloads drop the oldest half of
        every ring (repeatedly) until they fit; the ``dropped`` section
        of the dump records how much evidence was shed.
    max_dumps:
        Rotation: at most this many ``blackbox-*.json`` files are kept,
        oldest deleted first.
    cooldown:
        Minimum seconds between dumps — an alert storm is one incident,
        not a dump per event.  Suppressed triggers are counted in
        ``dumps_suppressed``.
    exemplar_source:
        Zero-argument callable returning exemplar rows (wire
        :meth:`repro.obs.metrics.MetricsRegistry.exemplars`).
    config_source:
        Zero-argument callable returning the configuration snapshot
        embedded in each dump; defaults to
        :func:`repro.obs.doctor.config_snapshot`.
    """

    def __init__(self, tracer: Tracer, directory=None, *,
                 event_capacity: int = 128,
                 max_bytes: int = 256 * 1024, max_dumps: int = 8,
                 cooldown: float = 5.0,
                 exemplar_source: Optional[Callable[[], list]] = None,
                 config_source: Optional[Callable[[], dict]] = None) -> None:
        self.tracer = tracer
        tracer.listener = self.record_instant
        self.clock = tracer.clock
        self.directory = Path(directory) if directory is not None else None
        self.max_bytes = max(4096, int(max_bytes))
        self.max_dumps = max(1, int(max_dumps))
        self.cooldown = float(cooldown)
        self.exemplar_source = exemplar_source
        self.config_source = config_source or config_snapshot
        self._lock = threading.Lock()
        self._events: dict[str, deque] = defaultdict(
            lambda: deque(maxlen=max(1, int(event_capacity))))
        self._paths: list[Path] = []
        self._dump_index = 0
        self._last_dump_at: Optional[float] = None
        self.dumps_written = 0
        self.dumps_suppressed = 0
        self.triggers_seen = 0
        self.last_dump: Optional[Path] = None

    # ------------------------------------------------------------------
    # triggers (the tracer's instant listener and the ledger's listener)
    # ------------------------------------------------------------------
    def record_instant(self, event: Instant) -> None:
        """Offered every instant the tracer records; a recovery instant
        trips a dump."""
        if event.category == "recovery":
            self._maybe_dump(_trigger("recovery", event.name, event.ts))

    def record_event(self, event) -> None:
        """Offer one ServiceLedger event (wired as the ledger's
        listener); trips a dump on alert-firing / breaker-open /
        deadline events."""
        with self._lock:
            self._events[event.tenant].append(event)
        trigger = self._event_trigger(event)
        if trigger is not None:
            self._maybe_dump(trigger)

    @staticmethod
    def _event_trigger(event) -> Optional[dict]:
        if event.kind == "alert" and "firing" in event.detail:
            kind = "slo"
        elif event.kind == "breaker" and event.detail.endswith("->open"):
            kind = "breaker"
        elif event.kind in ("expired", "cancelled"):
            kind = "deadline"
        else:
            return None
        return _trigger(kind, event.kind, event.at, event.detail,
                        event.tenant, event.session)

    # ------------------------------------------------------------------
    # dumping
    # ------------------------------------------------------------------
    def dump(self, detail: str = "") -> Optional[Path]:
        """Force a dump now (``manual`` trigger; no cooldown)."""
        return self._write_dump(
            _trigger("manual", "manual", self.clock.monotonic(), detail))

    def _maybe_dump(self, trigger: dict) -> Optional[Path]:
        self.triggers_seen += 1
        now = self.clock.monotonic()
        with self._lock:
            if (self._last_dump_at is not None
                    and now - self._last_dump_at < self.cooldown):
                self.dumps_suppressed += 1
                return None
            self._last_dump_at = now
        return self._write_dump(trigger)

    def snapshot(self, trigger: Optional[dict] = None) -> dict:
        """The dump — a trace-event object — without writing it.  Event
        times stay on the tracer's clock (``origin=0``), the clock the
        trigger and the ledger events are stamped in."""
        trigger = trigger or _trigger("manual", "manual",
                                      self.clock.monotonic())
        buffer = self.tracer.snapshot()
        with self._lock:
            buffer.instants += [_ledger_instant(e)
                                for _, ring in sorted(self._events.items())
                                for e in ring]
        exemplars = []
        if self.exemplar_source is not None:
            try:
                exemplars = list(self.exemplar_source())
            except Exception:  # evidence collection must not raise
                exemplars = []
        try:
            config = self.config_source()
        except Exception:
            config = {}
        return {"traceEvents": trace_events(buffer, origin=0.0),
                "displayTimeUnit": "ms",
                "otherData": {
                    "schema": BLACKBOX_SCHEMA, "seq": self.dumps_written,
                    "trigger": dict(trigger),
                    "written_at": self.clock.monotonic(), "config": config,
                    "exemplars": exemplars,
                    "dropped": {"spans": 0, "instants": 0, "events": 0}}}

    def _write_dump(self, trigger: dict) -> Optional[Path]:
        if self.directory is None:
            return None
        payload = self.snapshot(trigger)
        encoded = self._fit(payload)
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / f"blackbox-{self._dump_index:05d}.json"
        self._dump_index += 1
        path.write_text(encoded + "\n", encoding="utf-8")
        self._paths.append(path)
        while len(self._paths) > self.max_dumps:
            oldest = self._paths.pop(0)
            try:
                oldest.unlink()
            except OSError:
                pass
        self.dumps_written += 1
        self.last_dump = path
        return path

    def _fit(self, payload: dict) -> str:
        """Serialize under the size cap, shedding the oldest half of
        every track and of the exemplars per round, and accounting for
        the events shed in ``dropped``."""
        other = payload["otherData"]
        encoded = json.dumps(payload, sort_keys=True)
        while len(encoded.encode("utf-8")) > self.max_bytes:
            tracks: dict[tuple, list[int]] = defaultdict(list)
            for k, event in enumerate(payload["traceEvents"]):
                key = _track(event)
                if key is not None:
                    tracks[key].append(k)
            shed: set[int] = set()
            for key, members in tracks.items():
                cut = max(1, len(members) // 2)
                shed.update(members[:cut])
                other["dropped"][key[0]] += cut
            exemplars = other["exemplars"]
            cut = max(1, len(exemplars) // 2) if exemplars else 0
            del exemplars[:cut]
            if not shed and not cut:
                break
            payload["traceEvents"] = [
                e for k, e in enumerate(payload["traceEvents"])
                if k not in shed]
            encoded = json.dumps(payload, sort_keys=True)
        return encoded

    def __repr__(self) -> str:
        return (f"FlightRecorder({self.tracer!r}, "
                f"dumps={self.dumps_written})")


# ----------------------------------------------------------------------
# rendering (the `repro blackbox` report)
# ----------------------------------------------------------------------
def _dump_fields(data: dict) -> dict:
    """A dump's ``otherData``, checked for what the report reads."""
    other = data.get("otherData") or {}
    trigger = other.get("trigger")
    config = other.setdefault("config", {})
    dropped = other.setdefault("dropped", {})
    exemplars = other.setdefault("exemplars", [])
    problems = [f"otherData.{key}: {need}" for key, need, ok in (
        ("trigger", f"needs a kind in {'/'.join(TRIGGER_KINDS)}, a numeric "
         "ts and session", isinstance(trigger, dict)
         and trigger.get("kind") in TRIGGER_KINDS
         and is_number(trigger.get("ts"))
         and isinstance(trigger.get("session", -1), int)),
        ("config", "entries must be objects", isinstance(config, dict)
         and all(isinstance(c, dict) for c in config.values())),
        ("dropped", "counts must be integers", isinstance(dropped, dict)
         and all(isinstance(n, int) for n in dropped.values())),
        ("exemplars", "rows need a numeric value", isinstance(exemplars, list)
         and all(isinstance(r, dict) and is_number(r.get("value", 0))
                 for r in exemplars))) if not ok]
    if problems:
        raise ValueError("not a flight-recorder dump: " + "; ".join(problems))
    return other


def _timeline(events: list[dict], last: int = 15) -> list[str]:
    rows = []
    for event in events:
        if event["ph"] != "i":
            continue
        args = event.get("args") or {}
        if event.get("cat") == "ledger":
            what, session = event["name"], args.get("session")
            if isinstance(session, int) and session >= 0:
                what += f" session {session}"
            if args.get("detail"):
                what += f" ({args['detail']})"
            rows.append((event["ts"], f"tenant {args.get('tenant')}", what))
        else:
            rows.append((event["ts"], f"shard {event['tid']}",
                         f"instant {event['name']} [{event.get('cat')}]"))
    return [f"  t={ts / 1e6:>10.3f}  [{who}] {what}"
            for ts, who, what in rows[-last:]]


def render_blackbox(data: dict, top_k: int = 5) -> str:
    """Human incident report for one dump (a trace object read by
    :func:`~repro.obs.export.load_trace`); raises ``ValueError`` when
    its ``otherData`` is not a dump's."""
    from repro.obs.critpath import TASK_CATEGORY, critical_path

    other = _dump_fields(data)
    events = data["traceEvents"]
    trigger = other["trigger"]
    lines = [f"{BLACKBOX_SCHEMA} incident dump (seq {other.get('seq')})"]
    what = trigger["kind"]
    if trigger.get("name") and trigger["name"] != trigger["kind"]:
        what += f" ({trigger['name']})"
    if trigger.get("detail"):
        what += f": {trigger['detail']}"
    who = []
    if trigger.get("tenant"):
        who.append(f"tenant={trigger['tenant']}")
    if trigger.get("session", -1) >= 0:
        who.append(f"session={trigger['session']}")
    lines.append(f"trigger    : {what}"
                 + (f"  [{' '.join(who)}]" if who else "")
                 + f"  at t={trigger['ts']:.3f}")
    overridden = {env: cfg for env, cfg in other["config"].items()
                  if cfg.get("origin") == "env"}
    if overridden:
        effects = ", ".join(f"{env}={cfg.get('value')}"
                            for env, cfg in sorted(overridden.items()))
        lines.append(f"config     : {effects}")
    else:
        lines.append("config     : all escape hatches at defaults")
    spans = spans_from_events(events)
    span_counts = sorted(Counter(span.tid for span in spans).items())
    ledger = sum(e["ph"] == "i" and e.get("cat") == "ledger"
                 for e in events)
    instants = sum(e["ph"] == "i" for e in events) - ledger
    lines.append(
        f"evidence   : {len(spans)} spans over "
        f"{len(span_counts)} shard(s) "
        f"({', '.join(f'{tid}:{n}' for tid, n in span_counts)}), "
        f"{instants} instants, {ledger} ledger events, "
        f"{len(other['exemplars'])} exemplars")
    dropped = other["dropped"]
    if any(dropped.values()):
        lines.append(f"dropped    : {dropped.get('spans', 0)} spans, "
                     f"{dropped.get('instants', 0)} instants, "
                     f"{dropped.get('events', 0)} events (size cap)")
    timeline = _timeline(events)
    if timeline:
        lines.append(f"timeline (last {len(timeline)} events):")
        lines.extend(timeline)
    task_spans = [s for s in spans if s.category == TASK_CATEGORY]
    if task_spans:
        lines.append(f"critical path ({len(task_spans)} task spans):")
        try:
            report = critical_path(spans)
            lines.extend("  " + row
                         for row in report.render(top_k).splitlines())
        except Exception as exc:  # partial rings may not form a DAG
            lines.append(f"  (critical-path analysis failed: {exc})")
    else:
        lines.append("critical path: (no task spans captured)")
    exemplars = sorted(other["exemplars"],
                       key=lambda e: -e.get("value", 0.0))[:top_k]
    if exemplars:
        lines.append(f"slowest exemplars (top {len(exemplars)}):")
        span_ids = {s.span_id for s in spans}
        for row in exemplars:
            extra = " ".join(f"{k}={row[k]}" for k in
                             ("trace", "task", "tenant", "shard",
                              "session") if k in row)
            mark = ""
            if isinstance(row.get("trace"), int):
                mark = (" -> span in dump" if row["trace"] in span_ids
                        else " (span evicted from ring)")
            lines.append(f"  {row.get('metric', '?')} "
                         f"value={row.get('value', 0.0):.6f} "
                         f"{extra}{mark}")
    hints = _explain_hints(trigger, spans, top_k)
    if hints:
        lines.append("explain cross-links:")
        lines.extend(hints)
    return "\n".join(lines)


def _explain_hints(trigger: dict, spans: list[Span],
                   top_k: int) -> list[str]:
    """``repro explain`` command lines cross-linking the longest dumped
    task spans into the provenance explainer.  The app parameters come
    from the enclosing ``service.session`` spans (preferring the one
    named by the trigger), so the printed command replays the exact
    analysis that produced the task."""
    from repro.obs.critpath import TASK_CATEGORY

    session_args = None
    for span in spans:
        if span.category != "service.session":
            continue
        args = span.args
        if not all(k in args for k in ("app", "pieces", "iterations")):
            continue
        if session_args is None:
            session_args = args
        if (args.get("tenant") == trigger.get("tenant")
                and args.get("session") == trigger.get("session")):
            session_args = args
            break
    if session_args is None:
        return []
    tasks = sorted(
        (s for s in spans
         if s.category == TASK_CATEGORY
         and isinstance(s.args.get("task_id"), int)),
        key=lambda s: -s.duration)
    hints = []
    seen = set()
    for span in tasks:
        task = span.args["task_id"]
        if task in seen:
            continue
        seen.add(task)
        hints.append(
            f"  repro explain {task} --app {session_args['app']} "
            f"--pieces {session_args['pieces']} "
            f"--iterations {session_args['iterations']}")
        if len(hints) >= top_k:
            break
    return hints
