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
  the registry's histogram exemplars into a schema-validated
  ``repro.blackbox/1`` JSON file.  Dumps are size-capped (oldest half of
  each ring dropped until the payload fits), rotated like
  :class:`~repro.obs.telemetry.TelemetrySink` segments, and debounced by
  a cooldown so an alert storm produces a handful of files, not
  thousands.
* :func:`validate_blackbox` / :func:`render_blackbox` — the schema
  check and the ``repro blackbox FILE`` incident report (timeline,
  critical path over the dumped spans, exemplar offenders, ``repro
  explain`` cross-links).
"""

from __future__ import annotations

import json
import threading
from collections import defaultdict, deque
from pathlib import Path
from typing import Callable, Optional

from repro.obs.doctor import config_snapshot
from repro.obs.tracer import Instant, Span, Tracer

#: Schema tag of every dump file.
BLACKBOX_SCHEMA = "repro.blackbox/1"

#: Trigger kinds a dump can carry.
TRIGGER_KINDS = ("slo", "breaker", "deadline", "recovery", "manual")

#: Ring size of the tracer ``serve --flight-out`` records into: spans per
#: shard, and instants.
RING_CAPACITY = 256


def _trigger(kind: str, name: str, ts: float, detail: str = "",
             tenant: str = "", session: int = -1) -> dict:
    return {"kind": kind, "name": name, "detail": detail, "tenant": tenant,
            "session": session, "ts": ts}


def _event_dict(event) -> dict:
    """A ServiceLedger event (duck-typed — the service layer sits above
    obs in the import graph, so no ServiceEvent import here)."""
    return {"kind": event.kind, "tenant": event.tenant,
            "session": event.session, "detail": event.detail,
            "at": event.at}


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
        """The full ``repro.blackbox/1`` payload, without writing it."""
        trigger = trigger or _trigger("manual", "manual",
                                      self.clock.monotonic())
        # finished events are never mutated: a shallow field dict each
        # (dataclasses.asdict would deep-copy every witness payload)
        buffer = self.tracer.snapshot()
        shards: dict[str, dict] = {}
        for span in buffer.spans:
            shards.setdefault(str(span.tid), {"spans": []})["spans"].append(
                dict(vars(span)))
        instants = [dict(vars(i)) for i in buffer.instants]
        with self._lock:
            tenants = {name: {"events": [_event_dict(e) for e in ring]}
                       for name, ring in sorted(self._events.items())}
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
        return {"schema": BLACKBOX_SCHEMA, "seq": self.dumps_written,
                "trigger": dict(trigger),
                "written_at": self.clock.monotonic(), "config": config,
                "shards": shards, "instants": instants,
                "tenants": tenants, "exemplars": exemplars,
                "dropped": {"spans": 0, "instants": 0, "events": 0}}

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
        every ring per round and accounting for it in ``dropped``."""
        encoded = json.dumps(payload, sort_keys=True)
        while len(encoded.encode("utf-8")) > self.max_bytes:
            shed = 0
            for shard in payload["shards"].values():
                spans = shard["spans"]
                cut = max(1, len(spans) // 2) if spans else 0
                del spans[:cut]
                payload["dropped"]["spans"] += cut
                shed += cut
            instants = payload["instants"]
            cut = max(1, len(instants) // 2) if instants else 0
            del instants[:cut]
            payload["dropped"]["instants"] += cut
            shed += cut
            for tenant in payload["tenants"].values():
                events = tenant["events"]
                cut = max(1, len(events) // 2) if events else 0
                del events[:cut]
                payload["dropped"]["events"] += cut
                shed += cut
            exemplars = payload["exemplars"]
            cut = max(1, len(exemplars) // 2) if exemplars else 0
            del exemplars[:cut]
            shed += cut
            if shed == 0:
                break
            encoded = json.dumps(payload, sort_keys=True)
        return encoded

    def __repr__(self) -> str:
        return (f"FlightRecorder({self.tracer!r}, "
                f"dumps={self.dumps_written})")


# ----------------------------------------------------------------------
# schema validation
# ----------------------------------------------------------------------
_TOP_KEYS = ("schema", "seq", "trigger", "written_at", "config",
             "shards", "instants", "tenants", "exemplars", "dropped")
_SPAN_KEYS = {"name": str, "category": str, "start": (int, float),
              "end": (int, float), "pid": int, "tid": int,
              "span_id": int, "args": dict}
_INSTANT_KEYS = {"name": str, "category": str, "ts": (int, float),
                 "pid": int, "tid": int, "args": dict}
_EVENT_KEYS = {"kind": str, "tenant": str, "session": int,
               "detail": str, "at": (int, float)}


def _check_record(record, keys: dict, where: str,
                  problems: list[str]) -> None:
    if not isinstance(record, dict):
        problems.append(f"{where}: expected object, got "
                        f"{type(record).__name__}")
        return
    for key, types in keys.items():
        if key not in record:
            problems.append(f"{where}: missing key {key!r}")
        elif not isinstance(record[key], types):
            problems.append(
                f"{where}.{key}: expected "
                f"{getattr(types, '__name__', types)}, got "
                f"{type(record[key]).__name__}")


def validate_blackbox(data) -> list[str]:
    """Structural check of one dump against ``repro.blackbox/1``.

    Returns problem strings, each prefixed with the key path of the
    offending record (``shards.0.spans[3].end: ...``) — empty when
    valid.
    """
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"$: expected object, got {type(data).__name__}"]
    for key in _TOP_KEYS:
        if key not in data:
            problems.append(f"$: missing key {key!r}")
    if problems:
        return problems
    if data["schema"] != BLACKBOX_SCHEMA:
        problems.append(f"schema: expected {BLACKBOX_SCHEMA!r}, "
                        f"got {data['schema']!r}")
    trigger = data["trigger"]
    if not isinstance(trigger, dict):
        problems.append("trigger: expected object, got "
                        f"{type(trigger).__name__}")
    else:
        if not isinstance(trigger.get("kind"), str):
            problems.append("trigger.kind: missing or not a string")
        elif trigger["kind"] not in TRIGGER_KINDS:
            problems.append(f"trigger.kind: unknown kind "
                            f"{trigger['kind']!r}")
        if not isinstance(trigger.get("ts"), (int, float)):
            problems.append("trigger.ts: missing or not a number")
    if not isinstance(data["shards"], dict):
        problems.append("shards: expected object")
    else:
        for sid, shard in data["shards"].items():
            if not isinstance(shard, dict) or "spans" not in shard:
                problems.append(f"shards.{sid}: missing key 'spans'")
                continue
            for k, span in enumerate(shard["spans"]):
                _check_record(span, _SPAN_KEYS,
                              f"shards.{sid}.spans[{k}]", problems)
    if not isinstance(data["instants"], list):
        problems.append("instants: expected array")
    else:
        for k, inst in enumerate(data["instants"]):
            _check_record(inst, _INSTANT_KEYS, f"instants[{k}]", problems)
    if not isinstance(data["tenants"], dict):
        problems.append("tenants: expected object")
    else:
        for name, tenant in data["tenants"].items():
            if not isinstance(tenant, dict) or "events" not in tenant:
                problems.append(f"tenants.{name}: missing key 'events'")
                continue
            for k, event in enumerate(tenant["events"]):
                _check_record(event, _EVENT_KEYS,
                              f"tenants.{name}.events[{k}]", problems)
    if not isinstance(data["exemplars"], list):
        problems.append("exemplars: expected array")
    else:
        for k, row in enumerate(data["exemplars"]):
            if not isinstance(row, dict):
                problems.append(f"exemplars[{k}]: expected object")
                continue
            if not isinstance(row.get("value"), (int, float)):
                problems.append(
                    f"exemplars[{k}].value: missing or not a number")
            if not isinstance(row.get("metric"), str):
                problems.append(
                    f"exemplars[{k}].metric: missing or not a string")
    if not isinstance(data["config"], dict):
        problems.append("config: expected object")
    return problems


def load_blackbox(path) -> dict:
    """Read and validate one dump file; raises ``ValueError`` with the
    full problem list on schema violations."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    problems = validate_blackbox(data)
    if problems:
        raise ValueError(
            f"{path}: not a valid {BLACKBOX_SCHEMA} dump:\n  "
            + "\n  ".join(problems))
    return data


def blackbox_spans(data: dict) -> list[Span]:
    """Reconstruct :class:`~repro.obs.tracer.Span` records from a dump
    (the critical-path analyzer's input)."""
    spans = []
    for shard in data["shards"].values():
        for rec in shard["spans"]:
            spans.append(Span(rec["name"], rec["category"], rec["start"],
                              rec["end"], rec["pid"], rec["tid"],
                              rec["span_id"], rec.get("parent_id"),
                              dict(rec["args"])))
    return spans


# ----------------------------------------------------------------------
# rendering (the `repro blackbox` report)
# ----------------------------------------------------------------------
def _timeline(data: dict, last: int = 15) -> list[str]:
    rows = []
    for inst in data["instants"]:
        rows.append((inst["ts"], f"shard {inst['tid']}",
                     f"instant {inst['name']} [{inst['category']}]"))
    for name, tenant in data["tenants"].items():
        for event in tenant["events"]:
            what = event["kind"]
            if event["session"] >= 0:
                what += f" session {event['session']}"
            if event["detail"]:
                what += f" ({event['detail']})"
            rows.append((event["at"], f"tenant {name}", what))
    rows.sort(key=lambda r: r[0])
    return [f"  t={ts:>10.3f}  [{who}] {what}"
            for ts, who, what in rows[-last:]]


def render_blackbox(data: dict, top_k: int = 5) -> str:
    """Human incident report for one validated dump."""
    from repro.obs.critpath import TASK_CATEGORY, critical_path

    trigger = data["trigger"]
    lines = [f"{BLACKBOX_SCHEMA} incident dump (seq {data['seq']})"]
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
    overridden = {env: cfg for env, cfg in data["config"].items()
                  if cfg.get("origin") == "env"}
    if overridden:
        effects = ", ".join(f"{env}={cfg['value']}"
                            for env, cfg in sorted(overridden.items()))
        lines.append(f"config     : {effects}")
    else:
        lines.append("config     : all escape hatches at defaults")
    span_counts = {sid: len(s["spans"])
                   for sid, s in sorted(data["shards"].items())}
    total_spans = sum(span_counts.values())
    lines.append(
        f"evidence   : {total_spans} spans over "
        f"{len(span_counts)} shard(s) "
        f"({', '.join(f'{sid}:{n}' for sid, n in span_counts.items())}), "
        f"{len(data['instants'])} instants, "
        f"{sum(len(t['events']) for t in data['tenants'].values())} "
        f"ledger events, {len(data['exemplars'])} exemplars")
    dropped = data["dropped"]
    if any(dropped.values()):
        lines.append(f"dropped    : {dropped['spans']} spans, "
                     f"{dropped['instants']} instants, "
                     f"{dropped['events']} events (size cap)")
    timeline = _timeline(data)
    if timeline:
        lines.append(f"timeline (last {len(timeline)} events):")
        lines.extend(timeline)
    spans = blackbox_spans(data)
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
    exemplars = sorted(data["exemplars"],
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
    hints = _explain_hints(data, spans, top_k)
    if hints:
        lines.append("explain cross-links:")
        lines.extend(hints)
    return "\n".join(lines)


def _explain_hints(data: dict, spans: list[Span],
                   top_k: int) -> list[str]:
    """``repro explain`` command lines cross-linking the longest dumped
    task spans into the provenance explainer.  The app parameters come
    from the enclosing ``service.session`` spans (preferring the one
    named by the trigger), so the printed command replays the exact
    analysis that produced the task."""
    from repro.obs.critpath import TASK_CATEGORY

    trigger = data["trigger"]
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
         if s.category == TASK_CATEGORY and "task_id" in s.args),
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
