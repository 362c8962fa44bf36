"""``repro top`` — a live terminal dashboard over the telemetry stream.

Renders per-tenant QPS, queue depth, windowed latency percentiles,
breaker/degradation state, geometry-cache hit rates and firing SLO
alerts from any :class:`~repro.obs.telemetry.TelemetryHub` — live
(attached to a running service) or replayed from the trace-event
segments ``repro serve --telemetry-out`` writes.

Rendering is a pure function of the hub (``render_top``), deterministic
at a pinned width — ``repro top --once`` output over a recorded file is
byte-stable, which is what the golden tests and the CI smoke pin.  The
live mode re-reads the recording and repaints on an interval (the
injectable clock keeps even that testable without sleeps).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.clock import SystemClock
from repro.obs.telemetry import TelemetryHub, load_telemetry, parse_full_name

#: Breaker gauge codes (mirrors ``repro.service.breaker.STATE_CODES``).
_BREAKER_NAMES = {0: "closed", 1: "half-open", 2: "open"}

#: ANSI clear-screen + home, prepended between live repaints.
CLEAR = "\x1b[2J\x1b[H"


def _fmt_seconds(seconds: float) -> str:
    """Compact latency cell: NaN -> '-', inf -> '>last-bucket'."""
    if seconds is None or (isinstance(seconds, float)
                           and math.isnan(seconds)):
        return "-"
    if math.isinf(seconds):
        return "inf"
    for scale, unit in ((60.0, "m"), (1.0, "s"), (1e-3, "ms"),
                        (1e-6, "us")):
        if seconds >= scale:
            value = seconds / scale
            return f"{value:.1f}{unit}" if value < 100 \
                else f"{value:.0f}{unit}"
    return "0"


def _fmt_count(value: float) -> str:
    return f"{value:g}"


def tenant_names(hub: TelemetryHub) -> list[str]:
    """Every tenant that ever appeared in a ``service.*`` series."""
    tenants = set()
    names = hub.series_names()
    for name in (names["counters"] | names["gauges"] | names["digests"]):
        base, labels = parse_full_name(name)
        if base.startswith("service.") and "tenant" in labels:
            tenants.add(labels["tenant"])
    return sorted(tenants)


def tenant_row(hub: TelemetryHub, tenant: str, window) -> dict:
    """One tenant's live line: rates over the window, current gauges,
    windowed latency quantiles from the per-tenant digest."""
    label = f'{{tenant="{tenant}"}}'
    span = hub.span(window)
    completed = hub.delta(f"service.completed{label}", window)
    # rejection counters carry a reason label too: fold every series
    # with this tenant label, whatever the reason
    rejected = sum(
        hub.delta(name, window)
        for name in hub.series_names()["counters"]
        if parse_full_name(name)[0] == "service.rejected"
        and parse_full_name(name)[1].get("tenant") == tenant)
    return {
        "tenant": tenant,
        "qps": completed / span if span > 0 else 0.0,
        "ok": completed,
        "rejected": rejected,
        "errors": hub.delta(f"service.errors{label}", window),
        "expired": hub.delta(f"service.expired{label}", window),
        "queue": hub.gauge(f"service.queue_depth{label}"),
        "paused": bool(hub.gauge(f"service.paused{label}")),
        "degraded": hub.delta(f"service.degraded_sessions{label}",
                              window),
        "quantiles": hub.quantiles(f"service.latency_seconds{label}",
                                   window),
    }


def render_top(hub: TelemetryHub, window="1m", width: int = 100) -> str:
    """The dashboard, as one deterministic string at ``width`` columns."""
    lines: list[str] = []

    def put(text: str) -> None:
        lines.append(text[:width].rstrip())

    if not hub.samples:
        return "repro top: no telemetry samples"
    first, last = hub.samples[0], hub.samples[-1]
    samples = hub.samples_in(window)
    window_name = window if isinstance(window, str) else f"{window:g}s"
    firing = hub.firing_alerts()
    alert_cell = (f"ALERTS FIRING: {len(firing)}" if firing
                  else "alerts: none")
    head = (f"repro top - window {window_name} ({len(samples)} samples, "
            f"{hub.span(window):.1f}s span, uptime "
            f"{last.ts - first.ts + first.interval:.1f}s)")
    put(head + " " * max(1, width - len(head) - len(alert_cell))
        + alert_cell)

    inflight = hub.gauge("service.inflight")
    breaker = _BREAKER_NAMES.get(hub.gauge("service.breaker"), "unknown")
    admitted = hub.delta_matching("service.admitted", window)
    rejected = hub.delta_matching("service.rejected", window)
    errors = hub.delta_matching("service.errors", window)
    expired = hub.delta_matching("service.expired", window)
    completed = hub.delta_matching("service.completed", window)
    put(f"inflight {_fmt_count(inflight)}   breaker {breaker}   "
        f"sessions ({window_name}): {_fmt_count(admitted)} adm / "
        f"{_fmt_count(completed)} ok / {_fmt_count(rejected)} rej / "
        f"{_fmt_count(errors)} err / {_fmt_count(expired)} exp")

    glob = hub.quantiles("service.latency_seconds", window)
    put(f"latency ({window_name}): p50 {_fmt_seconds(glob['p50'])}   "
        f"p95 {_fmt_seconds(glob['p95'])}   "
        f"p99 {_fmt_seconds(glob['p99'])}")
    put("")

    header = (f"{'tenant':<12} {'qps':>7} {'ok':>6} {'rej':>6} "
              f"{'err':>6} {'exp':>6} {'queue':>6} {'paused':>7} "
              f"{'p50':>8} {'p95':>8} {'p99':>8} {'degraded':>9}")
    put(header)
    put("-" * min(width, len(header)))
    for tenant in tenant_names(hub):
        row = tenant_row(hub, tenant, window)
        q = row["quantiles"]
        put(f"{row['tenant']:<12} {row['qps']:>7.2f} "
            f"{_fmt_count(row['ok']):>6} "
            f"{_fmt_count(row['rejected']):>6} "
            f"{_fmt_count(row['errors']):>6} "
            f"{_fmt_count(row['expired']):>6} "
            f"{_fmt_count(row['queue']):>6} "
            f"{'yes' if row['paused'] else 'no':>7} "
            f"{_fmt_seconds(q['p50']):>8} {_fmt_seconds(q['p95']):>8} "
            f"{_fmt_seconds(q['p99']):>8} "
            f"{_fmt_count(row['degraded']):>9}")

    # the window's hit rate, from its hit and miss counters
    cells = []
    for name in sorted(hub.series_names()["counters"]):
        base, labels = parse_full_name(name)
        if base != "geom.cache.hits":
            continue
        hits = hub.delta(name, window)
        traffic = hits + hub.delta(
            name.replace("geom.cache.hits", "geom.cache.misses", 1), window)
        if traffic > 0:
            cells.append(f"{labels.get('tenant', 'global')} "
                         f"{hits / traffic * 100:.0f}%")
    if cells:
        put("")
        put("geometry cache hit rate: " + "   ".join(cells))

    # concrete offenders behind the windowed percentiles: the exemplar
    # rows shipped with the samples (only when exemplar reservoirs are
    # enabled service-side)
    offenders = hub.exemplars_in("service.latency_seconds", window)[:5]
    if offenders:
        put("")
        put(f"slowest sessions ({window_name}):")
        for row in offenders:
            who = " ".join(
                f"{key}={row[key]}" for key in
                ("tenant", "session", "backend", "trace") if key in row)
            put(f"  {_fmt_seconds(row.get('value')):>8}  {who}")

    put("")
    if firing:
        put("alerts:")
        for line in firing:
            burn = line.get("burn", {})
            put(f"  FIRING {line['name']}: burn "
                f"{burn.get('short', 0):.1f}x/{burn.get('long', 0):.1f}x "
                f"over {'/'.join(line.get('windows', []))} "
                f"(objective {line.get('objective', 0):.0%})")
    else:
        put("alerts: none firing"
            + (f" ({len(hub.alerts)} transitions recorded)"
               if hub.alerts else ""))
    return "\n".join(lines)


def run_top(path, *, window="1m", width: int = 100, once: bool = False,
            refresh: float = 1.0, clock=None, out=None,
            max_frames: Optional[int] = None) -> int:
    """Drive the dashboard from a recorded stream.

    ``--once`` renders a single frame; live mode re-reads the recording
    every ``refresh`` seconds and repaints until interrupted (or
    ``max_frames`` frames, for tests).  Returns a process exit code.
    """
    import sys

    write = (out.write if out is not None else sys.stdout.write)
    clock = clock if clock is not None else SystemClock()
    frames = 0
    try:
        while True:
            hub = load_telemetry(path)
            frame = render_top(hub, window=window, width=width)
            if once:
                write(frame + "\n")
                return 0
            write(CLEAR + frame + "\n")
            frames += 1
            if max_frames is not None and frames >= max_frames:
                return 0
            clock.sleep(refresh)
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        write("\n")
        return 0
