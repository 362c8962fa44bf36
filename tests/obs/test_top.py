"""``repro top``: deterministic rendering, byte-stable --once golden,
live-mode repaints, and CLI exit codes."""

import io
import math

import pytest

from repro.cli import main
from repro.distributed.faults import FakeClock
from repro.obs.export import load_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.slo import SloEvaluator, default_service_slos
from repro.obs.telemetry import TelemetryHub, TelemetrySink, load_telemetry
from repro.obs.top import (CLEAR, _fmt_seconds, render_top, run_top,
                           tenant_names, tenant_row)

WINDOWS = {"10s": 10.0, "1m": 60.0, "5m": 300.0}


def record_stream(directory, *, outage: bool = False):
    """A fixed two-tenant stream (FakeClock, so byte-identical runs)."""
    sink = TelemetrySink(directory,
                         meta={"interval": 1.0, "windows": WINDOWS})
    registry = MetricsRegistry()
    clock = FakeClock()
    evaluator = SloEvaluator(default_service_slos(), registry=registry)
    hub = TelemetryHub(registry, clock=clock, interval=1.0,
                       windows=WINDOWS, sink=sink, evaluator=evaluator)
    t0 = dict(tenant="tenant0")
    t1 = dict(tenant="tenant1")
    for k in range(12):
        registry.counter("service.admitted", **t0).inc(4)
        registry.counter("service.completed", **t0).inc(4)
        registry.counter("service.admitted", **t1).inc(1)
        registry.counter("service.completed", **t1).inc(1)
        if k == 0:   # one early shed; sustained shedding would page
            registry.counter("service.rejected", reason="queue_full",
                             **t1).inc(1)
        if outage:
            registry.counter("service.errors", **t0).inc(6)
        hist0 = registry.histogram("service.latency_seconds",
                                   buckets=(0.01, 0.1, 1.0), **t0)
        hist1 = registry.histogram("service.latency_seconds",
                                   buckets=(0.01, 0.1, 1.0), **t1)
        glob = registry.histogram("service.latency_seconds",
                                  buckets=(0.01, 0.1, 1.0))
        for hist, value in ((hist0, 0.05), (hist1, 0.5)):
            for _ in range(4 if hist is hist0 else 1):
                hist.observe(value)
                glob.observe(value)
        registry.gauge("service.inflight").set(3)
        registry.gauge("service.breaker").set(0)
        registry.gauge("service.queue_depth", **t0).set(2)
        registry.gauge("service.queue_depth", **t1).set(0)
        registry.gauge("service.paused", **t1).set(1)
        registry.counter("geom.cache.hits", **t0).inc(9)
        registry.counter("geom.cache.misses", **t0).inc(1)
        clock.advance(1.0)
        hub.sample()
    hub.close()
    return hub


GOLDEN = """\
repro top - window 1m (12 samples, 12.0s span, uptime 12.0s)                            alerts: none
inflight 3   breaker closed   sessions (1m): 60 adm / 60 ok / 1 rej / 0 err / 0 exp
latency (1m): p50 100ms   p95 1.0s   p99 1.0s

tenant           qps     ok    rej    err    exp  queue  paused      p50      p95      p99  degraded
----------------------------------------------------------------------------------------------------
tenant0         4.00     48      0      0      0      2      no    100ms    100ms    100ms         0
tenant1         1.00     12      1      0      0      0     yes     1.0s     1.0s     1.0s         0

geometry cache hit rate: tenant0 90%

alerts: none firing (2 transitions recorded)"""


def test_fmt_seconds():
    assert _fmt_seconds(math.nan) == "-"
    assert _fmt_seconds(None) == "-"
    assert _fmt_seconds(math.inf) == "inf"
    assert _fmt_seconds(90.0) == "1.5m"
    assert _fmt_seconds(1.0) == "1.0s"
    assert _fmt_seconds(0.1) == "100ms"
    assert _fmt_seconds(2.5e-4) == "250us"
    assert _fmt_seconds(0.0) == "0"


def test_render_without_samples():
    hub = TelemetryHub(MetricsRegistry(), clock=FakeClock(),
                       windows=WINDOWS)
    assert render_top(hub) == "repro top: no telemetry samples"


def test_render_golden_is_byte_stable(tmp_path):
    """Acceptance: --once output over a recorded file is byte-stable at
    a pinned width, twice over (same recording, same bytes)."""
    record_stream(tmp_path)
    frames = [render_top(load_telemetry(tmp_path), window="1m", width=100)
              for _ in range(2)]
    assert frames[0] == frames[1] == GOLDEN
    assert all(len(line) <= 100 for line in frames[0].splitlines())


def test_render_clips_to_width(tmp_path):
    record_stream(tmp_path)
    narrow = render_top(load_telemetry(tmp_path), window="1m", width=60)
    lines = narrow.splitlines()
    assert all(len(line) <= 60 for line in lines)
    assert lines[0].startswith("repro top - window 1m")


def test_tenant_helpers(tmp_path):
    hub = record_stream(tmp_path)
    assert tenant_names(hub) == ["tenant0", "tenant1"]
    row = tenant_row(hub, "tenant1", "1m")
    assert row["ok"] == 12
    assert row["rejected"] == 1  # summed across reason labels
    assert row["paused"] is True
    assert row["quantiles"]["p99"] == 1.0


def test_cache_hit_rate_is_the_window_ratio():
    """The hit rate is the window's hits over its hits and misses; a
    window without cache traffic shows none."""
    registry, clock = MetricsRegistry(), FakeClock()
    hub = TelemetryHub(registry, clock=clock, windows=WINDOWS)
    registry.counter("geom.cache.hits", tenant="t0").inc(9)
    registry.counter("geom.cache.misses", tenant="t0").inc(1)
    for _ in range(2):  # the second tick sees no traffic
        clock.advance(1.0)
        hub.sample()
    assert "geometry cache hit rate: t0 90%" in render_top(hub, "1m")
    assert "geometry cache" not in render_top(hub, window=1.0)


def test_render_shows_firing_alerts(tmp_path):
    record_stream(tmp_path, outage=True)
    frame = render_top(load_telemetry(tmp_path), window="1m", width=100)
    assert "ALERTS FIRING" in frame.splitlines()[0]
    assert "FIRING availability[fast]" in frame
    assert "objective 99%" in frame


def test_run_top_once_and_live(tmp_path):
    record_stream(tmp_path)
    out = io.StringIO()
    assert run_top(tmp_path, once=True, out=out) == 0
    assert out.getvalue() == GOLDEN + "\n"

    live = io.StringIO()
    clock = FakeClock()
    assert run_top(tmp_path, refresh=0.5, clock=clock, out=live,
                   max_frames=3) == 0
    assert live.getvalue().count(CLEAR) == 3
    assert clock.sleeps == [0.5, 0.5]  # no sleep after the last frame


def test_cli_top_exit_codes(tmp_path, capsys):
    record_stream(tmp_path / "ok")
    assert main(["top", str(tmp_path / "ok"), "--once"]) == 0
    assert "repro top - window 1m" in capsys.readouterr().out

    assert main(["top", str(tmp_path / "absent"), "--once"]) == 2
    assert "error:" in capsys.readouterr().err

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "telemetry-00000.json").write_text('[\n{"ph":"Z"},\n')
    assert main(["top", str(bad), "--once"]) == 1
    assert "not a valid trace" in capsys.readouterr().err


def test_cli_serve_telemetry_then_top_round_trip(tmp_path, capsys):
    """The full pipeline: serve --telemetry-out records a stream that
    passes load_trace and renders with top --once and prof."""
    out_dir = tmp_path / "telemetry"
    assert main(["serve", "--backend", "serial", "--tenants", "2",
                 "--sessions", "6", "--seed", "2023",
                 "--max-inflight", "32", "--queue-limit", "32",
                 "--rate", "1000", "--burst", "64",
                 "--telemetry-out", str(out_dir),
                 "--telemetry-interval", "0.05"]) == 0
    err = capsys.readouterr().err
    assert "telemetry:" in err and str(out_dir) in err

    load_trace(out_dir)  # raises if any segment is invalid
    hub = load_telemetry(out_dir)
    assert hub.delta_matching("service.completed", "5m") == 6

    assert main(["top", str(out_dir), "--once", "--window", "5m"]) == 0
    frame = capsys.readouterr().out
    assert "repro top - window 5m" in frame
    assert "tenant0" in frame and "tenant1" in frame
    assert main(["prof", str(out_dir)]) == 0
