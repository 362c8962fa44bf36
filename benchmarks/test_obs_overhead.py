"""Recording-overhead proof for the disabled fast path.

The acceptance bar: instrumenting the hot paths (task launch, executor,
visibility materialize/commit, dependence analysis) must cost < 5% of a
steady 32-piece circuit iteration when the tracer is disabled — the
default state, so every un-traced run pays only this.  There is one
recorder and one switch (``tracer.enabled``), so there is one proof.

Two complementary measurements:

* an arithmetic bound — time the disabled primitives directly (a
  launch's one tracer check, the ``tracer is None`` branch at each
  access, the ``led is not None`` test at every witness hook), count how
  many of each one analysis iteration evaluates, and check cost × count
  against 5% of the measured iteration time (the witness hooks' own
  share against 1.5%);
* a direct A/B benchmark of the same iteration with the tracer disabled
  vs enabled, for the record (enabled overhead is allowed to be larger —
  it buys the timeline — but is reported alongside).

The arithmetic bound is what the hard assertion uses: it is robust to
CI noise because the numerator and denominator come from the same
machine moments apart, and the primitive timing averages millions of
calls.
"""

import os
import re
import sys
import timeit

import pytest

import repro

from repro import Runtime
from repro.apps import CircuitApp
from repro.obs import Tracer, active_tracer, set_tracer
from repro.runtime.context import _UNTRACED

PIECES = 32
OVERHEAD_BUDGET = 0.05
#: The witness hooks' own share.  One iteration crosses ~2 500 hooks at
#: ~30-55 ns each against a ~7-11 ms iteration: 0.9-1.4 % on a shared
#: core.  The share rose past 1 % because the iteration got faster, not
#: because the hooks got slower, so the bound is 1.5 % — inside the 5 %
#: total, which is unchanged.
WITNESS_BUDGET = 0.015
#: The witness-hook tests one launch evaluates, counted (not timed): one
#: iteration evaluates 1 948 over 96 launches (20.3 a launch).  The bound
#: leaves room for a scan a few entries longer, not for one more hook per
#: scanned entry (~15 a launch).
WITNESS_TESTS_PER_LAUNCH = 24


def make_runtime():
    app = CircuitApp(pieces=PIECES, nodes_per_piece=16, wires_per_piece=24)
    rt = Runtime(app.tree, app.initial, algorithm="raycast")
    rt.replay(app.init_stream())
    rt.replay(app.iteration_stream())  # warm up structures and memos
    return rt, app


def _disabled_launch_check():
    """What ``Runtime._run`` evaluates of the tracer once per launch,
    tracer off: the one ``enabled`` read, the null task scope and the
    ``tracer is not None`` test before the dependence list is set."""
    tracer = active_tracer()
    if not tracer.enabled:
        tracer = None
    with _UNTRACED if tracer is None else tracer.span("t", "task"):
        if tracer is not None:
            return 1
    return 0


def count_witness_tests(run) -> int:
    """Call ``run()`` under a line tracer and return how many times it
    evaluated a witness-hook test: a source line of ``repro`` testing
    ``led is None`` or ``led is not None``."""
    hook = re.compile(r"\bled is (not )?None\b")
    sites = set()
    for folder, _, names in os.walk(os.path.dirname(repro.__file__)):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path) as source:
                    sites.update((path, n) for n, line in enumerate(source, 1)
                                 if hook.search(line.split("#")[0]))
    files = {path for path, _ in sites}
    evaluated = 0

    def line(frame, event, arg):
        nonlocal evaluated
        if event == "line" and (frame.f_code.co_filename,
                                frame.f_lineno) in sites:
            evaluated += 1
        return line

    sys.settrace(lambda frame, event, arg:
                 line if frame.f_code.co_filename in files else None)
    try:
        run()
    finally:
        sys.settrace(None)
    return evaluated


def test_disabled_recorder_overhead_is_below_budget():
    """Every guard a launch evaluates with the tracer disabled, in one
    sum: the launch's one tracer check (a disabled launch opens no span),
    the ``tracer is None`` branch before each materialize and each
    commit, and, because the access span doubles as the witness record,
    one local-variable ``led is not None`` test per witness hook.  Each
    term of the hook count below names the hook site it bounds: a meter
    count (identical on/off — the differential tests prove it) for the
    sites inside a loop, the number of accesses for the per-call ones.

    The hook tests are also counted as evaluated, by a line tracer: the
    meter proxy must price every one of them, and a launch may evaluate
    at most :data:`WITNESS_TESTS_PER_LAUNCH` — a bound a faster launch
    cannot trip, unlike the timed share."""
    assert not active_tracer().enabled, "benchmark requires default state"
    rt, app = make_runtime()

    # Denominator: honest per-iteration analysis time, best of 5.
    iter_seconds = min(timeit.repeat(
        lambda: rt.replay(app.iteration_stream()), repeat=5, number=1))

    # Numerator: the disabled launch check, timed ...
    calls = 200_000
    per_launch = min(timeit.repeat(
        _disabled_launch_check, repeat=5, number=calls)) / calls

    # ... and the ``None`` tests of the access branches and witness hooks.
    led = None

    def none_check():
        if led is not None:
            return 1
        return 0

    # the same million calls in repeats short enough (~1 ms) for the
    # minimum to fall between a shared runner's bursts
    per_hook = min(timeit.repeat(none_check, repeat=25,
                                 number=calls // 5)) / (calls // 5)
    before = dict(rt.meter.counters)
    stream = app.iteration_stream()
    tested = count_witness_tests(lambda: rt.replay(stream))
    after = rt.meter.counters

    def delta(counter):
        return after.get(counter, 0) - before.get(counter, 0)

    requirements = [req for task in stream for req in task.requirements]
    # Runtime._run: ``tracer is None`` before each materialize and commit
    branches = 2 * len(requirements)
    per_call = (
        # materialize and commit, each: describe_access (1), visit_sets (1)
        4 * len(requirements)
        # RayCastAlgorithm._settle: once per write materialized
        + sum(req.privilege.is_write for req in requirements))
    hooks = (
        # scan_dependences: once per *tested* entry — an edge on a hit, a
        # prune on a miss; an entry not tested meets no hook
        delta("intersection_tests")
        # RayCastAlgorithm._collect: set_source, once per set scanned
        + delta("eqsets_visited")
        + per_call)
    assert hooks > per_call, "analysis scanned nothing — wrong workload?"
    assert tested <= hooks, (
        f"{tested} witness-hook tests evaluated, {hooks} priced")
    assert tested <= WITNESS_TESTS_PER_LAUNCH * len(stream), (
        f"{tested / len(stream):.1f} witness-hook tests a launch "
        f"> {WITNESS_TESTS_PER_LAUNCH}")

    witness = per_hook * hooks / iter_seconds
    overhead = (per_launch * len(stream) + per_hook * branches) \
        / iter_seconds + witness
    print(f"\ndisabled-recorder overhead: {len(stream)} launch checks x "
          f"{per_launch * 1e9:.0f}ns + {branches} access branches and "
          f"{hooks} witness hooks ({tested} evaluated) x "
          f"{per_hook * 1e9:.0f}ns over "
          f"{iter_seconds * 1e3:.2f}ms -> {overhead * 100:.3f}% "
          f"(witness hooks {witness * 100:.3f}%)")
    assert witness < WITNESS_BUDGET, (
        f"disabled witness hooks cost {witness * 100:.2f}% "
        f">= {WITNESS_BUDGET * 100:.0f}% of analysis time")
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled recording costs {overhead * 100:.2f}% "
        f">= {OVERHEAD_BUDGET * 100:.0f}% of analysis time")


def test_disabled_service_metrics_overhead_is_below_budget():
    """The ``service.*`` instrument facade must be free when the service
    layer is not in use.

    Two properties gate this: (1) a run without the service never even
    imports the asyncio front-end (the ``repro.service`` package is
    lazy, so analysis code paths cannot accidentally pay for it); (2)
    with no registry attached every hook is a single ``None`` test —
    timed here and bounded against the analysis iteration the same way
    as the tracer proof, using a generous per-session call count."""
    import subprocess
    import sys

    # (1) plain analysis never imports the service front-end
    probe = subprocess.run(
        [sys.executable, "-c",
         "import sys; import repro; from repro import Runtime; "
         "assert 'repro.service.service' not in sys.modules, "
         "'service front-end leaked into core import'"],
        capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr

    # (2) disabled-hook cost x calls-per-session against iteration time
    from repro.service.metrics import ServiceMetrics

    metrics = ServiceMetrics(None)
    assert not metrics.enabled
    rt, app = make_runtime()
    iter_seconds = min(timeit.repeat(
        lambda: rt.replay(app.iteration_stream()), repeat=5, number=1))

    calls = 200_000

    def hooks():
        metrics.outcome("admitted", 1, tenant="t")
        metrics.observe_latency("t", 0.01)
        metrics.outcome("rejected", 1, tenant="t", reason="rate")
        metrics.gauge("queue_depth", 1, tenant="t")
        metrics.gauge("paused", 0, tenant="t")
        metrics.gauge("inflight", 1)
        metrics.gauge("breaker", 0)

    per_burst = min(timeit.repeat(hooks, repeat=5, number=calls)) / calls
    # one session crosses far fewer than 4 such bursts
    overhead = per_burst * 4 / iter_seconds
    print(f"\ndisabled service metrics: 7-hook burst "
          f"{per_burst * 1e9:.0f}ns x 4 over {iter_seconds * 1e3:.2f}ms "
          f"-> {overhead * 100:.4f}%")
    assert overhead < OVERHEAD_BUDGET, (
        f"disabled service.* instruments cost {overhead * 100:.2f}% "
        f">= {OVERHEAD_BUDGET * 100:.0f}% of analysis time")


def test_enabled_vs_disabled_ab(benchmark):
    """For the record: the same iteration with tracing on. Not gated —
    enabled runs buy the timeline — but keeps the cost visible."""
    rt, app = make_runtime()
    tracer = Tracer()
    previous = set_tracer(tracer)
    try:
        benchmark(rt.replay, app.iteration_stream())
    finally:
        set_tracer(previous)


@pytest.mark.parametrize("state", ("disabled", "enabled"))
def test_span_primitive_cost(benchmark, state):
    """Raw per-span cost of the two tracer states."""
    tracer = Tracer(enabled=(state == "enabled"))

    def one_span():
        with tracer.span("x", "bench"):
            pass
        if state == "enabled":
            tracer.drain()

    benchmark(one_span)


TELEMETRY_DISABLED_BUDGET = 0.01
TELEMETRY_ENABLED_BUDGET = 0.02


def test_no_telemetry_hub_overhead_is_below_budget():
    """A run without a hub pays nothing for the telemetry pipeline.

    The hub is pull-based: the hot paths never call into it — they keep
    publishing the same cumulative instruments, and the hub differences
    those totals from *outside* on its own tick.  The only residual
    telemetry cost in a hub-less run is the ``hub is not None`` guard the
    load driver evaluates once per run; time that primitive and bound it
    (generously, as if it ran once per task) against the iteration."""
    rt, app = make_runtime()
    iter_seconds = min(timeit.repeat(
        lambda: rt.replay(app.iteration_stream()), repeat=5, number=1))

    hub = None
    calls = 200_000

    def guard():
        if hub is not None:
            return 1
        return 0

    per_guard = min(timeit.repeat(guard, repeat=5, number=calls)) / calls
    tasks = len(app.iteration_stream())
    overhead = per_guard * tasks / iter_seconds
    print(f"\nno-hub telemetry overhead: {tasks} guards x "
          f"{per_guard * 1e9:.0f}ns over {iter_seconds * 1e3:.2f}ms "
          f"-> {overhead * 100:.4f}%")
    assert overhead < TELEMETRY_DISABLED_BUDGET, (
        f"hub-less telemetry costs {overhead * 100:.2f}% "
        f">= {TELEMETRY_DISABLED_BUDGET * 100:.0f}% of analysis time")


def test_enabled_1hz_sampler_overhead_is_below_budget():
    """With a hub attached at the default 1 Hz, one tick's cost over a
    realistically populated registry must stay under 2% of the second it
    samples (the tick runs on the service event loop, so its cost is
    admission latency for whatever is queued behind it)."""
    from repro.distributed.faults import FakeClock
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.slo import SloEvaluator, default_service_slos
    from repro.obs.telemetry import TelemetryHub
    from repro.service.metrics import LATENCY_BUCKETS

    registry = MetricsRegistry()
    for t in range(8):
        tenant = f"tenant{t}"
        registry.counter("service.admitted", tenant=tenant).inc(100)
        registry.counter("service.completed", tenant=tenant).inc(95)
        registry.counter("service.rejected", tenant=tenant,
                         reason="queue_full").inc(3)
        registry.counter("service.errors", tenant=tenant).inc(2)
        registry.counter("geom.cache.hits", tenant=tenant).inc(900)
        registry.counter("geom.cache.misses", tenant=tenant).inc(100)
        registry.gauge("service.queue_depth", tenant=tenant).set(2)
        hist = registry.histogram("service.latency_seconds",
                                  buckets=LATENCY_BUCKETS, tenant=tenant)
        for k in range(50):
            hist.observe(0.001 * (k + 1))
    glob = registry.histogram("service.latency_seconds",
                              buckets=LATENCY_BUCKETS)
    for k in range(400):
        glob.observe(0.001 * (k % 50 + 1))
    registry.gauge("service.inflight").set(4)
    registry.gauge("service.breaker").set(0)

    clock = FakeClock()
    hub = TelemetryHub(
        registry, clock=clock, interval=1.0,
        evaluator=SloEvaluator(default_service_slos(), registry=registry))

    def tick():
        clock.advance(1.0)
        hub.sample()

    ticks = 200
    per_sample = min(timeit.repeat(tick, repeat=5, number=ticks)) / ticks
    overhead = per_sample / 1.0  # one tick per sampled second at 1 Hz
    print(f"\n1Hz sampler overhead: {len(registry)} instruments, "
          f"{per_sample * 1e6:.0f}us/tick -> {overhead * 100:.3f}%")
    assert overhead < TELEMETRY_ENABLED_BUDGET, (
        f"1Hz telemetry sampling costs {overhead * 100:.2f}% "
        f">= {TELEMETRY_ENABLED_BUDGET * 100:.0f}% of sampled wall time")


FLIGHT_ARMED_BUDGET = 0.02


def test_armed_ring_and_exemplars_at_1hz_are_below_budget():
    """Worst-case armed cost: every completed session records its span
    into the bounded tracer the flight recorder reads, every completion
    offers a latency exemplar to its reservoir, and the 1 Hz hub tick
    ships the fresh exemplar rows alongside the digests.  One second of
    that — a generous 200 sessions/s across 8 tenants — must stay under
    2% of the second it instruments."""
    from repro.distributed.faults import FakeClock
    from repro.obs.flight import RING_CAPACITY, FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import TelemetryHub
    from repro.service.metrics import LATENCY_BUCKETS

    clock = FakeClock()
    registry = MetricsRegistry()
    hists = [registry.histogram("service.latency_seconds",
                                buckets=LATENCY_BUCKETS, exemplars=4,
                                exemplar_seed=2023, tenant=f"tenant{t}")
             for t in range(8)]
    tracer = Tracer(clock=clock, capacity=RING_CAPACITY)
    FlightRecorder(tracer)  # in-memory: dumps are no-ops
    hub = TelemetryHub(registry, clock=clock, interval=1.0)

    sessions = 200

    def one_second():
        for k in range(sessions):
            with tracer.scope(tid=k % 4), \
                    tracer.span("session", "service.session") as sp:
                pass
            hists[k % 8].observe(
                0.001 * (k % 50 + 1),
                {"trace": sp.span_id, "tenant": f"tenant{k % 8}",
                 "session": sp.span_id})
        clock.advance(1.0)
        hub.sample()

    seconds = 50
    per_second = min(timeit.repeat(one_second, repeat=5,
                                   number=seconds)) / seconds
    overhead = per_second / 1.0  # instrumented cost per sampled second
    print(f"\narmed ring + exemplars at 1Hz: {sessions} sessions/s, "
          f"{per_second * 1e6:.0f}us/s -> {overhead * 100:.3f}%")
    assert overhead < FLIGHT_ARMED_BUDGET, (
        f"armed flight ring + exemplars cost {overhead * 100:.2f}% "
        f">= {FLIGHT_ARMED_BUDGET * 100:.0f}% of sampled wall time")
