"""repro.obs — unified observability: one recorder, many views.

One recorder — :class:`Tracer`, the only process-global one — holds the
event history every view reads: the Perfetto timeline
(:mod:`repro.obs.export`), "what was the critical path of this run?"
answered offline from a trace file alone (:mod:`repro.obs.critpath`),
*why* every dependence edge exists (:mod:`repro.obs.provenance`, a typed
reading of the witness payload on the materialize/commit spans) and the
incident dump of a bounded tracer's recent past
(:mod:`repro.obs.flight`).  Counted quantities live in one
:class:`MetricsRegistry`; sources that keep their own totals
(`CostMeter`, `PhaseProfile`, `RecoveryReport`, `GeometryCache`) reach
it through its ``publish`` bridge, and the telemetry stream
(:mod:`repro.obs.telemetry`) is its readings over time.  Every file
these write is one kind, a trace-event file: :func:`load_trace` reads
it and :func:`validate_trace` checks it.  :mod:`repro.obs.census`
censuses the live analysis structures behind the paper's evaluation
figures, as a snapshot document of its own.
"""

# note: the ``census`` *function* is aliased ``take_census`` here so the
# ``repro.obs.census`` submodule attribute is not shadowed
from repro.obs.census import (CENSUS_SCHEMA, census_diff, render_census,
                              validate_census)
from repro.obs.census import census as take_census
from repro.obs.critpath import CritPathReport, critical_path, deps_from_spans
from repro.obs.doctor import (HATCHES, Hatch, config_snapshot,
                              render_doctor, resolve_hatches)
from repro.obs.export import (load_trace, to_chrome_trace, trace_events,
                              validate_trace, write_trace)
from repro.obs.flight import BLACKBOX_SCHEMA, FlightRecorder, render_blackbox
from repro.obs.metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                               MetricsRegistry, QuantileDigest)
from repro.obs.provenance import (AccessRecord, EdgeWitness, PruneRecord,
                                  Witnesses, explain_task)
from repro.obs.slo import (SloEvaluator, SloSpec, SloStatus,
                           default_service_slos)
from repro.obs.telemetry import (TelemetryHub, TelemetrySample,
                                 TelemetrySink, load_telemetry,
                                 parse_full_name)
from repro.obs.top import render_top, run_top
from repro.obs.tracer import (DRIVER_PID, CounterSample, Instant, Span,
                              TraceBuffer, Tracer, active_tracer, counter,
                              instant, set_tracer, span)

__all__ = [
    "CENSUS_SCHEMA", "take_census", "census_diff",
    "render_census", "validate_census",
    "CritPathReport", "critical_path", "deps_from_spans",
    "HATCHES", "Hatch", "config_snapshot", "render_doctor",
    "resolve_hatches",
    "load_trace", "to_chrome_trace", "trace_events", "validate_trace",
    "write_trace",
    "BLACKBOX_SCHEMA", "FlightRecorder", "render_blackbox",
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "DEFAULT_BUCKETS",
    "AccessRecord", "EdgeWitness", "PruneRecord", "Witnesses",
    "explain_task",
    "SloEvaluator", "SloSpec", "SloStatus", "default_service_slos",
    "QuantileDigest", "TelemetryHub", "TelemetrySample", "TelemetrySink",
    "load_telemetry", "parse_full_name",
    "render_top", "run_top",
    "DRIVER_PID", "CounterSample", "Instant", "Span", "TraceBuffer",
    "Tracer", "active_tracer", "counter", "instant", "set_tracer", "span",
]
