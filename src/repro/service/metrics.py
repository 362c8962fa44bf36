"""The ``service.*`` instrument surface.

One thin facade over :class:`repro.obs.metrics.MetricsRegistry`: one
method per instrument kind (``metrics.gauge("inflight", n)``), and the
*disabled* path — no registry attached — is a single ``None`` test per
hook.  The overhead proof in
``benchmarks/test_obs_overhead.py`` pins that property: a service-less
run pays nothing for these instruments existing.

Instruments:

* counters ``service.admitted`` / ``service.rejected`` (labelled by
  rejection reason) / ``service.completed`` / ``service.expired`` /
  ``service.errors`` / ``service.degraded_sessions``, per tenant — each
  a reading of the service ledger's exact count, published whenever
  that count moves;
* gauges ``service.queue_depth{tenant}``, ``service.paused{tenant}``,
  ``service.inflight``, ``service.tenants``, ``service.breaker``
  (0=closed, 1=half-open, 2=open);
* histograms ``service.latency_seconds`` (global) and
  ``service.latency_seconds{tenant}`` (per tenant — the series the
  telemetry hub's windowed quantile digests are built from) with
  p50/p95/p99 summary via
  :meth:`~repro.obs.metrics.QuantileDigest.quantiles`.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import MetricsRegistry

#: Latency buckets (seconds): service sessions run milliseconds to tens
#: of seconds; finer-grained at the low end than the analysis default.
LATENCY_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                   0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0)

#: Exemplars kept per latency bucket once a service is given an
#: ``exemplar_seed``.
EXEMPLAR_CAPACITY = 4


class ServiceMetrics:
    """Publishes service control-plane state; no-op without a registry.

    A non-``None`` ``exemplar_seed`` gives the latency histograms
    per-bucket exemplar reservoirs (seeded-deterministic; see
    :class:`repro.obs.metrics.Histogram`).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None,
                 exemplar_seed: Optional[int] = None) -> None:
        self.registry = registry
        self.exemplars = 0 if exemplar_seed is None else EXEMPLAR_CAPACITY
        self.exemplar_seed = exemplar_seed or 0

    @property
    def enabled(self) -> bool:
        return self.registry is not None

    def outcome(self, name: str, total: int, **labels) -> None:
        """``service.<name>{labels}`` now reads ``total`` — the ledger's
        count of that outcome."""
        if self.registry is None:
            return
        self.registry.publish("service", {name: total}, **labels)

    def observe_latency(self, tenant: str, seconds: float,
                        exemplar: Optional[dict] = None) -> None:
        if self.registry is None:
            return
        # global and per-tenant latency series: the telemetry hub's
        # windowed digests need the tenant label to answer "what is
        # tenant X's p99 right now" without storing raw samples
        for labels in ({}, {"tenant": tenant}):
            self.registry.histogram(
                "service.latency_seconds", buckets=LATENCY_BUCKETS,
                exemplars=self.exemplars, exemplar_seed=self.exemplar_seed,
                **labels).observe(seconds, exemplar)

    def gauge(self, name: str, value: float, **labels) -> None:
        """``service.<name>{labels}`` is ``value`` now."""
        if self.registry is None:
            return
        self.registry.gauge(f"service.{name}", **labels).set(value)

    # -- summaries ------------------------------------------------------
    def latency_quantiles(self) -> dict:
        """``{"p50": ..., "p95": ..., "p99": ...}`` bucket bounds in
        seconds (zeros when disabled or empty)."""
        if self.registry is not None:
            hist = self.registry.find("service.latency_seconds")
            if hist is not None and (digest := hist.digest()).count:
                return digest.quantiles()
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
