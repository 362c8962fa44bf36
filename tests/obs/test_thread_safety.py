"""Concurrency hammers for the shared observability stores.

The ledger and the registry are written from service coroutines, thread
backends and the telemetry sampler at once; these tests drive 8 threads
through a barrier and assert the exact-count invariants (torn reads and
lost updates both show up as wrong totals)."""

import math
import threading

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.service.errors import ServiceLedger

THREADS = 8
ROUNDS = 2000


def hammer(work):
    """Run ``work(thread_index)`` on THREADS threads, barrier-aligned."""
    barrier = threading.Barrier(THREADS)
    errors = []

    def runner(k):
        barrier.wait()
        try:
            work(k)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=runner, args=(k,))
               for k in range(THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


def test_ledger_record_vs_snapshot_hammer():
    ledger = ServiceLedger(capacity=THREADS * ROUNDS + 1)

    def work(k):
        for n in range(ROUNDS):
            ledger.record("alert" if n % 2 else "admit", f"tenant{k}",
                          session=n, at=float(n))
            if n % 64 == 0:
                # concurrent readers must always see a coherent list
                snap = ledger.snapshot()
                assert len(snap) <= THREADS * ROUNDS

    hammer(work)
    assert len(ledger) == THREADS * ROUNDS
    counts = ledger.counts()
    assert counts["admit"] == THREADS * ROUNDS // 2
    assert counts["alert"] == THREADS * ROUNDS // 2
    assert len(ledger.events(tenant="tenant0")) == ROUNDS


def test_ledger_trimming_keeps_counts_exact():
    """Capacity trimming drops old *events*, never *counts*, even while
    eight writers race the trim."""
    ledger = ServiceLedger(capacity=64)

    def work(k):
        for n in range(ROUNDS):
            ledger.record("evict", f"tenant{k}", at=float(n))

    hammer(work)
    assert ledger.count("evict") == THREADS * ROUNDS
    assert len(ledger) <= 64


def test_registry_create_vs_iterate_hammer():
    registry = MetricsRegistry()

    def work(k):
        for n in range(ROUNDS):
            # shared instrument: get-or-create must hand back the same
            # counter to every thread
            registry.counter("shared.ops").inc()
            # private instrument per (thread, phase): concurrent creates
            registry.counter("private.ops", thread=str(k),
                             phase=str(n % 8)).inc()
            if n % 128 == 0:
                for metric in registry:   # snapshot-iteration mid-churn
                    assert metric.full_name
                registry.snapshot()
                assert registry.find("absent.metric") is None
                len(registry)

    hammer(work)
    assert registry.find("shared.ops").value == THREADS * ROUNDS
    total = sum(m.value for m in registry
                if m.name == "private.ops")
    assert total == THREADS * ROUNDS
    assert len(registry) == 1 + THREADS * 8


def test_histogram_observe_vs_quantile_hammer():
    hist = Histogram("lat", {}, buckets=(0.001, 0.01, 0.1, 1.0))

    def work(k):
        for n in range(ROUNDS):
            hist.observe(0.0005 * (1 + n % 4))
            if n % 128 == 0:
                digest = hist.digest()
                q = digest.quantile(0.5)
                assert q > 0 or math.isnan(q)
                # tear-free: the parts must agree with each other
                assert sum(digest.counts) == digest.count
                hist.render()

    hammer(work)
    digest = hist.digest()
    assert digest.count == THREADS * ROUNDS
    assert sum(digest.counts) == digest.count
