"""Real-runtime service integration: the tenant-isolation differential.

The acceptance bar for the service is visibility-flavoured: every
tenant's completed sessions must carry analysis fingerprints
bit-identical to a cold single-tenant replay of the same stream — for
every coherence algorithm, on both the serial and the process backend.
Concurrent tenants, shared caches, shared provenance: none of it may
leak into analysis results.
"""

import asyncio

import multiprocessing as mp
from collections import Counter

import pytest

from repro import ALGORITHMS
from repro.geometry.fastpath import geometry_cache
from repro.obs import tracer as obs
from repro.obs.provenance import Witnesses
from repro.service import (OK, AnalysisService, SessionRequest,
                           verify_sessions)

TENANTS = ("alice", "bob")


def run_sessions(backend, requests, **kw):
    async def main():
        defaults = dict(backend=backend, shards=2, rate=1000.0,
                        burst=1000.0, max_inflight=64, queue_limit=64)
        defaults.update(kw)
        async with AnalysisService(**defaults) as svc:
            results = await asyncio.gather(
                *[svc.submit(r) for r in requests])
            return svc, results

    return asyncio.run(main())


def matrix_requests(algorithms, app="stencil", pieces=4):
    return [SessionRequest(tenant=tenant, app=app, pieces=pieces,
                           iterations=1, algorithm=algo)
            for algo in algorithms for tenant in TENANTS]


class TestSerialIsolation:
    def test_all_algorithms_fingerprint_differential(self):
        requests = matrix_requests(list(ALGORITHMS))
        svc, results = run_sessions("serial", requests)
        assert all(r.status == OK for r in results), \
            [r.describe() for r in results if r.status != OK]
        # the bar: cold single-tenant replay reproduces every session
        assert verify_sessions(results) == []
        # same request, different tenants => identical analysis results
        by_algo = {}
        for r in results:
            by_algo.setdefault(r.request.algorithm, set()).add(
                r.fingerprint)
        for algo, prints in by_algo.items():
            assert len(prints) == 1, \
                f"{algo}: tenants diverged: {sorted(prints)}"

    def test_slot_continuity_across_sessions(self):
        requests = [SessionRequest(tenant="alice", algorithm="raycast")
                    for _ in range(3)]
        svc, results = run_sessions("serial", requests)
        assert [r.status for r in results] == [OK] * 3
        assert [r.fresh for r in sorted(results, key=lambda r: r.session)] \
            == [True, False, False]
        assert {r.epoch for r in results} == {0}
        # replay the whole three-session chain from cold
        assert verify_sessions(results) == []
        # successive windows on evolving state produce distinct prints
        prints = [r.fingerprint
                  for r in sorted(results, key=lambda r: r.session)]
        assert prints[0] != prints[1]


class TestProcessIsolation:
    def test_process_pool_matches_serial_and_verifies(self):
        algorithms = ("raycast", "warnock", "tree_painter")
        requests = matrix_requests(algorithms)
        svc, serial_results = run_sessions("serial", requests)
        svc, process_results = run_sessions("process", requests)
        assert all(r.status == OK for r in process_results), \
            [r.describe() for r in process_results if r.status != OK]
        assert all(r.backend == "process" and not r.degraded
                   for r in process_results)
        assert verify_sessions(process_results) == []
        # fingerprints are backend-independent: the process pool saw
        # exactly what the serial backend saw
        key = lambda r: (r.tenant, r.request.algorithm)  # noqa: E731
        serial_prints = {key(r): r.fingerprint for r in serial_results}
        for r in process_results:
            assert r.fingerprint == serial_prints[key(r)]
        # the service's worker processes must not outlive it
        for child in mp.active_children():
            child.join(timeout=5.0)
        assert not [c for c in mp.active_children() if c.is_alive()]


class TestTenantIsolationSeams:
    def test_provenance_records_are_tenant_tagged(self):
        tracer = obs.Tracer(witnesses=True)
        previous = obs.set_tracer(tracer)
        try:
            requests = [SessionRequest(tenant=t, algorithm="raycast")
                        for t in TENANTS]
            svc, results = run_sessions("serial", requests)
            assert all(r.status == OK for r in results)
            by_tenant = Counter(
                r.tenant for r in Witnesses(tracer.snapshot()).records)
        finally:
            obs.set_tracer(previous)
        assert set(TENANTS) <= set(by_tenant)
        for tenant in TENANTS:
            assert by_tenant[tenant] > 0
        # identical workloads leave identical per-tenant footprints
        assert by_tenant["alice"] == by_tenant["bob"]

    def test_tenant_geometry_caches_isolated_from_global(self):
        global_cache = geometry_cache()
        before = global_cache.stats()
        requests = matrix_requests(("raycast", "warnock"))
        svc, results = run_sessions("serial", requests)
        assert all(r.status == OK for r in results)
        # the sessions' geometry traffic went to per-tenant caches ...
        for tenant in TENANTS:
            stats = svc._tenants[tenant].cache.stats()
            assert stats["misses"] > 0
        # ... and the process-global cache saw none of it
        after = global_cache.stats()
        assert after == before
