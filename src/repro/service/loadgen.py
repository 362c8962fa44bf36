"""Seeded multi-tenant load generator (the ``serve`` and smoke driver).

Builds a deterministic request schedule — mixed Stencil/Circuit/Pennant
tenants with heavy zipf-style skew (tenant 0 submits ~half the traffic)
— drives it through an :class:`~repro.service.service.AnalysisService`,
and summarizes outcomes and latency percentiles.  Same seed ⇒ same
schedule, every run, every machine; the chaos smoke in CI leans on that
to compare fingerprints against cold runs.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import MachineError
from repro.service.session import SessionRequest

#: Tenant i analyzes APPS_CYCLE[i % 3] with ALGOS_CYCLE[i % 3] — mixed
#: applications and algorithms across the tenant population.
APPS_CYCLE = ("stencil", "circuit", "pennant")
ALGOS_CYCLE = ("raycast", "warnock", "tree_painter")


@dataclass(frozen=True)
class LoadSpec:
    """One reproducible load shape."""

    seed: int = 0
    tenants: int = 3
    sessions: int = 24
    pieces: int = 4
    iterations: int = 1
    skew: float = 1.0      #: zipf exponent over tenant ranks (0 = uniform)
    deadline: Optional[float] = None
    apps: Sequence[str] = APPS_CYCLE
    algorithms: Sequence[str] = ALGOS_CYCLE

    def tenant_name(self, rank: int) -> str:
        return f"tenant{rank}"

    def request_for(self, rank: int) -> SessionRequest:
        return SessionRequest(
            tenant=self.tenant_name(rank),
            app=self.apps[rank % len(self.apps)],
            pieces=self.pieces,
            iterations=self.iterations,
            algorithm=self.algorithms[rank % len(self.algorithms)],
            deadline=self.deadline)


def build_requests(spec: LoadSpec) -> list[SessionRequest]:
    """The deterministic submission schedule: ``sessions`` requests with
    tenant ranks drawn from a zipf-skewed categorical."""
    if spec.tenants < 1:
        raise MachineError("need at least one tenant")
    if spec.sessions < 1:
        raise MachineError("need at least one session")
    rng = random.Random(spec.seed)
    weights = [1.0 / (rank + 1) ** spec.skew for rank in range(spec.tenants)]
    ranks = rng.choices(range(spec.tenants), weights=weights,
                        k=spec.sessions)
    return [spec.request_for(rank) for rank in ranks]


async def drive(service, requests: Sequence[SessionRequest],
                gap: float = 0.0) -> list:
    """Submit the schedule concurrently (each submission is its own
    task; ``gap`` seconds of pacing between launches) and gather every
    terminal result in submission order."""
    tasks = []
    for request in requests:
        tasks.append(asyncio.ensure_future(service.submit(request)))
        if gap > 0:
            await asyncio.sleep(gap)
        else:
            # yield so per-tenant workers interleave with submissions
            await asyncio.sleep(0)
    return list(await asyncio.gather(*tasks))


def summarize(results, service=None) -> dict:
    """Outcome counts + latency stats over the completed sessions."""
    by_status: dict[str, int] = {}
    by_tenant: dict[str, int] = {}
    latencies = []
    degraded = 0
    for result in results:
        by_status[result.status] = by_status.get(result.status, 0) + 1
        by_tenant[result.tenant] = by_tenant.get(result.tenant, 0) + 1
        if result.ok:
            latencies.append(result.seconds)
            degraded += int(result.degraded)
    latencies.sort()

    def pct(q: float) -> float:
        if not latencies:
            return 0.0
        k = min(len(latencies) - 1, max(0, round(q * (len(latencies) - 1))))
        return latencies[k]

    out = {
        "sessions": len(results),
        "by_status": dict(sorted(by_status.items())),
        "by_tenant": dict(sorted(by_tenant.items())),
        "degraded": degraded,
        "latency": {"p50": pct(0.50), "p95": pct(0.95), "p99": pct(0.99),
                    "mean": (sum(latencies) / len(latencies)
                             if latencies else 0.0)},
    }
    if service is not None:
        out["service"] = service.census_block()
    return out


def run_load(spec: LoadSpec, gap: float = 0.0, hub=None,
             **service_kwargs) -> tuple:
    """Synchronous driver: boot a service, run the schedule, stop.

    Returns ``(results, summary)``.  Keyword arguments go to
    :class:`~repro.service.service.AnalysisService`.

    ``hub`` (a :class:`~repro.obs.telemetry.TelemetryHub`) is sampled
    on its own interval from an asyncio task for the duration of the
    run — same event loop as the service, so its samplers can read slot
    state without locks — with the service's runtime sampler attached
    and one final flush tick after the last session resolves.
    """
    from repro.service.service import AnalysisService

    async def sample_loop(active_hub):
        while True:
            active_hub.sample()
            await asyncio.sleep(active_hub.interval)

    async def main():
        async with AnalysisService(**service_kwargs) as service:
            ticker = None
            if hub is not None:
                hub.add_sampler(service.telemetry_sampler())
                if hub.evaluator is not None \
                        and hub.evaluator.ledger is None:
                    hub.evaluator.ledger = service.ledger
                ticker = asyncio.ensure_future(sample_loop(hub))
            try:
                results = await drive(service, build_requests(spec),
                                      gap=gap)
            finally:
                if ticker is not None:
                    ticker.cancel()
                    try:
                        await ticker
                    except asyncio.CancelledError:
                        pass
                    hub.sample()  # flush the tail of the run
            return results, summarize(results, service)

    return asyncio.run(main())
