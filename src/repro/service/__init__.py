"""Always-on multi-tenant analysis service over ShardedRuntime.

Lazy exports (PEP 562): importing :mod:`repro.service` — or just its
leaf modules like :mod:`repro.service.metrics` — must stay cheap and
cycle-free, because the distributed layer may want to publish
``service.*`` metrics without pulling the asyncio front-end in.
"""

from __future__ import annotations

_EXPORTS = {
    "AnalysisService": "repro.service.service",
    "verify_sessions": "repro.service.service",
    "session_stream": "repro.apps",
    "make_app": "repro.apps",
    "SessionRequest": "repro.service.session",
    "SessionResult": "repro.service.session",
    "TokenBucket": "repro.service.admission",
    "WatermarkGate": "repro.service.admission",
    "DeadlineBudget": "repro.service.admission",
    "CircuitBreaker": "repro.service.breaker",
    "ServiceMetrics": "repro.service.metrics",
    "ServiceLedger": "repro.service.errors",
    "ServiceEvent": "repro.service.errors",
    "Overloaded": "repro.service.errors",
    "DeadlineExceeded": "repro.service.errors",
    "OK": "repro.service.errors",
    "OVERLOADED": "repro.service.errors",
    "DEADLINE_EXCEEDED": "repro.service.errors",
    "ERROR": "repro.service.errors",
    "STATUSES": "repro.service.errors",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
