"""Structured failure surface of the analysis service.

The service never lets a tenant session end ambiguously: every submitted
request resolves to a :class:`~repro.service.session.SessionResult`
whose ``status`` is one of the four values below, and every
non-``ok`` outcome is additionally ledgered as a :class:`ServiceEvent`
so operators can reconstruct *why* the service shed load, expired work,
or degraded a backend — long after the sessions themselves are gone.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import MachineError

#: Session terminal statuses.
OK = "ok"
OVERLOADED = "overloaded"
DEADLINE_EXCEEDED = "deadline_exceeded"
ERROR = "error"

STATUSES = (OK, OVERLOADED, DEADLINE_EXCEEDED, ERROR)

#: Admission-rejection reasons carried by :class:`Overloaded`.
REJECT_RATE = "rate"                  # per-tenant token bucket empty
REJECT_CAPACITY = "capacity"          # global inflight cap reached
REJECT_BACKPRESSURE = "backpressure"  # tenant queue over high water


class ServiceError(MachineError):
    """Base of every structured service failure."""


class Overloaded(ServiceError):
    """Admission control rejected the request instead of queueing it.

    ``reason`` is one of :data:`REJECT_RATE`, :data:`REJECT_CAPACITY`,
    :data:`REJECT_BACKPRESSURE`.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        self.reason = reason
        super().__init__(
            f"overloaded ({reason})" + (f": {detail}" if detail else ""))


class DeadlineExceeded(ServiceError):
    """The session's deadline budget expired (queued or mid-analysis)."""


@dataclass(frozen=True)
class ServiceEvent:
    """One ledgered control-plane decision.

    ``kind`` ∈ {``rejected``, ``expired``, ``cancelled``, ``errored``,
    ``degraded``, ``breaker``, ``slot_poisoned``, ``slot_retired``,
    ``alert``}; ``detail`` carries kind-specific context (rejection
    reason, breaker transition, SLO burn-rate alert transition, ...).
    """

    kind: str
    tenant: str
    session: int = -1
    detail: str = ""
    at: float = 0.0


class ServiceLedger:
    """Append-only, thread-safe record of control-plane events, and the
    one tally of what the service did.

    Deliberately tiny: the service is long-lived, so the ledger keeps at
    most ``capacity`` most-recent events (drops the oldest half when
    full) while the *counts* — per ``(kind, tenant, labels)`` — stay
    exact forever.  Every other count of session outcomes
    (``AnalysisService.counts``, the census block, the ``service.*``
    series) is a reading of these.
    """

    def __init__(self, capacity: int = 4096) -> None:
        self._lock = threading.Lock()
        self._events: list[ServiceEvent] = []
        self._counts: dict[tuple, int] = {}
        self.capacity = max(2, capacity)
        #: Optional observer called with every recorded event, *outside*
        #: the ledger lock (it may do IO — the flight recorder dumps its
        #: rings on alert/breaker/deadline events).
        self.listener = None

    def tally(self, kind: str, tenant: str, **labels) -> None:
        """Count one ``kind`` for ``tenant`` without keeping an event
        (``labels`` split the count further, e.g. a rejection's
        ``reason``) — routine admissions and completions, which would
        crowd the decisions an operator asks about out of the bounded
        list."""
        key = (kind, tenant, tuple(sorted(labels.items())))
        with self._lock:
            self._counts[key] = self._counts.get(key, 0) + 1

    def record(self, kind: str, tenant: str, session: int = -1,
               detail: str = "", at: float = 0.0, **labels) -> None:
        """:meth:`tally` it, keep it as an event, tell the listener."""
        self.tally(kind, tenant, **labels)
        event = ServiceEvent(kind, tenant, session, detail, at)
        with self._lock:
            if len(self._events) >= self.capacity:
                del self._events[:self.capacity // 2]
            self._events.append(event)
        listener = self.listener
        if listener is not None:
            listener(event)

    def snapshot(self) -> list[ServiceEvent]:
        with self._lock:
            return list(self._events)

    def counts(self) -> dict[str, int]:
        """Exact totals by kind (every tenant, every label set)."""
        out: dict[str, int] = {}
        with self._lock:
            for (kind, _, _), n in self._counts.items():
                out[kind] = out.get(kind, 0) + n
        return out

    def count(self, kind: str, tenant: Optional[str] = None,
              **labels) -> int:
        """Exact total of ``kind``; of one ``tenant`` (and one label
        set) when given."""
        want = tuple(sorted(labels.items()))
        with self._lock:
            return sum(n for (k, t, have), n in self._counts.items()
                       if k == kind and tenant in (None, t)
                       and (not want or have == want))

    def events(self, kind: Optional[str] = None,
               tenant: Optional[str] = None) -> list[ServiceEvent]:
        return [e for e in self.snapshot()
                if (kind is None or e.kind == kind)
                and (tenant is None or e.tenant == tenant)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)
