"""Deterministic fault injection and recovery bookkeeping.

The distributed analysis path (:mod:`repro.distributed.backends`) must
survive worker crashes, hangs and garbled replies without giving up the
determinism contract: because every replica of the analysis is a pure
function of the shipped task stream, a fresh worker that replays the
same encoded stream from the last verified checkpoint *must* reproduce
the same analysis fingerprint — recovery is just re-execution plus a
digest check.  This module provides the pieces the supervisor in
:class:`~repro.distributed.backends.ProcessBackend` composes:

* :class:`FaultPlan` — a seeded, picklable fault schedule.  Faults are
  drawn from a SHA-256 hash of ``(seed, worker, incarnation, op)``, so a
  plan injects the *same* faults on every run with the same seed (chaos
  runs are reproducible bug reports, not flakes), while a respawned
  worker (next incarnation) gets independent draws — recovery from a
  seeded crash is not doomed to re-crash at the same request.
* :class:`RetryPolicy` — bounded retries with exponential backoff (four
  fields, one schedule for every worker).  The supervisor sleeps and
  reads deadlines through an injectable :mod:`repro.clock` (re-exported
  here), so backoff unit tests never sleep in CI.
* :class:`RecoveryReport` — structured counters of everything the
  supervisor saw and did (faults, retries, respawns, checkpoint
  restores, replayed tasks, workers lost, recovery wall-clock), surfaced
  by the CLI and, as ``recovery.*`` series, the metrics registry.
* The :class:`WorkerFault` exception family distinguishing *recoverable*
  failure detections (crash / hang / corrupt reply) from application
  errors that must propagate.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Optional

from repro.clock import FakeClock, SystemClock  # re-exported
from repro.errors import MachineError

#: Every fault kind a :class:`FaultPlan` can inject, worker-side.
#:
#: ``crash``   the worker process exits immediately (``os._exit``)
#: ``hang``    the worker stops replying (the receive timeout must fire)
#: ``delay``   the reply is late by ``seconds`` (within the timeout)
#: ``drop``    the request is swallowed: no reply, worker stays alive
#: ``corrupt`` the reply bytes are garbage (fails to unpickle)
#: ``slow``    the shard analyzes slowly (sleep folded into its window)
FAULT_KINDS = ("crash", "hang", "delay", "drop", "corrupt", "slow")

#: How long a worker sleeps to simulate a hang; the supervisor's receive
#: timeout is expected to fire long before this elapses.
HANG_SECONDS = 3600.0


class WorkerFault(MachineError):
    """A detected worker failure the supervisor can recover from."""

    #: Fault-kind label used by :meth:`RecoveryReport.record_fault`.
    kind = "fault"


class WorkerCrashed(WorkerFault):
    """The worker process died (EOF / closed pipe / exitcode)."""

    kind = "crash"


class WorkerHung(WorkerFault):
    """No reply within the receive timeout (hang or dropped message)."""

    kind = "hang"


class CorruptReply(WorkerFault):
    """The reply failed to unpickle or had an invalid frame shape."""

    kind = "corrupt"


class WorkerLost(MachineError):
    """A worker exhausted its retries and no fallback could host its
    replicas: the in-process fallback could not open or verify their
    checkpoint."""


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One injected fault: ``kind`` at request ``op`` of ``worker``'s
    ``incarnation`` (0 = the originally spawned process, +1 per respawn).

    ``seconds`` parameterizes ``delay``/``slow``.
    """

    kind: str
    worker: int
    op: int
    incarnation: int = 0
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise MachineError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, picklable fault schedule.

    Two sources of faults, combinable:

    * ``events`` — explicit one-shot :class:`FaultEvent` records, matched
      exactly on ``(worker, incarnation, op)`` (unit tests pin a single
      crash/hang at a known request);
    * ``rate`` — seeded random faults: each request draws a uniform
      value from ``SHA-256(seed, worker, incarnation, op)`` and faults
      when it falls below ``rate``, with the kind picked from ``kinds``
      by more hash bytes.  Same seed → same faults, every run, on every
      machine; different incarnations draw independently.

    The default plan (rate 0, no events) never fires and costs one tuple
    compare per request — production runs pay nothing.
    """

    seed: int = 0
    rate: float = 0.0
    kinds: tuple[str, ...] = FAULT_KINDS
    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise MachineError(f"fault rate {self.rate} outside [0, 1]")
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise MachineError(
                    f"unknown fault kind {kind!r}; known: {FAULT_KINDS}")

    @property
    def active(self) -> bool:
        """Whether this plan can ever inject a fault."""
        return self.rate > 0.0 or bool(self.events)

    def draw(self, worker: int, incarnation: int,
             op: int) -> Optional[FaultEvent]:
        """The fault (if any) to inject at one worker request.

        Pure and deterministic: the same ``(plan, worker, incarnation,
        op)`` always draws the same outcome.
        """
        for event in self.events:
            if (event.worker, event.incarnation, event.op) == \
                    (worker, incarnation, op):
                return event
        if self.rate <= 0.0 or not self.kinds:
            return None
        digest = hashlib.sha256(
            f"{self.seed}:{worker}:{incarnation}:{op}".encode()).digest()
        if int.from_bytes(digest[:8], "little") / 2.0 ** 64 >= self.rate:
            return None
        kind = self.kinds[int.from_bytes(digest[8:12], "little")
                          % len(self.kinds)]
        seconds = 0.0
        if kind in ("delay", "slow"):
            frac = int.from_bytes(digest[12:16], "little") / 2.0 ** 32
            seconds = (0.01 + 0.04 * frac) if kind == "delay" \
                else (0.02 + 0.08 * frac)
        return FaultEvent(kind, worker, op, incarnation, seconds)


#: The no-op default plan: never fires.
NO_FAULTS = FaultPlan()


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded recovery retries with exponential backoff.

    Attempt 0 (the first recovery try) runs immediately; attempt ``k``
    waits ``base_delay * multiplier**(k-1)`` seconds, capped at
    ``max_delay``.  ``max_retries`` counts the *extra* attempts after
    the first, so a recovery makes at most ``max_retries + 1`` tries
    before declaring the worker permanently lost.  The schedule is the
    same for every worker and every run: chaos runs stay reproducible.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0

    def delay(self, attempt: int) -> float:
        """Backoff before recovery attempt ``attempt`` (0-based)."""
        if attempt <= 0:
            return 0.0
        return min(self.base_delay * self.multiplier ** (attempt - 1),
                   self.max_delay)


# ----------------------------------------------------------------------
# recovery reporting
# ----------------------------------------------------------------------
@dataclass
class RecoveryReport:
    """Structured counters of supervision activity.

    One report accumulates for the lifetime of a
    :class:`~repro.distributed.backends.ProcessBackend` and is the only
    record of its recovery activity.
    """

    #: Detected faults by kind (``crash`` / ``hang`` / ``corrupt``; a
    #: dropped reply is indistinguishable from a hang parent-side).
    faults: dict[str, int] = field(default_factory=dict)
    recoveries: int = 0        #: recovery episodes entered
    retries: int = 0           #: respawn attempts (≥ 1 per episode)
    respawns: int = 0          #: worker processes re-spawned
    checkpoints: int = 0       #: checkpoints taken (per worker)
    restores: int = 0          #: respawns restored from a checkpoint
    replayed_streams: int = 0  #: journal entries replayed during recovery
    replayed_tasks: int = 0    #: task launches re-analyzed during replay
    workers_lost: int = 0      #: workers declared permanently lost
    local_fallbacks: int = 0   #: shard groups moved in-process
    recovery_seconds: float = 0.0  #: wall-clock spent recovering

    def record_fault(self, kind: str) -> None:
        self.faults[kind] = self.faults.get(kind, 0) + 1

    @property
    def total_faults(self) -> int:
        return sum(self.faults.values())

    @property
    def has_activity(self) -> bool:
        """Whether anything beyond routine checkpointing happened."""
        return bool(self.total_faults or self.recoveries
                    or self.workers_lost or self.local_fallbacks)

    def counters(self) -> dict[str, float]:
        """The report as one flat mapping of totals: the non-zero integer
        counters, and the ``seconds`` spent recovering."""
        out: dict[str, float] = {"seconds": self.recovery_seconds}
        for kind in sorted(self.faults):
            if self.faults[kind]:
                out[f"fault.{kind}"] = self.faults[kind]
        for name in ("recoveries", "retries", "respawns", "checkpoints",
                     "restores", "replayed_streams", "replayed_tasks",
                     "workers_lost", "local_fallbacks"):
            value = getattr(self, name)
            if value:
                out[name] = value
        return out

    def render(self) -> str:
        """One-line human summary (the CLI prints this after a run)."""
        faults = ",".join(f"{k}:{v}" for k, v in sorted(self.faults.items()))
        return (f"faults={faults or 'none'} retries={self.retries} "
                f"respawns={self.respawns} restores={self.restores} "
                f"replayed={self.replayed_tasks} tasks "
                f"({self.replayed_streams} streams) "
                f"checkpoints={self.checkpoints} "
                f"lost={self.workers_lost} "
                f"local_fallbacks={self.local_fallbacks} "
                f"recovery={self.recovery_seconds:.3f}s")
