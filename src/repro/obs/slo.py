"""Declarative SLOs evaluated as multi-window burn-rate alerts.

An :class:`SloSpec` names an objective over the streaming telemetry —
availability (good/bad event counters), a latency threshold (fraction of
sessions under a bound, read from the windowed quantile digests), or a
rejection rate — and the :class:`SloEvaluator` turns each spec into the
standard SRE *multi-window, multi-burn-rate* alert pair:

* **fast burn** ("page"): the error budget is burning at >=
  ``fast_factor`` × the sustainable rate over *both* a short and a
  medium window — a sudden outage, caught in seconds, auto-resolving as
  soon as the short window clears;
* **slow burn** ("ticket"): >= ``slow_factor`` × over both a medium and
  a long window — a simmering problem that would quietly exhaust the
  budget.

The burn rate over a window is ``bad_fraction / (1 - objective)``: 1.0
means the budget is being spent exactly at the rate that exhausts it at
the objective horizon; 14× means a 99% objective's monthly budget would
be gone in ~2 days.  Requiring *two* windows to agree is what makes the
alerts both quick to fire and quick to resolve without flapping.

Evaluation is pure over a :class:`~repro.obs.telemetry.TelemetryHub` —
no sleeps, no wall clock — so a :class:`FakeClock`-driven test can march
an alert through fire and resolve deterministically.  Every transition
is recorded as a structured ``alert`` event on the service ledger (when
attached) and as ``slo.*`` gauges on the registry (when attached).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import MachineError

#: Spec kinds.
AVAILABILITY = "availability"
LATENCY = "latency"
REJECTION = "rejection"

KINDS = (AVAILABILITY, LATENCY, REJECTION)

#: Alert severities (the two burn speeds).
FAST = "fast"
SLOW = "slow"


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over the telemetry stream.

    ``good``/``bad`` are counter *base* names (labels stripped; deltas
    are summed across tenants) for the ``availability`` and
    ``rejection`` kinds.  The ``latency`` kind instead reads the digest
    of ``histogram`` (a full metric name) and counts observations at
    centroids <= ``threshold`` seconds as good.
    """

    name: str
    kind: str
    objective: float                      #: target good fraction, e.g. 0.99
    good: tuple = ()
    bad: tuple = ()
    histogram: str = ""
    threshold: float = 0.0
    fast_factor: float = 14.0
    slow_factor: float = 2.0
    fast_windows: tuple = ("10s", "1m")   #: (short, medium)
    slow_windows: tuple = ("1m", "5m")    #: (medium, long)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise MachineError(f"unknown SLO kind {self.kind!r}; "
                               f"known: {KINDS}")
        if not 0.0 < self.objective < 1.0:
            raise MachineError(
                f"objective {self.objective} outside (0, 1)")
        if self.kind == LATENCY:
            if not self.histogram or self.threshold <= 0:
                raise MachineError("latency SLO needs a histogram name "
                                   "and a positive threshold")
        elif not self.good or not self.bad:
            raise MachineError(f"{self.kind} SLO needs good and bad "
                               "counter names")

    @property
    def budget(self) -> float:
        """Tolerated bad fraction (1 - objective)."""
        return 1.0 - self.objective

    def bad_fraction(self, hub, window) -> Optional[float]:
        """Fraction of events in the window that were bad (``None``
        when the window carries no events — no data is not an outage)."""
        if self.kind == LATENCY:
            digest = hub.digest(self.histogram, window)
            if digest is None or digest.count == 0:
                return None
            return 1.0 - digest.fraction_at_most(self.threshold)
        good = sum(hub.delta_matching(name, window) for name in self.good)
        bad = sum(hub.delta_matching(name, window) for name in self.bad)
        total = good + bad
        if total <= 0:
            return None
        return bad / total

    def burn_rate(self, hub, window) -> float:
        """Budget-burn multiple over the window (0.0 when no data)."""
        fraction = self.bad_fraction(hub, window)
        if fraction is None:
            return 0.0
        return fraction / self.budget


@dataclass
class SloStatus:
    """One (spec, severity) evaluation: the burn pair and alert state.

    ``changed`` marks a transition this tick (fire or resolve) — only
    changed statuses are appended to the hub's alert log and ledgered.
    """

    slo: str
    severity: str            #: :data:`FAST` or :data:`SLOW`
    firing: bool
    changed: bool
    ts: float
    burn_short: float = 0.0
    burn_long: float = 0.0
    factor: float = 0.0
    windows: tuple = ()
    objective: float = 0.0

    @property
    def name(self) -> str:
        return f"{self.slo}[{self.severity}]"

    def to_args(self) -> dict:
        """The args of this transition's ``slo`` instant event (the
        event carries the alert name and time)."""
        return {
            "slo": self.slo, "severity": self.severity,
            "state": "firing" if self.firing else "resolved",
            "burn": {"short": round(self.burn_short, 4),
                     "long": round(self.burn_long, 4)},
            "factor": self.factor,
            "windows": list(self.windows),
            "objective": self.objective,
        }

    def describe(self) -> str:
        state = "firing" if self.firing else "resolved"
        return (f"{self.name} {state}: burn "
                f"{self.burn_short:.1f}x/{self.burn_long:.1f}x over "
                f"{'/'.join(self.windows)} "
                f"(>{self.factor:g}x of {self.objective:.2%} budget)")


class SloEvaluator:
    """Evaluates a set of specs once per hub tick, with hysteresis-free
    two-window state machines per (spec, severity).

    ``ledger`` (a :class:`~repro.service.errors.ServiceLedger`) receives
    an ``alert`` event per transition; ``registry`` receives
    ``slo.burn{slo=,window=}`` and ``slo.firing{slo=,severity=}``
    gauges every tick.
    """

    def __init__(self, specs: Sequence[SloSpec], *,
                 ledger=None, registry=None) -> None:
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise MachineError(f"duplicate SLO names in {names}")
        self.specs = tuple(specs)
        self.ledger = ledger
        self.registry = registry
        self._firing: dict[tuple, bool] = {}

    def evaluate(self, hub, now: float) -> list[SloStatus]:
        """One tick: burn every spec's window pairs, flip state machines,
        ledger transitions, publish gauges.  Returns every (spec,
        severity) status; callers filter on ``changed``."""
        statuses: list[SloStatus] = []
        for spec in self.specs:
            burns: dict[str, float] = {}
            for severity, factor, windows in (
                    (FAST, spec.fast_factor, spec.fast_windows),
                    (SLOW, spec.slow_factor, spec.slow_windows)):
                short, long_ = (burns.get(w) if w in burns
                                else spec.burn_rate(hub, w)
                                for w in windows)
                burns[windows[0]], burns[windows[1]] = short, long_
                firing = short > factor and long_ > factor
                key = (spec.name, severity)
                changed = firing != self._firing.get(key, False)
                self._firing[key] = firing
                status = SloStatus(
                    slo=spec.name, severity=severity, firing=firing,
                    changed=changed, ts=now, burn_short=short,
                    burn_long=long_, factor=factor, windows=windows,
                    objective=spec.objective)
                statuses.append(status)
                if changed and self.ledger is not None:
                    self.ledger.record("alert", "", detail=status.describe(),
                                       at=now)
            if self.registry is not None:
                for window, burn in sorted(burns.items()):
                    self.registry.gauge("slo.burn", slo=spec.name,
                                        window=window).set(burn)
        if self.registry is not None:
            for (slo, severity), firing in sorted(self._firing.items()):
                self.registry.gauge("slo.firing", slo=slo,
                                    severity=severity).set(int(firing))
        return statuses

    def firing(self) -> list[str]:
        """Currently-firing alert names, sorted."""
        return sorted(f"{slo}[{severity}]"
                      for (slo, severity), state in self._firing.items()
                      if state)


def default_service_slos() -> tuple[SloSpec, ...]:
    """The analysis service's stock objectives (what ``repro serve
    --telemetry-out`` evaluates):

    * ``availability`` — 99% of finished sessions complete (errors and
      deadline expiries spend the budget; admission rejects do not);
    * ``latency-1s`` — 95% of completed sessions finish within 1s
      (read from the global latency digest);
    * ``rejection`` — 95% of admission decisions admit (sustained
      shedding is an SLO violation even though each reject is a
      structured, intentional outcome).
    """
    return (
        SloSpec(name="availability", kind=AVAILABILITY, objective=0.99,
                good=("service.completed",),
                bad=("service.errors", "service.expired")),
        SloSpec(name="latency-1s", kind=LATENCY, objective=0.95,
                histogram="service.latency_seconds", threshold=1.0),
        SloSpec(name="rejection", kind=REJECTION, objective=0.95,
                good=("service.admitted",), bad=("service.rejected",)),
    )
