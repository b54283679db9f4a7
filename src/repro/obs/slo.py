"""Declarative SLOs with multi-window burn-rate alerting.

ROADMAP item 3 ("p999 SLOs at tens-of-thousands-of-tickets scale") needs
an objective layer above the raw counters: *is the service eating its
error budget faster than it can afford?*  This module implements the
Google-SRE multi-window burn-rate recipe on the repository's simulated
clock, which makes the alerts — normally the flakiest part of any SRE
stack — fully deterministic: the same seed produces the same admission
decisions at the same simulated milliseconds, so an alert fires and
clears at exactly the same instants on every machine.

Model: an :class:`SLOObjective` declares a target *good fraction* (e.g.
"99% of admitted requests finish under 2 ms").  The error budget is
``1 - target``; the **burn rate** over a window is the window's bad
fraction divided by that budget (burn 1.0 = exactly consuming budget at
the sustainable pace; burn 10 = ten times too fast).  An alert fires
when **both** a short and a long sliding window reach
:data:`BURN_THRESHOLD` — the long window proves the problem is real, the
short window proves it is *still happening* — and clears when the short
window drops back below, which gives fast reset after recovery without
flapping.

Events are ``(sim_ms, good)`` pairs fed by the serving layer (admission
outcomes, completion latencies, degraded flags) or by benches (q-error
versus a reference).  :meth:`SLOEngine.to_registry` — the one SLO
exporter — writes a ``slo_burn_rate{slo,window}`` gauge family plus alert
counters into a :class:`~repro.obs.registry.MetricsRegistry` (the serving
layer's live registry, or a fresh one).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError
from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class SLOObjective:
    """One declarative objective.

    Attributes:
        name: stable identifier; the serving layer routes events by it
            (``admitted_latency``, ``shed_rate``, ``degraded``, and
            ``q_error`` are the wired-in feeds).
        target: required good fraction in (0, 1); the error budget is
            ``1 - target``.
        threshold_ms: for latency-style objectives, the bound that
            defines "good" (the feeder compares against it).
        description: human text for reports.
    """

    name: str
    target: float
    threshold_ms: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ObservabilityError("objective name must be non-empty")
        if not (0.0 < self.target < 1.0):
            raise ObservabilityError(
                f"objective {self.name!r}: target must be in (0, 1), "
                f"got {self.target}"
            )

    @property
    def budget(self) -> float:
        return 1.0 - self.target


@dataclass(frozen=True)
class SLOPolicy:
    """Objectives plus the two windows of the burn-rate alert rule.

    Attributes:
        objectives: the declared objectives.
        short_window_ms: the fast window (still-happening check).
        long_window_ms: the slow window (really-happening check); must
            exceed the short window.
    """

    objectives: Tuple[SLOObjective, ...]
    short_window_ms: float = 25.0
    long_window_ms: float = 100.0

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ObservabilityError("SLOPolicy needs at least one objective")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise ObservabilityError(f"duplicate objective names: {names}")
        if self.short_window_ms <= 0 or self.long_window_ms <= 0:
            raise ObservabilityError("windows must be positive")
        if self.long_window_ms <= self.short_window_ms:
            raise ObservabilityError(
                "long_window_ms must exceed short_window_ms"
            )


def default_slo_policy(
    latency_threshold_ms: float = 2.0,
    **overrides: Any,
) -> SLOPolicy:
    """The serving layer's standard objective set.

    * ``admitted_latency`` — 90% of admitted requests complete within
      ``latency_threshold_ms`` simulated ms.
    * ``shed_rate`` — 90% of arrivals are admitted (an admission
      decision is "good" when it admits).
    * ``degraded`` — 95% of completions are full-fidelity (not CPU-
      fallback degraded).
    * ``q_error`` — 90% of estimates stay within 2x of their reference
      (fed by benches/canaries via ``report_q_error``).
    """
    objectives = (
        SLOObjective(
            "admitted_latency", target=0.90,
            threshold_ms=latency_threshold_ms,
            description="admitted requests complete within the bound",
        ),
        SLOObjective(
            "shed_rate", target=0.90,
            description="arrivals admitted (not shed)",
        ),
        SLOObjective(
            "degraded", target=0.95,
            description="completions at full fidelity",
        ),
        SLOObjective(
            "q_error", target=0.90,
            description="estimates within 2x of reference",
        ),
    )
    return SLOPolicy(objectives=objectives, **overrides)


#: Burn-rate multiple both windows must reach to fire an alert; an active
#: alert clears once the short window burns below it again.
BURN_THRESHOLD = 2.0
#: Events a window must hold for its burn rate to be trusted (a sparser
#: window burns 0).
MIN_WINDOW_EVENTS = 4


class SLOEngine:
    """Sliding-window burn-rate evaluation over simulated time.

    Feed events with :meth:`record`; call :meth:`evaluate` whenever the
    simulated clock advances past interesting points (the serving layer
    does it per admission decision and per completion).  Alert
    transitions accumulate in :attr:`alert_log` as
    ``{"slo", "state": "fire"|"clear", "sim_ms", "short_burn",
    "long_burn"}`` dicts, in firing order — deterministic because the
    clock is.
    """

    def __init__(self, policy: SLOPolicy) -> None:
        self.policy = policy
        self._objectives: Dict[str, SLOObjective] = {
            o.name: o for o in policy.objectives
        }
        self._events: Dict[str, Deque[Tuple[float, bool]]] = {
            name: deque() for name in self._objectives
        }
        self._active: Dict[str, bool] = {
            name: False for name in self._objectives
        }
        self.alert_log: List[Dict[str, Any]] = []
        self.n_events = 0

    # ------------------------------------------------------------------
    def has_objective(self, name: str) -> bool:
        return name in self._objectives

    def objective(self, name: str) -> Optional[SLOObjective]:
        """The declared objective, or ``None`` (feeders look up
        ``threshold_ms`` to decide what counts as a good event)."""
        return self._objectives.get(name)

    def record(self, name: str, sim_ms: float, good: bool) -> None:
        """Feed one event; unknown objective names are ignored so wiring
        sites can report unconditionally."""
        events = self._events.get(name)
        if events is None:
            return
        events.append((float(sim_ms), bool(good)))
        self.n_events += 1
        self._trim(name, sim_ms)

    def _trim(self, name: str, now_ms: float) -> None:
        horizon = now_ms - self.policy.long_window_ms
        events = self._events[name]
        while events and events[0][0] < horizon:
            events.popleft()

    # ------------------------------------------------------------------
    def burn_rate(
        self, name: str, now_ms: float, window_ms: float
    ) -> Tuple[float, int]:
        """(burn rate, event count) for ``name`` over the trailing window.

        Windows are half-open ``(now - window, now]``; fewer than
        :data:`MIN_WINDOW_EVENTS` events burn 0 (not enough signal to alert on).
        """
        objective = self._objectives.get(name)
        if objective is None:
            raise ObservabilityError(f"unknown objective {name!r}")
        start = now_ms - window_ms
        n = bad = 0
        for t, good in self._events[name]:
            if start < t <= now_ms:
                n += 1
                if not good:
                    bad += 1
        if n < MIN_WINDOW_EVENTS:
            return 0.0, n
        return (bad / n) / objective.budget, n

    def burn_rates(self, now_ms: float) -> Dict[str, Dict[str, float]]:
        out: Dict[str, Dict[str, float]] = {}
        for name in self._objectives:
            short, _ = self.burn_rate(
                name, now_ms, self.policy.short_window_ms
            )
            long_, _ = self.burn_rate(
                name, now_ms, self.policy.long_window_ms
            )
            out[name] = {"short": short, "long": long_}
        return out

    def evaluate(self, now_ms: float) -> List[Dict[str, Any]]:
        """Advance alert state to ``now_ms``; return new transitions."""
        transitions: List[Dict[str, Any]] = []
        for name in self._objectives:
            self._trim(name, now_ms)
            short, n_short = self.burn_rate(
                name, now_ms, self.policy.short_window_ms
            )
            long_, _ = self.burn_rate(
                name, now_ms, self.policy.long_window_ms
            )
            active = self._active[name]
            if (
                not active
                and short >= BURN_THRESHOLD
                and long_ >= BURN_THRESHOLD
            ):
                self._active[name] = True
                transitions.append(
                    {
                        "slo": name,
                        "state": "fire",
                        "sim_ms": float(now_ms),
                        "short_burn": short,
                        "long_burn": long_,
                    }
                )
            elif active and short < BURN_THRESHOLD:
                self._active[name] = False
                transitions.append(
                    {
                        "slo": name,
                        "state": "clear",
                        "sim_ms": float(now_ms),
                        "short_burn": short,
                        "long_burn": long_,
                    }
                )
        self.alert_log.extend(transitions)
        return transitions

    def active_alerts(self) -> List[str]:
        return sorted(n for n, a in self._active.items() if a)

    # ------------------------------------------------------------------
    def snapshot(self, now_ms: float) -> Dict[str, Any]:
        """JSON-safe state: burn rates, alert log, per-objective totals."""
        totals: Dict[str, Dict[str, int]] = {}
        for name, events in self._events.items():
            fired = sum(
                1 for e in self.alert_log
                if e["slo"] == name and e["state"] == "fire"
            )
            cleared = sum(
                1 for e in self.alert_log
                if e["slo"] == name and e["state"] == "clear"
            )
            totals[name] = {
                "window_events": len(events),
                "n_fired": fired,
                "n_cleared": cleared,
                "active": int(self._active[name]),
            }
        return {
            "clock_ms": float(now_ms),
            "burn_rates": self.burn_rates(now_ms),
            "alerts": totals,
            "alert_log": list(self.alert_log),
            "n_events": self.n_events,
        }

    def to_registry(
        self, now_ms: float, registry: Optional[MetricsRegistry] = None
    ) -> MetricsRegistry:
        """Export the ``slo_burn_rate`` family (+ alert counters).

        Gauges are set and the alert counters advanced to this engine's
        running totals, so exporting into the same registry again (the
        serving layer does it on every ``registry()`` call) never
        double-counts.
        """
        reg = registry if registry is not None else MetricsRegistry()
        burn = reg.gauge(
            "slo_burn_rate",
            "Error-budget burn rate per objective and window",
            labels=("slo", "window"),
        )
        active = reg.gauge(
            "slo_alert_active", "1 while the objective's alert is firing",
            labels=("slo",),
        )
        alerts = reg.counter(
            "slo_alerts_total", "Alert transitions per objective",
            labels=("slo", "state"),
        )
        for name, rates in self.burn_rates(now_ms).items():
            burn.labels(slo=name, window="short").set(rates["short"])
            burn.labels(slo=name, window="long").set(rates["long"])
            active.labels(slo=name).set(1.0 if self._active[name] else 0.0)
            for state in ("fire", "clear"):
                alerts.labels(slo=name, state=state).advance_to(
                    sum(
                        1 for e in self.alert_log
                        if e["slo"] == name and e["state"] == state
                    )
                )
        return reg

    def report(self, now_ms: float) -> str:
        """Fixed-width human report (``repro slo-report`` prints it)."""
        lines = [
            f"{'objective':<18} {'target':>7} {'short':>8} {'long':>8} "
            f"{'fired':>6} {'cleared':>8} {'active':>7}"
        ]
        snap = self.snapshot(now_ms)
        for name, objective in sorted(self._objectives.items()):
            rates = snap["burn_rates"][name]
            totals = snap["alerts"][name]
            lines.append(
                f"{name:<18} {objective.target:>7.2f} "
                f"{rates['short']:>8.2f} {rates['long']:>8.2f} "
                f"{totals['n_fired']:>6d} {totals['n_cleared']:>8d} "
                f"{'yes' if totals['active'] else 'no':>7}"
            )
        if self.alert_log:
            lines.append("alert log:")
            for entry in self.alert_log:
                lines.append(
                    f"  t={entry['sim_ms']:.3f}ms {entry['slo']} "
                    f"{entry['state'].upper()} "
                    f"(short={entry['short_burn']:.2f}, "
                    f"long={entry['long_burn']:.2f})"
                )
        else:
            lines.append("alert log: (empty)")
        return "\n".join(lines)


__all__ = (
    "SLOObjective",
    "SLOPolicy",
    "SLOEngine",
    "default_slo_policy",
)
