"""Per-estimator circuit breaker for the estimation service.

Under sustained device faults, blindly re-launching rounds wastes the
device (every launch burns watchdog/abort time) and inflates tail
latencies.  The classic remedy is a circuit breaker:

* **CLOSED** — healthy; rounds go to the device.
  :data:`FAILURE_THRESHOLD` *consecutive* round failures (post-retry, so
  each already survived its own backoff budget) trip the breaker.
* **OPEN** — the device is presumed sick; rounds bypass it entirely
  (the service degrades to the CPU fallback) until :data:`COOLDOWN_MS`
  of simulated time has passed.
* **HALF_OPEN** — after the cooldown, one probe round is allowed
  through.  Success closes the breaker (full recovery); failure re-opens
  it for another cooldown.

All times are the service's *simulated* clock, so breaker behaviour is
deterministic for a fixed workload + fault plan — chaos tests can assert
exact trip/recover sequences.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional


class BreakerState(str, enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: Consecutive post-retry round failures that trip a CLOSED breaker.
FAILURE_THRESHOLD = 3
#: Simulated ms an OPEN breaker blocks the device before it allows a
#: half-open probe.
COOLDOWN_MS = 25.0


class CircuitBreaker:
    """One breaker instance (the service keeps one per estimator)."""

    def __init__(self) -> None:
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._opened_at_ms: Optional[float] = None
        self._probe_outstanding = False
        self.n_trips = 0
        self.n_probes = 0
        self.n_recoveries = 0

    # ------------------------------------------------------------------
    def state(self, now_ms: float) -> BreakerState:
        """Current state, advancing OPEN→HALF_OPEN when the cooldown has
        elapsed (state transitions ride the simulated clock)."""
        if (
            self._state is BreakerState.OPEN
            and self._opened_at_ms is not None
            and now_ms - self._opened_at_ms >= COOLDOWN_MS
        ):
            self._state = BreakerState.HALF_OPEN
            self._probe_outstanding = False
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._consecutive_failures

    def allow(self, now_ms: float) -> bool:
        """May a device round be launched now?

        CLOSED: always.  OPEN: never (until cooldown).  HALF_OPEN: exactly
        one probe at a time — the caller *must* report the probe's outcome
        via :meth:`record_success` / :meth:`record_failure`.
        """
        state = self.state(now_ms)
        if state is BreakerState.CLOSED:
            return True
        if state is BreakerState.HALF_OPEN and not self._probe_outstanding:
            self._probe_outstanding = True
            self.n_probes += 1
            return True
        return False

    # ------------------------------------------------------------------
    def record_success(self, now_ms: float) -> None:
        """A device round completed: reset the failure streak; a successful
        half-open probe closes the breaker (recovery).

        Successes reported while OPEN are stragglers launched before the
        trip — the cooldown governs recovery, so they are ignored.
        """
        state = self.state(now_ms)
        if state is BreakerState.OPEN:
            return
        if state is BreakerState.HALF_OPEN:
            self.n_recoveries += 1
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probe_outstanding = False
        self._opened_at_ms = None

    def record_failure(self, now_ms: float) -> bool:
        """A device round failed (post-retry); returns True when this
        failure *trips* the breaker (CLOSED→OPEN or a failed probe)."""
        state = self.state(now_ms)
        self._consecutive_failures += 1
        if state is BreakerState.HALF_OPEN:
            # Failed probe: straight back to OPEN for another cooldown.
            self._trip(now_ms)
            return True
        if (
            state is BreakerState.CLOSED
            and self._consecutive_failures >= FAILURE_THRESHOLD
        ):
            self._trip(now_ms)
            return True
        return False

    def _trip(self, now_ms: float) -> None:
        self._state = BreakerState.OPEN
        self._opened_at_ms = now_ms
        self._probe_outstanding = False
        self.n_trips += 1

    # ------------------------------------------------------------------
    def snapshot(self, now_ms: float) -> Dict[str, object]:
        return {
            "state": self.state(now_ms).value,
            "consecutive_failures": self._consecutive_failures,
            "n_trips": self.n_trips,
            "n_probes": self.n_probes,
            "n_recoveries": self.n_recoveries,
            # Simulated instant of the most recent trip (None before the
            # first) — flight postmortem bundles anchor on it.
            "opened_at_ms": self._opened_at_ms,
        }
