"""Bounded admission: token-bucket quotas, load shedding, hedge policy.

The pre-overload service admitted every submission into an unbounded
pending set — under open-loop arrivals (clients that do not wait for
responses before sending more) the queue, and with it every latency, grows
without bound.  This module is the front door that keeps the pending set
*bounded*: a request is either admitted, or shed immediately with a typed
:class:`~repro.errors.Overloaded` carrying a computed ``retry_after_ms``
hint.  Shedding converts unbounded queueing delay into explicit, fast
rejections — the difference between a service that is slow for everyone
and one that is fast for the traffic it admits (goodput over throughput).

Three admission checks, in order:

1. **Bounded queue** — live pending requests must stay under
   ``max_pending``.  The retry hint is the EWMA-predicted time for the
   backlog to drain back below the cap.
2. **Per-tenant token bucket** — each tenant's admission rate is capped at
   ``rate_per_s`` with ``burst`` headroom, refilled on the service's
   simulated clock.  One hot tenant exhausts *its* bucket; other tenants'
   requests keep being admitted.  The retry hint is the bucket's exact
   time-to-next-token.
3. **Deadline feasibility** — when the EWMA-predicted completion time
   (backlog × per-request service time) already exceeds the request's
   deadline, admitting it would only produce a late ``degraded`` response
   while displacing feasible work; shed it now with the predicted wait as
   the hint (deadline propagation starts at the front door).

All times are simulated milliseconds on the service clock, so admission
decisions are deterministic for a fixed workload and replay bit-identically
under a fixed seed — the soak benchmark's shed counts are pinned in
``benchmarks/baselines.json`` exactly because of this.

:class:`HedgePolicy` lives here too: it parameterises straggler hedging
(see :meth:`repro.core.engine.EngineSession.run_round`) — the hedge
delay is a quantile of observed round durations, so only genuine tail
rounds pay the hedge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.registry import Reservoir


@dataclass(frozen=True)
class TenantQuota:
    """Admission quota and scheduling weight of one tenant.

    Attributes:
        rate_per_s: sustained admissions per simulated second (token refill
            rate).  ``None`` disables rate limiting for the tenant (the
            bucket never empties).
        burst: bucket capacity — admissions a tenant may burst above its
            sustained rate before shedding starts.
        weight: weighted-fair-queueing share; a tenant with weight 2 gets
            twice the device time of a weight-1 tenant under contention.
    """

    rate_per_s: Optional[float] = None
    burst: float = 8.0
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ConfigError("rate_per_s must be positive when set")
        if self.burst < 1.0:
            raise ConfigError("burst must be >= 1")
        if self.weight <= 0:
            raise ConfigError("weight must be positive")


@dataclass(frozen=True)
class AdmissionPolicy:
    """Admission-layer configuration (``None`` on the service = legacy
    unbounded admission, every pre-overload call site unchanged).

    Attributes:
        max_pending: bound on live (queued or in-flight, not yet terminal)
            requests; ``None`` disables the queue bound.
        default_quota: quota applied to tenants without an explicit entry
            in ``quotas``.  The default has no rate limit — quotas are
            opt-in per deployment.
        quotas: per-tenant overrides (``tenant name -> TenantQuota``).
        shed_on_deadline: shed requests whose deadline the EWMA backlog
            prediction already rules out.
        ewma_alpha: smoothing factor of the per-request service-time EWMA
            (higher = reacts faster to load shifts).
        min_retry_after_ms: floor on every ``retry_after_ms`` hint, so a
            rejection never tells the client "retry immediately".
    """

    max_pending: Optional[int] = 256
    default_quota: TenantQuota = field(default_factory=TenantQuota)
    quotas: Mapping[str, TenantQuota] = field(default_factory=dict)
    shed_on_deadline: bool = True
    ewma_alpha: float = 0.3
    min_retry_after_ms: float = 0.05

    def __post_init__(self) -> None:
        if self.max_pending is not None and self.max_pending < 1:
            raise ConfigError("max_pending must be >= 1 when set")
        if not (0.0 < self.ewma_alpha <= 1.0):
            raise ConfigError("ewma_alpha must be in (0, 1]")
        if self.min_retry_after_ms <= 0:
            raise ConfigError("min_retry_after_ms must be positive")

    def quota_for(self, tenant: str) -> TenantQuota:
        return self.quotas.get(tenant, self.default_quota)


@dataclass(frozen=True)
class HedgePolicy:
    """Straggler-hedging parameters (``None`` on the service = no hedging).

    A round becomes a hedge candidate when its simulated duration exceeds
    the ``quantile`` (default p99) of the durations observed so far — the
    classic tail-at-scale delay trigger.  The hedge replays the round's
    exact RNG substream on a rotated shard assignment, so the winning
    estimate is bit-identical to unhedged execution; only the timing (and
    fault exposure) differs.

    Attributes:
        quantile: duration quantile that sets the hedge delay (0.99 = fire
            only past the observed p99).
        min_observations: rounds to observe before hedging arms (a cold
            service has no tail estimate yet).
        delay_floor_ms: lower bound on the hedge delay, so launch-overhead
            noise on tiny rounds cannot arm hedges for every round.
        max_hedges_per_request: cap on hedges any one request may fire
            across its rounds (runaway-hedge backstop).
    """

    quantile: float = 0.99
    min_observations: int = 32
    delay_floor_ms: float = 0.05
    max_hedges_per_request: int = 4

    def __post_init__(self) -> None:
        if not (0.0 < self.quantile < 1.0):
            raise ConfigError("quantile must be in (0, 1)")
        if self.min_observations < 1:
            raise ConfigError("min_observations must be >= 1")
        if self.delay_floor_ms <= 0:
            raise ConfigError("delay_floor_ms must be positive")
        if self.max_hedges_per_request < 0:
            raise ConfigError("max_hedges_per_request must be >= 0")


class TokenBucket:
    """Continuous-refill token bucket on the simulated clock."""

    __slots__ = ("capacity", "rate_per_ms", "tokens", "last_ms")

    def __init__(
        self, capacity: float, rate_per_ms: Optional[float], now_ms: float
    ) -> None:
        self.capacity = float(capacity)
        self.rate_per_ms = rate_per_ms  # None = unmetered
        self.tokens = float(capacity)
        self.last_ms = now_ms

    def _refill(self, now_ms: float) -> None:
        if self.rate_per_ms is None:
            return
        elapsed = max(0.0, now_ms - self.last_ms)
        self.last_ms = max(self.last_ms, now_ms)
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate_per_ms)

    def try_take(self, now_ms: float) -> bool:
        """Take one token if available (refilling first)."""
        if self.rate_per_ms is None:
            return True
        self._refill(now_ms)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def time_to_token_ms(self, now_ms: float) -> float:
        """Simulated ms until one token is available (0 if already)."""
        if self.rate_per_ms is None:
            return 0.0
        self._refill(now_ms)
        if self.tokens >= 1.0:
            return 0.0
        return (1.0 - self.tokens) / self.rate_per_ms


@dataclass(frozen=True)
class ShedDecision:
    """Why a request was shed, plus the computed resubmission hint."""

    reason: str  # "queue_full" | "quota" | "deadline"
    retry_after_ms: float
    tenant: str


class AdmissionController:
    """Stateful admission front door (service-lock-serialized access).

    The service calls :meth:`decide` under its lock at every ``submit``,
    :meth:`observe_batch` after every executed batch (feeding the EWMA
    service-time estimate), and :meth:`ewma_request_ms` wherever it needs
    the current backlog-drain prediction (e.g. the soak bench's reporting).
    """

    def __init__(self, policy: AdmissionPolicy) -> None:
        self.policy = policy
        self._buckets: Dict[str, TokenBucket] = {}
        # EWMA simulated ms of device time per completed round-request in a
        # batch — the backlog-drain currency all retry hints price in.
        self._ewma_request_ms = 0.0
        # Recent admission outcomes (sim_ms, shed) — the flight monitor's
        # shed-spike trigger reads the windowed rate from here.
        self._outcomes: Deque[Tuple[float, bool]] = deque()

    # ------------------------------------------------------------------
    @property
    def ewma_request_ms(self) -> float:
        return self._ewma_request_ms

    def observe_batch(self, n_requests: int, batch_ms: float) -> None:
        """Fold one executed batch into the service-time EWMA."""
        if n_requests <= 0 or batch_ms <= 0:
            return
        per = batch_ms / n_requests
        alpha = self.policy.ewma_alpha
        if self._ewma_request_ms == 0.0:
            self._ewma_request_ms = per
        else:
            self._ewma_request_ms = (
                (1.0 - alpha) * self._ewma_request_ms + alpha * per
            )

    def _bucket(self, tenant: str, now_ms: float) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self.policy.quota_for(tenant)
            rate_per_ms = (
                quota.rate_per_s / 1000.0
                if quota.rate_per_s is not None
                else None
            )
            bucket = TokenBucket(quota.burst, rate_per_ms, now_ms)
            self._buckets[tenant] = bucket
        return bucket

    def weight_for(self, tenant: str) -> float:
        return self.policy.quota_for(tenant).weight

    # ------------------------------------------------------------------
    def decide(
        self,
        tenant: str,
        deadline_ms: Optional[float],
        live_depth: int,
        now_ms: float,
    ) -> Optional[ShedDecision]:
        """Admit (``None``) or shed (a :class:`ShedDecision`) one request.

        ``live_depth`` counts live pending requests *before* this one.
        Check order matters: a queue-full shed must not consume the
        tenant's token (the request never entered), so the bucket is only
        drawn from once the queue bound has passed.
        """
        pol = self.policy
        floor = pol.min_retry_after_ms
        if pol.max_pending is not None and live_depth >= pol.max_pending:
            overflow = live_depth - pol.max_pending + 1
            hint = max(floor, overflow * self._ewma_request_ms)
            return ShedDecision("queue_full", hint, tenant)

        bucket = self._bucket(tenant, now_ms)
        if not bucket.try_take(now_ms):
            hint = max(floor, bucket.time_to_token_ms(now_ms))
            return ShedDecision("quota", hint, tenant)

        if (
            pol.shed_on_deadline
            and deadline_ms is not None
            and self._ewma_request_ms > 0.0
        ):
            predicted_wait = live_depth * self._ewma_request_ms
            if predicted_wait > deadline_ms:
                # Retrying once the backlog has drained to where the
                # deadline fits is the earliest useful resubmission.
                hint = max(floor, predicted_wait - deadline_ms)
                return ShedDecision("deadline", hint, tenant)
        return None

    # ------------------------------------------------------------------
    def note_outcome(self, now_ms: float, shed: bool) -> None:
        """Record one admission outcome for windowed shed-rate queries.

        Kept separate from :meth:`decide` so the service records exactly
        the outcomes it acted on (a decision it overrides — e.g. a closed
        service — never lands in the window).
        """
        self._outcomes.append((float(now_ms), bool(shed)))
        # Bound memory: nothing ever asks about outcomes older than a few
        # windows; 4096 covers any realistic window at bench rates.
        while len(self._outcomes) > 4096:
            self._outcomes.popleft()

    def recent_shed_rate(
        self, now_ms: float, window_ms: float
    ) -> Tuple[float, int]:
        """(shed fraction, outcome count) over the trailing window."""
        start = now_ms - window_ms
        n = shed = 0
        for t, was_shed in self._outcomes:
            if start < t <= now_ms:
                n += 1
                if was_shed:
                    shed += 1
        return (shed / n if n else 0.0), n

    def snapshot(self) -> Dict[str, object]:
        """Bucket fill levels + the EWMA (debug/bench surface)."""
        return {
            "ewma_request_ms": self._ewma_request_ms,
            "buckets": {
                tenant: {"tokens": b.tokens, "capacity": b.capacity}
                for tenant, b in sorted(self._buckets.items())
            },
        }


class HedgeDelayTracker:
    """Observed round-duration quantile → hedge delay (p99-based trigger).

    Durations live in the same deterministic seeded :class:`Reservoir` the
    latency histograms use, so the delay estimate is bounded-memory and
    replayable.  Until ``min_observations`` rounds have been seen the
    tracker returns ``None`` and no hedges fire.
    """

    def __init__(self, policy: HedgePolicy) -> None:
        self.policy = policy
        self._durations = Reservoir(max_samples=2048, seed=0x4ED6E)

    def observe(self, round_ms: float) -> None:
        if round_ms > 0:
            self._durations.add(round_ms)

    def hedge_delay_ms(self) -> Optional[float]:
        if self._durations.count < self.policy.min_observations:
            return None
        return max(
            self.policy.delay_floor_ms,
            self._durations.quantile(self.policy.quantile),
        )

    @property
    def n_observed(self) -> int:
        return self._durations.count


__all__: Tuple[str, ...] = (
    "TenantQuota",
    "AdmissionPolicy",
    "HedgePolicy",
    "TokenBucket",
    "ShedDecision",
    "AdmissionController",
    "HedgeDelayTracker",
)
