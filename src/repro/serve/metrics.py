"""Service observability: latency histogram, throughput, cache and
degradation counters.

Everything is exposed as a plain-dict :meth:`ServiceMetrics.snapshot` so
the bench harness (and the ``repro serve-bench`` CLI) can serialise it
straight to JSON — no metric objects leak out of the serving layer.

Latencies are simulated device milliseconds (the serving layer's single
clock); percentiles use linear interpolation over the recorded values,
which at serving cardinalities (10²–10⁴ requests) is exact enough that
bucketing would only lose information.  Recorded values live in a
bounded deterministic reservoir (see :class:`LatencyHistogram`) so
long-running services do not accumulate one float per request forever.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.registry import Reservoir


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100]) of ``values``.

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    """
    if not values:
        return 0.0
    if not (0.0 <= q <= 100.0):
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


@dataclass
class LatencyHistogram:
    """Streaming latency record with percentile snapshots.

    Memory is bounded: values are kept in a deterministic seeded
    reservoir (:class:`repro.obs.Reservoir`, Vitter's Algorithm R with a
    private RNG) of ``max_samples`` entries, so sustained serving load
    cannot grow the histogram without limit.  ``count``/``mean``/``max``
    are tracked exactly outside the reservoir and are unaffected by the
    cap; percentiles are exact up to ``max_samples`` recorded values and
    become uniform-subsample *estimates* past it — at the default 4096
    capacity the p50/p95/p99 error is well under the run-to-run latency
    noise of the serving benchmark.
    """

    max_samples: int = 4096
    reservoir: Reservoir = field(init=False)
    count: int = field(init=False, default=0)
    total: float = field(init=False, default=0.0)
    max_value: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        self.reservoir = Reservoir(max_samples=self.max_samples)

    @property
    def samples(self) -> List[float]:
        """The retained (possibly subsampled) values, insertion-ordered."""
        return self.reservoir.values()

    def add(self, latency_ms: float) -> None:
        value = float(latency_ms)
        self.count += 1
        self.total += value
        self.max_value = max(self.max_value, value)
        self.reservoir.add(value)

    def snapshot(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                    "p99": 0.0, "max": 0.0}
        retained = self.reservoir.values()
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "p50": percentile(retained, 50),
            "p95": percentile(retained, 95),
            "p99": percentile(retained, 99),
            "max": self.max_value,
        }


@dataclass
class ServiceMetrics:
    """Counters the estimation service maintains while processing.

    ``busy_ms`` is the total simulated device time spent in batches, so
    ``samples/sec = total_samples / busy_ms`` is *aggregate device
    throughput* — the number dynamic batching is supposed to raise by
    keeping more warp slots occupied per batch.
    """

    n_submitted: int = 0
    n_completed: int = 0
    n_degraded: int = 0
    n_failed: int = 0
    n_batches: int = 0
    n_rounds: int = 0
    total_samples: int = 0
    total_valid: int = 0
    busy_ms: float = 0.0
    max_queue_depth: int = 0
    batch_sizes: List[int] = field(default_factory=list)
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    queue_wait: LatencyHistogram = field(default_factory=LatencyHistogram)
    # Resilience counters (repro.faults / breaker / CPU fallback).
    n_faults: int = 0
    n_retries: int = 0
    n_round_failures: int = 0
    n_fallbacks: int = 0
    n_breaker_trips: int = 0
    n_breaker_rejections: int = 0
    n_worker_crashes: int = 0
    fault_ms: float = 0.0
    faults_by_kind: Dict[str, int] = field(default_factory=dict)
    # Rounds completed per warp-execution backend ("vectorized"/"scalar");
    # mixed counts are expected when custom estimators force the scalar
    # fallback next to vector-kernel traffic.
    rounds_by_backend: Dict[str, int] = field(default_factory=dict)
    # Rounds completed per shard count actually used (tiny rounds may run
    # on fewer shards than configured — the engine never spreads one warp
    # across many workers).
    rounds_by_shard_count: Dict[int, int] = field(default_factory=dict)
    # Wasted warp work of the vector backends (``GPURunResult``): warps
    # re-run at a smaller true quota, and optimistic warps discarded
    # because the fold never reached them.
    n_rerun_warps: int = 0
    n_discarded_warps: int = 0
    # Dynamic-graph plan lifecycle (repro.dyn serving integration): plans
    # installed after a delta refresh, explicit invalidation calls, and the
    # total entries those calls evicted.
    n_plan_refreshes: int = 0
    n_plan_invalidations: int = 0
    n_plans_invalidated: int = 0
    # Overload / admission counters (repro.serve.admission): requests shed
    # at submission (by reason), the retry-after hints handed back with
    # them, and caller-side cancellations that released their slots.
    n_shed: int = 0
    shed_by_reason: Dict[str, int] = field(default_factory=dict)
    retry_after: LatencyHistogram = field(default_factory=LatencyHistogram)
    n_cancelled: int = 0
    # Hedging counters: hedges fired, hedges whose backup won, and the
    # losers' overlapped (wasted) device occupancy.
    n_hedges: int = 0
    n_hedge_wins: int = 0
    hedge_wasted_ms: float = 0.0

    # ------------------------------------------------------------------
    def record_submit(self, queue_depth: int) -> None:
        self.n_submitted += 1
        self.max_queue_depth = max(self.max_queue_depth, queue_depth)

    def record_batch(self, n_requests: int, n_samples: int, batch_ms: float) -> None:
        self.n_batches += 1
        self.n_rounds += n_requests
        self.total_samples += n_samples
        self.busy_ms += batch_ms
        self.batch_sizes.append(n_requests)

    def record_completion(
        self, latency_ms: float, queue_ms: float, n_valid: int, degraded: bool
    ) -> None:
        self.n_completed += 1
        self.total_valid += n_valid
        if degraded:
            self.n_degraded += 1
        self.latency.add(latency_ms)
        self.queue_wait.add(queue_ms)

    def record_failure(self) -> None:
        self.n_failed += 1

    def record_backends(self, backends: List[str]) -> None:
        """Count one completed round per entry of ``backends``."""
        for backend in backends:
            self.rounds_by_backend[backend] = (
                self.rounds_by_backend.get(backend, 0) + 1
            )

    def record_shards(self, shard_counts: List[int]) -> None:
        """Count one completed round per entry of ``shard_counts``."""
        for n in shard_counts:
            self.rounds_by_shard_count[n] = (
                self.rounds_by_shard_count.get(n, 0) + 1
            )

    def record_wasted_warps(self, n_rerun: int, n_discarded: int) -> None:
        """Fold one batch's re-run and discarded warp counts in."""
        self.n_rerun_warps += n_rerun
        self.n_discarded_warps += n_discarded

    # Resilience events ------------------------------------------------
    def record_round_faults(
        self, n_faults: int, n_retries: int, fault_ms: float,
        kinds: Optional[List[str]] = None,
    ) -> None:
        """Fold one round's fault bill in (survived *and* fatal attempts)."""
        self.n_faults += n_faults
        self.n_retries += n_retries
        self.fault_ms += fault_ms
        for kind in kinds or []:
            self.faults_by_kind[kind] = self.faults_by_kind.get(kind, 0) + 1

    def record_round_failure(self) -> None:
        """One round failed for good (its retry budget is spent)."""
        self.n_round_failures += 1

    def record_fallback(self) -> None:
        """One request was answered by the CPU fallback path."""
        self.n_fallbacks += 1

    def record_breaker_trip(self) -> None:
        self.n_breaker_trips += 1

    def record_breaker_rejection(self) -> None:
        """A round skipped the device because its breaker was open."""
        self.n_breaker_rejections += 1

    def record_worker_crash(self) -> None:
        """The background worker survived an unexpected processing error."""
        self.n_worker_crashes += 1

    # Overload / admission ----------------------------------------------
    def record_shed(self, reason: str, retry_after_ms: float) -> None:
        """One request rejected at admission with a retry-after hint."""
        self.n_shed += 1
        self.shed_by_reason[reason] = self.shed_by_reason.get(reason, 0) + 1
        self.retry_after.add(retry_after_ms)

    def record_cancelled(self) -> None:
        """One in-flight request cancelled by its caller."""
        self.n_cancelled += 1

    def record_hedges(
        self, n_hedges: int, n_wins: int, wasted_ms: float
    ) -> None:
        """Fold one batch's hedging bill in."""
        self.n_hedges += n_hedges
        self.n_hedge_wins += n_wins
        self.hedge_wasted_ms += wasted_ms

    # Dynamic-graph plan lifecycle --------------------------------------
    def record_plan_refresh(self) -> None:
        """One delta-refreshed plan was installed into the cache."""
        self.n_plan_refreshes += 1

    def record_plan_invalidation(self, n_evicted: int) -> None:
        """One invalidation sweep ran, evicting ``n_evicted`` entries."""
        self.n_plan_invalidations += 1
        self.n_plans_invalidated += n_evicted

    # ------------------------------------------------------------------
    @property
    def samples_per_second(self) -> float:
        """Aggregate device throughput over all batches (simulated)."""
        if self.busy_ms <= 0:
            return 0.0
        return self.total_samples / self.busy_ms * 1000.0

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view for reporting/JSON; cache stats are merged in by
        the service (the cache is optional and lives beside the metrics)."""
        return {
            "n_submitted": self.n_submitted,
            "n_completed": self.n_completed,
            "n_degraded": self.n_degraded,
            "n_failed": self.n_failed,
            "n_batches": self.n_batches,
            "n_rounds": self.n_rounds,
            "total_samples": self.total_samples,
            "total_valid": self.total_valid,
            "busy_ms": self.busy_ms,
            "samples_per_second": self.samples_per_second,
            "mean_batch_size": self.mean_batch_size,
            "max_queue_depth": self.max_queue_depth,
            "rounds_by_backend": dict(self.rounds_by_backend),
            "rounds_by_shard_count": {
                str(n): count
                for n, count in sorted(self.rounds_by_shard_count.items())
            },
            "n_rerun_warps": self.n_rerun_warps,
            "n_discarded_warps": self.n_discarded_warps,
            "plans": {
                "n_refreshes": self.n_plan_refreshes,
                "n_invalidations": self.n_plan_invalidations,
                "n_invalidated_entries": self.n_plans_invalidated,
            },
            "latency_ms": self.latency.snapshot(),
            "queue_wait_ms": self.queue_wait.snapshot(),
            "admission": {
                "n_shed": self.n_shed,
                "shed_by_reason": dict(self.shed_by_reason),
                "n_cancelled": self.n_cancelled,
                "retry_after_ms": self.retry_after.snapshot(),
            },
            "hedging": {
                "n_hedges": self.n_hedges,
                "n_hedge_wins": self.n_hedge_wins,
                "hedge_wasted_ms": self.hedge_wasted_ms,
            },
            "resilience": {
                "n_faults": self.n_faults,
                "n_retries": self.n_retries,
                "n_round_failures": self.n_round_failures,
                "n_fallbacks": self.n_fallbacks,
                "n_breaker_trips": self.n_breaker_trips,
                "n_breaker_rejections": self.n_breaker_rejections,
                "n_worker_crashes": self.n_worker_crashes,
                "fault_ms": self.fault_ms,
                "faults_by_kind": dict(self.faults_by_kind),
            },
        }
