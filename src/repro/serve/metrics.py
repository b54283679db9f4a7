"""Service observability: latency, throughput and degradation metrics.

:class:`ServiceMetrics` owns one :class:`~repro.obs.registry.MetricsRegistry`
and every ``record_*`` call writes straight into a named family handle —
the registry is the only store.  :meth:`ServiceMetrics.snapshot` is a
read-only plain-dict view of those families for the bench harness (and
the ``repro serve-bench`` CLI), so no metric objects leak out of the
serving layer; ``EstimationService.registry()`` returns the live registry
itself (JSON snapshot + Prometheus exposition).

Latencies are simulated device milliseconds (the serving layer's single
clock), recorded into registry histograms: a bounded deterministic
reservoir with exact ``count``/``sum``/``max``, so long-running services
do not accumulate one float per request forever.  Percentiles are linear
interpolations over the retained values — exact up to the reservoir
capacity (4096), uniform-subsample estimates past it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.registry import Histogram, MetricFamily, MetricsRegistry

#: ``resilience_events_total`` event labels (one per fault-handling event).
RESILIENCE_EVENTS = ("faults", "round_failures", "fallbacks", "worker_crashes")


def _by_label(family: MetricFamily) -> Dict[str, int]:
    """``{label value: count}`` of a single-label counter family."""
    return {key[0]: int(child.value) for key, child in family.children()}


def _summary(histogram: Histogram) -> Dict[str, float]:
    """The JSON view of a latency histogram: count/mean/p50/p95/p99/max."""
    out = histogram.snapshot()
    del out["sum"]
    return out


class ServiceMetrics:
    """Counters the estimation service maintains while processing.

    ``busy_ms`` is the total simulated device time spent in batches, so
    ``samples/sec = total_samples / busy_ms`` is *aggregate device
    throughput* — the number dynamic batching is supposed to raise by
    keeping more warp slots occupied per batch.
    """

    def __init__(self) -> None:
        self.registry = reg = MetricsRegistry()
        requests = reg.counter(
            "requests_total", "Requests by terminal state", labels=("state",)
        )
        self._submitted = requests.labels(state="submitted")
        self._completed = requests.labels(state="completed")
        self._degraded = requests.labels(state="degraded")
        self._failed = requests.labels(state="failed")
        self._batches = reg.counter(
            "batches_total", "Fused device batches executed"
        ).labels()
        self._rounds = reg.counter(
            "rounds_total", "Engine rounds executed"
        ).labels()
        # Rounds completed per warp-execution backend label; mixed counts
        # are expected when custom estimators force the scalar fallback
        # next to vector-kernel traffic.
        self._by_backend = reg.counter(
            "rounds_by_backend_total", "Rounds per warp-execution backend",
            labels=("backend",),
        )
        # Rounds completed per shard count actually used (tiny rounds may
        # run on fewer shards than configured — the engine never spreads
        # one warp across many workers).
        self._by_shards = reg.counter(
            "rounds_by_shard_count_total", "Rounds per shard count used",
            labels=("shards",),
        )
        # Rounds completed per host whose core ran the warp phase: the
        # parent process, or a shard worker the batch scheduler placed the
        # whole round on.
        self._by_host = reg.counter(
            "rounds_by_host_total", "Rounds per host that ran the warp phase",
            labels=("host",),
        )
        # Wasted warp work of the vector backends (``GPURunResult``): warps
        # re-run at a smaller true quota, and optimistic warps discarded
        # because the fold never reached them.
        self._rerun_warps = reg.counter(
            "rerun_warps_total",
            "Warps re-run alone at a smaller true quota (vector backends)",
        ).labels()
        self._discarded_warps = reg.counter(
            "discarded_warps_total",
            "Optimistic warps computed but never folded (vector backends)",
        ).labels()
        samples = reg.counter(
            "samples_total", "Samples drawn / valid", labels=("kind",)
        )
        self._drawn = samples.labels(kind="drawn")
        self._valid = samples.labels(kind="valid")
        self._busy_ms = reg.gauge(
            "device_busy_ms", "Simulated device time in batches"
        ).labels()
        self._samples_per_second = reg.gauge(
            "samples_per_second", "Aggregate simulated device throughput"
        ).labels()
        self._mean_batch_size = reg.gauge(
            "mean_batch_size", "Mean requests per fused batch"
        ).labels()
        self._max_queue_depth = reg.gauge(
            "max_queue_depth", "Peak admission queue depth"
        ).labels()
        self._latency = reg.histogram(
            "latency_ms", "Request latency summary (simulated ms)"
        ).labels()
        self._queue_wait = reg.histogram(
            "queue_wait_ms", "Queue wait summary (simulated ms)"
        ).labels()
        # Resilience counters (failed launches, CPU fallback).
        events = reg.counter(
            "resilience_events_total", "Fault-handling events by type",
            labels=("event",),
        )
        self._events = {e: events.labels(event=e) for e in RESILIENCE_EVENTS}
        self._fault_ms = reg.gauge(
            "fault_ms", "Simulated ms charged to faults"
        ).labels()
        # Overload / admission (repro.serve.admission): requests shed at
        # submission (by reason), the retry-after hints handed back with
        # them, and caller-side cancellations that released their slots.
        self._shed = reg.counter(
            "admission_shed_total", "Requests shed at admission by reason",
            labels=("reason",),
        )
        self._cancelled = reg.counter(
            "requests_cancelled_total", "Requests cancelled by their caller"
        ).labels()
        self._retry_after = reg.histogram(
            "retry_after_ms", "Retry-after hints on shed requests "
            "(simulated ms)",
        ).labels()

    # ------------------------------------------------------------------
    def record_submit(self, queue_depth: int) -> None:
        """One request admitted; callers hold the service lock, which
        makes the peak-depth check-then-set atomic."""
        self._submitted.inc()
        if queue_depth > self._max_queue_depth.value:
            self._max_queue_depth.set(queue_depth)

    def record_batch(self, n_requests: int, n_samples: int, batch_ms: float) -> None:
        self._batches.inc()
        self._rounds.inc(n_requests)
        self._drawn.inc(n_samples)
        self._busy_ms.inc(batch_ms)
        self._samples_per_second.set(self.samples_per_second)
        self._mean_batch_size.set(self.mean_batch_size)

    def record_completion(
        self, latency_ms: float, queue_ms: float, n_valid: int, degraded: bool
    ) -> None:
        self._completed.inc()
        self._valid.inc(n_valid)
        if degraded:
            self._degraded.inc()
        self._latency.observe(latency_ms)
        self._queue_wait.observe(queue_ms)

    def record_failure(self) -> None:
        self._failed.inc()

    def record_backends(self, backends: List[str]) -> None:
        """Count one completed round per entry of ``backends``."""
        for backend in backends:
            self._by_backend.labels(backend=backend).inc()

    def record_shards(self, shard_counts: List[int]) -> None:
        """Count one completed round per entry of ``shard_counts``."""
        for n in shard_counts:
            self._by_shards.labels(shards=n).inc()

    def record_hosts(self, hosts: List[str]) -> None:
        """Count one completed round per entry of ``hosts``."""
        for host in hosts:
            self._by_host.labels(host=host).inc()

    def record_wasted_warps(self, n_rerun: int, n_discarded: int) -> None:
        """Fold one batch's re-run and discarded warp counts in."""
        self._rerun_warps.inc(n_rerun)
        self._discarded_warps.inc(n_discarded)

    # Resilience events ------------------------------------------------
    def record_round_faults(self, n_faults: int, fault_ms: float) -> None:
        """Fold one batch's failed launches and their device time in."""
        self._events["faults"].inc(n_faults)
        self._fault_ms.inc(fault_ms)

    def record_round_failure(self) -> None:
        """One request's round failed."""
        self._events["round_failures"].inc()

    def record_fallback(self) -> None:
        """One request was answered by the CPU fallback path."""
        self._events["fallbacks"].inc()

    def record_worker_crash(self) -> None:
        """The background worker survived an unexpected processing error."""
        self._events["worker_crashes"].inc()

    # Overload / admission ----------------------------------------------
    def record_shed(self, reason: str, retry_after_ms: float) -> None:
        """One request rejected at admission with a retry-after hint."""
        self._shed.labels(reason=reason).inc()
        self._retry_after.observe(retry_after_ms)

    def record_cancelled(self) -> None:
        """One in-flight request cancelled by its caller."""
        self._cancelled.inc()

    # ------------------------------------------------------------------
    @property
    def samples_per_second(self) -> float:
        """Aggregate device throughput over all batches (simulated)."""
        busy_ms = self._busy_ms.value
        if busy_ms <= 0:
            return 0.0
        return self._drawn.value / busy_ms * 1000.0

    @property
    def mean_batch_size(self) -> float:
        n_batches = self._batches.value
        return self._rounds.value / n_batches if n_batches else 0.0

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict view of the families for reporting/JSON; cache stats
        are merged in by the service (the cache is optional and lives
        beside the metrics)."""
        events = {e: int(c.value) for e, c in self._events.items()}
        return {
            "n_submitted": int(self._submitted.value),
            "n_completed": int(self._completed.value),
            "n_degraded": int(self._degraded.value),
            "n_failed": int(self._failed.value),
            "n_batches": int(self._batches.value),
            "n_rounds": int(self._rounds.value),
            "total_samples": int(self._drawn.value),
            "total_valid": int(self._valid.value),
            "busy_ms": self._busy_ms.value,
            "samples_per_second": self.samples_per_second,
            "mean_batch_size": self.mean_batch_size,
            "max_queue_depth": int(self._max_queue_depth.value),
            "rounds_by_backend": _by_label(self._by_backend),
            "rounds_by_shard_count": dict(
                sorted(_by_label(self._by_shards).items(),
                       key=lambda item: int(item[0]))
            ),
            "rounds_by_host": _by_label(self._by_host),
            "n_rerun_warps": int(self._rerun_warps.value),
            "n_discarded_warps": int(self._discarded_warps.value),
            "latency_ms": _summary(self._latency),
            "queue_wait_ms": _summary(self._queue_wait),
            "admission": {
                "n_shed": sum(_by_label(self._shed).values()),
                "shed_by_reason": _by_label(self._shed),
                "n_cancelled": int(self._cancelled.value),
                "retry_after_ms": _summary(self._retry_after),
            },
            "resilience": {
                **{f"n_{e}": n for e, n in events.items()},
                "fault_ms": self._fault_ms.value,
            },
        }
