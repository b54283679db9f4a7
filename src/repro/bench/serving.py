"""Serving workload generation and the serving throughput benchmark.

The serving workload models production estimation traffic: a stream of
requests drawn from a *pool* of distinct queries (real traffic repeats —
dashboards and optimizers re-issue the same patterns), arriving in waves
of ``clients`` concurrent requests.  Repeats exercise the plan cache;
waves exercise dynamic batching.

``run_serving_benchmark`` drives one configuration through
:class:`~repro.serve.EstimationService` and reports throughput and latency
percentiles from the service's own metrics.  The *serial* baseline is the
same machinery restricted to one request per device batch and no plan
cache — so any difference is attributable to co-residency and reuse, not
to a different code path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import EngineConfig
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.serve.controller import BudgetPolicy
from repro.serve.request import EstimateRequest
from repro.serve.service import EstimationService, ServiceConfig
from repro.utils.rng import derive_seed

#: Default query-pool shape: small/medium queries on the lighter analogs,
#: mirroring an interactive estimation workload.
DEFAULT_DATASETS = ("yeast", "hprd", "wordnet")
DEFAULT_SIZES = (4, 8)
SERVING_ROOT_SEED = 20240817


def build_request_pool(
    datasets: Sequence[str] = DEFAULT_DATASETS,
    sizes: Sequence[int] = DEFAULT_SIZES,
    distinct: int = 8,
    target_rel_ci: float = 0.2,
    deadline_ms: Optional[float] = None,
    max_samples: int = 8192,
    estimator: str = "alley",
    seed: int = SERVING_ROOT_SEED,
) -> List[EstimateRequest]:
    """A pool of ``distinct`` request templates cycling datasets × sizes."""
    pool: List[EstimateRequest] = []
    for i in range(distinct):
        dataset = datasets[i % len(datasets)]
        k = sizes[(i // len(datasets)) % len(sizes)]
        qtype = "dense" if i % 2 == 0 else "sparse"
        if k < 8:
            qtype = "dense"  # §6.1: 4-vertex queries are not split by type
        graph = load_dataset(dataset)
        query = extract_query(
            graph, k, rng=derive_seed(seed, dataset, k, qtype, i),
            query_type=qtype, name=f"{dataset}-q{k}-{qtype}-{i}",
        )
        pool.append(
            EstimateRequest(
                graph=graph,
                query=query,
                target_rel_ci=target_rel_ci,
                deadline_ms=deadline_ms,
                max_samples=max_samples,
                estimator=estimator,
            )
        )
    return pool


def request_stream(
    pool: Sequence[EstimateRequest], n_requests: int
) -> List[EstimateRequest]:
    """``n_requests`` requests cycling over the pool (repeats hit the
    cache).  Each emitted request is a fresh record so per-request fields
    (ids, tickets) never alias."""
    stream = []
    for i in range(n_requests):
        template = pool[i % len(pool)]
        stream.append(
            EstimateRequest(
                graph=template.graph,
                query=template.query,
                target_rel_ci=template.target_rel_ci,
                deadline_ms=template.deadline_ms,
                max_samples=template.max_samples,
                estimator=template.estimator,
            )
        )
    return stream


def run_serving_benchmark(
    clients: int,
    n_requests: int = 64,
    cache: bool = True,
    distinct: int = 8,
    serial: bool = False,
    pool: Optional[Sequence[EstimateRequest]] = None,
    policy: Optional[BudgetPolicy] = None,
    shards: int = 1,
    collect_metrics: bool = False,
) -> Dict[str, object]:
    """Drive one serving configuration; returns a flat result record.

    ``clients`` is the closed-loop concurrency: requests are submitted in
    waves of that many, each wave drained before the next arrives (a wave
    models ``clients`` simultaneous callers).  ``serial=True`` restricts
    the scheduler to one request per device batch — the no-batching
    baseline.  ``shards`` partitions every round across that many worker
    processes (bit-identical estimates; the admission cap scales with it).
    ``collect_metrics`` attaches the service's live metrics registry
    snapshot under ``"registry"`` (the ``repro serve-bench --metrics-out``
    feed).
    """
    if pool is None:
        pool = build_request_pool(distinct=distinct)
    config = ServiceConfig(
        cache_bytes=(64 << 20) if cache else 0,
        max_batch_requests=1 if serial else 64,
        policy=policy or BudgetPolicy(),
        engine_config=EngineConfig.gsword(n_shards=shards),
    )
    service = EstimationService(config)
    stream = request_stream(pool, n_requests)
    try:
        for start in range(0, len(stream), max(1, clients)):
            service.estimate_many(stream[start:start + max(1, clients)])
        snap = service.metrics_snapshot()
        registry = service.registry().snapshot() if collect_metrics else None
    finally:
        service.close()
    latency = snap["latency_ms"]
    total_ms = snap["clock_ms"]
    record: Dict[str, object] = {
        "clients": clients,
        "n_requests": n_requests,
        "cache": cache,
        "serial": serial,
        "shards": shards,
        "rounds_by_shard_count": snap["rounds_by_shard_count"],
        "samples_per_second": snap["samples_per_second"],
        "requests_per_second": (
            snap["n_completed"] / total_ms * 1000.0 if total_ms > 0 else 0.0
        ),
        "p50_ms": latency["p50"],
        "p95_ms": latency["p95"],
        "p99_ms": latency["p99"],
        "mean_latency_ms": latency["mean"],
        "mean_batch_size": snap["mean_batch_size"],
        "n_degraded": snap["n_degraded"],
        "cache_hit_rate": snap["cache"].get("hit_rate", 0.0),
        "busy_ms": snap["busy_ms"],
        "total_samples": snap["total_samples"],
        # Figure-5 kernel stall counters, folded over every device round
        # this configuration ran.
        "stall": snap["stall"],
        "multidev_ms": snap["multidev_ms"],
    }
    if registry is not None:
        record["registry"] = registry
    return record
