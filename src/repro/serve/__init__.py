"""Concurrent estimation serving over the simulated GPU.

The production-facing layer of the reproduction: a thread-safe
:class:`EstimationService` that accepts cardinality-estimation requests,
dynamically batches their sampling rounds into co-resident device launches
(:class:`BatchScheduler`), reuses candidate graphs across requests
(:class:`PlanCache`), and adapts each request's sample budget to its
accuracy target and deadline (:class:`AdaptiveBudgetController`).

Quickstart::

    from repro import load_dataset, extract_query
    from repro.serve import EstimateRequest, EstimationService

    service = EstimationService()
    graph = load_dataset("yeast")
    requests = [
        EstimateRequest(graph, extract_query(graph, 8, rng=i),
                        target_rel_ci=0.2, deadline_ms=5.0)
        for i in range(32)
    ]
    for response in service.estimate_many(requests):
        print(response.estimate, response.degraded, response.latency_ms)
    print(service.metrics_snapshot())
    print(service.registry().prometheus_text())

Metrics live in one :class:`~repro.obs.registry.MetricsRegistry`:
:class:`ServiceMetrics` records into its families,
:meth:`EstimationService.metrics_snapshot` is a plain-dict view of them,
and :meth:`EstimationService.registry` returns the live registry for
JSON or Prometheus export.
"""

from repro.errors import Overloaded, RequestCancelled, ServiceClosed
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    ShedDecision,
    TenantQuota,
    TokenBucket,
)
from repro.serve.breaker import BreakerState, CircuitBreaker
from repro.serve.cache import (
    CachedPlan,
    PlanCache,
    build_plan,
)
from repro.serve.controller import (
    REASON_FALLBACK,
    AdaptiveBudgetController,
    BudgetPolicy,
    relative_ci,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import (
    EstimateRequest,
    EstimateResponse,
    estimator_name,
    resolve_estimator,
)
from repro.serve.scheduler import (
    BatchResult,
    BatchScheduler,
    FairQueue,
    RoundTask,
)
from repro.serve.service import EstimationService, ServiceConfig, Ticket

__all__ = [
    "EstimateRequest",
    "EstimateResponse",
    "EstimationService",
    "ServiceConfig",
    "Ticket",
    "BatchScheduler",
    "BatchResult",
    "RoundTask",
    "PlanCache",
    "CachedPlan",
    "build_plan",
    "AdaptiveBudgetController",
    "BudgetPolicy",
    "relative_ci",
    "ServiceMetrics",
    "resolve_estimator",
    "estimator_name",
    "BreakerState",
    "CircuitBreaker",
    "REASON_FALLBACK",
    "AdmissionPolicy",
    "AdmissionController",
    "TenantQuota",
    "TokenBucket",
    "ShedDecision",
    "FairQueue",
    "Overloaded",
    "RequestCancelled",
    "ServiceClosed",
]
