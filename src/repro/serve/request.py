"""Request/response records for the estimation service.

An :class:`EstimateRequest` carries everything one cardinality estimation
needs — the data graph, the query, and its quality-of-service envelope: a
target relative confidence interval (the accuracy the caller wants) and an
optional deadline in *simulated* milliseconds (the latency the caller will
tolerate).  The service trades the two off per request: it samples in
rounds until the CI target is met, and if the deadline arrives first it
returns the best-effort estimate with ``degraded=True`` rather than
failing.

All times in the serving layer are simulated device milliseconds on the
same clock as :meth:`repro.core.engine.GPURunResult.simulated_ms`, so
latency numbers compose with every other timing in the repository.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Union

from repro.errors import ServiceError
from repro.estimators.alley import AlleyEstimator
from repro.estimators.base import RSVEstimator
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.graph.csr import CSRGraph
from repro.query.query_graph import QueryGraph

#: Estimator aliases accepted in requests (case-insensitive).
_ESTIMATOR_ALIASES = {
    "alley": AlleyEstimator,
    "al": AlleyEstimator,
    "wanderjoin": WanderJoinEstimator,
    "wj": WanderJoinEstimator,
}


def resolve_estimator(spec: Union[str, RSVEstimator]) -> RSVEstimator:
    """Coerce a request's estimator field into an :class:`RSVEstimator`.

    Accepts an instance (returned unchanged) or an alias string
    (``"alley"``/``"al"``, ``"wanderjoin"``/``"wj"``).
    """
    if isinstance(spec, RSVEstimator):
        return spec
    if isinstance(spec, str):
        cls = _ESTIMATOR_ALIASES.get(spec.lower())
        if cls is not None:
            return cls()
        raise ServiceError(
            f"unknown estimator {spec!r}; known: {sorted(set(_ESTIMATOR_ALIASES))}"
        )
    raise ServiceError(f"cannot resolve estimator from {type(spec).__name__}")


def estimator_name(spec: Union[str, RSVEstimator]) -> str:
    """Canonical name used for cache keys and reporting."""
    if isinstance(spec, str):
        resolve_estimator(spec)  # validate the alias
        return "wanderjoin" if spec.lower() in ("wj", "wanderjoin") else "alley"
    return type(spec).__name__


@dataclass
class EstimateRequest:
    """One estimation request.

    Attributes:
        graph: the data graph to count on.
        query: the (connected, labelled) query graph.
        target_rel_ci: stop sampling once the estimate's relative
            confidence-interval half-width drops to this (0.1 = ±10%).
        deadline_ms: simulated-ms latency budget measured from submission
            (queue wait, plan construction on a cache miss, and sampling
            all count); ``None`` = no deadline.
        max_samples: sample budget — the backstop that bounds requests
            whose CI never converges (e.g. zero-count queries, whose
            relative CI is undefined).  No round starts once the collected
            samples reach it, and a round asks for at most what is left.
            A round's root samples never exceed its request, but under
            inheritance (Alg. 2) they carry inherited continuations that
            count as collected samples too, so the guarantee is
            ``n_samples <= max_samples + inherited continuations of the
            final round`` — not a hard cap.
        estimator: ``"alley"``/``"wanderjoin"`` or an estimator instance.
        graph_id: stable identity of ``graph`` for plan-cache keying;
            defaults to the graph's name + size signature + content
            fingerprint.
        request_id: caller-supplied tag; the service assigns one if empty.
        tenant: admission-control principal the request is billed to.
            Token-bucket quotas and weighted-fair queueing (see
            :class:`~repro.serve.admission.AdmissionPolicy`) key on it;
            irrelevant unless the service has an admission policy.
    """

    graph: CSRGraph
    query: QueryGraph
    target_rel_ci: float = 0.10
    deadline_ms: Optional[float] = None
    max_samples: int = 131_072
    estimator: Union[str, RSVEstimator] = "alley"
    graph_id: Optional[str] = None
    request_id: str = ""
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not (0.0 < self.target_rel_ci < math.inf):
            raise ServiceError("target_rel_ci must be positive and finite")
        if not self.tenant:
            raise ServiceError("tenant must be a non-empty string")
        if self.deadline_ms is not None and self.deadline_ms <= 0:
            raise ServiceError("deadline_ms must be positive when given")
        if self.max_samples <= 0:
            raise ServiceError("max_samples must be positive")
        resolve_estimator(self.estimator)  # fail fast on bad aliases


@dataclass
class EstimateResponse:
    """Outcome of one request.

    ``degraded`` is True whenever the CI target was *not* reached — the
    deadline or the sample cap cut sampling short — and the estimate is the
    best effort at that point.  ``stop_reason`` says which:
    ``"converged"``, ``"deadline"``, ``"budget"``, or ``"empty"`` (the
    candidate graph proves the count is zero, no sampling needed).

    Latency decomposes as ``latency_ms = queue_ms + build_ms + service_ms``:
    time waiting for device slots, plan construction + PCIe transfer on a
    cache miss (zero on a hit), and the simulated duration of the request's
    share of device batches.
    """

    request_id: str
    estimate: float
    rel_ci: float
    n_samples: int
    n_valid: int
    n_rounds: int
    degraded: bool
    stop_reason: str
    latency_ms: float
    queue_ms: float
    build_ms: float
    service_ms: float
    cache_hit: bool
    estimator: str
    extras: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return not self.degraded
