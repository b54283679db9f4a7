"""End-to-end tests for the estimation service (repro/serve/service.py)."""

import dataclasses
import math

import pytest

from repro.errors import ServiceError
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.query.query_graph import QueryGraph
from repro.serve import (
    EstimateRequest,
    EstimationService,
    ServiceConfig,
)
from repro.serve.controller import BudgetPolicy
from repro.utils.rng import derive_seed

#: A loose-CI, small-budget profile so service tests stay fast.
FAST_POLICY = BudgetPolicy(min_round_samples=128, max_round_samples=2048)


@pytest.fixture(scope="module")
def graphs():
    return {name: load_dataset(name) for name in ("yeast", "hprd")}


@pytest.fixture(scope="module")
def mixed_requests(graphs):
    """32+ mixed-size requests over 8 distinct queries on 2 datasets."""
    templates = []
    for i in range(8):
        name = "yeast" if i % 2 == 0 else "hprd"
        graph = graphs[name]
        k = 4 if i < 5 else 8
        query = extract_query(
            graph, k, rng=derive_seed(77, name, k, i), name=f"{name}-{k}-{i}"
        )
        templates.append((graph, query))

    def build(n):
        return [
            EstimateRequest(
                graph=templates[i % len(templates)][0],
                query=templates[i % len(templates)][1],
                target_rel_ci=0.25,
                max_samples=4096,
            )
            for i in range(n)
        ]

    return build


def make_service(**overrides):
    overrides.setdefault("policy", FAST_POLICY)
    return EstimationService(ServiceConfig(**overrides))


class TestConcurrentWave:
    def test_32_concurrent_mixed_requests(self, mixed_requests):
        service = make_service()
        requests = mixed_requests(32)
        responses = service.estimate_many(requests)

        assert len(responses) == 32
        assert len({r.request_id for r in responses}) == 32
        for r in responses:
            assert r.estimate >= 0 and math.isfinite(r.estimate)
            assert r.n_samples > 0
            assert r.stop_reason in ("converged", "budget", "deadline")
            assert r.latency_ms >= 0
            assert r.latency_ms == pytest.approx(
                r.queue_ms + r.build_ms + r.service_ms, abs=1e-9
            )

        snap = service.metrics_snapshot()
        assert snap["n_submitted"] == snap["n_completed"] == 32
        assert snap["n_failed"] == 0
        assert snap["queue_depth"] == 0
        # 32 requests batched into far fewer device launches.
        assert snap["mean_batch_size"] > 1.0

    def test_cache_hits_lower_latency(self, mixed_requests):
        service = make_service()
        responses = service.estimate_many(mixed_requests(32))
        hits = [r for r in responses if r.cache_hit]
        misses = [r for r in responses if not r.cache_hit]
        assert len(misses) == 8  # one build per distinct query
        assert len(hits) == 24
        assert all(r.build_ms == 0.0 for r in hits)
        assert all(r.build_ms > 0.0 for r in misses)
        mean = lambda xs: sum(xs) / len(xs)  # noqa: E731
        assert mean([r.latency_ms for r in hits]) < mean(
            [r.latency_ms for r in misses]
        )
        assert service.metrics_snapshot()["cache"]["hit_rate"] == 24 / 32

    def test_cache_disabled_rebuilds_every_request(self, mixed_requests):
        service = make_service(cache_bytes=0)
        responses = service.estimate_many(mixed_requests(8))
        assert all(not r.cache_hit for r in responses)
        assert all(r.build_ms > 0 for r in responses)
        assert service.metrics_snapshot()["cache"] == {"enabled": False}

    def test_deterministic_across_services(self, mixed_requests):
        a = make_service().estimate_many(mixed_requests(8))
        b = make_service().estimate_many(mixed_requests(8))
        assert [r.estimate for r in a] == [r.estimate for r in b]
        assert [r.latency_ms for r in a] == [r.latency_ms for r in b]


class TestEngines:
    def test_alias_requests_share_one_engine_per_estimator(
        self, mixed_requests
    ):
        """Each alias request resolves to a fresh estimator instance;
        the service still keeps one engine per estimator, not one per
        request."""
        service = make_service()
        aliases = ("alley", "wj", "AL", "wanderjoin")
        requests = [
            dataclasses.replace(r, estimator=aliases[i % len(aliases)])
            for i, r in enumerate(mixed_requests(50))
        ]
        responses = service.estimate_many(requests)
        assert len(responses) == 50
        assert len(service._engines) <= 2


class TestQoS:
    def test_deadline_degrades_instead_of_failing(self, graphs):
        graph = graphs["yeast"]
        # k=8 dense rng=1 has invalid samples, so its CI never reaches the
        # (unreachable) target and the deadline is what stops it.
        query = extract_query(graph, 8, rng=1, query_type="dense")
        request = EstimateRequest(
            graph=graph,
            query=query,
            target_rel_ci=1e-4,  # unreachable
            deadline_ms=0.05,
            max_samples=10**9,
        )
        response = make_service().estimate(request)
        assert response.degraded
        assert response.stop_reason == "deadline"
        assert response.n_samples > 0  # best-effort, never empty
        assert math.isfinite(response.estimate)

    def test_budget_backstop_degrades(self, graphs):
        graph = graphs["yeast"]
        # Same noisy query: the CI stays positive, so the 512-sample cap is
        # what stops it.
        query = extract_query(graph, 8, rng=1, query_type="dense")
        request = EstimateRequest(
            graph=graph, query=query, target_rel_ci=1e-6, max_samples=512
        )
        response = make_service().estimate(request)
        assert response.degraded and response.stop_reason == "budget"
        assert response.n_samples >= 512

    def test_empty_candidate_graph_short_circuits(self, graphs):
        graph = graphs["yeast"]
        # A label no data vertex carries: the filters prove count == 0.
        query = QueryGraph.from_edges(
            [10**9, 10**9], [(0, 1)], name="impossible"
        )
        response = make_service().estimate(
            EstimateRequest(graph=graph, query=query)
        )
        assert response.estimate == 0.0
        assert response.stop_reason == "empty"
        assert not response.degraded
        assert response.n_samples == 0 and response.n_rounds == 0

    def test_invalid_request_rejected_at_construction(self, graphs):
        graph = graphs["yeast"]
        query = QueryGraph.from_edges([0, 0], [(0, 1)])
        with pytest.raises(ServiceError):
            EstimateRequest(graph=graph, query=query, target_rel_ci=0.0)
        with pytest.raises(ServiceError):
            EstimateRequest(graph=graph, query=query, deadline_ms=-1.0)
        with pytest.raises(ServiceError):
            EstimateRequest(graph=graph, query=query, max_samples=0)
        with pytest.raises(ServiceError):
            EstimateRequest(graph=graph, query=query, estimator="magic")


class TestBackgroundWorker:
    def test_submit_and_block_on_tickets(self, mixed_requests):
        service = make_service()
        service.start()
        try:
            tickets = [service.submit(r) for r in mixed_requests(12)]
            responses = [t.result(timeout=120.0) for t in tickets]
        finally:
            service.stop()
        assert len(responses) == 12
        assert all(r.n_samples > 0 for r in responses)
        assert service.metrics_snapshot()["n_completed"] == 12

    def test_double_start_rejected(self):
        service = make_service()
        service.start()
        try:
            with pytest.raises(ServiceError):
                service.start()
        finally:
            service.stop()

    def test_stop_is_idempotent(self):
        service = make_service()
        service.stop()  # never started: no-op
        service.start()
        service.stop()
        service.stop()


class TestMetrics:
    def test_snapshot_schema(self, mixed_requests):
        service = make_service()
        service.estimate_many(mixed_requests(8))
        snap = service.metrics_snapshot()
        for key in (
            "n_submitted", "n_completed", "n_degraded", "n_failed",
            "n_batches", "mean_batch_size", "max_queue_depth",
            "total_samples", "samples_per_second", "busy_ms",
            "latency_ms", "queue_wait_ms", "queue_depth", "clock_ms",
            "cache",
        ):
            assert key in snap, key
        for pct in ("p50", "p95", "p99", "mean", "count", "max"):
            assert pct in snap["latency_ms"], pct
        assert snap["latency_ms"]["count"] == 8
        assert snap["samples_per_second"] > 0
        assert snap["clock_ms"] > 0

    def test_clock_advances_only_with_batches(self):
        service = make_service()
        assert service.clock_ms == 0.0
        assert service.drain() == 0  # nothing queued, nothing happens
        assert service.clock_ms == 0.0
