"""Tests for version-aware serving over a mutating graph."""

import json
import threading

import pytest

from repro.core.config import EngineConfig
from repro.dyn.mutable import EdgeBatch, MutableGraph
from repro.dyn.serving import DynamicEstimationSession
from repro.dyn.stream import UniformChurnStream
from repro.errors import ServiceError
from repro.graph.generators import erdos_renyi_graph, random_labels
from repro.query.extract import extract_query
from repro.serve.service import ServiceConfig


def make_graph(seed=0, name="dynserve"):
    base = erdos_renyi_graph(
        200, 300, rng=seed, labels=random_labels(200, 2, rng=seed + 1),
        name=name,
    )
    return MutableGraph(base)


def make_query(graph, rng=5):
    return extract_query(graph.snapshot(), 4, rng=rng)


def churn(graph):
    return UniformChurnStream(5, 5, rng=graph.version + 101).next_batch(graph)


class TestSessionBasics:
    def test_register_and_estimate(self):
        graph = make_graph()
        with DynamicEstimationSession(graph) as session:
            query = make_query(graph)
            session.register_query(query)
            first = session.estimate(query, max_samples=512)
            assert first.graph_version == 0
            # register_query installed the plan, so even the first request
            # hits the cache — admission never rebuilds the candidate graph.
            assert first.cache_hit
            assert first.build_ms == 0.0
            assert session.staleness(query) == 0

    def test_estimate_auto_registers(self):
        graph = make_graph()
        with DynamicEstimationSession(graph) as session:
            response = session.estimate(make_query(graph), max_samples=512)
            assert response.graph_version == 0

    def test_register_idempotent(self):
        graph = make_graph()
        with DynamicEstimationSession(graph) as session:
            query = make_query(graph)
            m1 = session.register_query(query)
            m2 = session.register_query(query)
            assert m1 is m2

    def test_refresh_every_validated(self):
        with pytest.raises(ServiceError):
            DynamicEstimationSession(make_graph(), refresh_every=0)

    def test_cacheless_service_rejected(self):
        with pytest.raises(ServiceError):
            DynamicEstimationSession(
                make_graph(), config=ServiceConfig(cache_bytes=0)
            )

    def test_unregistered_query_staleness_raises(self):
        graph = make_graph()
        with DynamicEstimationSession(graph) as session:
            with pytest.raises(ServiceError):
                session.staleness(make_query(graph))


class TestMutationAndInvalidation:
    def test_mutate_refreshes_and_invalidates(self):
        graph = make_graph()
        with DynamicEstimationSession(graph) as session:
            query = make_query(graph)
            session.register_query(query)
            session.estimate(query, max_samples=512)
            session.mutate(churn(graph))
            assert graph.version == 1
            assert session.staleness(query) == 0  # refresh_every=1
            response = session.estimate(query, max_samples=512)
            assert response.graph_version == 1
            snap = session.service.metrics_snapshot()
            # register + one refresh = two installs; the v0 entry was
            # evicted as a stale version, not for capacity.
            assert snap["plans"]["n_refreshes"] == 2
            assert snap["plans"]["n_invalidations"] == 1
            assert snap["plans"]["n_invalidated_entries"] == 1
            assert snap["cache"]["evictions_by_reason"]["version"] == 1
            assert snap["cache"]["evictions_by_reason"]["capacity"] == 0

    def test_empty_batch_still_versions(self):
        graph = make_graph()
        with DynamicEstimationSession(graph) as session:
            query = make_query(graph)
            session.register_query(query)
            session.mutate(EdgeBatch.make(n_vertices=graph.n_vertices))
            response = session.estimate(query, max_samples=512)
            assert response.graph_version == 1

    def test_deferred_refresh_marks_staleness(self):
        graph = make_graph()
        with DynamicEstimationSession(graph, refresh_every=3) as session:
            query = make_query(graph)
            session.register_query(query)
            session.mutate(churn(graph))
            session.mutate(churn(graph))
            assert session.staleness(query) == 2
            stale = session.estimate(query, max_samples=512)
            # Served against the stale-but-resident v0 plan, and says so.
            assert stale.graph_version == 0
            assert stale.cache_hit
            assert graph.version - stale.graph_version == 2
            session.mutate(churn(graph))  # third mutation triggers refresh
            assert session.staleness(query) == 0
            fresh = session.estimate(query, max_samples=512)
            assert fresh.graph_version == 3

    def test_plan_snapshot_tracks_plan_not_graph(self):
        graph = make_graph()
        with DynamicEstimationSession(graph, refresh_every=5) as session:
            query = make_query(graph)
            session.register_query(query)
            before = session.plan_snapshot(query)
            session.mutate(churn(graph))
            assert session.plan_snapshot(query) is before
            session.refresh_plans()
            assert session.plan_snapshot(query) is not before


class TestConcurrentMutation:
    def test_responses_always_name_their_version(self):
        """The staleness contract under concurrent mutation: every response
        carries the graph_version its plan was built on — never None, never
        newer than the graph itself."""
        graph = make_graph()
        session = DynamicEstimationSession(graph, refresh_every=2)
        query = make_query(graph)
        session.register_query(query)
        stop = threading.Event()
        errors = []

        def mutator():
            try:
                while not stop.is_set():
                    session.mutate(churn(graph))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        thread = threading.Thread(target=mutator)
        thread.start()
        try:
            for _ in range(25):
                response = session.estimate(query, max_samples=256)
                version_after = graph.version
                assert response.graph_version is not None
                assert 0 <= response.graph_version <= version_after
        finally:
            stop.set()
            thread.join()
            session.close()
        assert not errors


class TestObservability:
    def test_registry_bridges_plan_lifecycle(self):
        graph = make_graph()
        with DynamicEstimationSession(graph) as session:
            query = make_query(graph)
            session.register_query(query)
            session.mutate(churn(graph))
            session.estimate(query, max_samples=512)
            snap = session.service.metrics_snapshot()
            out = session.service.registry().snapshot()
        assert snap["plans"] == {
            "n_refreshes": 2, "n_invalidations": 1,
            "n_invalidated_entries": 1,
        }
        events = {
            e["labels"]["event"]: e["value"]
            for e in out["plan_lifecycle_total"]["series"]
        }
        assert events["refresh"] == 2.0
        assert events["invalidation"] == 1.0
        assert events["invalidated_entry"] == 1.0
        reasons = {
            e["labels"]["reason"]: e["value"]
            for e in out["plan_cache_evictions_total"]["series"]
        }
        assert reasons["version"] == 1.0
        assert reasons["capacity"] == 0.0
        json.dumps(out)  # the live registry stays serialisable

    def test_trace_instants_recorded(self, tmp_path):
        graph = make_graph()
        config = ServiceConfig(engine_config=EngineConfig.gsword(trace=True))
        with DynamicEstimationSession(graph, config=config) as session:
            query = make_query(graph)
            session.register_query(query)
            session.mutate(churn(graph))
            session.estimate(query, max_samples=512)
            path = tmp_path / "dyn_trace.json"
            session.service.recorder.write(str(path))
        payload = json.loads(path.read_text())
        names = {event.get("name") for event in payload["traceEvents"]}
        assert "plan.refresh" in names
        assert "plan.invalidate" in names
