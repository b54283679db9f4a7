"""Tests for the memory-budgeted LRU plan cache (repro/serve/cache.py)."""

import pytest

from repro.candidate.candidate_graph import (
    build_candidate_graph,
    plan_key,
    query_fingerprint,
)
from repro.errors import ServiceError
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.query.query_graph import QueryGraph
from repro.serve.cache import PlanCache, build_plan


@pytest.fixture(scope="module")
def yeast():
    return load_dataset("yeast")


@pytest.fixture(scope="module")
def queries(yeast):
    return [extract_query(yeast, 4, rng=i, name=f"q{i}") for i in range(4)]


class TestKeys:
    def test_fingerprint_ignores_name(self):
        a = QueryGraph.from_edges([0, 1], [(0, 1)], name="a")
        b = QueryGraph.from_edges([0, 1], [(0, 1)], name="b")
        assert query_fingerprint(a) == query_fingerprint(b)

    def test_fingerprint_separates_structure(self):
        a = QueryGraph.from_edges([0, 1], [(0, 1)])
        b = QueryGraph.from_edges([0, 2], [(0, 1)])
        c = QueryGraph.from_edges([0, 1, 1], [(0, 1), (1, 2)])
        assert len({query_fingerprint(q) for q in (a, b, c)}) == 3

    def test_plan_key_stable_and_param_sensitive(self, yeast, queries):
        q = queries[0]
        assert plan_key(yeast, q) == plan_key(yeast, q)
        assert plan_key(yeast, q) != plan_key(yeast, q, use_nlf=True)
        assert plan_key(yeast, q) != plan_key(yeast, q, order_method="gcare")
        assert plan_key(yeast, q, graph_id="other") != plan_key(yeast, q)

    def test_nbytes_matches_memory_bytes(self, yeast, queries):
        cg = build_candidate_graph(yeast, queries[0])
        assert cg.nbytes == cg.memory_bytes()
        assert cg.nbytes > 0


class TestBuildPlan:
    def test_build_plan_charges_simulated_cost(self, yeast, queries):
        plan = build_plan(yeast, queries[0])
        assert plan.build_ms > 0
        assert plan.nbytes == plan.cg.nbytes
        assert len(plan.order) == queries[0].n_vertices

    def test_unknown_order_method_rejected(self, yeast, queries):
        with pytest.raises(ServiceError):
            build_plan(yeast, queries[0], order_method="magic")


class TestPlanCache:
    def test_hit_miss_metrics(self, yeast, queries):
        cache = PlanCache(max_bytes=1 << 30)
        plan_a, hit = cache.get_or_build(yeast, queries[0])
        assert not hit
        plan_b, hit = cache.get_or_build(yeast, queries[0])
        assert hit
        assert plan_b is plan_a  # the very same built artifact is reused
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == plan_a.nbytes

    def test_eviction_under_budget(self, yeast, queries):
        sizes = [build_plan(yeast, q).nbytes for q in queries[:3]]
        # One byte short of all three: admitting the third must evict.
        cache = PlanCache(max_bytes=sum(sizes) - 1)
        for q in queries[:3]:
            cache.get_or_build(yeast, q)
        assert cache.evictions >= 1
        assert cache.current_bytes <= cache.max_bytes
        # The least-recently-used plan (queries[0]) was evicted: re-fetch
        # misses, while the most recent entry still hits.
        _, hit_old = cache.get_or_build(yeast, queries[0])
        assert not hit_old

    def test_capacity_eviction_counted(self, yeast, queries):
        sizes = [build_plan(yeast, q).nbytes for q in queries[:3]]
        cache = PlanCache(max_bytes=sum(sizes) - 1)
        for q in queries[:3]:
            cache.get_or_build(yeast, q)
        assert cache.stats()["evictions"] >= 1

    def test_lru_order_respects_access(self, yeast, queries):
        sizes = [build_plan(yeast, q).nbytes for q in queries[:3]]
        cache = PlanCache(max_bytes=sum(sizes) - 1)
        cache.get_or_build(yeast, queries[0])
        cache.get_or_build(yeast, queries[1])
        cache.get_or_build(yeast, queries[0])  # refresh 0
        cache.get_or_build(yeast, queries[2])  # evicts 1, not 0
        _, hit0 = cache.get_or_build(yeast, queries[0])
        assert hit0

    def test_oversized_plan_not_admitted(self, yeast, queries):
        cache = PlanCache(max_bytes=1)  # nothing fits
        plan, hit = cache.get_or_build(yeast, queries[0])
        assert not hit and plan.cg is not None
        assert len(cache) == 0 and cache.current_bytes == 0

    def test_bad_budget_rejected(self):
        with pytest.raises(ServiceError):
            PlanCache(max_bytes=0)

    def test_clear(self, yeast, queries):
        cache = PlanCache(max_bytes=1 << 30)
        cache.get_or_build(yeast, queries[0])
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0


class TestPlanKeyContentFingerprint:
    """Regression: graph_id=None must fall back to a *content* identity.

    Two distinct graphs sharing name, vertex count, and edge count used to
    collide (the old fallback was name+sizes only), silently serving one
    graph's plan for the other."""

    @staticmethod
    def _twins():
        from repro.graph.builder import from_edge_list

        labels = [0, 1, 0, 1]
        a = from_edge_list(
            [(0, 1), (1, 2), (2, 3)], labels=labels, name="twin"
        )
        b = from_edge_list(
            [(0, 1), (1, 3), (2, 3)], labels=labels, name="twin"
        )
        assert a.name == b.name
        assert a.n_vertices == b.n_vertices and a.n_edges == b.n_edges
        return a, b

    def test_same_shape_different_content_distinct_keys(self):
        a, b = self._twins()
        q = QueryGraph.from_edges([0, 1], [(0, 1)])
        assert plan_key(a, q) != plan_key(b, q)
        assert plan_key(a, q) == plan_key(a, q)

    def test_no_false_cache_hit_across_content_twins(self):
        a, b = self._twins()
        q = QueryGraph.from_edges([0, 1], [(0, 1)])
        cache = PlanCache(max_bytes=1 << 30)
        cache.get_or_build(a, q)
        _, hit = cache.get_or_build(b, q)
        assert not hit  # different edges => different plans, no collision
