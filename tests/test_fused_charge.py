"""Fused cost charging ≡ the scalar reference, on every charge branch.

``FusedRunner._charge_rows`` takes shortcuts for the common shapes: when
every lane of the stepping warps is present the lane masks and the
sample-sync idle charge drop out, levels with one backward pair skip the
extra-region count, and global levels skip the streaming charge.  The
batch-end HT fold likewise runs lane by lane through ``HTAccumulator.add``
for a few finishing warps and as a vector fold for many.  Each shortcut
must leave every float operation in place, so this module compares the
fused backend with the scalar engine on random labelled graphs and
queries — estimate and every ``WarpProfile`` field, exactly, across every
streaming-threshold case — and checks that both sides of each branch
actually ran.  Iteration synchronisation, whose warps charge lanes at
mixed depths (``WaveRunner._charge_lanes``), gets the same random
comparison.
"""

import contextlib
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.core.fused import FusedRunner
from repro.estimators.alley import AlleyEstimator
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.graph.builder import from_edge_list
from repro.graph.generators import power_law_cluster_graph, random_labels
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.query.query_graph import QueryGraph

PROFILE_FIELDS = (
    "compute_cycles", "mem_cycles", "sync_cycles", "stall_long",
    "stall_wait", "mem_segments", "region_misses", "lane_busy",
    "lane_total", "iterations",
)


@contextlib.contextmanager
def charge_branches():
    """Count which ``_charge_rows`` branches (all lanes present or not,
    one backward pair or several) and batch-end folds the fused steps
    took."""
    counts: Counter = Counter()
    charge = FusedRunner._charge_rows
    fold = FusedRunner._fold_rows

    def counting_charge(self, lv, ix, present, prep, res, prof):
        counts["all_present" if present.all() else "partial"] += 1
        counts["multi_pair"] += lv.nb > 1
        return charge(self, lv, ix, present, prep, res, prof)

    def counting_fold(*args):
        counts["vector_fold"] += 1
        return fold(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FusedRunner, "_charge_rows", counting_charge)
        mp.setattr(FusedRunner, "_fold_rows", staticmethod(counting_fold))
        yield counts


def run(backend, estimator_cls, cg, order, n, seed, **config):
    engine = GSWORDEngine(
        estimator_cls(), EngineConfig(backend=backend, **config)
    )
    return engine.run(cg, order, n, rng=seed, collect_states=True)


def assert_same(fused, scalar):
    assert fused.backend == "fused"
    assert fused.estimate == scalar.estimate
    assert fused.n_samples == scalar.n_samples
    assert fused.n_root_samples == scalar.n_root_samples
    assert fused.n_valid == scalar.n_valid
    assert fused.longest_warp_cycles == scalar.longest_warp_cycles
    assert fused.simulated_ms() == scalar.simulated_ms()
    for name in PROFILE_FIELDS:
        assert getattr(fused.profile.warp, name) == getattr(
            scalar.profile.warp, name
        ), name
    assert fused.collected == scalar.collected


@st.composite
def plans(draw):
    """A random labelled graph, a connected query over its labels, and
    the query's candidate graph and matching order."""
    n = draw(st.integers(min_value=2, max_value=40))
    n_labels = draw(st.integers(min_value=1, max_value=3))
    labels = draw(st.lists(
        st.integers(0, n_labels - 1), min_size=n, max_size=n
    ))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=160,
    ))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    graph = from_edge_list(edges, labels=labels, n_vertices=n)
    k = draw(st.integers(min_value=2, max_value=5))
    q_labels = draw(st.lists(
        st.integers(0, n_labels - 1), min_size=k, max_size=k
    ))
    q_edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, k)}
    extra = draw(st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=3
    ))
    q_edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    query = QueryGraph.from_edges(q_labels, sorted(q_edges))
    cg = build_candidate_graph(graph, query)
    assume(not cg.is_empty())
    return cg, quicksi_order(query, graph)


@pytest.fixture(scope="module")
def plc_plan():
    """A draw-sensitive power-law workload with wide candidate sets."""
    labels = random_labels(300, 3, rng=1)
    graph = power_law_cluster_graph(
        300, 3, 0.5, rng=2, labels=labels, name="plc"
    )
    query = extract_query(graph, 8, rng=4, name="plc-q8")
    return build_candidate_graph(graph, query), quicksi_order(query, graph)


@pytest.fixture(scope="module")
def dense_plan():
    """A dense two-label power-law workload whose lanes see candidate
    lists of up to 46 entries, so streaming thresholds below, at and
    above the warp size all change the charge."""
    labels = random_labels(300, 2, rng=1)
    graph = power_law_cluster_graph(
        300, 8, 0.5, rng=2, labels=labels, name="plc-dense"
    )
    query = extract_query(graph, 5, rng=4, name="plc-dense-q5")
    return build_candidate_graph(graph, query), quicksi_order(query, graph)


class TestFusedChargeMatchesScalar:
    @given(
        plan=plans(),
        quota=st.integers(min_value=1, max_value=160),
        tasks_per_warp=st.sampled_from([16, 32, 128]),
        inheritance=st.booleans(),
        streaming=st.booleans(),
        # 32 is the default (= the warp size); 8 and 48 reach the
        # streaming charge's below- and above-warp-size threshold cases.
        streaming_threshold=st.sampled_from([None, 8, 32, 48]),
        estimator_cls=st.sampled_from([AlleyEstimator, WanderJoinEstimator]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    def test_random_graphs_and_configs(
        self, plan, quota, tasks_per_warp, inheritance, streaming,
        streaming_threshold, estimator_cls, seed,
    ):
        cg, order = plan
        config = dict(
            inheritance=inheritance,
            streaming=streaming,
            tasks_per_warp=tasks_per_warp,
        )
        if streaming_threshold is not None:
            config["streaming_threshold"] = streaming_threshold
        assert_same(
            run("fused", estimator_cls, cg, order, quota, seed, **config),
            run("scalar", estimator_cls, cg, order, quota, seed, **config),
        )

    @pytest.mark.parametrize("threshold", [8, 20, 32, 40])
    def test_streaming_thresholds(self, dense_plan, threshold):
        """Every streaming-threshold case of the charge (a partial round
        for a tail at or above the threshold, the plain warp-size split,
        and lists that must reach a threshold above the warp size)
        matches the scalar engine, on full and partial batches."""
        cg, order = dense_plan
        for n in (256, 37):
            config = dict(
                streaming_threshold=threshold,
                tasks_per_warp=16,
            )
            assert_same(
                run("fused", AlleyEstimator, cg, order, n, 3, **config),
                run("scalar", AlleyEstimator, cg, order, n, 3, **config),
            )

    @pytest.mark.parametrize("estimator_cls", [AlleyEstimator, WanderJoinEstimator])
    def test_every_branch_runs(self, plc_plan, estimator_cls):
        """Partial batches (quota 37 on 16-task warps ends in a 5-lane
        batch) take the masked charge, full batches the all-present one;
        a 2-warp round folds through ``HTAccumulator.add``, a 64-warp one
        through the vector fold; the q8 query has cyclic levels whose
        lanes pick different backward pairs (region misses).  All of them
        match the scalar engine."""
        cg, order = plc_plan
        region_misses = 0
        with charge_branches() as counts:
            for n, tpw in ((37, 16), (256, 128), (1024, 16)):
                config = dict(tasks_per_warp=tpw)
                scalar = run("scalar", estimator_cls, cg, order, n, 5, **config)
                assert_same(
                    run("fused", estimator_cls, cg, order, n, 5, **config),
                    scalar,
                )
                region_misses += scalar.profile.warp.region_misses
        assert counts["all_present"] > 0
        assert counts["partial"] > 0
        assert counts["multi_pair"] > 0
        assert counts["vector_fold"] > 0
        assert region_misses > 0

    @given(
        plan=plans(),
        quota=st.integers(min_value=1, max_value=160),
        tasks_per_warp=st.sampled_from([16, 32, 128]),
        streaming=st.booleans(),
        streaming_threshold=st.sampled_from([None, 8, 32, 48]),
        max_depth=st.sampled_from([None, 1, 2]),
        estimator_cls=st.sampled_from([AlleyEstimator, WanderJoinEstimator]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    def test_iteration_sync_random_graphs(
        self, plan, quota, tasks_per_warp, streaming, streaming_threshold,
        max_depth, estimator_cls, seed,
    ):
        cg, order = plan
        config = dict(
            sync_mode="iteration",
            inheritance=False,
            streaming=streaming,
            tasks_per_warp=tasks_per_warp,
            max_depth=max_depth,
        )
        if streaming_threshold is not None:
            config["streaming_threshold"] = streaming_threshold
        assert_same(
            run("fused", estimator_cls, cg, order, quota, seed, **config),
            run("scalar", estimator_cls, cg, order, quota, seed, **config),
        )
