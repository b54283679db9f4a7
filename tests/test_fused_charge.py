"""Fused cost charging ≡ the scalar reference, on every charge branch.

Both fused runners only log each step's cost-model inputs; the deferred
evaluator (``repro.core.fused._ChargeLog``) charges the logged rows in
bulk — rows with every lane present or some absent (the sample-sync idle
charge), global levels, levels whose lanes pick among several backward
pairs (region misses), streamed or lockstep probes — and folds the
increments into the profile registers with a left-to-right cumsum.  The
batch-end HT fold likewise runs lane by lane through ``HTAccumulator.add``
for a few finishing warps and as a vector fold for many.  All of it must
reproduce the scalar float operations exactly, so this module compares
the fused backend with the scalar engine on random labelled graphs and
queries — estimate and every ``WarpProfile`` field, exactly, across every
streaming-threshold case, in both sync modes — checks that every kind of
row actually ran, and checks that where the log is flushed never changes
a value.
"""

import contextlib
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core import fused
from repro.core.config import EngineConfig, SyncMode
from repro.core.engine import GSWORDEngine
from repro.core.fused import (
    FusedArena,
    FusedRunner,
    WaveParams,
    _ChargeLog,
    _ProfileSoA,
)
from repro.estimators.alley import AlleyEstimator
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.gpu.costmodel import DEFAULT_GPU
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
    """Count the kinds of logged rows the deferred charge evaluated (all
    lanes present or some absent, global level, several backward pairs,
    streamed or lockstep probes) and the batch-end folds the fused steps
    took."""
    counts: Counter = Counter()
    flush = _ChargeLog.flush
    fold = FusedRunner._fold_rows

    def counting_flush(self):
        S = self.s
        pres = self.present[:S]
        busy = pres.sum(axis=2)
        stepped = busy > 0
        nb = np.where(pres, self.cols[0, :S], 0).max(axis=2)
        counts["all_present"] += int((busy == pres.shape[2]).sum())
        counts["partial"] += int((stepped & (busy < pres.shape[2])).sum())
        counts["global"] += int((stepped & (nb == 0)).sum())
        counts["multi_pair"] += int((nb > 1).sum())
        streamed = self.p.streaming and self.p.has_refine
        counts["streamed" if streamed else "lockstep"] += int(stepped.sum())
        return flush(self)

    def counting_fold(*args):
        counts["vector_fold"] += 1
        return fold(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_ChargeLog, "flush", counting_flush)
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
        batch) log rows with absent lanes, full batches all-present rows;
        depth 0 is a global level; a 2-warp round folds through
        ``HTAccumulator.add``, a 64-warp one through the vector fold; the
        q8 query has cyclic levels whose lanes pick different backward
        pairs (region misses); Alley streams its probes with streaming on
        and probes in lockstep with it off (WanderJoin has no refine
        stage, so it always probes in lockstep).  All of them match the
        scalar engine."""
        cg, order = plc_plan
        region_misses = 0
        with charge_branches() as counts:
            for n, tpw, streaming in (
                (37, 16, True), (256, 128, False), (1024, 16, True),
            ):
                config = dict(tasks_per_warp=tpw, streaming=streaming)
                scalar = run("scalar", estimator_cls, cg, order, n, 5, **config)
                assert_same(
                    run("fused", estimator_cls, cg, order, n, 5, **config),
                    scalar,
                )
                region_misses += scalar.profile.warp.region_misses
        assert counts["all_present"] > 0
        assert counts["partial"] > 0
        assert counts["global"] > 0
        assert counts["multi_pair"] > 0
        assert counts["lockstep"] > 0
        if estimator_cls is AlleyEstimator:
            assert counts["streamed"] > 0
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


class TestFlushInvariance:
    """The deferred charge gives the same result wherever the log is
    flushed: every super-step (a one-row cap) or once per wave (no cap)."""

    @pytest.mark.parametrize("cap", [1, sys.maxsize], ids=["every_step", "per_wave"])
    @pytest.mark.parametrize(
        "config",
        [
            dict(inheritance=True, streaming=True),
            dict(inheritance=True, streaming=False),
            dict(inheritance=False, streaming=True),
            dict(inheritance=False, streaming=False),
            dict(sync_mode="iteration", inheritance=False, streaming=True),
            dict(sync_mode="iteration", inheritance=False, streaming=False),
        ],
        ids=lambda c: "-".join(
            f"{k}={v}" for k, v in c.items() if k != "inheritance" or v
        ),
    )
    def test_flush_points_match_scalar(self, plc_plan, monkeypatch, cap, config):
        """Partial batches (quota 37 on 16-task warps) and full ones
        (256 on 128-task warps), both estimators."""
        cg, order = plc_plan
        monkeypatch.setattr(fused, "_CHARGE_LOG_ROWS", cap)
        for estimator_cls in (AlleyEstimator, WanderJoinEstimator):
            for n, tpw in ((37, 16), (256, 128)):
                cfg = dict(config, tasks_per_warp=tpw)
                assert_same(
                    run("fused", estimator_cls, cg, order, n, 7, **cfg),
                    run("scalar", estimator_cls, cg, order, n, 7, **cfg),
                )

    @pytest.mark.parametrize("cap", [1, sys.maxsize], ids=["every_step", "per_wave"])
    @pytest.mark.parametrize("sync_mode", ["sample", "iteration"])
    def test_two_shards_match_scalar(self, plc_plan, monkeypatch, cap, sync_mode):
        """Shard workers fork after the patch, so they flush at the same
        cap as the parent."""
        cg, order = plc_plan
        monkeypatch.setattr(fused, "_CHARGE_LOG_ROWS", cap)
        config = dict(
            sync_mode=sync_mode,
            inheritance=sync_mode == "sample",
            tasks_per_warp=16,
        )
        engine = GSWORDEngine(
            AlleyEstimator(),
            EngineConfig(backend="fused", n_shards=2, **config),
        )
        try:
            sharded = engine.run(cg, order, 300, rng=9, collect_states=True)
        finally:
            engine.close()
        assert_same(
            sharded, run("scalar", AlleyEstimator, cg, order, 300, 9, **config)
        )


class TestFoldOrder:
    def test_fold_adds_in_scalar_order(self):
        """The fold reproduces the scalar sequence of ``+=`` — memory
        terms in charge order, step after step, from the register's value
        — and the sample-sync idle charge from the exact cycle totals
        around each step, inheritance syncs included.  The memory terms
        span sixteen orders of magnitude, so a regrouped (pairwise) sum
        gives a different answer."""
        rng = np.random.default_rng(5)
        W, S, n, T = 32, 5, 3, 3
        spec = DEFAULT_GPU
        params = WaveParams(
            sync_mode=SyncMode.SAMPLE, inheritance=True, streaming=True,
            streaming_threshold=32, has_refine=True, target=S, n_q=S,
            warp_size=W, spec=spec, collect_states=False,
        )
        prof = _ProfileSoA(FusedArena(), n)
        for reg in (prof.mem, prof.slong, prof.swait):
            reg[:] = rng.random(n) * 1e8
        prof.comp[:] = rng.integers(0, 1000, n)
        prof.sync[:] = rng.integers(0, 1000, n)
        log = _ChargeLog(params, FusedArena(), prof, n, S)
        log.open(np.arange(n))
        isync = rng.integers(1, 6, (S, n))
        log.isync[:S] = isync
        # Step-major rows, as the evaluator returns them.
        mem_terms = [
            rng.random(S * n) * 10.0 ** rng.integers(-8, 8, S * n)
            for _ in range(T)
        ]
        comp = rng.integers(0, 500, S * n).astype(float)
        sync = rng.integers(0, 50, S * n).astype(float)
        busy = rng.integers(1, W + 1, S * n)
        busy[0] = W
        before = {
            name: getattr(prof, name).copy()
            for name in ("mem", "slong", "swait", "comp", "sync")
        }
        log._fold(
            S, mem_terms, comp, sync, np.zeros(S * n, dtype=np.int64),
            np.zeros(S * n, dtype=np.int64), busy,
        )

        regrouped = 0
        for j in range(n):
            mem, slong, swait = (
                float(before[k][j]) for k in ("mem", "slong", "swait")
            )
            c, y = float(before["comp"][j]), float(before["sync"][j])
            for step in range(S):
                r = step * n + j
                cycles_before = c + mem + y
                for t in mem_terms:
                    mem += float(t[r])
                    slong += float(t[r])
                c += float(comp[r])
                y += float(sync[r])
                if busy[r] < W:
                    swait += (c + mem + y - cycles_before) * (W - busy[r])
                y += float(isync[step, j] * spec.sync_cycles)
            assert prof.mem[j] == mem
            assert prof.slong[j] == slong
            assert prof.swait[j] == swait
            assert prof.comp[j] == c
            assert prof.sync[j] == y
            terms = np.array([t[step * n + j] for step in range(S) for t in mem_terms])
            regrouped += float(before["mem"][j]) + np.sum(terms) != mem
        assert regrouped > 0
