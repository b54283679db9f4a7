"""Sample and warp accounting of a round, and the ``max_samples`` bound.

A round collects root samples plus the continuations inheritance adds
(Alg. 2).  Its root samples never exceed the samples it was asked for,
which is what bounds a budget-stopped request: ``n_samples <= max_samples
+ inherited continuations of the final round``.  The fused backend runs
every warp at an optimistic quota up front, re-running a warp alone when
its true quota is smaller and discarding warps the fold never reaches;
``GPURunResult`` counts both, the ``kernel.launch`` span carries them and
the service exports them as metric families.  None of it changes an
estimate.
"""

import math

import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import BACKENDS, EngineConfig
from repro.core.engine import EngineSession, GSWORDEngine
from repro.estimators.alley import AlleyEstimator
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.graph.datasets import load_dataset
from repro.obs import TraceRecorder
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.serve import EstimateRequest, EstimationService, ServiceConfig

ESTIMATORS = [AlleyEstimator, WanderJoinEstimator]


@pytest.fixture(scope="module")
def yeast():
    return load_dataset("yeast")


@pytest.fixture(scope="module")
def noisy_query(yeast):
    """yeast k=8: many invalid samples, so lanes die and inherit."""
    return extract_query(yeast, 8, rng=1)


@pytest.fixture(scope="module")
def plan(yeast, noisy_query):
    return (
        build_candidate_graph(yeast, noisy_query),
        quicksi_order(noisy_query, yeast),
    )


def run(backend, estimator_cls, plan, n):
    cg, order = plan
    engine = GSWORDEngine(estimator_cls(), EngineConfig(backend=backend))
    return engine.run(cg, order, n, rng=n + 3)


class TestRootSampleLemma:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("estimator_cls", ESTIMATORS)
    def test_roots_never_exceed_the_request(self, plan, backend, estimator_cls):
        inherited = 0
        for n in (1, 31, 128, 129, 300, 1000):
            result = run(backend, estimator_cls, plan, n)
            assert result.n_root_samples <= n
            assert result.n_samples >= n
            inherited += result.n_samples - result.n_root_samples
        # The bound is not vacuous: this query inherits continuations.
        assert inherited > 0


class TestWastedWarpCounts:
    @pytest.mark.parametrize("estimator_cls", ESTIMATORS)
    def test_counts_match_the_optimistic_schedule(self, plan, estimator_cls):
        totals = {"rerun": 0, "discarded": 0}
        for n in (100, 700, 3000):
            by_backend = {b: run(b, estimator_cls, plan, n) for b in BACKENDS}
            scalar = by_backend["scalar"]
            assert scalar.n_rerun_warps == scalar.n_discarded_warps == 0
            fused = by_backend["fused"]
            assert fused.estimate == scalar.estimate
            assert fused.n_warps + fused.n_discarded_warps == math.ceil(
                n / fused.tasks_per_warp
            )
            assert 0 <= fused.n_rerun_warps <= fused.n_warps
            totals["rerun"] += fused.n_rerun_warps
            totals["discarded"] += fused.n_discarded_warps
        assert totals["rerun"] > 0 and totals["discarded"] > 0

    def test_launch_span_carries_the_counts(self, plan):
        cg, order = plan
        rec = TraceRecorder()
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig(), recorder=rec)
        session = engine.session(cg, order, rng=4)
        rounds = [session.run_round(n).result for n in (700, 1500)]
        launches = rec.spans("kernel.launch")
        assert len(launches) == len(rounds)
        for span, result in zip(launches, rounds):
            assert span["args"]["n_rerun_warps"] == result.n_rerun_warps
            assert span["args"]["n_discarded_warps"] == result.n_discarded_warps


@pytest.fixture
def committed_rounds(monkeypatch):
    """Every round a session commits, in order."""
    rounds = []
    commit = EngineSession._commit_round

    def recording_commit(self, round_result):
        rounds.append(round_result)
        return commit(self, round_result)

    monkeypatch.setattr(EngineSession, "_commit_round", recording_commit)
    return rounds


class TestMaxSamplesBound:
    def test_budget_stopped_responses(self, yeast, noisy_query, committed_rounds):
        service = EstimationService(ServiceConfig())
        overshoots = []
        for estimator in ("alley", "wanderjoin"):
            for max_samples in (200, 700, 1500, 4000):
                start = len(committed_rounds)
                response = service.estimate(EstimateRequest(
                    graph=yeast, query=noisy_query, target_rel_ci=1e-6,
                    max_samples=max_samples, estimator=estimator,
                    request_id=f"budget-{estimator}-{max_samples}",
                ))
                rounds = committed_rounds[start:]
                assert response.stop_reason == "budget"
                assert response.n_samples == sum(r.n_samples for r in rounds)
                final = rounds[-1]
                assert response.n_samples <= max_samples + (
                    final.n_samples - final.n_root_samples
                )
                overshoots.append(response.n_samples - max_samples)
        # ``max_samples`` is a budget, not a hard cap: inherited
        # continuations of the final round do carry requests past it.
        assert max(overshoots) > 0
        # The service totals the wasted warp work of every round.
        snap = service.metrics_snapshot()
        reruns = sum(r.n_rerun_warps for r in committed_rounds)
        discarded = sum(r.n_discarded_warps for r in committed_rounds)
        assert snap["n_rerun_warps"] == reruns
        assert snap["n_discarded_warps"] == discarded
        families = {f.name: f for f in service.registry().families()}
        assert families["rerun_warps_total"].labels().value == reruns
        assert families["discarded_warps_total"].labels().value == discarded
