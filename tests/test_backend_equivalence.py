"""Scalar vs fused backend equivalence (the tentpole invariant).

The fused backend is only allowed to change *how fast* the simulator
runs, never *what* it computes: for a fixed seed the two backends must
produce bit-identical HT estimates, per-kernel cycle counters (hence
simulated milliseconds), collected partial instances, and fault-injection
behaviour.  These tests pin that contract across estimators, sync modes,
optimisation presets, seeds, and query sizes.
"""

from dataclasses import replace

import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import BACKENDS, EngineConfig, default_backend
from repro.core.engine import GSWORDEngine
from repro.core.pipeline import CoProcessingPipeline
from repro.errors import ConfigError, DeviceFault
from repro.estimators.alley import AlleyEstimator
from repro.estimators.cpu_runner import CPUSamplingRunner
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.graph.datasets import load_dataset
from repro.graph.generators import power_law_cluster_graph, random_labels
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.serve import EstimationService

_PROFILE_FIELDS = (
    "compute_cycles", "mem_cycles", "sync_cycles", "stall_long",
    "stall_wait", "mem_segments", "region_misses", "lane_busy",
    "lane_total", "iterations",
)

_PRESETS = {
    "gsword": EngineConfig.gsword,
    "gpu_baseline": EngineConfig.gpu_baseline,
    "inheritance_only": EngineConfig.inheritance_only,
    "sample_sync_baseline": EngineConfig.sample_sync_baseline,
}


@pytest.fixture(scope="module")
def plans():
    """(cg, order) per query size, built once for the whole module."""
    graph = load_dataset("yeast")
    out = {}
    for k in (4, 6):
        query = extract_query(graph, k, rng=5 + k, name=f"equiv-q{k}")
        cg = build_candidate_graph(graph, query)
        assert not cg.is_empty()
        out[k] = (cg, quicksi_order(query, graph))
    return out


@pytest.fixture(scope="module")
def plc_plan():
    """A draw-sensitive workload: candidate sets wide enough that the
    estimate depends on the sampled stream (the yeast queries above are
    near-deterministic, which would let draw-order bugs slip through)."""
    labels = random_labels(300, 3, rng=1)
    graph = power_law_cluster_graph(300, 3, 0.5, rng=2, labels=labels, name="plc")
    query = extract_query(graph, 4, rng=4, name="plc-q4")
    cg = build_candidate_graph(graph, query)
    assert not cg.is_empty()
    return cg, quicksi_order(query, graph)


def run_backend(backend, estimator, cg, order, n, seed, **config_kwargs):
    config = _PRESETS[config_kwargs.pop("preset", "gsword")](
        backend=backend, **config_kwargs
    )
    engine = GSWORDEngine(estimator, config=config)
    return engine.run(cg, order, n, rng=seed, collect_states=True)


def assert_identical(a, b):
    """Every observable of the two runs matches exactly (no tolerances)."""
    assert a.estimate == b.estimate
    assert a.n_samples == b.n_samples
    assert a.n_root_samples == b.n_root_samples
    assert a.n_valid == b.n_valid
    assert a.n_warps == b.n_warps
    assert a.longest_warp_cycles == b.longest_warp_cycles
    assert a.simulated_ms() == b.simulated_ms()
    for field in _PROFILE_FIELDS:
        assert getattr(a.profile.warp, field) == getattr(b.profile.warp, field), field
    assert a.collected == b.collected


class TestEngineEquivalence:
    @pytest.mark.parametrize("estimator_cls", [WanderJoinEstimator, AlleyEstimator])
    @pytest.mark.parametrize("preset", sorted(_PRESETS))
    @pytest.mark.parametrize("seed", [0, 20240613])
    @pytest.mark.parametrize("k", [4, 6])
    def test_bit_identical_runs(self, plans, estimator_cls, preset, seed, k):
        cg, order = plans[k]
        a = run_backend("scalar", estimator_cls(), cg, order, 96, seed, preset=preset)
        b = run_backend("fused", estimator_cls(), cg, order, 96, seed, preset=preset)
        assert a.backend == "scalar"
        assert b.backend == "fused"
        assert_identical(a, b)

    def test_partial_warp_and_odd_quota(self, plans):
        """Sample counts that leave idle lanes and a short last warp."""
        cg, order = plans[4]
        for n in (1, 31, 33, 41):
            a = run_backend(
                "scalar", AlleyEstimator(), cg, order, n, 7,
                preset="gsword", tasks_per_warp=17,
            )
            b = run_backend(
                "fused", AlleyEstimator(), cg, order, n, 7,
                preset="gsword", tasks_per_warp=17,
            )
            assert_identical(a, b)

    def test_streaming_threshold_and_max_depth(self, plans):
        cg, order = plans[6]
        for kwargs in ({"streaming_threshold": 8}, {"max_depth": 2}):
            a = run_backend(
                "scalar", AlleyEstimator(), cg, order, 64, 3, **kwargs
            )
            b = run_backend(
                "fused", AlleyEstimator(), cg, order, 64, 3, **kwargs
            )
            assert_identical(a, b)

    @pytest.mark.parametrize("preset", sorted(_PRESETS))
    @pytest.mark.parametrize("estimator_cls", [WanderJoinEstimator, AlleyEstimator])
    def test_draw_sensitive_bit_identical(self, plc_plan, estimator_cls, preset):
        """Scalar and fused consume each warp's stream draw-for-draw, under
        every preset and so under both sync modes, on a workload whose
        estimate depends on the draws."""
        cg, order = plc_plan
        runs = {
            backend: run_backend(
                backend, estimator_cls(), cg, order, 96, 20240613,
                preset=preset,
            )
            for backend in ("scalar", "fused")
        }
        assert runs["fused"].backend == "fused"
        assert_identical(runs["scalar"], runs["fused"])

    @pytest.mark.parametrize("estimator_cls", [WanderJoinEstimator, AlleyEstimator])
    def test_iteration_sync_edge_cases(self, plc_plan, estimator_cls):
        """Iteration sync (lanes at mixed depths, restarting from the
        warp's pool) on the compiled plan: odd quotas, partial warps,
        truncated samples and streaming all match the scalar engine,
        reservoir included."""
        cg, order = plc_plan
        cases = [(n, dict(tasks_per_warp=17)) for n in (1, 31, 33, 41)] + [
            (100, dict(max_depth=2)),
            (100, dict(streaming=True)),
            (100, dict(streaming=True, streaming_threshold=8)),
            (100, dict(streaming=True, streaming_threshold=48)),
        ]
        n_collected = 0
        for n, overrides in cases:
            runs = []
            for backend in ("scalar", "fused"):
                config = replace(
                    EngineConfig.gpu_baseline(backend=backend),
                    **overrides,
                )
                engine = GSWORDEngine(estimator_cls(), config=config)
                runs.append(engine.run(cg, order, n, rng=5, collect_states=True))
            assert runs[1].backend == "fused"
            assert_identical(*runs)
            n_collected += len(runs[0].collected)
        assert n_collected > 0

    def test_custom_estimator_falls_back_to_scalar(self, plans):
        """Subclasses may override RSV hooks, so only exact types vectorize."""

        class TweakedWJ(WanderJoinEstimator):
            pass

        cg, order = plans[4]
        result = run_backend("fused", TweakedWJ(), cg, order, 32, 1)
        assert result.backend == "scalar"
        reference = run_backend("scalar", WanderJoinEstimator(), cg, order, 32, 1)
        assert_identical(result, reference)


class TestCPURunnerEquivalence:
    """Batch mode consumes the stream in a different order, so estimates
    are equal in distribution rather than bit-identical — but simulated
    cycles are draw-independent and must agree exactly."""

    @pytest.mark.parametrize("estimator_cls", [WanderJoinEstimator, AlleyEstimator])
    def test_cycles_identical(self, plans, estimator_cls):
        cg, order = plans[4]
        checkpoints = [64, 256]
        a = CPUSamplingRunner(estimator_cls(), backend="scalar").run(
            cg, order, 256, rng=11, checkpoint_at=checkpoints
        )
        b = CPUSamplingRunner(estimator_cls(), backend="fused").run(
            cg, order, 256, rng=11, checkpoint_at=checkpoints
        )
        assert a.total_cycles == b.total_cycles
        assert a.simulated_ms == b.simulated_ms
        assert a.n_samples == b.n_samples
        assert sorted(a.checkpoints) == sorted(b.checkpoints)
        # Same per-checkpoint simulated time (cycle model is shared).
        for n in checkpoints:
            assert a.checkpoints[n][1] == b.checkpoints[n][1]

    def test_cpu_runner_ignores_backend_env(self, monkeypatch, plc_plan):
        """The CPU baseline has one stream: selecting the warp engine's
        scalar backend through the environment leaves its estimates and
        cycles exactly as they are."""
        cg, order = plc_plan
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        base = CPUSamplingRunner(AlleyEstimator()).run(cg, order, 128, rng=11)
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        for _ in range(2):
            run = CPUSamplingRunner(AlleyEstimator()).run(
                cg, order, 128, rng=11
            )
            assert run.estimate == base.estimate
            assert run.n_valid == base.n_valid
            assert run.total_cycles == base.total_cycles

    def test_batch_mode_deterministic_per_seed(self, plans):
        cg, order = plans[4]
        runner = CPUSamplingRunner(AlleyEstimator(), backend="fused")
        a = runner.run(cg, order, 512, rng=42)
        b = runner.run(cg, order, 512, rng=42)
        assert a.estimate == b.estimate
        assert a.n_valid == b.n_valid

    def test_batch_mode_statistically_consistent(self, plans):
        """Both backends estimate the same quantity (loose 3-sigma band)."""
        cg, order = plans[4]
        a = CPUSamplingRunner(AlleyEstimator(), backend="scalar").run(
            cg, order, 2048, rng=5
        )
        b = CPUSamplingRunner(AlleyEstimator(), backend="fused").run(
            cg, order, 2048, rng=5
        )
        sigma = max(a.accumulator.std_error, b.accumulator.std_error, 1e-9)
        assert abs(a.estimate - b.estimate) <= 6 * sigma


class TestFaultEquivalence:
    """`repro.faults` plans replay identically on both backends: the same
    launches fail with the same kinds, and the committed estimates match."""

    def _session(self, backend, plan, cg, order, seed):
        engine = GSWORDEngine(
            AlleyEstimator(),
            EngineConfig.gsword(backend=backend),
            injector=FaultInjector(plan),
        )
        return engine.session(cg, order, rng=seed)

    @pytest.mark.parametrize("seed", [0, 9])
    def test_fault_plan_replays_identically(self, plans, seed):
        cg, order = plans[4]
        plan = FaultPlan(
            seed=123,
            rates={FaultKind.CORRUPTION: 0.4},
            overrides={2: (FaultKind.CORRUPTION,)},
        )
        outcomes = {}
        for backend in BACKENDS:
            session = self._session(backend, plan, cg, order, seed)
            log = []
            for _ in range(6):
                try:
                    session.run_round(40, retry=True)
                except DeviceFault:
                    pass
                report = session.last_round
                log.append((
                    report.result is not None, report.n_faults,
                    report.n_retries, report.fault_ms,
                ))
            result = session.result()
            outcomes[backend] = (log, result.estimate, result.n_samples)
        assert outcomes["scalar"] == outcomes["fused"]

    def test_clean_session_rounds_identical(self, plans):
        cg, order = plans[6]
        results = {}
        for backend in BACKENDS:
            engine = GSWORDEngine(
                WanderJoinEstimator(), EngineConfig.gsword(backend=backend)
            )
            session = engine.session(cg, order, rng=77)
            per_round = [
                session.run_round(32).result.estimate for _ in range(4)
            ]
            results[backend] = (per_round, session.result().estimate)
        assert results["scalar"] == results["fused"]


class TestBackendConfig:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ConfigError):
            EngineConfig(backend="cuda")
        with pytest.raises(ConfigError):
            CPUSamplingRunner(WanderJoinEstimator(), backend="cuda")

    def test_with_backend(self):
        config = EngineConfig.gsword().with_backend("scalar")
        assert config.backend == "scalar"

    def test_vectorized_backend_rejected(self, monkeypatch):
        """``vectorized`` is not a backend: asking for it, directly or
        through the environment, raises."""
        assert "vectorized" not in BACKENDS
        with pytest.raises(ConfigError):
            EngineConfig(backend="vectorized")
        with pytest.raises(ConfigError):
            CPUSamplingRunner(WanderJoinEstimator(), backend="vectorized")
        monkeypatch.setenv("REPRO_BACKEND", "vectorized")
        with pytest.raises(ConfigError):
            EngineConfig()

    def test_default_backend_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend() == "fused"
        monkeypatch.setenv("REPRO_BACKEND", "scalar")
        assert default_backend() == "scalar"
        assert EngineConfig.gsword().backend == "scalar"
        # Default configs are built at construction, not frozen at import.
        assert EngineConfig().backend == "scalar"
        assert GSWORDEngine(WanderJoinEstimator()).config.backend == "scalar"
        assert EstimationService().engine_config.backend == "scalar"
        pipeline = CoProcessingPipeline(AlleyEstimator())
        assert pipeline.config.engine_config.backend == "scalar"
        # The CPU baseline does not read the engine's env vars.
        assert CPUSamplingRunner(WanderJoinEstimator()).backend == "fused"
