"""Tests for the GSWORDEngine: configs, sync modes, accounting, and the
qualitative performance shapes the paper's Figures 5/12 rely on."""

from dataclasses import replace

import pytest

from repro.bench.workloads import build_workload
from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig, SyncMode
from repro.core.engine import GSWORDEngine
from repro.enumeration.backtracking import count_embeddings
from repro.errors import ConfigError
from repro.estimators.alley import AlleyEstimator
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.gpu.costmodel import GPUSpec
from repro.gpu.profiler import KernelProfile
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order


@pytest.fixture(scope="module")
def small_workload():
    graph = load_dataset("yeast")
    query = extract_query(graph, 5, rng=8, query_type="dense")
    cg = build_candidate_graph(graph, query)
    order = quicksi_order(query, graph)
    truth = count_embeddings(cg, order).count
    return cg, order, truth


@pytest.fixture(scope="module")
def heavy_workload():
    w = build_workload("eu2005", 16, "dense", 0)
    return w.cg, w.order


class TestConfig:
    def test_presets(self):
        assert EngineConfig.gpu_baseline().sync_mode is SyncMode.ITERATION
        assert EngineConfig.gsword().inheritance
        assert EngineConfig.gsword().streaming
        o1 = EngineConfig.inheritance_only()
        assert o1.inheritance and not o1.streaming
        ss = EngineConfig.sample_sync_baseline()
        assert ss.sync_mode is SyncMode.SAMPLE and not ss.inheritance

    @pytest.mark.parametrize(
        "preset, name, value",
        [
            ("gpu_baseline", "sync_mode", SyncMode.SAMPLE),
            ("sample_sync_baseline", "streaming", True),
            ("inheritance_only", "streaming", True),
            ("gsword", "streaming", False),
        ],
    )
    def test_preset_field_overridable(self, preset, name, value):
        cfg = getattr(EngineConfig, preset)(**{name: value})
        assert getattr(cfg, name) == value

    def test_preset_override_still_validated(self):
        with pytest.raises(ConfigError):
            EngineConfig.gpu_baseline(inheritance=True)

    def test_inheritance_requires_sample_sync(self):
        with pytest.raises(ConfigError):
            EngineConfig(sync_mode=SyncMode.ITERATION, inheritance=True)

    def test_string_sync_mode_coerced(self):
        cfg = EngineConfig(sync_mode="iteration", inheritance=False)
        assert cfg.sync_mode is SyncMode.ITERATION

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            EngineConfig(tasks_per_warp=0)
        with pytest.raises(ConfigError):
            EngineConfig(max_depth=0)

    def test_with_max_depth(self):
        cfg = EngineConfig.gsword().with_max_depth(3)
        assert cfg.max_depth == 3 and cfg.inheritance


class TestEngineBasics:
    def test_zero_samples_rejected(self, small_workload):
        cg, order, _ = small_workload
        engine = GSWORDEngine(WanderJoinEstimator())
        with pytest.raises(ConfigError):
            engine.run(cg, order, 0)

    def test_deterministic_given_seed(self, small_workload):
        cg, order, _ = small_workload
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
        a = engine.run(cg, order, 512, rng=42)
        b = engine.run(cg, order, 512, rng=42)
        assert a.estimate == b.estimate
        assert a.n_samples == b.n_samples
        assert a.profile.total_cycles == b.profile.total_cycles

    def test_collected_at_least_requested(self, small_workload):
        cg, order, _ = small_workload
        engine = GSWORDEngine(WanderJoinEstimator(), EngineConfig.gsword())
        result = engine.run(cg, order, 1000, rng=0)
        assert result.n_samples >= 1000
        assert result.n_root_samples <= result.n_samples

    def test_no_inheritance_roots_equal_collected(self, small_workload):
        cg, order, _ = small_workload
        for cfg in (EngineConfig.gpu_baseline(), EngineConfig.sample_sync_baseline()):
            result = GSWORDEngine(WanderJoinEstimator(), cfg).run(
                cg, order, 1000, rng=0
            )
            assert result.n_samples == result.n_root_samples == 1000

    def test_estimates_converge_all_modes(self, small_workload):
        cg, order, truth = small_workload
        for cfg in (
            EngineConfig.gpu_baseline(),
            EngineConfig.sample_sync_baseline(),
            EngineConfig.inheritance_only(),
            EngineConfig.gsword(),
        ):
            for est in (WanderJoinEstimator(), AlleyEstimator()):
                result = GSWORDEngine(est, cfg).run(cg, order, 8192, rng=9)
                assert result.estimate == pytest.approx(truth, rel=0.5), (
                    cfg,
                    est.name,
                )

    def test_max_depth_collects_partial_states(self, small_workload):
        cg, order, _ = small_workload
        cfg = EngineConfig.gsword(max_depth=3)
        engine = GSWORDEngine(AlleyEstimator(), cfg)
        result = engine.run(cg, order, 512, rng=1, collect_states=True)
        assert result.collected, "valid partial samples should be collected"
        for instance, prob in result.collected:
            assert len(instance) == 3
            assert 0 < prob
            assert len(set(instance)) == 3  # injective prefix

    def test_simulated_ms_positive_and_scales(self, small_workload):
        cg, order, _ = small_workload
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
        result = engine.run(cg, order, 2048, rng=2)
        small = result.simulated_ms_at(10**4)
        large = result.simulated_ms_at(10**6)
        assert 0 < small < large
        with pytest.raises(ConfigError):
            result.simulated_ms_at(0)

    def test_samples_per_second_positive(self, small_workload):
        cg, order, _ = small_workload
        result = GSWORDEngine(WanderJoinEstimator()).run(cg, order, 512, rng=0)
        assert result.samples_per_second() > 0

    def test_samples_per_second_rejects_zero_duration(self, small_workload):
        cg, order, _ = small_workload
        result = GSWORDEngine(WanderJoinEstimator()).run(cg, order, 512, rng=0)
        broken = GPUSpec(launch_overhead_ms=0.0)
        zeroed = replace(result, spec=broken, profile=KernelProfile(),
                         longest_warp_cycles=0.0)
        with pytest.raises(ConfigError):
            zeroed.samples_per_second()


class TestEngineSession:
    """Round-capable incremental execution (the serving layer's entry)."""

    @pytest.fixture(scope="class")
    def noisy_workload(self):
        """A workload whose HT values actually vary (invalid samples exist)
        — the zero-variance ``small_workload`` can't exercise CI shrinkage
        or distinguish RNG streams."""
        graph = load_dataset("yeast")
        query = extract_query(graph, 8, rng=1, query_type="dense")
        cg = build_candidate_graph(graph, query)
        order = quicksi_order(query, graph)
        return cg, order

    def test_rounds_accumulate(self, small_workload):
        cg, order, _ = small_workload
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
        session = engine.session(cg, order, rng=5)
        r1 = session.run_round(512).result
        r2 = session.run_round(512).result
        total = session.result()
        assert session.n_rounds == 2
        assert total.n_samples == r1.n_samples + r2.n_samples
        assert total.n_warps == r1.n_warps + r2.n_warps
        assert total.profile.total_cycles == pytest.approx(
            r1.profile.total_cycles + r2.profile.total_cycles
        )
        assert total.accumulator.n == r1.accumulator.n + r2.accumulator.n

    def test_session_deterministic_given_seed(self, small_workload):
        cg, order, _ = small_workload
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
        a = engine.session(cg, order, rng=11)
        b = engine.session(cg, order, rng=11)
        for _ in range(3):
            a.run_round(256)
            b.run_round(256)
        assert a.result().estimate == b.result().estimate
        assert a.result().profile.total_cycles == b.result().profile.total_cycles

    def test_rounds_use_distinct_streams(self, noisy_workload):
        """Consecutive rounds must not replay the same RNG stream."""
        cg, order = noisy_workload
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
        session = engine.session(cg, order, rng=3)
        r1 = session.run_round(1024).result
        r2 = session.run_round(1024).result
        assert r1.accumulator._m2 != r2.accumulator._m2

    def test_ci_tightens_over_rounds(self, noisy_workload):
        cg, order = noisy_workload
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
        session = engine.session(cg, order, rng=4)
        session.run_round(512)
        early = session.result()
        early_se = early.accumulator.std_error / max(early.estimate, 1e-12)
        for _ in range(6):
            session.run_round(2048)
        late = session.result()
        late_se = late.accumulator.std_error / max(late.estimate, 1e-12)
        assert late_se < early_se

    def test_result_before_rounds_raises(self, small_workload):
        cg, order, _ = small_workload
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
        with pytest.raises(ConfigError):
            engine.session(cg, order, rng=0).result()

    def test_matches_monolithic_run_estimate_scale(self, small_workload):
        """A sessioned run converges to the same truth as a monolithic run."""
        cg, order, truth = small_workload
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
        session = engine.session(cg, order, rng=9)
        for _ in range(8):
            session.run_round(1024)
        assert session.result().estimate == pytest.approx(truth, rel=0.5)


class TestPerformanceShapes:
    """The qualitative claims of §3.2 and §6.3 on a refine-heavy workload."""

    @pytest.fixture(scope="class")
    def timings(self, heavy_workload):
        cg, order = heavy_workload
        out = {}
        for label, cfg, est in [
            ("WJ-O0", EngineConfig.gpu_baseline(), WanderJoinEstimator()),
            ("WJ-ss", EngineConfig.sample_sync_baseline(), WanderJoinEstimator()),
            ("WJ-O1", EngineConfig.inheritance_only(), WanderJoinEstimator()),
            ("WJ-O2", EngineConfig.gsword(), WanderJoinEstimator()),
            ("AL-O0", EngineConfig.gpu_baseline(), AlleyEstimator()),
            ("AL-ss", EngineConfig.sample_sync_baseline(), AlleyEstimator()),
            ("AL-O1", EngineConfig.inheritance_only(), AlleyEstimator()),
            ("AL-O2", EngineConfig.gsword(), AlleyEstimator()),
        ]:
            result = GSWORDEngine(est, cfg).run(cg, order, 2048, rng=7)
            out[label] = (result.simulated_ms_at(10**6), result)
        return out

    def test_iteration_sync_slower_than_sample_sync(self, timings):
        """§3.2: iteration synchronisation loses despite better utilisation."""
        for prefix in ("WJ", "AL"):
            assert timings[f"{prefix}-O0"][0] > timings[f"{prefix}-ss"][0]

    def test_iteration_sync_has_more_stall_long(self, timings):
        """Figure 5: StallLong higher for iteration sync, StallWait lower."""
        for prefix in ("WJ", "AL"):
            it = timings[f"{prefix}-O0"][1].profile.stall_summary()
            ss = timings[f"{prefix}-ss"][1].profile.stall_summary()
            assert it["stall_long_per_iter"] > ss["stall_long_per_iter"]
            assert it["stall_wait_per_iter"] < ss["stall_wait_per_iter"]

    def test_inheritance_speeds_up_both(self, timings):
        """Figure 12, O0 -> O1."""
        assert timings["WJ-O1"][0] < timings["WJ-O0"][0]
        assert timings["AL-O1"][0] < timings["AL-O0"][0]

    def test_streaming_helps_alley_not_wj(self, timings):
        """Figure 12, O1 -> O2: AL improves; WJ unchanged (no refine)."""
        assert timings["AL-O2"][0] < timings["AL-O1"][0]
        assert timings["WJ-O2"][0] == pytest.approx(timings["WJ-O1"][0], rel=1e-6)

    def test_inheritance_improves_efficiency(self, timings):
        ss = timings["WJ-ss"][1].profile.warp.warp_efficiency
        o1 = timings["WJ-O1"][1].profile.warp.warp_efficiency
        assert o1 > ss

    def test_alley_slower_than_wj_on_gpu_baseline(self, timings):
        """Table 2: the refine stage makes GPU-AL much slower than GPU-WJ."""
        assert timings["AL-O0"][0] > 2 * timings["WJ-O0"][0]
