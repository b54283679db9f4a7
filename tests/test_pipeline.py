"""Tests for the CPU-GPU co-processing pipeline (§5, Figure 9)."""

import pytest

from repro.bench.workloads import build_workload
from repro.core.config import EngineConfig
from repro.core.pipeline import CoProcessingPipeline, PipelineConfig
from repro.errors import ConfigError
from repro.estimators.alley import AlleyEstimator
from repro.metrics.qerror import q_error


@pytest.fixture(scope="module")
def wordnet_workload():
    return build_workload("wordnet", 16, "dense", 0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = PipelineConfig()
        assert cfg.n_batches == 6  # the paper's tuned default (§6.5)

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(n_batches=0)
        with pytest.raises(ConfigError):
            PipelineConfig(cpu_threads=0)
        with pytest.raises(ConfigError):
            PipelineConfig(trawls_per_batch=-1)


class TestPipelineRun:
    def test_underestimation_recovery(self, wordnet_workload):
        """Median over seeds: co-processing's final estimate improves on the
        pure sampling estimate in the underestimation regime (Fig. 15)."""
        import statistics

        w = wordnet_workload
        truth = w.ground_truth()
        q_final, q_sampling = [], []
        for seed in (1, 2, 5):
            pipe = CoProcessingPipeline(
                AlleyEstimator(),
                PipelineConfig(n_batches=6, trawls_per_batch=48),
            )
            result = pipe.run(w.cg, w.order, 3072, rng=seed)
            q_final.append(q_error(truth.count, result.final_estimate))
            q_sampling.append(q_error(truth.count, result.sampling_estimate))
        # Never worse than sampling alone, and strictly better somewhere.
        assert statistics.median(q_final) <= statistics.median(q_sampling)
        assert any(f < s for f, s in zip(q_final, q_sampling))

    def test_batch_accounting(self, wordnet_workload):
        w = wordnet_workload
        cfg = PipelineConfig(n_batches=4, trawls_per_batch=16)
        result = CoProcessingPipeline(AlleyEstimator(), cfg).run(
            w.cg, w.order, 2048, rng=3
        )
        assert len(result.batches) == 4
        assert sum(b.n_samples for b in result.batches) >= 2048
        for batch in result.batches:
            assert batch.gpu_ms > 0
            assert batch.n_trawls == 16
            assert (
                batch.n_trawls_completed + batch.n_trawls_discarded
                <= batch.n_trawls
            )

    def test_overlap_bounds_total_time(self, wordnet_workload):
        """Figure 16: co-processing latency ~ GPU time (CPU hides behind)."""
        w = wordnet_workload
        cfg = PipelineConfig(n_batches=4, trawls_per_batch=32)
        result = CoProcessingPipeline(AlleyEstimator(), cfg).run(
            w.cg, w.order, 2048, rng=3
        )
        assert result.total_pipeline_ms <= result.total_gpu_ms * 1.001
        # And the CPU never exceeds its per-batch budget.
        for batch in result.batches:
            assert batch.cpu_ms <= batch.gpu_ms * 1.001

    def test_more_threads_complete_more_trawls(self, wordnet_workload):
        """Figure 18: extra CPU threads complete more enumerations."""
        w = wordnet_workload
        few = CoProcessingPipeline(
            AlleyEstimator(),
            PipelineConfig(n_batches=4, trawls_per_batch=64, cpu_threads=1,
                           enum_nodes_per_ms=3000.0),
        ).run(w.cg, w.order, 2048, rng=9)
        many = CoProcessingPipeline(
            AlleyEstimator(),
            PipelineConfig(n_batches=4, trawls_per_batch=64, cpu_threads=12,
                           enum_nodes_per_ms=3000.0),
        ).run(w.cg, w.order, 2048, rng=9)
        assert many.n_enumerated >= few.n_enumerated

    def test_sampling_estimate_unaffected_by_trawling(self, wordnet_workload):
        """The GPU estimate stream is produced regardless of trawling."""
        w = wordnet_workload
        no_trawl = CoProcessingPipeline(
            AlleyEstimator(),
            PipelineConfig(n_batches=4, trawls_per_batch=0),
        ).run(w.cg, w.order, 2048, rng=7)
        assert no_trawl.n_trawl_samples == 0
        assert no_trawl.n_enumerated == 0
        # Falls back to the sampling estimate.
        assert no_trawl.final_estimate == no_trawl.sampling_estimate

    def test_too_few_samples_rejected(self, wordnet_workload):
        w = wordnet_workload
        pipe = CoProcessingPipeline(AlleyEstimator(), PipelineConfig(n_batches=8))
        with pytest.raises(ConfigError):
            pipe.run(w.cg, w.order, 4, rng=0)

    def test_tight_budget_discards_not_errors(self, wordnet_workload):
        """§5's cut-off rule: enumerations the GPU window cannot fit are
        discarded, not errors, and never enter the trawling estimate."""
        w = wordnet_workload
        cfg = PipelineConfig(
            n_batches=2, trawls_per_batch=8, enum_nodes_per_ms=200
        )
        result = CoProcessingPipeline(AlleyEstimator(), cfg).run(
            w.cg, w.order, 1024, rng=11
        )
        assert len(result.batches) == 2
        assert result.n_samples >= 1024
        assert result.truncated
        assert result.n_truncated > 0
        assert result.trawling_accumulator.n == sum(
            b.n_trawls - b.n_trawls_discarded for b in result.batches
        )
        assert result.final_estimate >= 0

    def test_engine_config_respected(self, wordnet_workload):
        w = wordnet_workload
        cfg = PipelineConfig(
            n_batches=2,
            trawls_per_batch=4,
            engine_config=EngineConfig.gpu_baseline(),
        )
        result = CoProcessingPipeline(AlleyEstimator(), cfg).run(
            w.cg, w.order, 1024, rng=2
        )
        # Baseline engine: no inheritance, so collected == requested exactly.
        assert result.n_samples == 1024
