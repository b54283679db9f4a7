"""Multi-process sharding equivalence (the PR-4 tentpole invariant).

Partitioning a round's warp batch across N shard worker processes is only
allowed to change *where* warps execute, never *what* they compute: for a
fixed seed every shard count must produce bit-identical HT estimates,
inheritance decisions, reservoir contents (``collected``), and simulated
milliseconds — because PR 3 bound one RNG substream per warp, a warp's
results depend only on its own seed, not on which process hosts it.

Also covered here: the shard crash (a killed worker fails the round with
a :class:`ShardFailure`, and the pool heals),
the shared-memory pack, the worker runtime, and the multi-device timing
model.
"""

import numpy as np
import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig, default_shards
from repro.core.engine import GSWORDEngine
from repro.core.fused import FusedRunner, wave_params_for
from repro.core.vectorized import WaveRunner, runner_for
from repro.errors import ConfigError, ShardFailure
from repro.estimators.alley import AlleyEstimator
from repro.estimators.fused import (
    fused_kernel_for,
    kernel_from_tables,
    kernel_tables,
)
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.graph.datasets import load_dataset
from repro.multidev import (
    SharedArrayPack,
    ShardedVectorExecutor,
    allreduce_ms,
    attach_pack,
    map_views,
    multidev_makespan_ms,
    shard_of,
)
from repro.multidev.worker import build_runtime
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order

_PROFILE_FIELDS = (
    "compute_cycles", "mem_cycles", "sync_cycles", "stall_long",
    "stall_wait", "mem_segments", "region_misses", "lane_busy",
    "lane_total", "iterations",
)

_ESTIMATORS = {"wanderjoin": WanderJoinEstimator, "alley": AlleyEstimator}


@pytest.fixture(scope="module")
def plan():
    graph = load_dataset("yeast")
    query = extract_query(graph, 6, rng=11, name="shard-q6")
    cg = build_candidate_graph(graph, query)
    assert not cg.is_empty()
    return cg, quicksi_order(query, graph)


def run_sharded(estimator_cls, cg, order, n, seed, n_shards, **kwargs):
    # Inheritance needs sample sync (Alg. 2), so iteration-sync runs use
    # the no-inheritance gpu_baseline preset.
    if kwargs.pop("sync_mode", "sample") == "iteration":
        preset = EngineConfig.gpu_baseline
    else:
        preset = EngineConfig.gsword
    config = preset(backend="fused", **kwargs).with_shards(n_shards)
    with GSWORDEngine(estimator_cls(), config=config) as engine:
        return engine.run(cg, order, n, rng=seed, collect_states=True)


def assert_identical(a, b):
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


# ---------------------------------------------------------------------------
# Bit-identity across shard counts
# ---------------------------------------------------------------------------
class TestShardingEquivalence:
    @pytest.mark.parametrize("estimator", sorted(_ESTIMATORS))
    @pytest.mark.parametrize("sync_mode", ["sample", "iteration"])
    @pytest.mark.parametrize("n_shards", [2, 4, 8])
    def test_bit_identical_across_shard_counts(
        self, plan, estimator, sync_mode, n_shards
    ):
        cg, order = plan
        cls = _ESTIMATORS[estimator]
        base = run_sharded(
            cls, cg, order, 640, 20240613, 1, sync_mode=sync_mode
        )
        sharded = run_sharded(
            cls, cg, order, 640, 20240613, n_shards, sync_mode=sync_mode
        )
        assert base.n_shards == 1
        assert sharded.n_shards == min(n_shards, sharded.n_warps)
        assert base.backend_label == sharded.backend_label == "fused"
        assert_identical(base, sharded)

    def test_session_rounds_and_rerun_paths_identical(self):
        """Round-capable sessions (quota corrections resumed from batch
        checkpoints that shard workers shipped back, cumulative folds)
        agree across shard counts, for both estimators.  The q5's warps
        lose lanes, so inheritance over-collects and rounds correct
        quotas."""
        graph = load_dataset("yeast")
        query = extract_query(graph, 5, rng=3, name="shard-q5")
        cg = build_candidate_graph(graph, query)
        order = quicksi_order(query, graph)
        for estimator_cls in _ESTIMATORS.values():
            outcomes = {}
            for n_shards in (1, 2, 4):
                config = EngineConfig.gsword(backend="fused").with_shards(
                    n_shards
                )
                with GSWORDEngine(estimator_cls(), config=config) as engine:
                    session = engine.session(cg, order, rng=77)
                    rounds = [session.run_round(300).result for _ in range(3)]
                    result = session.result()
                    outcomes[n_shards] = (
                        [r.estimate for r in rounds], result.estimate,
                        result.n_samples, result.simulated_ms(),
                    )
                    assert sum(r.n_rerun_warps for r in rounds) > 0
            assert outcomes[1] == outcomes[2] == outcomes[4]

    def test_single_warp_never_spreads(self, plan):
        """A round smaller than one warp uses one shard (no empty workers
        in the makespan) and still matches the unsharded run."""
        cg, order = plan
        base = run_sharded(AlleyEstimator, cg, order, 8, 3, 1)
        sharded = run_sharded(AlleyEstimator, cg, order, 8, 3, 8)
        assert sharded.n_shards == 1
        assert_identical(base, sharded)

    def test_shard_timing_fields(self, plan):
        cg, order = plan
        result = run_sharded(WanderJoinEstimator, cg, order, 640, 5, 4)
        assert result.n_shards > 1
        assert len(result.shard_ms) == result.n_shards
        assert all(ms > 0.0 for ms in result.shard_ms)
        # Makespan model: slowest shard plus the all-reduce, and never
        # faster than total-work / n_shards would suggest is impossible —
        # but always at least the longest shard.
        assert result.multidev_ms() == multidev_makespan_ms(
            result.shard_ms, result.n_shards
        )
        assert result.multidev_ms() > max(result.shard_ms)
        # simulated_ms (single-device accounting) is unchanged by sharding.
        base = run_sharded(WanderJoinEstimator, cg, order, 640, 5, 1)
        assert result.simulated_ms() == base.simulated_ms()
        assert base.multidev_ms() == base.simulated_ms()


# ---------------------------------------------------------------------------
# Shard crash
# ---------------------------------------------------------------------------
class TestShardCrash:
    def test_crash_fails_the_round_and_pool_heals(self, plan):
        cg, order = plan
        config = EngineConfig.gsword(backend="fused").with_shards(2)
        with GSWORDEngine(AlleyEstimator(), config=config) as engine:
            session = engine.session(cg, order, rng=9)
            first = session.run_round(256).result  # 2 warps: really sharded
            assert first.estimate >= 0.0
            engine._shard_executor().inject_crash(1)
            with pytest.raises(ShardFailure) as info:
                session.run_round(256)
            assert info.value.shard == 1
            report = session.last_round
            assert report.error is info.value and report.result is None
            # The dead worker never replied: nothing to capture, and the
            # round is billed one launch overhead.
            assert report.launch is None
            assert report.fault_ms == engine.spec.launch_overhead_ms
            assert session.n_rounds == 1
            healed = session.run_round(256).result  # pool respawned the worker
            assert healed.estimate >= 0.0


# ---------------------------------------------------------------------------
# Component units: shm pack, worker runtime, executor, timing model
# ---------------------------------------------------------------------------
class TestSharedArrayPack:
    def test_roundtrip_and_readonly_views(self):
        arrays = {
            "a": np.arange(17, dtype=np.int64),
            "b": np.linspace(0.0, 1.0, 5, dtype=np.float64),
            "c": np.zeros((3, 4), dtype=np.int32),
        }
        pack = SharedArrayPack(arrays)
        try:
            views = pack.views()
            for name, arr in arrays.items():
                np.testing.assert_array_equal(views[name], arr)
                assert not views[name].flags.writeable
            shm, attached = attach_pack(pack.manifest)
            try:
                for name, arr in arrays.items():
                    np.testing.assert_array_equal(attached[name], arr)
                    assert not attached[name].flags.writeable
            finally:
                shm.close()
        finally:
            pack.close()
        pack.close()  # idempotent

    def test_repack_reuses_the_segment(self):
        pack = SharedArrayPack({"a": np.arange(4, dtype=np.int64)}, 4096)
        try:
            name = pack.manifest[0]
            shm, _ = attach_pack(pack.manifest)
            try:
                new = {
                    "b": np.linspace(0.0, 1.0, 9),
                    "c": np.arange(6, dtype=np.int32).reshape(2, 3),
                }
                pack.repack(new)
                assert pack.manifest[0] == name
                # A worker keeps its attachment and maps the new layout.
                views = map_views(shm.buf, pack.manifest[1])
                for key, arr in new.items():
                    np.testing.assert_array_equal(views[key], arr)
                del views
                with pytest.raises(ValueError):
                    pack.repack({"big": np.zeros(1024, dtype=np.int64)})
            finally:
                shm.close()
        finally:
            pack.close()

    def test_empty_pack(self):
        pack = SharedArrayPack({})
        try:
            assert pack.views() == {}
            assert pack.nbytes >= 1
        finally:
            pack.close()


class TestWorkerRuntime:
    def test_in_process_runtime_matches_wave_runner(self, plan):
        """The exact path a shard worker runs (tables → shm → rebuilt
        kernel → the sync mode's runner) reproduces the in-process
        runner's output, for the iteration-sync WaveRunner and the
        sample-sync FusedRunner alike."""
        cg, order = plan
        from repro.utils.rng import spawn_generator_states

        kernel = fused_kernel_for(WanderJoinEstimator())(cg, order)
        meta, arrays = kernel_tables(kernel)
        states = spawn_generator_states(123, 4)
        quotas = [32, 32, 32, 17]
        for preset, runner_cls in (
            (EngineConfig.gpu_baseline, WaveRunner),
            (EngineConfig.gsword, FusedRunner),
        ):
            engine = GSWORDEngine(WanderJoinEstimator(), preset())
            params = wave_params_for(engine, order, collect_states=True)
            runner = runner_for(kernel, params)
            assert type(runner) is runner_cls
            expected = runner.run_warps(states, quotas)

            pack = SharedArrayPack(arrays)
            try:
                shm, views = attach_pack(pack.manifest)
                try:
                    runtime = build_runtime(meta, views, params)
                    assert type(runtime.runner) is runner_cls
                    got = runtime.run(states, quotas)
                finally:
                    shm.close()
            finally:
                pack.close()
            assert got == expected

    def test_kernel_tables_roundtrip(self, plan):
        cg, order = plan
        kernel = fused_kernel_for(AlleyEstimator())(cg, order)
        meta, arrays = kernel_tables(kernel)
        rebuilt = kernel_from_tables(dict(meta), arrays)
        assert type(rebuilt) is type(kernel)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(getattr(rebuilt, name), arr)


class TestExecutor:
    def test_requires_at_least_one_worker(self):
        with pytest.raises(ConfigError):
            ShardedVectorExecutor(0)

    def test_closed_executor_rejects_rounds(self, plan):
        executor = ShardedVectorExecutor(2)
        executor.close()
        executor.close()  # idempotent
        with pytest.raises(ConfigError):
            executor.run_round(None, None, [], [])

    def test_shard_of_round_robin(self):
        assert [shard_of(w, 3) for w in range(7)] == [0, 1, 2, 0, 1, 2, 0]


class TestTimingModel:
    def test_allreduce_grows_logarithmically(self):
        assert allreduce_ms(1) == 0.0
        assert allreduce_ms(2) > 0.0
        assert allreduce_ms(4) == pytest.approx(2 * allreduce_ms(2))
        assert allreduce_ms(8) == pytest.approx(3 * allreduce_ms(2))
        assert allreduce_ms(5) == allreduce_ms(8)  # ceil(log2)

    def test_makespan_is_max_plus_allreduce(self):
        shard_ms = [1.0, 3.0, 2.0]
        assert multidev_makespan_ms(shard_ms, 3) == pytest.approx(
            3.0 + allreduce_ms(3)
        )


class TestShardConfig:
    def test_n_shards_validation(self):
        with pytest.raises(ConfigError):
            EngineConfig.gsword(n_shards=0)
        with pytest.raises(ConfigError):
            EngineConfig.gsword(backend="scalar", n_shards=2)
        assert EngineConfig.gsword(backend="scalar", n_shards=1).n_shards == 1

    def test_with_shards(self):
        config = EngineConfig.gsword(backend="fused").with_shards(4)
        assert config.n_shards == 4
        assert config.with_shards(1).n_shards == 1

    def test_default_shards_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        assert default_shards() == 1
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert default_shards() == 4
        assert EngineConfig.gsword(backend="fused").n_shards == 4
        monkeypatch.setenv("REPRO_SHARDS", "zero")
        with pytest.raises(ConfigError):
            default_shards()
