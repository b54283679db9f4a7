"""Fused-backend edge cases: plan compilation, the fallback ladder,
runner selection, scratch-arena reuse, and the row-wise union counter.

The broad bit-identity matrix lives in ``test_backend_equivalence.py``
(scalar vs fused across every preset, so both sync modes).  This module
pins the corners that matrix does not reach: single-level plans,
estimators with no fused kernel, fallbacks and their ``backend_label``,
arena allocation plateaus, the union counter and the key search against
their reference implementations, and scalar ≡ fused on a plan cut at each
level shape the kernels special-case.
"""

import json

import numpy as np
import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig, SyncMode
from repro.core.engine import GPURunResult, GSWORDEngine
from repro.core.fused import (
    Checkpoint,
    FusedArena,
    FusedRunner,
    WaveParams,
    _scan_union_rows,
    _touch_union_rows,
    resume_warp,
    wave_params_for,
)
from repro.core.vectorized import WaveRunner, runner_for
from repro.estimators.alley import AlleyEstimator
from repro.estimators.fused import (
    KEY_BITS,
    FusedAlleyKernel,
    FusedWanderJoinKernel,
    fused_kernel_for,
)
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.gpu.costmodel import DEFAULT_GPU
from repro.gpu.memory import (
    ARRAY_GLOBAL_CANDIDATES,
    ARRAY_LOCAL_CANDIDATES,
    batched_union_counts,
)
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import resolve_estimator
from repro.serve.service import EstimationService, ServiceConfig
from repro.utils.rng import spawn_generator_states

_PROFILE_FIELDS = (
    "compute_cycles", "mem_cycles", "sync_cycles", "stall_long",
    "stall_wait", "mem_segments", "region_misses", "lane_busy",
    "lane_total", "iterations",
)


@pytest.fixture(scope="module")
def plan6():
    graph = load_dataset("yeast")
    query = extract_query(graph, 6, rng=11, name="fused-q6")
    cg = build_candidate_graph(graph, query)
    assert not cg.is_empty()
    return cg, quicksi_order(query, graph)


def _run(estimator, config, cg, order, n=192, seed=7):
    engine = GSWORDEngine(estimator, config=config)
    return engine.run(cg, order, n, rng=seed, collect_states=True)


def assert_identical(a, b):
    assert a.estimate == b.estimate
    assert a.n_samples == b.n_samples
    assert a.n_valid == b.n_valid
    assert a.simulated_ms() == b.simulated_ms()
    for field in _PROFILE_FIELDS:
        assert getattr(a.profile.warp, field) == getattr(b.profile.warp, field)
    assert a.collected == b.collected


class TestPlanEdges:
    def test_single_level_plan(self, plan6):
        """max_depth=1 compiles a one-level (global root) plan and stays
        bit-identical to the scalar path."""
        cg, order = plan6
        for est_cls in (WanderJoinEstimator, AlleyEstimator):
            fus = _run(
                est_cls(),
                EngineConfig.gsword(backend="fused", max_depth=1),
                cg, order,
            )
            sca = _run(
                est_cls(),
                EngineConfig.gsword(backend="scalar", max_depth=1),
                cg, order,
            )
            assert fus.backend == "fused"
            assert_identical(fus, sca)

    def test_plan_cached_per_target(self, plan6):
        cg, order = plan6
        kernel = FusedWanderJoinKernel(cg, order)
        assert kernel.compile_plan(4) is kernel.compile_plan(4)
        assert kernel.compile_plan(4) is not kernel.compile_plan(3)
        assert len(kernel.compile_plan(3).levels) == 3

    def test_plan_ir_json_serializable(self, plan6):
        cg, order = plan6
        for kernel_cls in (FusedWanderJoinKernel, FusedAlleyKernel):
            plan = kernel_cls(cg, order).compile_plan(len(order))
            ir = plan.to_ir()
            roundtrip = json.loads(json.dumps(ir))
            assert roundtrip["kernel"] == kernel_cls.__name__
            assert roundtrip["target"] == len(order)
            assert len(roundtrip["levels"]) == len(order)
            assert roundtrip["levels"][0]["kind"] == "global"
            for level in roundtrip["levels"]:
                if level["kind"] == "backward":
                    assert len(level["pairs"]) == level["n_backward"]


class TestFallbackLadder:
    def test_custom_estimator_falls_back_to_scalar(self, plan6):
        """Subclasses may override any RSV hook, so no compiled kernel
        applies: the run lands on the scalar rung."""
        cg, order = plan6

        class TweakedWJ(WanderJoinEstimator):
            pass

        assert fused_kernel_for(TweakedWJ()) is None
        res = _run(
            TweakedWJ(), EngineConfig.gsword(backend="fused"), cg, order
        )
        ref = _run(
            WanderJoinEstimator(),
            EngineConfig.gsword(backend="scalar"),
            cg, order,
        )
        assert res.backend == "scalar"
        assert res.backend_label == "fused_fallback_scalar"
        assert_identical(res, ref)

    def test_iteration_sync_runs_fused(self, plan6):
        """gpu_baseline (O0) runs iteration sync on the compiled plan: no
        fallback, and the label says so."""
        cg, order = plan6
        res = _run(
            AlleyEstimator(),
            EngineConfig.gpu_baseline(backend="fused"),
            cg, order,
        )
        ref = _run(
            AlleyEstimator(),
            EngineConfig.gpu_baseline(backend="scalar"),
            cg, order,
        )
        assert res.backend == "fused"
        assert res.backend_label == "fused"
        assert_identical(res, ref)

    @pytest.mark.parametrize(
        "preset", [EngineConfig.gsword, EngineConfig.gpu_baseline]
    )
    def test_plan_beyond_32_bit_draws_falls_back_to_scalar(
        self, plan6, preset, monkeypatch
    ):
        """numpy draws bounds above 2**32 on a 64-bit path the warp
        streams do not replay: a plan that could sample from such a list
        runs on the scalar rung, labelled as a fallback."""
        import dataclasses

        from repro.estimators.fused import FusedKernel
        from repro.utils.rng import MAX_U32_BOUND

        cg, order = plan6
        ref = _run(AlleyEstimator(), preset(backend="scalar"), cg, order)
        compile_plan = FusedKernel.compile_plan

        def huge(self, target):
            plan = compile_plan(self, target)
            return dataclasses.replace(
                plan, max_candidates=MAX_U32_BOUND + 1
            )

        monkeypatch.setattr(FusedKernel, "compile_plan", huge)
        res = _run(AlleyEstimator(), preset(backend="fused"), cg, order)
        assert res.backend_label == "fused_fallback_scalar"
        assert_identical(res, ref)

    @pytest.mark.parametrize(
        "preset", [EngineConfig.gsword, EngineConfig.gpu_baseline]
    )
    def test_keys_beyond_63_bits_fall_back_to_scalar(
        self, plan6, preset, monkeypatch
    ):
        """The membership keys ``(slot << shift) | vertex`` must fit an
        int64: a kernel whose vertex ids would push them past 63 bits runs
        on the scalar rung, labelled as a fallback."""
        cg, order = plan6
        ref = _run(AlleyEstimator(), preset(backend="scalar"), cg, order)
        fused_kernel = GSWORDEngine._fused_kernel
        seen = []

        def wide(self, kernel_cls, cg, order):
            kernel = fused_kernel(self, kernel_cls, cg, order)
            kernel.shift = KEY_BITS  # as if the graph had 2**63 vertices
            seen.append(kernel.key_bits)
            return kernel

        monkeypatch.setattr(GSWORDEngine, "_fused_kernel", wide)
        res = _run(AlleyEstimator(), preset(backend="fused"), cg, order)
        assert seen and min(seen) > KEY_BITS
        assert res.backend_label == "fused_fallback_scalar"
        assert_identical(res, ref)

    @pytest.mark.parametrize("kernel_cls", [FusedAlleyKernel, FusedWanderJoinKernel])
    def test_plan_max_candidates_bounds_every_draw(
        self, plan6, kernel_cls, monkeypatch
    ):
        """The per-plan guard is sound: no lane ever draws from more
        candidates than the plan's ``max_candidates``."""
        from repro.utils.rng import WarpStreams

        cg, order = plan6
        kernel = kernel_cls(cg, order)
        plan = kernel.compile_plan(len(order))
        seen = [0]
        draw = WarpStreams.draw

        def record(self, rows, bounds):
            seen[0] = max(seen[0], int(bounds.max()))
            return draw(self, rows, bounds)

        monkeypatch.setattr(WarpStreams, "draw", record)
        runner = runner_for(kernel, _params(len(order), SyncMode.SAMPLE))
        runner.run_warps(spawn_generator_states(5, 4), [64] * 4)
        assert 0 < seen[0] <= plan.max_candidates

    def test_runner_for_kernel_matches_sync_mode(self, plan6):
        cg, order = plan6
        kernel = FusedAlleyKernel(cg, order)
        sample = _params(len(order), SyncMode.SAMPLE)
        assert isinstance(runner_for(kernel, sample), FusedRunner)
        iteration = _params(len(order), SyncMode.ITERATION)
        assert isinstance(runner_for(kernel, iteration), WaveRunner)
        with pytest.raises(ValueError):
            FusedRunner(kernel, iteration)
        with pytest.raises(ValueError):
            WaveRunner(kernel, sample)

    def test_backend_label_spelling(self):
        assert _result("fused").backend_label == "fused"
        assert _result("fused", "fused").backend_label == "fused"
        assert (
            _result("scalar", "fused").backend_label
            == "fused_fallback_scalar"
        )

    def test_rounds_by_backend_metric_counts_labels(self):
        metrics = ServiceMetrics()
        metrics.record_backends(
            ["fused", "fused", "fused_fallback_scalar", "scalar"]
        )
        expected = {"fused": 2, "fused_fallback_scalar": 1, "scalar": 1}
        families = {f.name: f for f in metrics.registry.families()}
        family = families["rounds_by_backend_total"]
        assert family.label_names == ("backend",)
        assert {
            key[0]: child.value for key, child in family.children()
        } == expected
        assert metrics.snapshot()["rounds_by_backend"] == expected


def _result(backend, requested=""):
    from repro.estimators.ht import HTAccumulator
    from repro.gpu.profiler import KernelProfile

    return GPURunResult(
        estimate=0.0, n_samples=0, n_root_samples=0, n_valid=0,
        accumulator=HTAccumulator(), profile=KernelProfile(), n_warps=0,
        tasks_per_warp=1, longest_warp_cycles=0.0, spec=DEFAULT_GPU,
        backend=backend, requested_backend=requested,
    )


def _params(target, sync_mode):
    return WaveParams(
        spec=DEFAULT_GPU,
        sync_mode=sync_mode,
        inheritance=sync_mode is SyncMode.SAMPLE,
        streaming=False,
        streaming_threshold=32,
        target=target,
        n_q=target,
        warp_size=DEFAULT_GPU.warp_size,
        has_refine=True,
        collect_states=False,
    )


class TestArenaReuse:
    def test_engine_arena_is_engine_lifetime(self, plan6):
        cg, order = plan6
        engine = GSWORDEngine(
            AlleyEstimator(), config=EngineConfig.gsword(backend="fused")
        )
        arena = engine._fused_arena()
        assert arena is engine._fused_arena()
        engine.run(cg, order, 96, rng=1)
        assert arena.n_allocations > 0
        assert arena is engine._fused_arena()

    def test_service_engines_share_one_arena(self):
        """The service makes one engine per estimator instance (one per
        request that names its estimator), and they all draw scratch from
        the service's one arena."""
        with EstimationService(ServiceConfig()) as service:
            engines = [
                service._engine_for(resolve_estimator(name))
                for name in ("alley", "alley", "wanderjoin")
            ]
        assert len({id(e) for e in engines}) == 3
        assert all(e._fused_arena() is service._arena for e in engines)

    def test_allocations_plateau_across_rounds(self, plan6):
        """A wave as large as any before allocates nothing — including
        after rounds with a different warp count, in both sync modes, and
        including the deferred charge log's buffers."""
        cg, order = plan6
        for config in (EngineConfig.gsword, EngineConfig.gpu_baseline):
            engine = GSWORDEngine(
                WanderJoinEstimator(), config=config(backend="fused")
            )
            engine.run(cg, order, 512, rng=1)
            arena = engine._fused_arena()
            assert {"log_cols", "log_present", "log_isync"} <= set(arena._bufs)
            # The warp streams' prefetched half-words and positions.
            assert {"rng_halves", "rng_rows"} <= set(arena._bufs)
            halves = arena._bufs["rng_halves"]
            high_water = arena.n_allocations
            engine.run(cg, order, 96, rng=2)   # fewer warps: reuse slices
            engine.run(cg, order, 512, rng=3)  # back to the high-water mark
            assert arena.n_allocations == high_water
            assert arena._bufs["rng_halves"] is halves

    def test_arena_grows_then_reuses(self):
        arena = FusedArena()
        a = arena.take("buf", (4, 8), np.int64)
        assert arena.n_allocations == 1
        b = arena.take("buf", (2, 8), np.int64)
        assert arena.n_allocations == 1  # smaller: sliced from the same buffer
        assert b.base is a.base or b.base is a
        arena.take("buf", (8, 8), np.int64)
        assert arena.n_allocations == 2  # grew: one real allocation
        arena.take("buf", (8, 8), np.float64)
        assert arena.n_allocations == 3  # dtype change reallocates
        z = arena.zeros("buf", (8, 8), np.float64)
        assert arena.n_allocations == 3
        assert not z.any()


class TestKernelsAgainstReference:
    def test_key_search_matches_list_membership(self):
        """One flat search over the packed ``(slot << shift) | vertex``
        keys is exact membership ``v in local[lo:hi]`` of the slot's list:
        empty lists, slot -1, a list's first and last entry, and values
        absent from it."""
        graph = load_dataset("yeast")
        query = extract_query(graph, 8, rng=1, name="fused-q8")
        cg = build_candidate_graph(graph, query)
        order = quicksi_order(query, graph)
        kernel = FusedAlleyKernel(cg, order)
        off, local = kernel.local_off, kernel.local
        n_v = cg.graph.n_vertices
        assert kernel.shift == (n_v - 1).bit_length()
        lens = np.diff(off)
        assert (lens == 0).any() and (lens > 1).any()
        rng = np.random.default_rng(42)
        slots, vals = [], []
        for slot in range(-1, len(lens)):
            lst = local[off[slot]:off[slot + 1]] if slot >= 0 else local
            probe = [0, n_v - 1, *rng.integers(0, n_v, size=6).tolist()]
            if len(lst):
                probe += [lst[0], lst[-1]]
                probe += [max(lst[0] - 1, 0), min(lst[-1] + 1, n_v - 1)]
            slots += [slot] * len(probe)
            vals += probe
        slots, vals = np.asarray(slots), np.asarray(vals)
        expected = [
            s >= 0 and v in local[off[s]:off[s + 1]]
            for s, v in zip(slots.tolist(), vals.tolist())
        ]
        assert any(expected) and not all(expected)
        np.testing.assert_array_equal(kernel._member(slots, vals), expected)

    @pytest.mark.parametrize("dataset", ["yeast", "hprd"])
    def test_every_plan_audits_and_keys_are_sorted(self, dataset):
        """The key search needs the keys sorted, which holds because every
        local list is strictly sorted: each yeast/hprd plan passes
        ``CandidateGraph.validate`` and packs a non-decreasing key array,
        in both candidate modes."""
        graph = load_dataset(dataset)
        n_plans = 0
        for k in (4, 8):
            for query_type in ("dense", "sparse"):
                for seed in range(3):
                    query = extract_query(
                        graph, k, rng=seed, query_type=query_type
                    )
                    order = quicksi_order(query, graph)
                    for use_label in (True, False):
                        cg = build_candidate_graph(
                            graph, query, use_label=use_label
                        )
                        cg.validate()
                        kernel = FusedAlleyKernel(cg, order)
                        assert kernel.key_bits <= KEY_BITS
                        assert len(kernel.keys) == len(kernel.local)
                        assert np.all(np.diff(kernel.keys) >= 0)
                        n_plans += 1
        assert n_plans == 24

    def test_union_rows_match_batched_union_counts(self):
        """The fused runner's row-wise union sweep must count exactly what
        the global-sort reference counts, for both charge shapes."""
        rng = np.random.default_rng(2024)
        spec = DEFAULT_GPU
        R, W = 13, spec.warp_size
        for trial in range(20):
            m = rng.random((R, W)) < rng.random()
            eid = np.where(
                rng.random((R, W)) < 0.2,
                np.int64(-1),
                rng.integers(0, 6, size=(R, W)),
            )
            starts = rng.integers(0, 4000, size=(R, W))
            lengths = rng.integers(1, 200, size=(R, W))
            aid = np.where(
                eid >= 0, ARRAY_LOCAL_CANDIDATES, ARRAY_GLOBAL_CANDIDATES
            )
            rows, lanes = np.nonzero(m)
            none = np.zeros(0, dtype=np.int64)

            # Scan shape (refine estimators): one [start, start+len) span.
            first = starts // spec.segment_elements
            last = (starts + lengths - 1) // spec.segment_elements
            segs, extra = _scan_union_rows(m, eid, first, last)
            ref_segs, ref_extra = batched_union_counts(
                spec, R, rows, aid[m], eid[m], starts[m], lengths[m],
                none, none, none, none,
            )
            np.testing.assert_array_equal(segs, ref_segs, err_msg=f"t{trial}")
            np.testing.assert_array_equal(extra, ref_extra)

            # Touch shape (validate probes): one single-element position.
            touch = starts // spec.segment_elements
            segs, extra = _touch_union_rows(m, eid, touch)
            ref_segs, ref_extra = batched_union_counts(
                spec, R, none, none, none, none, none,
                rows, aid[m], eid[m], starts[m],
            )
            np.testing.assert_array_equal(segs, ref_segs)
            np.testing.assert_array_equal(extra, ref_extra)


@pytest.fixture(scope="module")
def plan5():
    """A yeast q5 whose warps lose lanes, so inheritance over-collects and
    a warp's batch boundaries fall off multiples of the warp size."""
    graph = load_dataset("yeast")
    query = extract_query(graph, 5, rng=3, name="fused-q5")
    return build_candidate_graph(graph, query), quicksi_order(query, graph)


class TestIsolatedRerun:
    """Warps re-run alone: from their spawned generator states, or resumed
    from a batch checkpoint.

    The optimistic-quota path corrects a single warp's quota in isolation
    (:meth:`repro.core.fused.WarpProvider.warp`), resuming it from its
    last batch checkpoint the true quota agrees with.  This pins that an
    isolated run reproduces the warp's wave result bit-for-bit on the
    runner of either sync mode, and that a resumed run equals a fresh run
    at the smaller quota.
    """

    @staticmethod
    def _runner(estimator_cls, cg, order, collect_states, streaming=True):
        engine = GSWORDEngine(
            estimator_cls(),
            config=EngineConfig(inheritance=True, streaming=streaming),
        )
        kernel = fused_kernel_for(estimator_cls())(cg, order)
        return runner_for(
            kernel, wave_params_for(engine, order, collect_states)
        )

    @pytest.mark.parametrize("streaming", [False, True])
    @pytest.mark.parametrize("collect_states", [False, True])
    @pytest.mark.parametrize(
        "estimator_cls", [AlleyEstimator, WanderJoinEstimator]
    )
    def test_resume_matches_fresh_run(
        self, plan5, estimator_cls, collect_states, streaming
    ):
        """Every warp of a multi-batch wave, every quota from 1 to its
        guess: resuming equals running the warp fresh at that quota."""
        cg, order = plan5
        runner = self._runner(
            estimator_cls, cg, order, collect_states, streaming
        )
        W = runner.p.warp_size
        states = spawn_generator_states(321, 2)
        guesses = [96, 64]
        wave = runner.run_warps(states, guesses)
        for w, guess in enumerate(guesses):
            checkpoints = wave[w][5]
            assert len(checkpoints) > 1
            assert checkpoints[0].ncoll == 0
            # Inheritance over-collected: boundaries off multiples of W.
            assert any(ck.ncoll % W for ck in checkpoints)
            for quota in range(1, guess + 1):
                fresh = runner.run_warps([states[w]], [quota])[0]
                assert resume_warp(runner, wave[w], quota) == fresh[:5], quota

    def test_resume_runs_at_most_one_batch(self, plan5, monkeypatch):
        """A resumed re-run steps at most one batch's levels (``target``
        super-steps of one warp), and none when its checkpoint has
        already collected the quota."""
        cg, order = plan5
        runner = self._runner(AlleyEstimator, cg, order, False)
        steps = [0]
        step_level = FusedRunner._step_level

        def counting(self, *args):
            steps[0] += 1
            return step_level(self, *args)

        states = spawn_generator_states(5, 1)
        wave = runner.run_warps(states, [128])
        monkeypatch.setattr(FusedRunner, "_step_level", counting)
        fresh_steps = resumed_steps = stepless = 0
        for quota in range(1, 128):
            steps[0] = 0
            runner.run_warps(states, [quota])
            fresh_steps += steps[0]
            steps[0] = 0
            resume_warp(runner, wave[0], quota)
            assert steps[0] <= runner.p.target, quota
            resumed_steps += steps[0]
            stepless += steps[0] == 0
        assert resumed_steps * 2 < fresh_steps
        assert stepless > 0

    def test_resume_from_filled_checkpoint_runs_nothing(self, plan5):
        """A checkpoint that has collected the whole quota is the answer:
        the wave it starts takes no step."""
        cg, order = plan5
        runner = self._runner(WanderJoinEstimator, cg, order, True)
        run = runner.run_warps(spawn_generator_states(8, 1), [96])[0]
        ck = run[5][-1]
        acc, prof, n_valid, tail, count, cks = runner.run_warps(
            [ck], [ck.ncoll]
        )[0]
        assert (count, n_valid, tail, cks) == (ck.ncoll, ck.welford[1], [], [])
        assert (acc.n, acc.n_valid, acc._mean, acc._m2) == ck.welford
        assert tuple(getattr(prof, f) for f in _PROFILE_FIELDS) == ck.prof

    def test_fresh_start_is_the_zero_checkpoint(self, plan5):
        """A spawned state and the all-zero checkpoint around it start the
        same warp."""
        cg, order = plan5
        runner = self._runner(AlleyEstimator, cg, order, True)
        (state,) = spawn_generator_states(4, 1)
        assert runner.run_warps([state], [80]) == runner.run_warps(
            [Checkpoint(state)], [80]
        )

    @pytest.mark.parametrize("iteration", [False, True])
    def test_isolated_rerun_matches_wave(self, plan6, iteration):
        cg, order = plan6
        preset = EngineConfig.gpu_baseline if iteration else EngineConfig.gsword
        engine = GSWORDEngine(WanderJoinEstimator(), config=preset())
        kernel = fused_kernel_for(WanderJoinEstimator())(cg, order)
        params = wave_params_for(engine, order, collect_states=False)
        runner = runner_for(kernel, params)
        assert isinstance(runner, WaveRunner if iteration else FusedRunner)
        states = spawn_generator_states(123, 4)
        quotas = [32, 32, 32, 17]
        wave = runner.run_warps(states, quotas)
        for w in range(4):
            # Same state, same quota, warp alone in its wave: each warp
            # owns its generator, so the result is independent of packing.
            alone = runner.run_warps([states[w]], [quotas[w]])[0]
            assert alone == wave[w]
            # And replaying does not consume the state (purity).
            again = runner.run_warps([states[w]], [quotas[w]])[0]
            assert again == alone


@pytest.fixture(scope="module")
def plan6_direct():
    """``plan6``'s query sampled directly on the data graph: local lists
    are raw adjacency, so every level past the root filters labels."""
    graph = load_dataset("yeast")
    query = extract_query(graph, 6, rng=11, name="fused-q6")
    cg = build_candidate_graph(graph, query, use_label=False)
    assert not cg.label_filtered
    return cg, quicksi_order(query, graph)


class TestLevelShapes:
    """Scalar ≡ fused on a plan cut right after the first level of each
    shape the kernels special-case, in both sync modes: the cut level is
    the deepest, so every lane that gets there runs its path.

    Alley samples a label-filtered single-pair level in place (no survivor
    array); a direct-mode single-pair level still materialises, because
    its label filter changes the refined size.  Multi-pair levels test
    membership with one key search per round: Alley in refine, WanderJoin
    in validate.
    """

    CASES = {
        "alley-single-pair": (AlleyEstimator, "plan6", 1, True),
        "alley-single-pair-direct": (AlleyEstimator, "plan6_direct", 1, False),
        "alley-multi-pair-refine": (AlleyEstimator, "plan6", 2, False),
        "wanderjoin-multi-pair-validate": (
            WanderJoinEstimator, "plan6", 2, None,
        ),
    }

    @pytest.mark.parametrize(
        "preset", [EngineConfig.gsword, EngineConfig.gpu_baseline]
    )
    @pytest.mark.parametrize("case", list(CASES))
    def test_scalar_matches_fused(self, case, preset, request, monkeypatch):
        est_cls, fixture, nb, in_place = self.CASES[case]
        cg, order = request.getfixturevalue(fixture)
        kernel_cls = fused_kernel_for(est_cls())
        levels = kernel_cls(cg, order).compile_plan(len(order)).levels
        depth = next(lv.d for lv in levels if lv.nb == nb)
        prepare = kernel_cls.fused_prepare
        preps = []

        def record(self, lv, inst3, present):
            prep = prepare(self, lv, inst3, present)
            if lv.d == depth:
                preps.append(prep)
            return prep

        monkeypatch.setattr(kernel_cls, "fused_prepare", record)
        fus = _run(
            est_cls(), preset(backend="fused", max_depth=depth + 1),
            cg, order, n=256,
        )
        sca = _run(
            est_cls(), preset(backend="scalar", max_depth=depth + 1),
            cg, order, n=256,
        )
        assert fus.backend == "fused"
        assert fus.n_valid > 0
        assert_identical(fus, sca)
        assert preps
        if in_place is not None:
            assert {p.surv_values is None for p in preps} == {in_place}
