"""The gSWORD engine: Alg. 1 executed on the SIMT simulator.

One engine run launches enough simulated warps to consume the requested
sample budget.  Each warp owns a share of the block sample pool
(``tasks_per_warp`` tasks) and executes the RSV loop lane-by-lane in
lockstep, charging the cost model for:

* **GetMinCandidate** — per-backward-edge binary-search lookups (dependent
  loads, lockstep max over lanes);
* **Refine** — per-lane candidate scans (coalesced contiguous segments) and
  membership probes (dependent chains), or the warp-streaming schedule when
  enabled;
* **Sample / Validate** — the random pick and duplicate/edge checks;
* **warp primitives** — the ballots/shuffles of inheritance and streaming.

Synchronisation modes follow §3.2: sample synchronisation (lanes wait for
the whole warp before fetching; cohesive regions) versus iteration
synchronisation (immediate restart; scattered regions and the Figure-5
StallLong penalty).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph
from repro.core.config import EngineConfig, SyncMode
from repro.core.inheritance import apply_inheritance
from repro.core.streaming import streaming_schedule
from repro.errors import (
    ConfigError,
    DeviceFault,
    KernelTimeout,
    SimulationError,
)
from repro.estimators.base import (
    RSVEstimator,
    SampleOutcome,
    SampleState,
    StepContext,
)
from repro.estimators.ht import HTAccumulator
from repro.gpu.costmodel import DEFAULT_GPU, GPUSpec
from repro.gpu.device import DeviceModel
from repro.gpu.memory import (
    ARRAY_GLOBAL_CANDIDATES,
    ARRAY_LOCAL_CANDIDATES,
    WarpMemoryTracker,
    warp_instruction_cost,
)
from repro.gpu.profiler import KernelProfile, WarpProfile
from repro.obs.trace import NO_TRACE, TraceRecorder
from repro.query.matching_order import MatchingOrder
from repro.utils.rng import (
    MAX_U32_BOUND,
    RandomSource,
    as_generator,
    clone_state,
    generator_from_state,
    spawn_generator_states,
    spawn_generators,
)

#: Lane compute-op constants (multiples of ``GPUSpec.op_cycles``).
_ITER_BASE_OPS = 12
_CAND_SCAN_OPS = 4
_SAMPLE_OPS = 8
_VALIDATE_OPS = 6
#: Global-memory loads per membership probe: each probe is a binary search
#: over a sorted candidate slice (Fig. 19's ``find(v, lc)``), i.e. several
#: serially-dependent loads, not one.
_PROBE_LOADS = 2
#: Cap on sampled per-warp spans recorded per engine run (tracing).
_MAX_WARP_SPANS = 64


@dataclass
class GPURunResult:
    """Outcome of one simulated engine run.

    Two sample counts coexist, mirroring the paper:

    * ``n_samples`` — samples *collected*, the number the paper reports
      ("we collected more samples while executing the same number of
      iterations", §4.1): root tasks plus inherited continuations.
    * ``n_root_samples`` — root tasks only, the HT denominator.  The
      recursive estimator (Thm. 1) is normalised by roots; inherited
      continuations are folded into their parent's subtree via the
      pushed-down ``n_i`` weights, so normalising by anything else would
      bias the estimate.

    ``collected`` holds ``(partial_instance, probability)`` pairs when the
    run was asked to collect (trawling input).
    """

    estimate: float
    n_samples: int
    n_root_samples: int
    n_valid: int
    accumulator: HTAccumulator
    profile: KernelProfile
    n_warps: int
    tasks_per_warp: int
    longest_warp_cycles: float
    spec: GPUSpec
    collected: List[Tuple[Tuple[int, ...], float]] = field(default_factory=list)
    #: Warp-execution backend that produced this result ("fused" or
    #: "scalar"); both yield bit-identical numbers, so this is telemetry.
    backend: str = "scalar"
    #: Backend the config *asked* for.  Differs from ``backend`` when the
    #: fallback ladder (fused -> scalar) stepped down for an estimator
    #: without a fused kernel.  Empty means "same as executed"
    #: (constructors that predate the ladder).
    requested_backend: str = ""
    #: Shard count the round actually executed with (1 = in-process) and
    #: the per-shard simulated kernel durations.  Estimates, profiles and
    #: :meth:`simulated_ms` are bit-identical across shard counts; these
    #: fields feed the separate multi-device makespan telemetry.
    n_shards: int = 1
    shard_ms: List[float] = field(default_factory=list)
    #: Wasted warp work of the fused backend, which runs every warp at an
    #: optimistic quota up front: warps re-run alone (resumed from a batch
    #: checkpoint) because inheritance made their true quota smaller, and
    #: warps the fold never reached.  Telemetry only — neither changes a
    #: result.
    n_rerun_warps: int = 0
    n_discarded_warps: int = 0

    @property
    def backend_label(self) -> str:
        """Telemetry label: the executed backend, annotated when it is a
        fallback from the requested one (``"fused_fallback_scalar"``)."""
        if not self.requested_backend or self.requested_backend == self.backend:
            return self.backend
        return f"{self.requested_backend}_fallback_{self.backend}"

    @property
    def valid_ratio(self) -> float:
        if self.n_samples == 0:
            return 0.0
        return self.n_valid / self.n_samples

    def simulated_ms(self) -> float:
        """Simulated kernel duration for the samples actually run."""
        device = DeviceModel(self.spec)
        return device.kernel_ms(self.profile, self.longest_warp_cycles)

    def multidev_ms(self) -> float:
        """Multi-device duration: max-over-shards makespan plus the modeled
        HT all-reduce.  Falls back to :meth:`simulated_ms` when the round
        ran on one device."""
        if self.n_shards <= 1 or not self.shard_ms:
            return self.simulated_ms()
        from repro.multidev.timing import multidev_makespan_ms

        return multidev_makespan_ms(self.shard_ms, self.n_shards)

    def simulated_ms_at(self, target_samples: int) -> float:
        """Simulated duration extrapolated to ``target_samples`` i.i.d.
        *collected* samples (cycles scale linearly; parallelism is
        recomputed for the larger launch so extrapolation crosses the
        saturation point correctly)."""
        if self.n_samples <= 0 or target_samples <= 0:
            raise ConfigError("sample counts must be positive")
        scale = target_samples / self.n_samples
        total_cycles = self.profile.total_cycles * scale
        warps = max(1, math.ceil(self.n_warps * scale))
        parallelism = min(warps, self.spec.resident_warps)
        cycles = total_cycles / parallelism
        if warps <= self.spec.resident_warps:
            cycles = max(cycles, self.longest_warp_cycles)
        return self.spec.launch_overhead_ms + self.spec.cycles_to_ms(cycles)

    def samples_per_second(self) -> float:
        ms = self.simulated_ms()
        if ms <= 0:
            raise ConfigError("simulated duration must be positive")
        return self.n_samples / ms * 1000.0


class GSWORDEngine:
    """Simulated-GPU executor for RSV estimators (Alg. 1 + §4 optimizations).

    >>> from repro.estimators import WanderJoinEstimator
    >>> engine = GSWORDEngine(WanderJoinEstimator())  # doctest: +SKIP
    """

    def __init__(
        self,
        estimator: RSVEstimator,
        config: Optional[EngineConfig] = None,
        spec: GPUSpec = DEFAULT_GPU,
        device: Optional["DeviceModel"] = None,
        recorder: Optional[TraceRecorder] = None,
        arena: Optional[object] = None,
    ) -> None:
        """``config=None`` builds a default :class:`EngineConfig` now, so
        its env-driven defaults are read at construction time; ``device``
        is the clock and launch watchdog (defaults to a
        :class:`DeviceModel` over ``spec``); ``recorder`` is a shared
        :class:`~repro.obs.trace.TraceRecorder` (``None`` = the engine
        owns one when ``config.trace`` asks for tracing, else the no-op
        singleton); ``arena`` is a :class:`~repro.core.fused.FusedArena`
        for the fused backend's scratch, which engines that never run at
        the same time may share (``None`` = the engine owns one)."""
        if config is None:
            config = EngineConfig()
        self.estimator = estimator
        self.config = config
        if device is not None and device.spec != spec:
            raise ConfigError("device.spec must match the engine's spec")
        self.spec = spec
        self.device = device if device is not None else DeviceModel(spec)
        if recorder is not None:
            self.recorder = recorder
        else:
            self.recorder = TraceRecorder() if config.trace else NO_TRACE
        # Cross-round caches (fused backend): last-built kernel, reusable
        # scratch arena, and the lazily started shard pool.
        self._kernel_cache: Optional[tuple] = None
        self._arena = arena
        self._shard_pool = None

    def close(self) -> None:
        """Release held resources: the shard worker pool and its shared
        segment.  Idempotent; a closed engine can still run in-process."""
        if self._shard_pool is not None:
            self._shard_pool.close()
            self._shard_pool = None

    def __enter__(self) -> "GSWORDEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def session(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        rng: RandomSource = None,
    ) -> "EngineSession":
        """Round-capable entry point: an :class:`EngineSession` that keeps
        the HT accumulator and kernel counters across successive sampling
        rounds on one ``(cg, order)`` pair.  This is what incremental
        consumers (the serving layer's adaptive budget controller) use
        instead of one monolithic :meth:`run`."""
        return EngineSession(self, cg, order, rng)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        n_samples: int,
        rng: RandomSource = None,
        collect_states: bool = False,
    ) -> GPURunResult:
        """Execute sampling until ``n_samples`` samples are *collected*.

        Collected samples are what the paper's sample budgets count: root
        tasks plus inherited continuations.  Without inheritance the two
        coincide.
        """
        if n_samples <= 0:
            raise ConfigError("n_samples must be positive")
        tasks_per_warp = self.config.tasks_per_warp
        max_warps = math.ceil(n_samples / tasks_per_warp)
        provider, exec_backend = self._warp_provider(
            cg, order, n_samples, rng, collect_states
        )
        warp_rngs = [] if provider is not None else spawn_generators(rng, max_warps)
        kernel = KernelProfile()
        acc = HTAccumulator()
        collected: List[Tuple[Tuple[int, ...], float]] = []
        longest = 0.0
        remaining = n_samples
        n_warps = 0
        total_collected = 0
        # Per-shard timing accumulation (multi-device makespan telemetry);
        # the merged ``kernel`` profile stays the single-device number and
        # is bit-identical across shard counts.
        n_shards = 1 if provider is None else provider.n_shards
        shard_profiles: List[KernelProfile] = []
        shard_longest: List[float] = []
        if n_shards > 1:
            from repro.multidev import shard_of

            shard_profiles = [KernelProfile() for _ in range(n_shards)]
            shard_longest = [0.0] * n_shards
        rec = self.recorder
        launch_span = None
        warp_spans = 0
        if rec.enabled:
            launch_span = rec.begin(
                "kernel.launch",
                track="engine",
                args={
                    "backend": exec_backend,
                    "requested_backend": self.config.backend,
                    "n_shards": n_shards,
                },
            )
        try:
            while remaining > 0 and n_warps < max_warps:
                quota = min(tasks_per_warp, remaining)
                if provider is not None:
                    warp = provider.warp(n_warps, quota)
                else:
                    warp = self._run_warp(
                        cg, order, quota, warp_rngs[n_warps], collect_states
                    )
                warp_acc, warp_profile, warp_valid, warp_collect, warp_count = warp
                acc.merge(warp_acc)
                kernel.add_warp(warp_profile, samples=warp_count, valid=warp_valid)
                longest = max(longest, warp_profile.cycles)
                if n_shards > 1:
                    s = shard_of(n_warps, n_shards)
                    shard_profiles[s].add_warp(
                        warp_profile, samples=warp_count, valid=warp_valid
                    )
                    shard_longest[s] = max(shard_longest[s], warp_profile.cycles)
                if (
                    launch_span is not None
                    and n_warps % rec.warp_sample_every == 0
                    and warp_spans < _MAX_WARP_SPANS
                ):
                    # Sampled warp spans: serialized on their own track
                    # starting at the launch (full per-warp tracing would
                    # dwarf the kernel spans it illustrates).
                    t0 = max(launch_span.sim_t0_ms, rec.sim_now("warps"))
                    rec.add_span(
                        "warp",
                        track="warps",
                        sim_t0_ms=t0,
                        sim_dur_ms=self.spec.cycles_to_ms(warp_profile.cycles),
                        args={
                            "warp": n_warps,
                            "samples": warp_count,
                            "valid": warp_valid,
                            "shard": (
                                shard_of(n_warps, n_shards)
                                if n_shards > 1 else 0
                            ),
                        },
                    )
                    warp_spans += 1
                collected.extend(warp_collect)
                total_collected += warp_count
                remaining -= warp_count
                n_warps += 1
        except BaseException as error:
            if launch_span is not None:
                rec.end(
                    launch_span,
                    sim_dur_ms=self.spec.launch_overhead_ms,
                    args={"status": "failed", "error": type(error).__name__},
                )
            raise
        shard_ms = [
            self.device.kernel_ms(p, l)
            for p, l in zip(shard_profiles, shard_longest)
        ]
        result = GPURunResult(
            estimate=acc.estimate,
            n_samples=total_collected,
            n_root_samples=acc.n,
            n_valid=kernel.n_valid_samples,
            accumulator=acc,
            profile=kernel,
            n_warps=n_warps,
            tasks_per_warp=tasks_per_warp,
            longest_warp_cycles=longest,
            spec=self.spec,
            collected=collected,
            backend=exec_backend,
            requested_backend=self.config.backend,
            n_shards=n_shards,
            shard_ms=shard_ms,
        )
        if provider is not None:
            result.n_rerun_warps = provider.n_reruns
            result.n_discarded_warps = provider.max_warps - n_warps
        if launch_span is not None:
            self._trace_launch(launch_span, result)
        return result

    def _trace_launch(self, launch_span, result: GPURunResult) -> None:
        """Close a run's ``kernel.launch`` span and draw the per-shard /
        interconnect geometry of a multi-device round.

        The span's simulated duration is exactly
        :meth:`GPURunResult.simulated_ms`, so summing the ``kernel.launch``
        spans of a trace reconciles with the engine's reported device time;
        the shard tracks reproduce :meth:`GPURunResult.multidev_ms` as the
        envelope of their intervals.
        """
        rec = self.recorder
        sim_ms = result.simulated_ms()
        args = {
            "simulated_ms": sim_ms,
            "n_warps": result.n_warps,
            "n_samples": result.n_samples,
            "n_valid": result.n_valid,
            "n_rerun_warps": result.n_rerun_warps,
            "n_discarded_warps": result.n_discarded_warps,
            "stall": result.profile.stall_summary(),
            "cycles": result.profile.cycle_breakdown(),
            "status": "ok",
        }
        if result.n_shards > 1 and result.shard_ms:
            from repro.multidev.timing import shard_timeline

            args["multidev_ms"] = result.multidev_ms()
            args["shard_ms"] = list(result.shard_ms)
            k0 = launch_span.sim_t0_ms
            shards, (reduce_t0, reduce_ms) = shard_timeline(
                result.shard_ms, result.n_shards
            )
            for shard, offset, dur in shards:
                rec.add_span(
                    "shard.kernel",
                    track=f"shard-{shard}",
                    sim_t0_ms=k0 + offset,
                    sim_dur_ms=dur,
                    args={"shard": shard, "shard_ms": dur},
                )
            rec.add_span(
                "multidev.allreduce",
                track="interconnect",
                sim_t0_ms=k0 + reduce_t0,
                sim_dur_ms=reduce_ms,
                args={"n_shards": result.n_shards},
            )
        rec.end(launch_span, sim_dur_ms=sim_ms, args=args)

    def _warp_provider(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        n_samples: int,
        rng: RandomSource,
        collect_states: bool,
    ):
        """``(provider, backend)`` via the fallback ladder.

        ``fused`` needs a registered fused kernel (the exact built-in
        estimator types) and a compiled plan whose candidate counts stay
        on numpy's 32-bit draw path (the one
        :class:`~repro.utils.rng.WarpStreams` replays); it runs either
        sync mode.  The scalar interpreter (``provider=None``) covers
        everything.  Both rungs are bit-identical, so the ladder only
        changes speed, never results.
        """
        if self.config.backend == "fused":
            from repro.estimators.fused import fused_kernel_for

            kernel_cls = fused_kernel_for(self.estimator)
            if kernel_cls is not None:
                from repro.core.fused import WarpProvider, wave_params_for
                from repro.core.vectorized import runner_for

                kernel = self._fused_kernel(kernel_cls, cg, order)
                params = wave_params_for(self, order, collect_states)
                plan = kernel.compile_plan(params.target)
                if plan.max_candidates <= MAX_U32_BOUND:
                    runner = runner_for(kernel, params, self._fused_arena())
                    return (
                        WarpProvider(self, runner, n_samples, rng),
                        "fused",
                    )
        return None, "scalar"

    def _fused_kernel(self, kernel_cls, cg: CandidateGraph, order: MatchingOrder):
        """Last-plan kernel cache: ``EngineSession`` rounds reuse one
        ``(cg, order)`` pair, so the derived tables (and the shard pool's
        shared-memory publication keyed on object identity) are built
        once, not per round."""
        cache = self._kernel_cache
        if (
            cache is not None
            and cache[0] is cg
            and cache[1] is order
            and cache[2] is kernel_cls
        ):
            return cache[3]
        # Drop the old kernel before building: the service's engines are
        # shared by interleaved sessions, so this runs most rounds, and
        # holding both kernels raises the memory high-water mark.
        self._kernel_cache = None
        kernel = kernel_cls(cg, order)
        self._kernel_cache = (cg, order, kernel_cls, kernel)
        return kernel

    def _fused_arena(self):
        """The fused scratch arena, given or engine-lifetime (reused across
        rounds — steady-state fused execution allocates nothing)."""
        if self._arena is None:
            from repro.core.fused import FusedArena

            self._arena = FusedArena()
        return self._arena

    def _shard_executor(self):
        """The lazily started shard worker pool (``config.n_shards`` > 1)."""
        if self._shard_pool is None:
            from repro.multidev.executor import ShardedVectorExecutor

            self._shard_pool = ShardedVectorExecutor(self.config.n_shards)
        return self._shard_pool

    # ------------------------------------------------------------------
    # Warp execution
    # ------------------------------------------------------------------
    def _target_depth(self, order: MatchingOrder) -> int:
        n = len(order)
        if self.config.max_depth is None:
            return n
        return min(self.config.max_depth, n)

    def _run_warp(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        pool: int,
        rng: np.random.Generator,
        collect_states: bool,
    ):
        if self.config.sync_mode is SyncMode.SAMPLE:
            return self._run_warp_sample_sync(cg, order, pool, rng, collect_states)
        return self._run_warp_iteration_sync(cg, order, pool, rng, collect_states)

    def _run_warp_sample_sync(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        pool: int,
        rng: np.random.Generator,
        collect_states: bool,
    ):
        W = self.spec.warp_size
        target = self._target_depth(order)
        n_q = len(order)
        profile = WarpProfile()
        tracker = WarpMemoryTracker(self.spec)
        acc = HTAccumulator()
        collected: List[Tuple[Tuple[int, ...], float]] = []
        n_valid = 0
        n_collected = 0
        remaining = pool

        while remaining > 0:
            batch = min(W, remaining)
            lanes = [SampleState.fresh(n_q) for _ in range(W)]
            active = [i < batch for i in range(W)]
            running = list(active)
            round_inherited = 0

            for d in range(target):
                busy_before = sum(running)
                if busy_before == 0:
                    break
                outcomes: List[Optional[SampleOutcome]] = [None] * W
                for lane in range(W):
                    if not running[lane]:
                        continue
                    ctx = StepContext(cg, order, d)
                    outcomes[lane] = self.estimator.run_iteration(
                        ctx, lanes[lane], rng
                    )
                cycles_before = profile.cycles
                self._charge_iteration(profile, tracker, outcomes, order, d)
                profile.charge_idle_wait(
                    profile.cycles - cycles_before, busy_before, W
                )
                profile.note_lanes(busy=busy_before, total=W)

                valid = [
                    bool(outcomes[lane].valid) if outcomes[lane] else False
                    for lane in range(W)
                ]
                if self.config.inheritance:
                    running, inherited = apply_inheritance(
                        lanes, valid, running, profile, self.spec
                    )
                    round_inherited += inherited
                else:
                    running = [r and v for r, v in zip(running, valid)]
                if not any(running):
                    break

            # Leaf accounting: one HT value per root task in the batch; the
            # inherited continuations count as *collected* samples (§4.1)
            # but are already folded into their parents' leaf weights.
            for lane in range(W):
                if not active[lane]:
                    continue
                if running[lane] and lanes[lane].depth == target:
                    acc.add(lanes[lane].ht_value)
                    n_valid += 1
                    if collect_states:
                        collected.append(
                            (
                                tuple(lanes[lane].instance[:target]),
                                lanes[lane].prob,
                            )
                        )
                else:
                    acc.add(0.0)
            round_collected = batch + round_inherited
            n_collected += round_collected
            remaining -= round_collected
        return acc, profile, n_valid, collected, n_collected

    def _run_warp_iteration_sync(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        pool: int,
        rng: np.random.Generator,
        collect_states: bool,
    ):
        W = self.spec.warp_size
        target = self._target_depth(order)
        n_q = len(order)
        profile = WarpProfile()
        tracker = WarpMemoryTracker(self.spec)
        acc = HTAccumulator()
        collected: List[Tuple[Tuple[int, ...], float]] = []
        n_valid = 0

        fetched = min(W, pool)
        lanes = [SampleState.fresh(n_q) for _ in range(W)]
        active = [i < fetched for i in range(W)]

        while any(active):
            busy = sum(active)
            outcomes: List[Optional[SampleOutcome]] = [None] * W
            depths = [lanes[lane].depth for lane in range(W)]
            for lane in range(W):
                if not active[lane]:
                    continue
                ctx = StepContext(cg, order, depths[lane])
                outcomes[lane] = self.estimator.run_iteration(ctx, lanes[lane], rng)
            self._charge_iteration(
                profile, tracker, outcomes, order, None, depths=depths
            )
            # No charge_idle_wait here: under iteration synchronisation a
            # lane only goes inactive when the pool is exhausted, at which
            # point its thread retires rather than stalls (the low-StallWait
            # side of Figure 5).
            profile.note_lanes(busy=busy, total=W)

            for lane in range(W):
                outcome = outcomes[lane]
                if outcome is None:
                    continue
                done = False
                if not outcome.valid:
                    acc.add(0.0)
                    done = True
                elif lanes[lane].depth == target:
                    acc.add(lanes[lane].ht_value)
                    n_valid += 1
                    if collect_states:
                        collected.append(
                            (tuple(lanes[lane].instance[:target]), lanes[lane].prob)
                        )
                    done = True
                if done:
                    # Iteration synchronisation: restart immediately if the
                    # pool still has tasks, otherwise the lane idles.
                    if fetched < pool:
                        fetched += 1
                        lanes[lane] = SampleState.fresh(n_q)
                    else:
                        active[lane] = False
        return acc, profile, n_valid, collected, fetched

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def _charge_iteration(
        self,
        profile: WarpProfile,
        tracker: WarpMemoryTracker,
        outcomes: Sequence[Optional[SampleOutcome]],
        order: MatchingOrder,
        depth: Optional[int],
        depths: Optional[Sequence[int]] = None,
    ) -> None:
        """Charge one lockstep iteration's compute + memory.

        ``depth`` is the shared depth under sample synchronisation;
        ``depths`` the per-lane depths under iteration synchronisation.
        """
        spec = self.spec
        per_lane_ops: List[float] = []
        max_lookup_chain = 0
        total_lookups = 0
        max_probe_chain = 0
        total_probes = 0
        streaming = self.config.streaming and self.estimator.has_refine_stage
        lane_clens: List[int] = []
        lane_probe_rates: List[float] = []

        for lane, outcome in enumerate(outcomes):
            if outcome is None:
                per_lane_ops.append(0.0)
                lane_clens.append(0)
                lane_probe_rates.append(0.0)
                continue
            d = depth if depth is not None else (depths[lane] if depths else 0)
            backs = len(order.backward[d]) if d < len(order) else 0
            max_lookup_chain = max(max_lookup_chain, backs)
            total_lookups += backs
            # Depth 0 is the seed pick: a single uniform draw from the
            # global candidate set, no refinement scan (the sample task's
            # seed, Alg. 1 line 5).
            needs_refine = self.estimator.has_refine_stage and backs > 0

            ops = float(_ITER_BASE_OPS + _SAMPLE_OPS + _VALIDATE_OPS)
            if needs_refine and not streaming:
                ops += outcome.clen * _CAND_SCAN_OPS
            per_lane_ops.append(ops * spec.op_cycles)

            # Memory: the candidate scan (contiguous) and where it lives.
            start, end = outcome.local_span
            region = outcome.edge_id if outcome.edge_id >= 0 else -1
            array = (
                ARRAY_LOCAL_CANDIDATES
                if outcome.edge_id >= 0
                else ARRAY_GLOBAL_CANDIDATES
            )
            if needs_refine:
                tracker.contiguous(array, region, start, max(0, end - start))
            elif end > start:
                # Only the sampled slot is read (WJ always; seed picks too).
                tracker.touch(array, region, start + (end - start) // 2)
            lane_clens.append(outcome.clen if needs_refine else 0)
            probe_rate = outcome.probes / outcome.clen if outcome.clen else 0.0
            lane_probe_rates.append(probe_rate)
            max_probe_chain = max(max_probe_chain, outcome.probes)
            total_probes += outcome.probes

        # GetMinCandidate lookups: one binary search per backward edge.
        # The warp issues max-over-lanes instructions (latency) and one
        # transaction per lane load (issue slots).
        profile.charge_memory(
            self._lockstep_load_cost(
                max_lookup_chain * _PROBE_LOADS, total_lookups * _PROBE_LOADS
            ),
            total_lookups * _PROBE_LOADS,
            0,
        )

        if streaming:
            schedule = streaming_schedule(
                lane_clens, spec.warp_size, self.config.streaming_threshold
            )
            # Collaborative rounds: the candidate reads are coalesced (and
            # already billed by the tracker's contiguous records); the cost
            # here is the membership probes — per round, ~probe_rate
            # warp-wide instructions of 32 scattered lanes — plus the A-Res
            # reduction (~5 warp primitives: ballot/shfl/2x reduce, Alg. 3
            # lines 6-13).
            probe_rate = max(lane_probe_rates) if lane_probe_rates else 0.0
            rounds = schedule.collaborative_rounds
            if rounds:
                probe_cycles = (
                    rounds
                    * probe_rate
                    * _PROBE_LOADS
                    * warp_instruction_cost(spec, spec.warp_size)
                )
                if probe_cycles:
                    profile.charge_memory(
                        probe_cycles,
                        int(round(
                            rounds * probe_rate * _PROBE_LOADS * spec.warp_size
                        )),
                        0,
                    )
                profile.charge_sync(rounds * 5 * spec.sync_cycles)
                profile.charge_compute(
                    rounds * _CAND_SCAN_OPS * spec.op_cycles
                )
            # Independent phase: leftover per-lane scans + probes.
            profile.charge_compute(
                schedule.independent_max * _CAND_SCAN_OPS * spec.op_cycles
            )
            leftover = [
                r * rate for r, rate in zip(schedule.remainders, lane_probe_rates)
            ]
            max_leftover = max(leftover) if leftover else 0.0
            total_leftover = sum(leftover)
            profile.charge_memory(
                self._lockstep_load_cost(
                    max_leftover * _PROBE_LOADS, total_leftover * _PROBE_LOADS
                ),
                int(round(total_leftover * _PROBE_LOADS)),
                0,
            )
        else:
            # Per-lane probe loops in lockstep: the warp executes
            # max-over-lanes probe instructions (each exposing latency) and
            # pays an issue slot per transaction across all lanes.  Lanes
            # with short candidate lists sit masked while the longest lane
            # finishes — the refine imbalance streaming removes.
            profile.charge_memory(
                self._lockstep_load_cost(
                    max_probe_chain * _PROBE_LOADS, total_probes * _PROBE_LOADS
                ),
                total_probes * _PROBE_LOADS,
                0,
            )

        profile.charge_lockstep(per_lane_ops)
        tracker.commit(profile)

    def _lockstep_load_cost(self, max_chain: float, total_loads: float) -> float:
        """Cycles for lockstep per-lane load loops: the slowest lane's chain
        exposes latency per instruction; every lane's transactions consume
        issue slots."""
        if total_loads <= 0:
            return 0.0
        spec = self.spec
        return max_chain * spec.mem_latency_cycles + total_loads * spec.issue_cycles


#: Errors that fail one round without harming the session.
#: ``SimulationError`` is the simulator's inconsistent-state failure;
#: :class:`DeviceFault` covers the watchdog kill and a dead shard worker.
RECOVERABLE_ERRORS = (DeviceFault, SimulationError)


@dataclass
class RoundReport:
    """Everything one :meth:`EngineSession.run_round` call took.

    ``result`` is the committed round (``None`` when the round failed);
    ``error`` is what failed it, and ``fault_ms`` the simulated device
    time the failed launch occupied.
    ``launch`` is the replay capture of the launch — on a failed round,
    of the launch that executed before the watchdog killed it (``None``
    if none did): the RNG substream state, sample count and the observed
    estimate / simulated ms.  The flight recorder snapshots it
    into postmortem bundles; ``repro flight-replay`` re-executes it
    bit-identically.
    """

    result: Optional[GPURunResult] = None
    error: Optional[BaseException] = None
    fault_ms: float = 0.0
    launch: Optional[Dict[str, Any]] = None


class EngineSession:
    """Incremental (round-by-round) execution state for one query.

    Each :meth:`run_round` call lands one kernel's worth of sampling and
    folds its HT accumulator and cycle counters into the session, so the
    cumulative estimate, variance, and confidence interval tighten round
    over round.  Per-round results keep their own profiles too — the
    serving scheduler needs the *round's* kernel profile to account a batch
    of co-resident kernels, while convergence checks read the cumulative
    :meth:`result`.  :attr:`last_round` is the most recent round's
    :class:`RoundReport`, set before the round's error (if any) is raised.

    Round RNG streams are spawned from the session's root source, so a
    session seeded with an integer replays identically.

    **Checkpoint semantics.**  The cumulative accumulator is only updated
    by :meth:`_commit_round`, which runs *after* the launch has passed the
    watchdog — a round killed by the watchdog or by a dead shard worker
    contributes nothing, so completed rounds are never lost and a
    discarded round never half-merges.  Every round draws the *next*
    ``SeedSequence.spawn`` child of the session root, so the round after
    a failed one is a fresh i.i.d. draw and the Horvitz–Thompson estimator
    stays unbiased (Thm. 1 needs i.i.d. samples, not any *particular*
    samples).
    """

    def __init__(
        self,
        engine: GSWORDEngine,
        cg: CandidateGraph,
        order: MatchingOrder,
        rng: RandomSource = None,
    ) -> None:
        self.engine = engine
        self.cg = cg
        self.order = order
        self._root = as_generator(rng)
        self._acc = HTAccumulator()
        self._profile = KernelProfile()
        self._longest = 0.0
        self._n_warps = 0
        self._n_samples = 0
        self._rounds = 0
        self._collected: List[Tuple[Tuple[int, ...], float]] = []
        self.last_round: Optional[RoundReport] = None

    @property
    def n_rounds(self) -> int:
        return self._rounds

    @property
    def n_samples(self) -> int:
        """Cumulative collected samples across rounds."""
        return self._n_samples

    @property
    def accumulator(self) -> HTAccumulator:
        """The cumulative (checkpointed) HT accumulator — read-only view
        for consumers that combine session evidence with other sources
        (the serving layer's CPU fallback)."""
        return self._acc

    def run_round(
        self,
        n_samples: int,
        *,
        watchdog_ms: Optional[float] = None,
        collect_states: bool = False,
    ) -> RoundReport:
        """Run one sampling round (one launch), merge it into the session,
        and report it.

        ``report.result`` is the *round's own* result (its profile is what
        a batch scheduler co-schedules); read :meth:`result` for the
        cumulative view.  A failed launch raises its error after
        recording it in the report; it never touches the session's
        cumulative state.
        ``watchdog_ms`` is the launch's watchdog ceiling (the serving
        layer propagates a request's remaining deadline here).
        """
        report = RoundReport()
        self.last_round = report
        rec = self.engine.recorder
        round_span = None
        if rec.enabled:
            round_span = rec.begin(
                "engine.round", track="engine",
                args={"round": self._rounds, "n_samples": n_samples},
            )
        try:
            result = self._launch(
                report, n_samples, collect_states, watchdog_ms
            )
        except BaseException as exc:
            if isinstance(exc, RECOVERABLE_ERRORS):
                report.error = exc
                report.fault_ms = self.abort_charge_ms(exc)
                if round_span is not None:
                    self._trace_abort(exc, report.fault_ms)
            if round_span is not None:
                rec.end(round_span, args={
                    "status": "failed", "error": type(exc).__name__,
                })
            raise
        self._commit_round(result)
        report.result = result
        if round_span is not None:
            rec.end(round_span, args={"status": "ok"})
        return report

    #: Aliases of :meth:`run_round`, kept only because the layer ledger in
    #: ``perfbench/ledger.py`` wraps these names and fails without them.
    run_round_resilient = run_round_hedged = run_round

    # ------------------------------------------------------------------
    # Launch internals
    # ------------------------------------------------------------------
    def _launch(
        self,
        report: RoundReport,
        n_samples: int,
        collect_states: bool,
        watchdog_ms: Optional[float],
    ) -> GPURunResult:
        """One kernel launch: execution, capture, watchdog.

        Raises a typed error on any failure; returns the (uncommitted)
        round result on success.  An executed launch is captured in
        ``report.launch``.
        """
        engine = self.engine
        # Materialising via the captured state (instead of
        # spawn_generators) is stream-identical — default_rng never
        # advances a SeedSequence's child counter — but leaves the state
        # in hand for postmortem replay.
        rng_state = spawn_generator_states(self._root, 1)[0]
        round_rng = generator_from_state(clone_state(rng_state))
        round_result = engine.run(
            self.cg, self.order, n_samples, rng=round_rng,
            collect_states=collect_states,
        )
        # Capture the launch for postmortem replay *before* the watchdog
        # verdict: a timeout round is exactly the one a flight bundle
        # needs to carry.
        report.launch = {
            "rng_state": clone_state(rng_state),
            "n_samples": int(n_samples),
            "estimate": float(round_result.estimate),
            "simulated_ms": float(round_result.simulated_ms()),
            "backend": round_result.backend_label,
            "n_warps": int(round_result.n_warps),
            "round": int(self._rounds),
        }
        engine.device.check_watchdog(round_result.simulated_ms(), watchdog_ms)
        return round_result

    def _commit_round(self, round_result: GPURunResult) -> None:
        """Checkpoint: fold a *validated* round into the cumulative state."""
        self._acc.merge(round_result.accumulator)
        self._profile.merge(round_result.profile)
        self._longest = max(self._longest, round_result.longest_warp_cycles)
        self._n_warps += round_result.n_warps
        self._n_samples += round_result.n_samples
        self._collected.extend(round_result.collected)
        self._rounds += 1

    def _trace_abort(self, error: BaseException, charge_ms: float) -> None:
        """Draw a failed launch on the timeline: a ``kernel.abort`` span
        covering the ``charge_ms`` the failure occupied the device, plus a
        ``fault`` instant naming the error and its numbers (watchdog
        ceiling, dead shard index)."""
        rec = self.engine.recorder
        args: Dict[str, object] = {"error": type(error).__name__}
        for attr in ("kernel_ms", "watchdog_ms", "shard"):
            value = getattr(error, attr, None)
            if value is not None:
                args[attr] = value
        rec.instant("fault", track="engine", args=args)
        rec.add_span(
            "kernel.abort",
            track="engine",
            sim_t0_ms=rec.sim_now("engine"),
            sim_dur_ms=charge_ms,
            args=args,
        )

    def abort_charge_ms(self, error: BaseException) -> float:
        """Simulated device time a failed launch occupied.

        A watchdog abort held the device for the full ceiling; every other
        failure costs one launch overhead.
        """
        if isinstance(error, KernelTimeout):
            return error.watchdog_ms
        return self.engine.spec.launch_overhead_ms

    def result(self) -> GPURunResult:
        """Cumulative result over all rounds run so far."""
        if self._rounds == 0:
            raise ConfigError("no rounds have been run")
        return GPURunResult(
            estimate=self._acc.estimate,
            n_samples=self._n_samples,
            n_root_samples=self._acc.n,
            n_valid=self._profile.n_valid_samples,
            accumulator=self._acc,
            profile=self._profile,
            n_warps=self._n_warps,
            tasks_per_warp=self.engine.config.tasks_per_warp,
            longest_warp_cycles=self._longest,
            spec=self.engine.spec,
            collected=self._collected,
        )
