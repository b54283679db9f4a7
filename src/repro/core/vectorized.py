"""Vectorized (struct-of-arrays) warp execution — the engine's fast path.

The scalar engine walks one lane at a time through Python ``SampleState``
objects.  This module keeps lane state as ``(n_warps, warp_size)`` arrays
(instances, probabilities, depths, active/running masks) and advances every
live warp one RSV super-step at a time:

1. :meth:`VectorKernel.prepare` runs GetMinCandidate + Refine for the flat
   batch of all running lanes (any mix of warps and depths);
2. the per-warp generators draw each warp's lane indices with one
   array-bound ``integers`` call (bit-identical to the scalar path's
   sequential draws, including state advancement);
3. :meth:`VectorKernel.finish` validates, the winners are scattered back
   into the state arrays, and the cost model is charged per warp from the
   same flat arrays (:func:`repro.gpu.memory.batched_union_counts` computes
   every warp's coalescing union in one sort).

Bit-identity with the scalar path — same estimates, same inheritance
decisions, same per-kernel cycle counters — is a tested invariant, so the
charge sequence below mirrors ``GSWORDEngine._charge_iteration`` operation
for operation (including Python-``sum`` accumulation where float ordering
matters).

Warps are executed in *waves* with optimistic task quotas ``min(tpw,
n - w·tpw)``.  The scalar loop sizes warp ``w``'s quota from the live
remaining count, which only differs from the guess when inheritance
over-collects; the fold detects that and re-runs the affected warp from
its spawned ``SeedSequence`` child (replayable by construction).

The wave executor itself is split off as :class:`WaveRunner`: everything it
needs — the kernel tables, a frozen :class:`WaveParams`, per-warp generator
states — is picklable or shared-memory-mappable, which is what lets
:mod:`repro.multidev` run slices of a round's warps in worker processes
while remaining bit-identical to in-process execution (each warp owns its
RNG substream, so results are independent of wave composition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph
from repro.core.config import SyncMode
from repro.core.engine import (
    _CAND_SCAN_OPS,
    _ITER_BASE_OPS,
    _PROBE_LOADS,
    _SAMPLE_OPS,
    _VALIDATE_OPS,
)
from repro.estimators.ht import HTAccumulator
from repro.estimators.vectorized import StepPrep, StepResult, VectorKernel
from repro.gpu.costmodel import GPUSpec
from repro.gpu.memory import (
    ARRAY_GLOBAL_CANDIDATES,
    ARRAY_LOCAL_CANDIDATES,
    batched_union_counts,
    warp_instruction_cost,
)
from repro.gpu.profiler import WarpProfile
from repro.query.matching_order import MatchingOrder
from repro.utils.lanerng import LaneKey, LaneRNG, lane_key, philox_bounded
from repro.utils.rng import (
    GeneratorState,
    RandomSource,
    generator_from_state,
    spawn_generator_states,
)

#: What a warp's replayable identity can be: a spawned generator state
#: (sequential mode) or a derived Philox :class:`LaneKey` (counter mode).
WarpState = Union[GeneratorState, LaneKey]

#: Warps stepped together per wave.  Bounds transient state-array memory and
#: keeps :func:`batched_union_counts` row keys comfortably inside int64.
_WAVE_CHUNK = 1024

#: One warp-result tuple: ``(acc, profile, n_valid, collected, count)`` —
#: the same shape ``GSWORDEngine._run_warp`` returns.
WarpResult = Tuple[
    HTAccumulator, WarpProfile, int, List[Tuple[Tuple[int, ...], float]], int
]


@dataclass(frozen=True)
class WaveParams:
    """Everything :class:`WaveRunner` needs beyond the kernel tables.

    A frozen, picklable snapshot of the engine knobs the wave loops read —
    shard workers receive one of these instead of the engine object.
    """

    sync_mode: SyncMode
    inheritance: bool
    streaming: bool
    streaming_threshold: int
    has_refine: bool
    target: int
    n_q: int
    warp_size: int
    spec: GPUSpec
    collect_states: bool
    #: Per-warp randomness source ("sequential" or "counter").  Part of the
    #: frozen params on purpose: shard workers key their cached plan on
    #: ``(kernel, params)``, so switching modes invalidates the plan.
    rng_mode: str = "sequential"


class LaneStateScratch:
    """Growable flat buffers behind the per-wave ``(K, W, n_q)`` lane-state
    arrays.

    One scratch lives per engine (and per shard worker) and is reused
    across waves *and* rounds: ``acquire`` hands out reshaped views of the
    flat buffers after resetting them to the fresh-lane values, so no
    state can leak between rounds and no allocation happens once the
    high-water mark is reached.
    """

    __slots__ = ("_inst", "_prob", "_depth")

    def __init__(self) -> None:
        self._inst = np.zeros(0, dtype=np.int64)
        self._prob = np.zeros(0, dtype=np.float64)
        self._depth = np.zeros(0, dtype=np.int64)

    def acquire(
        self, K: int, W: int, n_q: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Reset views shaped ``(K, W, n_q)`` / ``(K, W)`` / ``(K, W)``."""
        need3 = K * W * n_q
        need2 = K * W
        if self._inst.size < need3:
            self._inst = np.empty(need3, dtype=np.int64)
        if self._prob.size < need2:
            self._prob = np.empty(need2, dtype=np.float64)
            self._depth = np.empty(need2, dtype=np.int64)
        inst = self._inst[:need3].reshape(K, W, n_q)
        prob = self._prob[:need2].reshape(K, W)
        depth = self._depth[:need2].reshape(K, W)
        inst.fill(-1)
        prob.fill(1.0)
        depth.fill(0)
        return inst, prob, depth


class _WarpTask:
    """Mutable per-warp bookkeeping inside one wave."""

    __slots__ = (
        "row",
        "rng",
        "profile",
        "acc",
        "collected",
        "n_valid",
        "n_collected",
        "remaining",
        "batch",
        "round_inherited",
        "active",
        "running",
        "d",
        "need_batch",
        "fetched",
        "pool",
    )

    def __init__(self, row: int, rng: Union[np.random.Generator, LaneRNG]) -> None:
        self.row = row
        self.rng = rng
        self.profile = WarpProfile()
        self.acc = HTAccumulator()
        self.collected: List[Tuple[Tuple[int, ...], float]] = []
        self.n_valid = 0
        self.n_collected = 0


class WaveRunner:
    """Executes warps in waves against one kernel's tables.

    Self-contained: given the per-warp spawned generator states and task
    quotas it produces the same :data:`WarpResult` tuples regardless of how
    the warps are grouped into waves or which process runs them — the
    bit-identity property multi-device sharding rests on.
    """

    def __init__(
        self,
        kernel: VectorKernel,
        params: WaveParams,
        scratch: Optional[LaneStateScratch] = None,
    ) -> None:
        self.kernel = kernel
        self.p = params
        self.scratch = scratch if scratch is not None else LaneStateScratch()

    def run_warps(
        self, states: Sequence[WarpState], quotas: Sequence[int]
    ) -> List[WarpResult]:
        """Run one warp per ``(state, quota)`` pair, chunked into waves."""
        results: List[WarpResult] = []
        for lo in range(0, len(states), _WAVE_CHUNK):
            hi = min(lo + _WAVE_CHUNK, len(states))
            results.extend(self._wave(states[lo:hi], quotas[lo:hi]))
        return results

    # ------------------------------------------------------------------
    # Wave execution
    # ------------------------------------------------------------------
    def _wave(
        self, states: Sequence[WarpState], quotas: Sequence[int]
    ) -> List[WarpResult]:
        counter = self.p.rng_mode == "counter"
        tasks = []
        for row, (state, quota) in enumerate(zip(states, quotas)):
            t = _WarpTask(
                row,
                LaneRNG(state) if counter else generator_from_state(state),
            )
            t.remaining = quota
            t.pool = quota
            tasks.append(t)
        if self.p.sync_mode is SyncMode.SAMPLE:
            self._wave_sample(tasks)
        else:
            self._wave_iteration(tasks)
        return [
            (t.acc, t.profile, t.n_valid, t.collected, t.n_collected)
            for t in tasks
        ]

    def _wave_sample(self, tasks: List[_WarpTask]) -> None:
        W, target, n_q = self.p.warp_size, self.p.target, self.p.n_q
        spec = self.p.spec
        inherit = self.p.inheritance
        K = len(tasks)
        inst, prob, depth = self.scratch.acquire(K, W, n_q)
        for t in tasks:
            t.need_batch = True
        live = list(tasks)

        while live:
            for t in live:
                if t.need_batch:
                    t.batch = min(W, t.remaining)
                    r = t.row
                    inst[r] = -1
                    prob[r] = 1.0
                    depth[r] = 0
                    t.active = np.zeros(W, dtype=bool)
                    t.active[: t.batch] = True
                    t.running = t.active.copy()
                    t.d = 0
                    t.round_inherited = 0
                    t.need_batch = False

            lanes_list = [np.nonzero(t.running)[0] for t in live]
            counts = np.array([len(x) for x in lanes_list], dtype=np.int64)
            row_of = np.repeat(
                np.array([t.row for t in live], dtype=np.int64), counts
            )
            step_row_of = np.repeat(np.arange(len(live), dtype=np.int64), counts)
            lane_of = np.concatenate(lanes_list)
            depths_flat = np.repeat(
                np.array([t.d for t in live], dtype=np.int64), counts
            )
            prep = self.kernel.prepare(inst[row_of, lane_of], depths_flat)
            idx = self._draw(live, counts, prep)
            res = self.kernel.finish(prep, idx)
            self._push(inst, prob, depth, row_of, lane_of, depths_flat, res)
            validm = self._charge_step(
                live, step_row_of, lane_of, prep, res, depths_flat,
                busy=counts, sample_sync=True,
            )

            next_live = []
            for s, t in enumerate(live):
                vrow = validm[s]
                if inherit:
                    self._inherit(t, vrow, inst, prob, depth, spec)
                else:
                    t.running &= vrow
                t.d += 1
                if t.d >= target or not t.running.any():
                    self._finish_batch(t, inst, prob, depth)
                    if t.remaining > 0:
                        t.need_batch = True
                        next_live.append(t)
                else:
                    next_live.append(t)
            live = next_live

    def _wave_iteration(self, tasks: List[_WarpTask]) -> None:
        W, target, n_q = self.p.warp_size, self.p.target, self.p.n_q
        K = len(tasks)
        inst, prob, depth = self.scratch.acquire(K, W, n_q)
        for t in tasks:
            t.fetched = min(W, t.pool)
            t.active = np.zeros(W, dtype=bool)
            t.active[: t.fetched] = True
        live = list(tasks)

        while live:
            lanes_list = [np.nonzero(t.active)[0] for t in live]
            counts = np.array([len(x) for x in lanes_list], dtype=np.int64)
            row_of = np.repeat(
                np.array([t.row for t in live], dtype=np.int64), counts
            )
            step_row_of = np.repeat(np.arange(len(live), dtype=np.int64), counts)
            lane_of = np.concatenate(lanes_list)
            depths_flat = depth[row_of, lane_of]
            prep = self.kernel.prepare(inst[row_of, lane_of], depths_flat)
            idx = self._draw(live, counts, prep)
            res = self.kernel.finish(prep, idx)
            self._push(inst, prob, depth, row_of, lane_of, depths_flat, res)
            validm = self._charge_step(
                live, step_row_of, lane_of, prep, res, depths_flat,
                busy=counts, sample_sync=False,
            )

            next_live = []
            for s, t in enumerate(live):
                r = t.row
                vrow = validm[s]
                for lane in lanes_list[s]:
                    lane = int(lane)
                    if not vrow[lane]:
                        t.acc.add(0.0)
                    elif depth[r, lane] == target:
                        pv = float(prob[r, lane])
                        t.acc.add(1.0 / pv)
                        t.n_valid += 1
                        if self.p.collect_states:
                            t.collected.append(
                                (
                                    tuple(int(x) for x in inst[r, lane, :target]),
                                    pv,
                                )
                            )
                    else:
                        continue
                    # Iteration synchronisation: restart immediately if the
                    # pool still has tasks, otherwise the lane retires.
                    if t.fetched < t.pool:
                        t.fetched += 1
                        inst[r, lane] = -1
                        prob[r, lane] = 1.0
                        depth[r, lane] = 0
                    else:
                        t.active[lane] = False
                if t.active.any():
                    next_live.append(t)
                else:
                    t.n_collected = t.fetched
            live = next_live

    # ------------------------------------------------------------------
    # Step pieces
    # ------------------------------------------------------------------
    def _draw(
        self, live: List[_WarpTask], counts: np.ndarray, prep: StepPrep
    ) -> np.ndarray:
        """Per-warp draws, lanes in ascending order.

        Sequential mode replays each warp's PCG64 stream with one
        array-bound ``integers`` call per warp (bit-identical to the scalar
        path's sequential draws, including state advancement).  Counter
        mode computes the whole super-step in a single Philox pass: every
        drawable lane's value is a pure function of its warp key and the
        warp's running draw index, so no per-warp dispatch remains.
        """
        if self.p.rng_mode == "counter":
            return self._draw_counter(live, counts, prep)
        idx = np.full(len(prep.rlen), -1, dtype=np.int64)
        start = 0
        for t, c in zip(live, counts):
            c = int(c)
            bounds = prep.rlen[start : start + c]
            drawable = np.nonzero(bounds > 0)[0] + start
            if len(drawable):
                idx[drawable] = t.rng.integers(0, prep.rlen[drawable])
            start += c
        return idx

    def _draw_counter(
        self, live: List[_WarpTask], counts: np.ndarray, prep: StepPrep
    ) -> np.ndarray:
        """One Philox pass for all warps in the step.

        Counter accounting matches the scalar reference exactly: each warp
        consumes one counter per *drawable* lane (``rlen > 0``), lanes
        ascending — the same order the sequential draws happen in.
        """
        idx = np.full(len(prep.rlen), -1, dtype=np.int64)
        mask = prep.rlen > 0
        draws_per_task = np.bincount(
            np.repeat(np.arange(len(live), dtype=np.int64), counts)[mask],
            minlength=len(live),
        )
        if not mask.any():
            return idx
        sel = np.nonzero(mask)[0]
        task_start = np.concatenate(
            ([0], np.cumsum(draws_per_task)[:-1])
        ).astype(np.int64)
        seg_sel = np.repeat(
            np.arange(len(live), dtype=np.int64), draws_per_task
        )
        pos_in_task = np.arange(len(sel), dtype=np.int64) - task_start[seg_sel]
        base = np.array([t.rng.counter for t in live], dtype=np.uint64)
        k0 = np.array([t.rng.key.k0 for t in live], dtype=np.uint64)
        k1 = np.array([t.rng.key.k1 for t in live], dtype=np.uint64)
        ctr = base[seg_sel] + pos_in_task.astype(np.uint64)
        idx[sel] = philox_bounded(
            k0[seg_sel], k1[seg_sel], ctr, prep.rlen[sel]
        )
        for t, c in zip(live, draws_per_task):
            t.rng.counter += int(c)
        return idx

    @staticmethod
    def _push(
        inst: np.ndarray,
        prob: np.ndarray,
        depth: np.ndarray,
        row_of: np.ndarray,
        lane_of: np.ndarray,
        depths_flat: np.ndarray,
        res: StepResult,
    ) -> None:
        v = np.nonzero(res.valid)[0]
        if len(v) == 0:
            return
        inst[row_of[v], lane_of[v], depths_flat[v]] = res.v[v]
        prob[row_of[v], lane_of[v]] *= res.prob_factor[v]
        depth[row_of[v], lane_of[v]] += 1

    def _inherit(
        self,
        t: _WarpTask,
        vrow: np.ndarray,
        inst: np.ndarray,
        prob: np.ndarray,
        depth: np.ndarray,
        spec,
    ) -> None:
        """One warp's inheritance round (Alg. 2) on array state.

        Charge sequence matches :func:`repro.core.inheritance
        .apply_inheritance`: one sync for the any-ballot, one for the
        parent election, one shfl per inheriting lane.
        """
        votes = t.running & vrow
        if not votes.any():
            t.profile.charge_sync(spec.sync_cycles)
            t.running[:] = False
            return
        t.profile.charge_sync(spec.sync_cycles)
        t.profile.charge_sync(spec.sync_cycles)
        idle_mask = t.running & ~votes
        idle = int(idle_mask.sum())
        if idle == 0:
            t.running = votes
            return
        parent = int(np.argmax(votes))
        r = t.row
        prob[r, parent] *= idle + 1
        for _ in range(idle):
            t.profile.charge_sync(spec.sync_cycles)
        inst[r, idle_mask] = inst[r, parent]
        prob[r, idle_mask] = prob[r, parent]
        depth[r, idle_mask] = depth[r, parent]
        t.round_inherited += idle
        # All previously running lanes continue (the Alg. 2 behaviour).

    def _finish_batch(
        self,
        t: _WarpTask,
        inst: np.ndarray,
        prob: np.ndarray,
        depth: np.ndarray,
    ) -> None:
        """Leaf accounting at batch end: one HT value per root task."""
        target = self.p.target
        r = t.row
        drow = depth[r]
        prow = prob[r]
        for lane in range(self.p.warp_size):
            if not t.active[lane]:
                continue
            if t.running[lane] and drow[lane] == target:
                pv = float(prow[lane])
                t.acc.add(1.0 / pv)
                t.n_valid += 1
                if self.p.collect_states:
                    t.collected.append(
                        (tuple(int(x) for x in inst[r, lane, :target]), pv)
                    )
            else:
                t.acc.add(0.0)
        round_collected = t.batch + t.round_inherited
        t.n_collected += round_collected
        t.remaining -= round_collected

    # ------------------------------------------------------------------
    # Cost accounting (mirrors GSWORDEngine._charge_iteration)
    # ------------------------------------------------------------------
    def _lockstep_load_cost(self, max_chain: float, total_loads: float) -> float:
        """Same formula as ``GSWORDEngine._lockstep_load_cost``."""
        if total_loads <= 0:
            return 0.0
        spec = self.p.spec
        return max_chain * spec.mem_latency_cycles + total_loads * spec.issue_cycles

    def _charge_step(
        self,
        live: List[_WarpTask],
        step_row_of: np.ndarray,
        lane_of: np.ndarray,
        prep: StepPrep,
        res: StepResult,
        depths_flat: np.ndarray,
        busy: np.ndarray,
        sample_sync: bool,
    ) -> np.ndarray:
        """Charge one super-step for every stepping warp; returns the dense
        ``(n_warps, warp_size)`` validity matrix for the control logic."""
        spec = self.p.spec
        W = self.p.warp_size
        S = len(live)

        def dense(vals: np.ndarray, fill=0):
            m = np.full((S, W), fill, dtype=vals.dtype)
            m[step_row_of, lane_of] = vals
            return m

        present = np.zeros((S, W), dtype=bool)
        present[step_row_of, lane_of] = True
        validm = np.zeros((S, W), dtype=bool)
        validm[step_row_of, lane_of] = res.valid
        nb = dense(prep.nb)
        clen = dense(prep.clen)
        probes = dense(res.probes)

        has_refine = self.p.has_refine
        streaming = self.p.streaming and has_refine
        needs_ref = present & (nb > 0) if has_refine else np.zeros_like(present)

        backs = np.where(present, nb, 0)
        max_lookup = backs.max(axis=1)
        tot_lookup = backs.sum(axis=1)

        opsv = np.where(
            present, float(_ITER_BASE_OPS + _SAMPLE_OPS + _VALIDATE_OPS), 0.0
        )
        if has_refine and not streaming:
            opsv = opsv + np.where(needs_ref, clen * float(_CAND_SCAN_OPS), 0.0)
        opsv = opsv * spec.op_cycles
        ops_max = opsv.max(axis=1)

        probes_p = np.where(present, probes, 0)
        max_probe = probes_p.max(axis=1)
        tot_probe = probes_p.sum(axis=1)
        clen_p = np.where(present, clen, 0)
        rate = np.divide(
            probes_p.astype(np.float64),
            clen_p.astype(np.float64),
            out=np.zeros((S, W)),
            where=clen_p > 0,
        )

        # Tracker unions from the flat arrays: refining lanes scan their
        # candidate span contiguously; the rest touch the sampled slot.
        length = np.maximum(0, prep.span_hi - prep.span_lo)
        nr_flat = (
            (prep.nb > 0)
            if has_refine
            else np.zeros(len(lane_of), dtype=bool)
        )
        scan_m = nr_flat & (length > 0)
        touch_m = ~nr_flat & (prep.span_hi > prep.span_lo)
        aid_flat = np.where(
            prep.edge_id >= 0, ARRAY_LOCAL_CANDIDATES, ARRAY_GLOBAL_CANDIDATES
        )
        seg_counts, extra_reg = batched_union_counts(
            spec,
            S,
            step_row_of[scan_m],
            aid_flat[scan_m],
            prep.edge_id[scan_m],
            prep.span_lo[scan_m],
            length[scan_m],
            step_row_of[touch_m],
            aid_flat[touch_m],
            prep.edge_id[touch_m],
            prep.span_lo[touch_m]
            + (prep.span_hi[touch_m] - prep.span_lo[touch_m]) // 2,
        )

        if streaming:
            lane_clens = np.where(needs_ref, clen, 0)
            threshold = self.p.streaming_threshold
            limit = W if threshold is None else threshold
            if limit <= W:
                full = lane_clens // W
                tail = lane_clens % W
                partial = tail >= limit
                rounds_per_lane = full + partial
                remainders = np.where(partial, 0, tail)
            else:
                eligible = lane_clens >= limit
                rounds_per_lane = np.where(
                    eligible, (lane_clens - limit) // W + 1, 0
                )
                remainders = lane_clens - rounds_per_lane * W
            rounds_w = rounds_per_lane.sum(axis=1)
            ind_max = remainders.max(axis=1)
            rate_max = rate.max(axis=1)
            leftover = remainders * rate

        for s, t in enumerate(live):
            p = t.profile
            cycles_before = p.cycles
            tl = int(tot_lookup[s]) * _PROBE_LOADS
            p.charge_memory(
                self._lockstep_load_cost(int(max_lookup[s]) * _PROBE_LOADS, tl),
                tl,
                0,
            )
            if streaming:
                rounds = int(rounds_w[s])
                probe_rate = float(rate_max[s])
                if rounds:
                    probe_cycles = (
                        rounds
                        * probe_rate
                        * _PROBE_LOADS
                        * warp_instruction_cost(spec, spec.warp_size)
                    )
                    if probe_cycles:
                        p.charge_memory(
                            probe_cycles,
                            int(round(
                                rounds * probe_rate * _PROBE_LOADS * spec.warp_size
                            )),
                            0,
                        )
                    p.charge_sync(rounds * 5 * spec.sync_cycles)
                    p.charge_compute(rounds * _CAND_SCAN_OPS * spec.op_cycles)
                p.charge_compute(
                    int(ind_max[s]) * _CAND_SCAN_OPS * spec.op_cycles
                )
                lane_leftover = leftover[s].tolist()
                max_leftover = max(lane_leftover) if lane_leftover else 0.0
                # Sequential Python sum: float accumulation order matches
                # the scalar path's ``sum()`` over the 32-lane list.
                total_leftover = sum(lane_leftover)
                p.charge_memory(
                    self._lockstep_load_cost(
                        max_leftover * _PROBE_LOADS,
                        total_leftover * _PROBE_LOADS,
                    ),
                    int(round(total_leftover * _PROBE_LOADS)),
                    0,
                )
            else:
                tp = int(tot_probe[s]) * _PROBE_LOADS
                p.charge_memory(
                    self._lockstep_load_cost(
                        int(max_probe[s]) * _PROBE_LOADS, tp
                    ),
                    tp,
                    0,
                )
            p.charge_compute(float(ops_max[s]))
            segments = int(seg_counts[s])
            regions = int(extra_reg[s])
            cycles = warp_instruction_cost(spec, segments, regions)
            if cycles:
                p.charge_memory(cycles, segments, regions)
            if sample_sync:
                p.charge_idle_wait(p.cycles - cycles_before, int(busy[s]), W)
            p.note_lanes(busy=int(busy[s]), total=W)
        return validm


def wave_params_for(engine, order: MatchingOrder, collect_states: bool) -> WaveParams:
    """The :class:`WaveParams` snapshot of ``engine`` for one run."""
    config = engine.config
    return WaveParams(
        sync_mode=config.sync_mode,
        inheritance=config.inheritance,
        streaming=config.streaming,
        streaming_threshold=config.streaming_threshold,
        has_refine=engine.estimator.has_refine_stage,
        target=engine._target_depth(order),
        n_q=len(order),
        warp_size=engine.spec.warp_size,
        spec=engine.spec,
        collect_states=collect_states,
        rng_mode=config.rng_mode,
    )


class VectorWarpProvider:
    """Wave-executes all of a run's warps; hands results to the fold loop.

    Construction runs every warp at its optimistic quota — in-process when
    ``n_shards == 1``, or partitioned round-robin by warp index across the
    engine's shard pool otherwise (bit-identical either way, because each
    warp's result depends only on its own spawned generator state).
    :meth:`warp` returns the cached result when the fold confirms the
    quota, or re-runs that single warp locally (from the same spawned child
    state, so the random stream is identical) when inheritance made the
    true quota smaller.  ``n_reruns`` counts those re-runs; warps past the
    last one the fold reaches are computed and discarded.
    """

    def __init__(
        self,
        engine,
        kernel_cls,
        cg: CandidateGraph,
        order: MatchingOrder,
        n_samples: int,
        rng: RandomSource,
        collect_states: bool,
        shard_offset: int = 0,
    ) -> None:
        self.engine = engine
        self.kernel: VectorKernel = engine._vector_kernel(kernel_cls, cg, order)
        self.params = wave_params_for(engine, order, collect_states)
        self.runner = self._make_runner(engine)
        tpw = engine.config.tasks_per_warp
        self.max_warps = math.ceil(n_samples / tpw)
        self.states: List[WarpState] = list(
            spawn_generator_states(rng, self.max_warps)
        )
        if self.params.rng_mode == "counter":
            # Ship derived lane keys instead of SeedSequence objects: a
            # key is a pure function of its spawned child, tiny on the
            # shard pipes, and replays with no state to clone.
            self.states = [lane_key(s) for s in self.states]
        self.guesses = [
            min(tpw, n_samples - w * tpw) for w in range(self.max_warps)
        ]
        self.n_reruns = 0
        self.n_shards = min(engine.config.n_shards, max(1, self.max_warps))
        self.shard_offset = shard_offset % self.n_shards
        if self.n_shards > 1:
            executor = engine._shard_executor()
            self.results = executor.run_round(
                self.kernel, self.params, self.states, self.guesses,
                shard_offset=self.shard_offset,
            )
        else:
            self.results = self.runner.run_warps(self.states, self.guesses)

    def _make_runner(self, engine):
        """Runner factory — the fused provider overrides this to swap in
        its compiled-plan runner while inheriting spawning and sharding."""
        return WaveRunner(self.kernel, self.params, engine._lane_scratch())

    def shard_of(self, w: int) -> int:
        """Shard owning warp ``w`` (round-robin, hedges rotate the map)."""
        return (w + self.shard_offset) % self.n_shards

    def warp(self, w: int, quota: int) -> WarpResult:
        if quota == self.guesses[w]:
            return self.results[w]
        self.n_reruns += 1
        return self.runner.run_warps([self.states[w]], [quota])[0]
