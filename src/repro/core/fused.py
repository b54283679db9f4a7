"""Fused wave execution — the vector backend's runners and warp provider.

The scalar engine walks one lane at a time through Python ``SampleState``
objects.  The vector backend keeps lane state as dense arrays and executes
the :class:`repro.estimators.fused.FusedPlan` compiled once per (query,
estimator) pair.  This module holds what both synchronisation modes share
— the frozen :class:`WaveParams`, the :class:`FusedArena` scratch, the
per-warp profile and Welford registers as struct-of-arrays columns, the
per-warp draw, the batch-end fold, and the :class:`WarpProvider` that
spawns, shards and re-runs warps — plus :class:`FusedRunner`, the
sample-synchronised runner.  Iteration synchronisation runs on
:class:`repro.core.vectorized.WaveRunner` over the same plan.

Under sample synchronisation every running lane of a warp sits at the
warp's depth, so :class:`FusedRunner` steps whole depth groups:

* lane state stays **dense**: ``(K, W, n_q)`` instances, ``(K, W)``
  probabilities and masks, per-warp depth/quota/profile registers as
  struct-of-arrays columns — no flat-list rebuild, no per-warp objects;
* each super-step partitions live warps by depth (usually one group) and
  runs the level's compiled kernel as whole-batch numpy ops;
* cost-model charges are whole-column arithmetic on the profile SoA,
  replicating the scalar charge sequence value-for-value (the per-level
  constants — backward-pair count, candidate spans — are baked into the
  plan, so there is no per-warp Python charge loop);
* batch-end Horvitz–Thompson folds run as masked per-lane Welford updates
  across all finishing warps at once, reproducing ``HTAccumulator.add``'s
  float operation order exactly (a few warps fold through
  ``HTAccumulator.add`` itself, which is cheaper than the numpy calls).

An interactive round is one or two warps, so per-step numpy dispatch, not
array width, is what the runner pays for; the charge path skips every call
that cannot change a value for the common shapes (see
:meth:`FusedRunner._charge_rows`).

All persistent buffers come from a :class:`FusedArena` — named, high-water
reused across waves *and* rounds, so steady-state execution allocates
nothing.  Bit-identity with the scalar backend (estimates, inheritance
decisions, reservoir contents, simulated-ms) is a tested contract.

Everything a runner needs — the kernel tables, a frozen
:class:`WaveParams`, per-warp generator states — is picklable or
shared-memory-mappable, which is what lets :mod:`repro.multidev` run
slices of a round's warps in worker processes while remaining
bit-identical to in-process execution (each warp owns its RNG substream,
so results are independent of wave composition).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SyncMode
from repro.core.engine import (
    _CAND_SCAN_OPS,
    _ITER_BASE_OPS,
    _PROBE_LOADS,
    _SAMPLE_OPS,
    _VALIDATE_OPS,
)
from repro.estimators.fused import FusedKernel, FusedPlan
from repro.estimators.ht import HTAccumulator
from repro.gpu.costmodel import GPUSpec
from repro.gpu.memory import (
    ARRAY_GLOBAL_CANDIDATES,
    ARRAY_LOCAL_CANDIDATES,
    warp_instruction_cost,
)
from repro.gpu.profiler import WarpProfile
from repro.query.matching_order import MatchingOrder
from repro.utils.rng import (
    GeneratorState,
    RandomSource,
    generator_from_state,
    spawn_generator_states,
)

#: One warp-result tuple: ``(acc, profile, n_valid, collected, count)`` —
#: the same shape ``GSWORDEngine._run_warp`` returns.
WarpResult = Tuple[
    HTAccumulator, WarpProfile, int, List[Tuple[Tuple[int, ...], float]], int
]

#: Per-warp reservoir lists of ``(partial_instance, probability)`` pairs.
Collected = List[List[Tuple[Tuple[int, ...], float]]]


@dataclass(frozen=True)
class WaveParams:
    """Everything a runner needs beyond the kernel tables.

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


#: Warps processed per wave.  The dense SoA state is small (a few hundred
#: bytes per warp), so waves are wide — per-super-step numpy dispatch is
#: the runners' only fixed cost, and wave width is what amortises it.
#: Chunk size never changes results: warps own their RNG substreams and
#: every runner pass is row-wise.
_FUSED_WAVE_CHUNK = 8192

#: Batch-end folds over at most this many finishing warps run lane by lane
#: through :meth:`HTAccumulator.add` itself.  The vector fold's cost is
#: nine numpy calls per lane whatever the row count, the scalar fold's
#: grows with the rows; both make the same float operations.  Measured on
#: a 2-vCPU x86 host: one full-batch warp folds in 19 us vs 304 us, and
#: the two break even at 16-17 warps (partial batches favour the scalar
#: fold further still).
_SCALAR_FOLD_ROWS = 16

#: Array-id key offsets for the row-wise union counter; the same
#: collision-free packing :func:`repro.gpu.memory.batched_union_counts`
#: uses (array ids < 8, candidate arrays far below 2^45 elements).
_AID_LOCAL = np.int64(ARRAY_LOCAL_CANDIDATES) << 45
_AID_GLOBAL = np.int64(ARRAY_GLOBAL_CANDIDATES) << 45
_KEY_SENTINEL = np.int64(1) << 62


def _distinct_rows(keys: np.ndarray) -> np.ndarray:
    """Distinct non-sentinel (``-1``) values per row of a key matrix."""
    s = np.sort(keys, axis=1)
    if s.shape[1] > 1:
        distinct = (s[:, 1:] != s[:, :-1]).sum(axis=1) + 1
    else:
        distinct = np.ones(s.shape[0], dtype=np.int64)
    return distinct - (s[:, 0] == -1)


def _masked(mask: Optional[np.ndarray], x, fill):
    """``x`` on the lanes ``mask`` keeps, ``fill`` elsewhere; ``None``
    means every lane is kept."""
    return x if mask is None else np.where(mask, x, fill)


def _union_sweep(
    m: np.ndarray, first: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """Per-row count of distinct keys covered by one inclusive key range
    ``[first, last]`` per masked lane: an interval-union sweep over the
    lane spans sorted by start."""
    fk = np.where(m, first, _KEY_SENTINEL)
    lk = np.where(m, last, np.int64(-1))
    order = np.argsort(fk, axis=1)
    row = np.arange(len(fk))[:, None]
    fs = fk[row, order]
    ls = lk[row, order]
    run = np.maximum.accumulate(ls, axis=1)
    pm = np.empty_like(run)
    pm[:, 0] = -2
    if run.shape[1] > 1:
        pm[:, 1:] = run[:, :-1]
    # Sorted by start, the already-covered part of span i is exactly
    # [fs_i, pm_i], so its new coverage is [max(fs_i, pm_i + 1), ls_i].
    return np.maximum(0, ls - np.maximum(fs, pm + 1) + 1).sum(axis=1)


def _extra_regions(
    m: np.ndarray, aidk: np.ndarray, eid: np.ndarray
) -> np.ndarray:
    """Per-row distinct ``(array, region)`` count beyond the first."""
    keys = np.where(m, aidk + eid + 1, np.int64(-1))
    return np.maximum(0, _distinct_rows(keys) - 1)


def _scan_union_rows(
    m: np.ndarray, eid: np.ndarray, first: np.ndarray, last: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(segments, extra_regions)`` over one scan span per lane.

    Same counts as :func:`repro.gpu.memory.batched_union_counts` for the
    fused refine step's shape — each masked lane contributes one inclusive
    segment range ``[first, last]`` in the array given by ``eid``'s sign —
    but computed per warp row: distinct ``(array, segment)`` via
    :func:`_union_sweep`, distinct ``(array, region)`` via a 32-wide row
    sort.  No flat concatenation, no global key sort.
    """
    aidk = np.where(eid >= 0, _AID_LOCAL, _AID_GLOBAL)
    segs = _union_sweep(m, aidk + first, aidk + last)
    return segs, _extra_regions(m, aidk, eid)


def _touch_union_rows(
    m: np.ndarray, eid: np.ndarray, seg_idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(segments, extra_regions)`` over one single-element touch
    per lane (the validate-probe shape): both unions are plain distinct
    counts, no interval sweep needed."""
    aidk = np.where(eid >= 0, _AID_LOCAL, _AID_GLOBAL)
    segs = _distinct_rows(np.where(m, aidk + seg_idx, np.int64(-1)))
    return segs, _extra_regions(m, aidk, eid)


class FusedArena:
    """Named growable scratch buffers with high-water reuse.

    Every persistent array the fused runner needs (lane state, profile
    SoA, Welford registers, batch bookkeeping) is ``take``-n from here by
    name; once a wave as large as any before has run, subsequent waves and
    rounds allocate nothing.  ``n_allocations`` counts real ``np.empty``
    calls — the reuse tests pin it."""

    __slots__ = ("_bufs", "n_allocations")

    def __init__(self) -> None:
        self._bufs: Dict[str, np.ndarray] = {}
        self.n_allocations = 0

    def take(
        self, name: str, shape: Tuple[int, ...], dtype: type
    ) -> np.ndarray:
        need = 1
        for s in shape:
            need *= int(s)
        buf = self._bufs.get(name)
        if buf is None or buf.size < need or buf.dtype != np.dtype(dtype):
            buf = np.empty(need, dtype=dtype)
            self._bufs[name] = buf
            self.n_allocations += 1
        return buf[:need].reshape(shape)

    def zeros(
        self, name: str, shape: Tuple[int, ...], dtype: type
    ) -> np.ndarray:
        out = self.take(name, shape, dtype)
        out.fill(0)
        return out

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bufs.values())


class _ProfileSoA:
    """Per-warp :class:`WarpProfile` counters as arena columns."""

    __slots__ = (
        "comp", "mem", "sync", "slong", "swait",
        "segs", "regs", "busy", "ltot", "iters",
    )

    def __init__(self, arena: FusedArena, K: int) -> None:
        self.comp = arena.zeros("prof_comp", (K,), np.float64)
        self.mem = arena.zeros("prof_mem", (K,), np.float64)
        self.sync = arena.zeros("prof_sync", (K,), np.float64)
        self.slong = arena.zeros("prof_slong", (K,), np.float64)
        self.swait = arena.zeros("prof_swait", (K,), np.float64)
        self.segs = arena.zeros("prof_segs", (K,), np.int64)
        self.regs = arena.zeros("prof_regs", (K,), np.int64)
        self.busy = arena.zeros("prof_busy", (K,), np.int64)
        self.ltot = arena.zeros("prof_ltot", (K,), np.int64)
        self.iters = arena.zeros("prof_iters", (K,), np.int64)

    def materialize(self, i: int) -> WarpProfile:
        return WarpProfile(
            compute_cycles=float(self.comp[i]),
            mem_cycles=float(self.mem[i]),
            sync_cycles=float(self.sync[i]),
            stall_long=float(self.slong[i]),
            stall_wait=float(self.swait[i]),
            mem_segments=int(self.segs[i]),
            region_misses=int(self.regs[i]),
            lane_busy=int(self.busy[i]),
            lane_total=int(self.ltot[i]),
            iterations=int(self.iters[i]),
        )


def _warp_streams(states: Sequence[GeneratorState]):
    """Per-warp draw sources for one wave, as :func:`_draw_rows` takes them:
    each warp's bound ``Generator.integers`` (the draw loop calls one per
    warp per step, and attribute lookup on Generator is measurable at
    scale)."""
    return [generator_from_state(s).integers for s in states]


def _draw_rows(rows: np.ndarray, rlen: np.ndarray, igs) -> np.ndarray:
    """Per-warp draws for the ``(rows, lanes)`` bound matrix ``rlen``,
    lanes in ascending order within each warp ``rows[i]``.

    Each warp's own generator consumes the identical bound array the
    scalar path feeds it.  The drawable bounds of all rows are gathered
    once (row-major, so each row's slice is its positive bounds in
    ascending lane order — the scalar ``bounds[drawable]``) and each
    warp's pre-bound ``Generator.integers`` draws from a contiguous view;
    per-row numpy work is one slice and one ``integers`` call.
    """
    idx = np.full(rlen.shape, -1, dtype=np.int64)
    mask = rlen > 0
    counts = mask.sum(axis=1).tolist()
    flat_bounds = rlen[mask]
    off = 0
    parts: List[np.ndarray] = []
    ap = parts.append
    row_ids = rows.tolist()
    for i, c in enumerate(counts):
        if c:
            end = off + c
            ap(igs[row_ids[i]](0, flat_bounds[off:end]))
            off = end
    if parts:
        idx[mask] = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return idx


def _collect_rows(
    collected: Collected,
    fin: np.ndarray,
    ok: np.ndarray,
    inst: np.ndarray,
    pv: np.ndarray,
    target: int,
) -> None:
    """Append warp ``fin[i]``'s completed lanes ``ok[i]`` to its reservoir
    in lane order, with the probabilities ``pv[i]``."""
    for i in range(len(fin)):
        row_ok = ok[i]
        if not row_ok.any():
            continue
        r = int(fin[i])
        for lane in np.nonzero(row_ok)[0]:
            collected[r].append(
                (
                    tuple(int(x) for x in inst[r, lane, :target]),
                    float(pv[i, lane]),
                )
            )


def _warp_results(
    prof: _ProfileSoA,
    wn: np.ndarray,
    wvalid: np.ndarray,
    wmean: np.ndarray,
    wm2: np.ndarray,
    collected: Optional[Collected],
    ncoll: np.ndarray,
) -> List[WarpResult]:
    """One :data:`WarpResult` per wave row from the SoA registers."""
    out: List[WarpResult] = []
    for i in range(len(wn)):
        acc = HTAccumulator(n=int(wn[i]), n_valid=int(wvalid[i]))
        acc._mean = float(wmean[i])
        acc._m2 = float(wm2[i])
        out.append(
            (
                acc,
                prof.materialize(i),
                int(wvalid[i]),
                collected[i] if collected is not None else [],
                int(ncoll[i]),
            )
        )
    return out


def _charge_streamed(
    p: WaveParams,
    lane_clens: np.ndarray,
    rate: np.ndarray,
    mem: np.ndarray,
    sync: np.ndarray,
    comp: np.ndarray,
    segs: np.ndarray,
):
    """Alg. 3's streamed candidate probes for one ``(rows, lanes)`` step,
    value-for-value with the scalar ``streaming_schedule`` charge:
    collaborative rounds over ``lane_clens`` (the refining lanes'
    candidate counts, 0 elsewhere), then each lane's independent leftover
    scan at its probe ``rate``.  Returns the updated ``(mem, sync, comp,
    segs)`` columns and the memory charges in order (StallLong mirrors
    them)."""
    spec = p.spec
    W = p.warp_size
    op = spec.op_cycles
    limit = p.streaming_threshold
    if limit <= W:
        tail = lane_clens % W
        partial = tail >= limit
        rounds_per_lane = lane_clens // W + partial
        remainders = np.where(partial, 0, tail)
    else:
        eligible = lane_clens >= limit
        rounds_per_lane = np.where(eligible, (lane_clens - limit) // W + 1, 0)
        remainders = lane_clens - rounds_per_lane * W
    rounds_w = rounds_per_lane.sum(axis=1)
    ind_max = remainders.max(axis=1)
    rate_max = rate.max(axis=1)
    leftover = remainders * rate
    wic_full = warp_instruction_cost(spec, spec.warp_size)
    probe_loads = rounds_w * rate_max * _PROBE_LOADS
    probe_cycles = probe_loads * wic_full
    mem = mem + probe_cycles
    segs = segs + np.where(
        probe_cycles > 0,
        np.rint(probe_loads * spec.warp_size).astype(np.int64),
        0,
    )
    sync = sync + rounds_w * 5 * spec.sync_cycles
    comp = comp + rounds_w * _CAND_SCAN_OPS * op
    comp = comp + ind_max * _CAND_SCAN_OPS * op
    max_leftover = leftover.max(axis=1)
    # Lane-order fold: cumsum adds left to right, the same float
    # accumulation order as the scalar path's Python sum over the
    # 32-lane list.
    total_leftover = leftover.cumsum(axis=1)[:, -1]
    ml = max_leftover * _PROBE_LOADS
    tl = total_leftover * _PROBE_LOADS
    lcost = np.where(
        tl > 0, ml * spec.mem_latency_cycles + tl * spec.issue_cycles, 0.0
    )
    mem = mem + lcost
    segs = segs + np.rint(tl).astype(np.int64)
    return mem, sync, comp, segs, (probe_cycles, lcost)


class FusedRunner:
    """Executes sample-synchronised warps against a compiled
    :class:`FusedPlan`.

    ``run_warps(states, quotas) -> List[WarpResult]`` gives bit-identical
    results for any wave composition or process placement — which is what
    lets :mod:`repro.multidev` shard rounds unchanged.
    """

    def __init__(
        self,
        kernel: FusedKernel,
        params: WaveParams,
        arena: Optional[FusedArena] = None,
    ) -> None:
        if params.sync_mode is not SyncMode.SAMPLE:
            raise ValueError(
                "FusedRunner steps the sample-synchronised schedule; "
                "iteration sync runs on repro.core.vectorized.WaveRunner"
            )
        self.kernel = kernel
        self.p = params
        self.arena = arena if arena is not None else FusedArena()
        self.plan: FusedPlan = kernel.compile_plan(params.target)

    def run_warps(
        self, states: Sequence[GeneratorState], quotas: Sequence[int]
    ) -> List[WarpResult]:
        results: List[WarpResult] = []
        for lo in range(0, len(states), _FUSED_WAVE_CHUNK):
            hi = min(lo + _FUSED_WAVE_CHUNK, len(states))
            results.extend(self._wave(states[lo:hi], quotas[lo:hi]))
        return results

    # ------------------------------------------------------------------
    # Wave loop
    # ------------------------------------------------------------------
    def _wave(
        self, states: Sequence[GeneratorState], quotas: Sequence[int]
    ) -> List[WarpResult]:
        p = self.p
        K = len(states)
        W, target, n_q = p.warp_size, p.target, p.n_q
        ar = self.arena
        igs = _warp_streams(states)
        inst = ar.take("inst", (K, W, n_q), np.int64)
        prob = ar.take("prob", (K, W), np.float64)
        active = ar.take("active", (K, W), np.bool_)
        running = ar.take("running", (K, W), np.bool_)
        valid = ar.take("valid", (K, W), np.bool_)
        prof = _ProfileSoA(ar, K)
        wn = ar.zeros("wf_n", (K,), np.int64)
        wvalid = ar.zeros("wf_valid", (K,), np.int64)
        wmean = ar.zeros("wf_mean", (K,), np.float64)
        wm2 = ar.zeros("wf_m2", (K,), np.float64)
        remaining = ar.take("remaining", (K,), np.int64)
        remaining[:] = np.asarray(quotas, dtype=np.int64)
        batch = ar.zeros("batch", (K,), np.int64)
        round_inh = ar.zeros("round_inh", (K,), np.int64)
        dvals = ar.zeros("dvals", (K,), np.int64)
        need_batch = ar.take("need_batch", (K,), np.bool_)
        need_batch.fill(True)
        alive = ar.take("alive", (K,), np.bool_)
        alive.fill(True)
        ncoll = ar.zeros("ncoll", (K,), np.int64)
        collected: Optional[Collected] = (
            [[] for _ in range(K)] if p.collect_states else None
        )
        lane_iota = np.arange(W, dtype=np.int64)

        rows_alive = np.nonzero(alive)[0]
        while len(rows_alive):
            nb_rows = rows_alive[need_batch[rows_alive]]
            if len(nb_rows):
                b = np.minimum(W, remaining[nb_rows])
                batch[nb_rows] = b
                inst[nb_rows] = -1
                prob[nb_rows] = 1.0
                active[nb_rows] = lane_iota[None, :] < b[:, None]
                running[nb_rows] = active[nb_rows]
                dvals[nb_rows] = 0
                round_inh[nb_rows] = 0
                need_batch[nb_rows] = False

            # One super-step.  Warps can sit at different depths (batches
            # end per warp), so partition by depth; each group runs its
            # compiled level as one dense pass.
            valid[rows_alive] = False
            dsub = dvals[rows_alive]
            d0 = int(dsub[0])
            if (dsub == d0).all():
                self._step_level(
                    d0, rows_alive, inst, prob, running, valid, igs, prof
                )
            else:
                for d in np.unique(dsub):
                    rows = rows_alive[dsub == d]
                    self._step_level(
                        int(d), rows, inst, prob, running, valid, igs, prof
                    )

            if p.inheritance:
                self._inherit_rows(
                    rows_alive, valid, running, inst, prob, prof, round_inh
                )
            else:
                running[rows_alive] &= valid[rows_alive]
            dvals[rows_alive] += 1
            fin_m = (dvals[rows_alive] >= target) | ~running[rows_alive].any(
                axis=1
            )
            fin = rows_alive[fin_m]
            if len(fin):
                self._finish_rows(
                    fin, inst, prob, active, running, dvals,
                    wn, wvalid, wmean, wm2, collected,
                )
                rc = batch[fin] + round_inh[fin]
                ncoll[fin] += rc
                remaining[fin] -= rc
                cont = remaining[fin] > 0
                need_batch[fin[cont]] = True
                alive[fin[~cont]] = False
                rows_alive = np.nonzero(alive)[0]

        return _warp_results(prof, wn, wvalid, wmean, wm2, collected, ncoll)

    # ------------------------------------------------------------------
    # Step pieces
    # ------------------------------------------------------------------
    def _step_level(
        self,
        d: int,
        rows: np.ndarray,
        inst: np.ndarray,
        prob: np.ndarray,
        running: np.ndarray,
        valid: np.ndarray,
        igs,
        prof: _ProfileSoA,
    ) -> None:
        lv = self.plan.levels[d]
        # When the depth group covers the whole wave (the common case) the
        # state matrices are passed as views: nothing in the step mutates
        # `running`, and `inst` is only written after the kernel phases
        # have consumed it.
        full = len(rows) == inst.shape[0]
        present = running if full else running[rows]
        inst3 = inst if full else inst[rows]
        prep = self.kernel.fused_prepare(lv, inst3, present)
        idx = _draw_rows(rows, prep.rlen, igs)
        res = self.kernel.fused_finish(lv, prep, idx, inst3)
        vr, vc = np.nonzero(res.valid)
        if len(vr):
            gr = vr if full else rows[vr]
            inst[gr, vc, d] = res.v[vr, vc]
            prob[gr, vc] *= res.prob_factor[vr, vc]
        valid[rows] = res.valid
        self._charge_rows(
            lv, slice(None) if full else rows, present, prep, res, prof
        )

    def _inherit_rows(
        self,
        rows: np.ndarray,
        valid: np.ndarray,
        running: np.ndarray,
        inst: np.ndarray,
        prob: np.ndarray,
        prof: _ProfileSoA,
        round_inh: np.ndarray,
    ) -> None:
        """Alg. 2 inheritance for every stepping warp at once."""
        sc = self.p.spec.sync_cycles
        run_r = running[rows]
        votes = run_r & valid[rows]
        anyv = votes.any(axis=1)
        # One vote sync per warp; a warp with a surviving lane pays a
        # second, a warp without one stops.
        if not anyv.all():
            nv = rows[~anyv]
            prof.sync[nv] += sc
            running[nv] = False
            rows = rows[anyv]
            if len(rows) == 0:
                return
            run_r = run_r[anyv]
            votes = votes[anyv]
        y = prof.sync[rows] + sc
        prof.sync[rows] = y + sc
        idle_m = run_r & ~votes
        if not idle_m.any():
            # No lane died this step (the common case at high valid
            # ratios): nothing to inherit.
            return
        idle = idle_m.sum(axis=1)
        iw = idle > 0
        wr = rows[iw]
        im = idle_m[iw]
        ic = idle[iw]
        parent = np.argmax(votes[iw], axis=1)
        prob[wr, parent] *= ic + 1
        # One shfl-sync per inheriting lane, exactly idle times per warp
        # (``add.at`` adds once per repeated index, in order).
        np.add.at(prof.sync, np.repeat(wr, ic), sc)
        rr, ll = np.nonzero(im)
        gr = wr[rr]
        par = parent[rr]
        inst[gr, ll] = inst[gr, par]
        prob[gr, ll] = prob[gr, par]
        round_inh[wr] += ic
        # All previously running lanes continue (the Alg. 2 behaviour).

    def _finish_rows(
        self,
        fin: np.ndarray,
        inst: np.ndarray,
        prob: np.ndarray,
        active: np.ndarray,
        running: np.ndarray,
        dvals: np.ndarray,
        wn: np.ndarray,
        wvalid: np.ndarray,
        wmean: np.ndarray,
        wm2: np.ndarray,
        collected: Optional[Collected],
    ) -> None:
        """Batch-end HT fold: every finishing warp adds its active lanes'
        values in lane order, exactly ``HTAccumulator.add`` per lane."""
        target = self.p.target
        ok = running[fin] & (dvals[fin] == target)[:, None]
        act = active[fin]
        pv = prob[fin]
        val = np.where(
            ok, np.divide(1.0, pv, out=np.zeros_like(pv), where=ok), 0.0
        )
        self._fold(fin, act, val, wn, wvalid, wmean, wm2)
        if collected is not None:
            _collect_rows(collected, fin, ok, inst, pv, target)

    @classmethod
    def _fold(
        cls,
        fin: np.ndarray,
        act: np.ndarray,
        val: np.ndarray,
        wn: np.ndarray,
        wvalid: np.ndarray,
        wmean: np.ndarray,
        wm2: np.ndarray,
    ) -> None:
        """Fold ``val[i][act[i]]`` into warp ``fin[i]``'s Welford registers
        in lane order: lane by lane through ``HTAccumulator.add`` for a few
        rows, as a vector fold for many (the same float operations)."""
        if len(fin) > _SCALAR_FOLD_ROWS:
            cls._fold_rows(fin, act, val, wn, wvalid, wmean, wm2)
            return
        for i, r in enumerate(fin.tolist()):
            acc = HTAccumulator(n=int(wn[r]), n_valid=int(wvalid[r]))
            acc._mean = float(wmean[r])
            acc._m2 = float(wm2[r])
            for value in val[i][act[i]].tolist():
                acc.add(value)
            wn[r] = acc.n
            wvalid[r] = acc.n_valid
            wmean[r] = acc._mean
            wm2[r] = acc._m2

    @staticmethod
    def _fold_rows(
        fin: np.ndarray,
        act: np.ndarray,
        val: np.ndarray,
        wn: np.ndarray,
        wvalid: np.ndarray,
        wmean: np.ndarray,
        wm2: np.ndarray,
    ) -> None:
        """Masked Welford updates lane 0..W-1 in order across all rows."""
        n = wn[fin]
        nv = wvalid[fin]
        mean = wmean[fin]
        m2 = wm2[fin]
        if act.all():
            # Full batches (the common case): every lane adds, so the
            # masked selects vanish and n is always >= 1 after increment.
            for lane in range(act.shape[1]):
                value = val[:, lane]
                n = n + 1
                nv = nv + (value > 0)
                delta = value - mean
                mean = mean + delta / n
                m2 = m2 + delta * (value - mean)
        else:
            for lane in range(act.shape[1]):
                m = act[:, lane]
                value = val[:, lane]
                n = n + m
                nv = nv + (m & (value > 0))
                delta = value - mean
                nsafe = np.maximum(n, 1)
                mean_new = mean + delta / nsafe
                m2_new = m2 + delta * (value - mean_new)
                mean = np.where(m, mean_new, mean)
                m2 = np.where(m, m2_new, m2)
        wn[fin] = n
        wvalid[fin] = nv
        wmean[fin] = mean
        wm2[fin] = m2

    # ------------------------------------------------------------------
    # Cost accounting (value-for-value with GSWORDEngine._charge_iteration)
    # ------------------------------------------------------------------
    def _charge_rows(
        self,
        lv,
        ix,
        present: np.ndarray,
        prep,
        res,
        prof: _ProfileSoA,
    ) -> None:
        """Whole-column cost accounting, value-for-value with the scalar
        charge sequence: each profile field is gathered once, updated with
        the same additions in the same order, and scattered once.

        ``ix`` selects the stepping warps' profile rows (a slice when the
        depth group is the whole wave).  Small waves are dominated by the
        number of numpy calls, not their width, so the common shapes get
        shortcuts that drop calls without changing a value: when every
        lane is present the busy count is the constant ``W`` (no lane
        masks, and the sample-sync idle charge adds exactly ``0.0``), a
        level with one backward pair has no extra regions, and a global
        level streams nothing.
        """
        p = self.p
        spec = p.spec
        W = p.warp_size
        op = spec.op_cycles
        mem_lat = spec.mem_latency_cycles
        issue = spec.issue_cycles
        nbc = lv.nb
        has_refine = p.has_refine
        streaming = p.streaming and has_refine
        all_present = bool(present.all())
        mask = None if all_present else present
        busy = W if all_present else present.sum(axis=1)

        c0 = prof.comp[ix]
        m0 = prof.mem[ix]
        y0 = prof.sync[ix]
        # (``ix`` may be a slice: take the pre-step total before the
        # scatter below overwrites the viewed columns.)
        cyc_before = None if all_present else c0 + m0 + y0

        # (1) backward-pair lookups, lockstep across the warp.  When any
        # lane is busy the per-lane maximum is the constant nb * loads.
        tot_lookup = busy * (nbc * _PROBE_LOADS)
        lookup_cost = np.where(
            tot_lookup > 0,
            (nbc * _PROBE_LOADS) * mem_lat + tot_lookup * issue,
            0.0,
        )

        base_ops = float(_ITER_BASE_OPS + _SAMPLE_OPS + _VALIDATE_OPS)
        if has_refine and not streaming and nbc > 0:
            opsv = _masked(
                mask, (base_ops + prep.clen * float(_CAND_SCAN_OPS)) * op, 0.0
            )
            ops_max = opsv.max(axis=1)
        else:
            # All present lanes cost the same constant.
            ops_max = np.where(busy > 0, base_ops * op, 0.0)

        # Tracker unions.  Global levels are analytic: every present lane
        # touches the same constant pool slot, one segment, no extra
        # regions.  Backward levels run the row-wise interval sweep; with
        # one backward pair every lane reads the same edge's array, so
        # there are no extra regions either.
        extra_reg = 0
        if lv.glob:
            seg_counts = np.where(busy > 0, int(lv.g_len > 0), 0)
        else:
            span_lo = _masked(mask, prep.span_lo, 0)
            span_hi = _masked(mask, prep.span_hi, 0)
            seg_el = spec.segment_elements
            if has_refine:
                # Each lane scans its whole candidate span.
                length = np.maximum(0, span_hi - span_lo)
                m = length > 0
                first = span_lo // seg_el
                last = (span_lo + length - 1) // seg_el
            else:
                # Each lane touches the middle of its span.
                m = span_hi > span_lo
                first = (span_lo + (span_hi - span_lo) // 2) // seg_el
            if mask is not None:
                m &= mask
            if nbc > 1:
                # Lanes read different edges' arrays: segments are keyed
                # by array id and may cross regions.
                eid = _masked(mask, prep.edge_id, np.int64(-1))
                if has_refine:
                    seg_counts, extra_reg = _scan_union_rows(m, eid, first, last)
                else:
                    seg_counts, extra_reg = _touch_union_rows(m, eid, first)
            elif has_refine:
                # One pair: every lane reads the same array, so the bare
                # segment ids are the keys and there is one region.
                seg_counts = _union_sweep(m, first, last)
            else:
                seg_counts = _distinct_rows(np.where(m, first, np.int64(-1)))

        # (2) candidate probes — streamed (Alg. 3) or lockstep
        seg_add = tot_lookup
        sync_new = y0
        comp_new = c0
        mem_new = m0 + lookup_cost
        probe_costs: Tuple = ()
        if streaming and nbc > 0:
            # (Global levels stream nothing: every term below is +0.)
            clen_p = _masked(mask, prep.clen, 0)
            probes_p = _masked(mask, res.probes, 0)
            # (int64 / int64 true-divides in float64)
            rate = np.divide(
                probes_p, clen_p, out=np.zeros(clen_p.shape), where=clen_p > 0
            )
            mem_new, sync_new, comp_new, seg_add, probe_costs = _charge_streamed(
                p, clen_p, rate, mem_new, sync_new, comp_new, seg_add
            )
        elif not streaming:
            probes_p = _masked(mask, res.probes, 0)
            tp = probes_p.sum(axis=1) * _PROBE_LOADS
            mp = probes_p.max(axis=1) * _PROBE_LOADS
            pcost = np.where(tp > 0, mp * mem_lat + tp * issue, 0.0)
            mem_new = mem_new + pcost
            seg_add = seg_add + tp
            probe_costs = (pcost,)

        # (3) per-iteration compute, slowest lane paces the warp
        comp_new = comp_new + ops_max

        # (4) coalescing-union memory instruction
        ucost = np.where(
            seg_counts > 0,
            mem_lat + seg_counts * issue + extra_reg * spec.region_miss_cycles,
            0.0,
        )
        um = ucost > 0
        mem_new = mem_new + ucost
        seg_add = seg_add + np.where(um, seg_counts, 0)

        # StallLong mirrors every memory charge: same adds, same order,
        # from the stall column's own base.
        sl = prof.slong[ix] + lookup_cost
        for cost in probe_costs:
            sl = sl + cost
        sl = sl + ucost

        prof.comp[ix] = comp_new
        prof.mem[ix] = mem_new
        prof.sync[ix] = sync_new
        prof.slong[ix] = sl
        prof.segs[ix] += seg_add
        prof.regs[ix] += np.where(um, extra_reg, 0)

        # (5) sample-sync idle lanes sit through the whole iteration
        if not all_present:
            delta = (comp_new + mem_new + sync_new) - cyc_before
            prof.swait[ix] += np.where(busy < W, delta * (W - busy), 0.0)
        prof.busy[ix] += busy
        prof.ltot[ix] += W
        prof.iters[ix] += 1


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
    )


class WarpProvider:
    """Runs all of a run's warps up front; hands results to the fold loop.

    Construction runs every warp at its optimistic quota ``min(tpw,
    n - w·tpw)`` — in-process when ``n_shards == 1``, or partitioned
    round-robin by warp index across the engine's shard pool otherwise
    (bit-identical either way, because each warp's result depends only on
    its own spawned generator state).  The scalar loop sizes warp ``w``'s
    quota from the live remaining count, which only differs from the
    guess when inheritance over-collects: :meth:`warp` returns the cached
    result when the fold confirms the quota, or re-runs that single warp
    locally (from the same spawned child state, so the random stream is
    identical) when the true quota is smaller.  ``n_reruns`` counts those
    re-runs; warps past the last one the fold reaches are computed and
    discarded.
    """

    def __init__(
        self,
        engine,
        runner,
        n_samples: int,
        rng: RandomSource,
        shard_offset: int = 0,
    ) -> None:
        self.runner = runner
        tpw = engine.config.tasks_per_warp
        self.max_warps = math.ceil(n_samples / tpw)
        self.states: List[GeneratorState] = list(
            spawn_generator_states(rng, self.max_warps)
        )
        self.guesses = [
            min(tpw, n_samples - w * tpw) for w in range(self.max_warps)
        ]
        self.n_reruns = 0
        self.n_shards = min(engine.config.n_shards, max(1, self.max_warps))
        self.shard_offset = shard_offset % self.n_shards
        if self.n_shards > 1:
            executor = engine._shard_executor()
            self.results = executor.run_round(
                runner.kernel, runner.p, self.states, self.guesses,
                shard_offset=self.shard_offset,
            )
        else:
            self.results = runner.run_warps(self.states, self.guesses)

    def shard_of(self, w: int) -> int:
        """Shard owning warp ``w`` (round-robin, hedges rotate the map)."""
        return (w + self.shard_offset) % self.n_shards

    def warp(self, w: int, quota: int) -> WarpResult:
        if quota == self.guesses[w]:
            return self.results[w]
        self.n_reruns += 1
        return self.runner.run_warps([self.states[w]], [quota])[0]
