"""Iteration-synchronised wave execution over the compiled plan.

Under iteration synchronisation (§3.2; the NextDoor-style GPU baseline,
Figure 12's O0) a lane starts its next sample the moment the current one
dies or completes, so the lanes of one warp sit at different depths.
:class:`WaveRunner` steps every warp of a wave one RSV iteration per
super-step over the same :class:`~repro.estimators.fused.FusedPlan` the
sample-synchronised :class:`~repro.core.fused.FusedRunner` executes:

1. for each level that has active lanes, that level's lanes from all warps
   are gathered into one dense row and run through the kernel's
   ``fused_prepare`` — a level's pass costs its own lanes, not the wave;
2. every warp draws its lanes' indices in lane order, the scalar path's
   sequential draw order;
3. ``fused_finish`` validates each level and the winners are pushed;
4. every stepping warp is charged from per-lane columns, the
   ``GSWORDEngine._charge_iteration`` sequence under per-lane depths —
   with no idle-wait term: a lane idles only once its warp's pool is
   exhausted, and then it retires rather than stalls;
5. finished lanes fold into their warp's HT accumulator in lane order and
   then restart from the warp's pool or retire.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import SyncMode
from repro.core.engine import (
    _CAND_SCAN_OPS,
    _ITER_BASE_OPS,
    _PROBE_LOADS,
    _SAMPLE_OPS,
    _VALIDATE_OPS,
)
from repro.core.fused import (
    _FUSED_WAVE_CHUNK,
    Collected,
    FusedArena,
    FusedRunner,
    WarpResult,
    WaveParams,
    _collect_rows,
    _draw_rows,
    _charge_streamed,
    _ProfileSoA,
    _scan_union_rows,
    _warp_results,
    _warp_streams,
)
from repro.estimators.fused import FusedKernel
from repro.utils.rng import GeneratorState


class WaveRunner:
    """Executes iteration-synchronised warps against a compiled plan.

    Same ``run_warps(states, quotas) -> List[WarpResult]`` contract as
    :class:`FusedRunner`: bit-identical results for any wave composition
    or process placement, which is what lets :mod:`repro.multidev` shard
    iteration-sync rounds.
    """

    def __init__(
        self,
        kernel: FusedKernel,
        params: WaveParams,
        arena: Optional[FusedArena] = None,
    ) -> None:
        if params.sync_mode is not SyncMode.ITERATION:
            raise ValueError(
                "WaveRunner steps the iteration-synchronised schedule; "
                "sample sync runs on repro.core.fused.FusedRunner"
            )
        self.kernel = kernel
        self.p = params
        self.arena = arena if arena is not None else FusedArena()
        self.plan = kernel.compile_plan(params.target)
        # Backward-pair count per depth (0 on global levels).  The extra
        # entry covers retired lanes, which can rest at depth ``target``.
        self._nb = np.array(
            [lv.nb for lv in self.plan.levels] + [0], dtype=np.int64
        )
        # Per-lane charge columns of a global level (clen, probes,
        # span_lo, span_hi, edge_id, v): every lane scans or touches the
        # level's whole constant pool slice.
        self._glob_cols = {
            lv.d: np.array([[lv.g_len], [0], [0], [lv.g_len], [-1], [0]])
            for lv in self.plan.levels
            if lv.glob
        }

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
        inst.fill(-1)
        prob = ar.take("prob", (K, W), np.float64)
        prob.fill(1.0)
        depth = ar.zeros("depth", (K, W), np.int64)
        pool = np.asarray(quotas, dtype=np.int64)
        fetched = np.minimum(pool, W)
        active = ar.take("active", (K, W), np.bool_)
        np.less(np.arange(W)[None, :], fetched[:, None], out=active)
        prof = _ProfileSoA(ar, K)
        wn = ar.zeros("wf_n", (K,), np.int64)
        wvalid = ar.zeros("wf_valid", (K,), np.int64)
        wmean = ar.zeros("wf_mean", (K,), np.float64)
        wm2 = ar.zeros("wf_m2", (K,), np.float64)
        collected: Optional[Collected] = (
            [[] for _ in range(K)] if p.collect_states else None
        )

        rows = np.nonzero(active.any(axis=1))[0]
        while len(rows):
            act = active[rows]
            valid = self._step(rows, act, inst, prob, depth, igs, prof)
            completed = valid & (depth[rows] == target)
            done = (act & ~valid) | completed
            fr = np.nonzero(done.any(axis=1))[0]
            if len(fr) == 0:
                continue
            g = rows[fr]
            fin = done[fr]
            ok = completed[fr]
            pv = prob[g]
            val = np.divide(1.0, pv, out=np.zeros_like(pv), where=ok)
            n_fin = fin.sum(axis=1)
            # Fold each warp's finished lanes in lane order.  Packing them
            # to the front of the row first keeps the order and lets the
            # vector fold run one pass per finished lane, not per lane.
            m = int(n_fin.max())
            if m < W:
                pack = np.argsort(~fin, axis=1, kind="stable")[:, :m]
                FusedRunner._fold(
                    g,
                    np.take_along_axis(fin, pack, axis=1),
                    np.take_along_axis(val, pack, axis=1),
                    wn, wvalid, wmean, wm2,
                )
            else:
                FusedRunner._fold(g, fin, val, wn, wvalid, wmean, wm2)
            if collected is not None:
                _collect_rows(collected, g, ok, inst, pv, target)

            # Restart finished lanes while the pool lasts (lane order),
            # retire the rest.
            room = pool[g] - fetched[g]
            restart = fin & (np.cumsum(fin, axis=1) <= room[:, None])
            fetched[g] += np.minimum(n_fin, room)
            rr, rl = np.nonzero(restart)
            if len(rr):
                rg = g[rr]
                inst[rg, rl] = -1
                prob[rg, rl] = 1.0
                depth[rg, rl] = 0
            if (n_fin > room).any():
                active[g] = act[fr] & ~(fin & ~restart)
                rows = rows[active[rows].any(axis=1)]

        return _warp_results(prof, wn, wvalid, wmean, wm2, collected, fetched)

    # ------------------------------------------------------------------
    # Step pieces
    # ------------------------------------------------------------------
    def _step(
        self,
        rows: np.ndarray,
        act: np.ndarray,
        inst: np.ndarray,
        prob: np.ndarray,
        depth: np.ndarray,
        igs,
        prof: _ProfileSoA,
    ) -> np.ndarray:
        """One super-step for the live warps ``rows``; returns the dense
        ``(rows, lanes)`` validity matrix."""
        kernel = self.kernel
        levels = self.plan.levels
        R, W = act.shape
        dep = depth[rows]
        rlen = np.zeros((R, W), dtype=np.int64)
        groups = []
        for d in np.unique(dep[act]).tolist():
            sr, sl = np.nonzero(act & (dep == d))
            inst3 = inst[rows[sr], sl][None]
            prep = kernel.fused_prepare(
                levels[d], inst3, np.ones((1, len(sr)), dtype=bool)
            )
            rlen[sr, sl] = prep.rlen[0]
            groups.append((d, sr, sl, inst3, prep))
        idx = _draw_rows(rows, rlen, igs)

        # Per-lane columns: clen, probes, span_lo, span_hi, edge_id, v.
        cols = np.zeros((6, R, W), dtype=np.int64)
        factor = np.zeros((R, W))
        valid = np.zeros((R, W), dtype=bool)
        for d, sr, sl, inst3, prep in groups:
            lv = levels[d]
            res = kernel.fused_finish(lv, prep, idx[sr, sl][None], inst3)
            if lv.glob:
                cols[:, sr, sl] = self._glob_cols[d]
                cols[1, sr, sl] = res.probes[0]
                cols[5, sr, sl] = res.v[0]
            else:
                cols[:, sr, sl] = np.stack((
                    prep.clen[0], res.probes[0], prep.span_lo[0],
                    prep.span_hi[0], prep.edge_id[0], res.v[0],
                ))
            valid[sr, sl] = res.valid[0]
            factor[sr, sl] = res.prob_factor[0]

        vr, vc = np.nonzero(valid)
        if len(vr):
            gr = rows[vr]
            dv = dep[vr, vc]
            inst[gr, vc, dv] = cols[5, vr, vc]
            prob[gr, vc] *= factor[vr, vc]
            depth[gr, vc] = dv + 1
        self._charge_lanes(rows, act, dep, cols, prof)
        return valid

    # ------------------------------------------------------------------
    # Cost accounting (value-for-value with GSWORDEngine._charge_iteration)
    # ------------------------------------------------------------------
    def _charge_lanes(
        self,
        rows: np.ndarray,
        act: np.ndarray,
        dep: np.ndarray,
        cols: np.ndarray,
        prof: _ProfileSoA,
    ) -> None:
        """Whole-column cost accounting for the stepping warps ``rows``:
        each profile field is gathered once, updated with the scalar
        charge sequence's additions in the same order, and scattered once.
        Lanes outside ``act`` hold zero columns, so they add nothing to a
        sum, a maximum or a union."""
        p = self.p
        spec = p.spec
        W = p.warp_size
        op = spec.op_cycles
        mem_lat = spec.mem_latency_cycles
        issue = spec.issue_cycles
        has_refine = p.has_refine
        streaming = p.streaming and has_refine
        clen, probes, span_lo, span_hi, eid = cols[:5]
        nb = np.where(act, self._nb[dep], 0)
        needs_ref = nb > 0

        # (1) backward-pair lookups, lockstep across the warp
        tot_lookup = nb.sum(axis=1) * _PROBE_LOADS
        lookup_cost = np.where(
            tot_lookup > 0,
            nb.max(axis=1) * _PROBE_LOADS * mem_lat + tot_lookup * issue,
            0.0,
        )

        # Every live warp has a busy lane, and a busy lane costs at least
        # the base ops, so idle lanes' base cost never sets the maximum.
        base_ops = float(_ITER_BASE_OPS + _SAMPLE_OPS + _VALIDATE_OPS)
        if has_refine and not streaming:
            scan_ops = np.where(needs_ref, clen, 0) * float(_CAND_SCAN_OPS)
            ops_max = ((base_ops + scan_ops) * op).max(axis=1)
        else:
            ops_max = base_ops * op

        # (2) candidate probes — streamed (Alg. 3) or lockstep
        seg_add = tot_lookup
        sync_new = prof.sync[rows]
        comp_new = prof.comp[rows]
        mem_new = prof.mem[rows] + lookup_cost
        if streaming:
            # (int64 / int64 true-divides in float64)
            rate = np.divide(probes, clen, out=np.zeros(clen.shape), where=clen > 0)
            mem_new, sync_new, comp_new, seg_add, probe_costs = _charge_streamed(
                p, np.where(needs_ref, clen, 0), rate,
                mem_new, sync_new, comp_new, seg_add,
            )
        else:
            tp = probes.sum(axis=1) * _PROBE_LOADS
            pcost = np.where(
                tp > 0, probes.max(axis=1) * _PROBE_LOADS * mem_lat + tp * issue, 0.0
            )
            mem_new = mem_new + pcost
            seg_add = seg_add + tp
            probe_costs = (pcost,)

        # (3) per-iteration compute, slowest lane paces the warp
        comp_new = comp_new + ops_max

        # (4) coalescing-union memory instruction: refining lanes scan
        # their whole candidate span, the rest touch its middle slot.
        seg_el = spec.segment_elements
        width = span_hi - span_lo
        touch = (span_lo + width // 2) // seg_el
        if has_refine:
            first = np.where(needs_ref, span_lo // seg_el, touch)
            last = np.where(needs_ref, (span_lo + width - 1) // seg_el, touch)
        else:
            first = last = touch
        seg_counts, extra_reg = _scan_union_rows(width > 0, eid, first, last)
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
        sl = prof.slong[rows] + lookup_cost
        for cost in probe_costs:
            sl = sl + cost
        sl = sl + ucost

        prof.comp[rows] = comp_new
        prof.mem[rows] = mem_new
        prof.sync[rows] = sync_new
        prof.slong[rows] = sl
        prof.segs[rows] += seg_add
        prof.regs[rows] += np.where(um, extra_reg, 0)
        prof.busy[rows] += act.sum(axis=1)
        prof.ltot[rows] += W
        prof.iters[rows] += 1


def runner_for(
    kernel: FusedKernel,
    params: WaveParams,
    arena: Optional[FusedArena] = None,
):
    """The runner for ``params.sync_mode`` over ``kernel``'s compiled plan:
    :class:`~repro.core.fused.FusedRunner` for sample sync,
    :class:`WaveRunner` for iteration sync."""
    if params.sync_mode is SyncMode.SAMPLE:
        return FusedRunner(kernel, params, arena)
    return WaveRunner(kernel, params, arena)
