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
   sequential draw order — all warps in one
   :class:`~repro.utils.rng.WarpStreams` pass;
3. ``fused_finish`` validates each level and the winners are pushed;
4. every stepping warp logs its lanes' charge inputs (backward-pair
   count by each lane's own depth) into the deferred charge evaluator
   :class:`~repro.core.fused._ChargeLog` that sample sync uses, which
   charges the ``GSWORDEngine._charge_iteration`` sequence once per wave
   — with no idle-wait term: a lane idles only once its warp's pool is
   exhausted, and then it retires rather than stalls;
5. finished lanes fold into their warp's HT accumulator in lane order and
   then restart from the warp's pool or retire.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import SyncMode
from repro.core.fused import (
    _FUSED_WAVE_CHUNK,
    Collected,
    FusedArena,
    FusedRunner,
    WarpRun,
    WaveParams,
    _ChargeLog,
    _collect_rows,
    _ProfileSoA,
    _warp_results,
)
from repro.estimators.fused import FusedKernel
from repro.utils.rng import GeneratorState, WarpStreams


class WaveRunner:
    """Executes iteration-synchronised warps against a compiled plan.

    Same ``run_warps(states, quotas) -> List[WarpRun]`` contract as
    :class:`FusedRunner`: bit-identical results for any wave composition
    or process placement, which is what lets :mod:`repro.multidev` shard
    iteration-sync rounds.  A lane refills from its warp's pool the moment
    it finishes, so a warp collects exactly its quota and is never re-run:
    it records no batch checkpoints.
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

    def run_warps(
        self, states: Sequence[GeneratorState], quotas: Sequence[int]
    ) -> List[WarpRun]:
        results: List[WarpRun] = []
        for lo in range(0, len(states), _FUSED_WAVE_CHUNK):
            hi = min(lo + _FUSED_WAVE_CHUNK, len(states))
            results.extend(self._wave(states[lo:hi], quotas[lo:hi]))
        return results

    # ------------------------------------------------------------------
    # Wave loop
    # ------------------------------------------------------------------
    def _wave(
        self, states: Sequence[GeneratorState], quotas: Sequence[int]
    ) -> List[WarpRun]:
        p = self.p
        K = len(states)
        W, target, n_q = p.warp_size, p.target, p.n_q
        ar = self.arena

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
        # Every step advances each active lane one level; all W lanes are
        # active until the pool is drained, then in-flight samples finish
        # within ``target`` steps.
        max_steps = int(pool.max()) * target // W + target
        log = _ChargeLog(p, ar, prof, K, max_steps)
        streams = WarpStreams(states, None, ar.take, W, max_steps * W)
        log.open(rows)
        while len(rows):
            act = active[rows]
            valid = self._step(rows, act, inst, prob, depth, streams, log)
            completed = valid & (depth[rows] == target)
            done = (act & ~valid) | completed
            fr = np.nonzero(done.any(axis=1))[0]
            if len(fr) == 0:
                log.advance(rows)
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
            log.advance(rows)

        log.flush()
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
        streams: WarpStreams,
        log: _ChargeLog,
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
        idx = streams.draw(rows, rlen)

        # Per-lane charge columns: nb, clen, probes, span_lo, span_hi,
        # edge_id (inactive lanes are masked by the log).
        cols = np.empty((6, R, W), dtype=np.int64)
        cols[0] = self._nb[dep]
        v = np.zeros((R, W), dtype=np.int64)
        factor = np.zeros((R, W))
        valid = np.zeros((R, W), dtype=bool)
        for d, sr, sl, inst3, prep in groups:
            lv = levels[d]
            res = kernel.fused_finish(lv, prep, idx[sr, sl][None], inst3)
            if lv.glob:
                # Every lane scans or touches the level's whole pool slice.
                cols[1:, sr, sl] = [[lv.g_len], [0], [0], [lv.g_len], [-1]]
                cols[2, sr, sl] = res.probes[0]
            else:
                cols[1:, sr, sl] = np.stack((
                    prep.clen[0], res.probes[0], prep.span_lo[0],
                    prep.span_hi[0], prep.edge_id[0],
                ))
            v[sr, sl] = res.v[0]
            valid[sr, sl] = res.valid[0]
            factor[sr, sl] = res.prob_factor[0]

        vr, vc = np.nonzero(valid)
        if len(vr):
            gr = rows[vr]
            dv = dep[vr, vc]
            inst[gr, vc, dv] = v[vr, vc]
            prob[gr, vc] *= factor[vr, vc]
            depth[gr, vc] = dv + 1
        log.step(rows, act, cols)
        return valid


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
