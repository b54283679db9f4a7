"""Fused per-level RSV kernels — the plan-compiled vector backend.

The scalar estimators (:mod:`repro.estimators.wanderjoin`,
:mod:`repro.estimators.alley`) run one lane at a time over Python objects.
The kernels here execute the same Refine–Sample–Validate iteration for
whole dense ``(rows, lanes)`` batches of lanes that sit at one matching-
order level, using numpy gathers over the candidate graph's triple CSR.

A query's walk is compiled once per ``(query, estimator)`` pair into a
:class:`FusedPlan`: a flattened per-level schedule whose backward-pair
spans, candidate-pool bases, and query labels are plain Python constants.
That constancy is what the kernels exploit:

* the ragged per-lane binary search collapses to one
  ``np.searchsorted(ecand[lo_k:hi_k], v_b)`` per backward pair — a
  contiguous C-speed lower bound over a *constant* slice (first-occurrence
  semantics, exactly the scalar ``find``);
* GetMinCandidate becomes a first-occurrence ``np.argmin`` over an
  ``(nb, rows, lanes)`` stack (the scalar loop keeps the first backward
  edge achieving the strict minimum — the same tie-break);
* global-candidate levels skip candidate materialisation entirely: every
  lane shares the same constant pool slice, so ``finish`` gathers the
  sampled vertices straight from the pool.

Bit-identity with the scalar path is a tested invariant, which pins down
the RNG split: an RSV iteration is deterministic except for the single
uniform draw in Sample, so ``fused_prepare`` computes everything up to the
refined-set sizes without touching any generator, the runner draws every
warp's lane indices (bit-identical to the scalar path's sequential
per-lane draws), and ``fused_finish`` validates the sampled vertices.
Validate probes stop at the first failing backward edge and Alley's
refinement intersects one backward edge at a time with early exit; the
per-round masks below reproduce the exact probe counts.

Sample synchronisation steps a depth group of warps per call; iteration
synchronisation gathers each level's lanes from all warps into one dense
row (:mod:`repro.core.vectorized`).  Either way a call sees one level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph
from repro.estimators.alley import AlleyEstimator
from repro.estimators.base import RSVEstimator
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.query.matching_order import MatchingOrder


def ragged_lower_bound(
    arr: np.ndarray, lo: np.ndarray, hi: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """Vectorized ``searchsorted(arr[lo_i:hi_i], vals_i) + lo_i`` per element.

    Classic lockstep bisection: every element halves its own ``[lo, hi)``
    interval per round, so the loop runs ``log2(max span)`` iterations of
    whole-array gathers — the data-parallel shape of the GPU's
    ``find(v, lc)`` binary search.
    """
    lo = lo.astype(np.int64, copy=True)
    hi = hi.astype(np.int64, copy=True)
    idx = np.nonzero(lo < hi)[0]
    while len(idx):
        l, h = lo[idx], hi[idx]
        mid = (l + h) >> 1
        goes_right = arr[mid] < vals[idx]
        l = np.where(goes_right, mid + 1, l)
        h = np.where(goes_right, h, mid)
        lo[idx] = l
        hi[idx] = h
        idx = idx[l < h]
    return lo


def ragged_contains(
    arr: np.ndarray, lo: np.ndarray, hi: np.ndarray, vals: np.ndarray
) -> np.ndarray:
    """Membership of ``vals_i`` in the sorted slice ``arr[lo_i:hi_i]``."""
    if len(arr) == 0:
        return np.zeros(len(vals), dtype=bool)
    pos = ragged_lower_bound(arr, lo, hi, vals)
    found = pos < hi
    safe = np.minimum(pos, len(arr) - 1)
    found &= arr[safe] == vals
    return found


def _flat_within(counts: np.ndarray) -> np.ndarray:
    """``[0..c_0), [0..c_1), ...`` concatenated (ragged arange)."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


# ----------------------------------------------------------------------
# Plan IR
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LevelPlan:
    """One compiled matching-order level — everything constant at depth ``d``.

    ``glob`` levels draw from the order vertex's global candidate pool
    (depth 0, or a level with no backward edge); ``backward`` levels pick
    the minimum local-candidate list among ``nb`` backward pairs, each with
    a constant ``ecand[lo_k:hi_k]`` span.
    """

    d: int
    glob: bool
    nb: int
    g_len: int
    pool_base: int
    j_idx: np.ndarray
    eid: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    qlab: int


@dataclass(frozen=True)
class FusedPlan:
    """The flattened per-level schedule for one ``(kernel, target)`` pair.

    ``max_candidates`` bounds every lane's draw bound on the plan: the
    largest global pool or local candidate list any level can sample
    from."""

    kernel_name: str
    n_q: int
    target: int
    direct: bool
    levels: Tuple[LevelPlan, ...]
    max_candidates: int

    def to_ir(self) -> Dict[str, object]:
        """JSON-serializable plan IR (the CI ``plan.json`` artifact)."""
        levels: List[Dict[str, object]] = []
        for lv in self.levels:
            entry: Dict[str, object] = {
                "depth": lv.d,
                "kind": "global" if lv.glob else "backward",
                "n_backward": lv.nb,
            }
            if lv.glob:
                entry["pool"] = {"base": lv.pool_base, "len": lv.g_len}
            else:
                entry["pairs"] = [
                    {
                        "source_pos": int(lv.j_idx[k]),
                        "edge_id": int(lv.eid[k]),
                        "ecand_span": [int(lv.lo[k]), int(lv.hi[k])],
                    }
                    for k in range(lv.nb)
                ]
            if self.direct:
                entry["query_label"] = lv.qlab
            levels.append(entry)
        return {
            "kernel": self.kernel_name,
            "n_q": self.n_q,
            "target": self.target,
            "direct": self.direct,
            "levels": levels,
        }


@dataclass
class FusedPrep:
    """Dense ``(rows, lanes)`` phase-A output for one level."""

    clen: np.ndarray
    rlen: np.ndarray
    probes: np.ndarray
    # Backward levels only: per-lane chosen span + the full pair stacks the
    # validate/refine rounds index into (``None`` on global levels).
    edge_id: Optional[np.ndarray] = None
    span_lo: Optional[np.ndarray] = None
    span_hi: Optional[np.ndarray] = None
    best: Optional[np.ndarray] = None
    slo_stack: Optional[np.ndarray] = None
    shi_stack: Optional[np.ndarray] = None
    # Alley only: flat refined survivors + dense per-lane offsets; a level
    # with ``uniform=True`` samples straight from the constant pool slice.
    uniform: bool = False
    surv_values: Optional[np.ndarray] = None
    surv_off: Optional[np.ndarray] = None


@dataclass
class FusedRes:
    """Dense phase-B/C output for one level."""

    v: np.ndarray
    valid: np.ndarray
    probes: np.ndarray
    prob_factor: np.ndarray
    field: int = 0


class FusedKernel:
    """Precomputed per-``(cg, order)`` tables, plan compilation, and the
    dense per-level step phases."""

    def __init__(self, cg: CandidateGraph, order: MatchingOrder) -> None:
        n = len(order)
        self.n_q = n
        j_flat: list = []
        eid_flat: list = []
        offsets = [0]
        for d in range(n):
            u = order.order[d]
            for j in order.backward[d]:
                j_flat.append(j)
                eid_flat.append(cg.edge_id(order.order[j], u))
            offsets.append(len(j_flat))
        self.b_off = np.asarray(offsets, dtype=np.int64)
        self.b_j = np.asarray(j_flat, dtype=np.int64)
        self.b_eid = np.asarray(eid_flat, dtype=np.int64)
        ecand_off = np.asarray(cg.ecand_offsets, dtype=np.int64)
        self.b_lo = ecand_off[self.b_eid] if len(self.b_eid) else self.b_eid
        self.b_hi = ecand_off[self.b_eid + 1] if len(self.b_eid) else self.b_eid
        self.nbacks = np.diff(self.b_off)

        globals_ = [
            np.asarray(cg.global_candidates[u], dtype=np.int64)
            for u in order.order
        ]
        self.g_len = np.asarray([len(g) for g in globals_], dtype=np.int64)
        g_off = np.zeros(n, dtype=np.int64)
        if n > 1:
            np.cumsum(self.g_len[:-1], out=g_off[1:])
        gpool = (
            np.concatenate(globals_) if globals_ else np.zeros(0, dtype=np.int64)
        )
        self.ecand = np.asarray(cg.ecand_vertices, dtype=np.int64)
        self.local_off = np.asarray(cg.local_offsets, dtype=np.int64)
        self.local = np.asarray(cg.local_vertices, dtype=np.int64)
        # Combined candidate pool: local lists first, then the global sets,
        # so every candidate gather is one base offset into one array.
        self._pool = np.concatenate([self.local, gpool])
        self._g_base = len(self.local) + g_off
        self.direct = not cg.label_filtered
        if self.direct:
            self.labels = np.asarray(cg.graph.labels)
            self.qlab = np.asarray(
                [cg.query.label(u) for u in order.order], dtype=np.int64
            )

    def compile_plan(self, target: int) -> FusedPlan:
        """Walk the matching order once; cache per target depth."""
        cache: Dict[int, FusedPlan] = self.__dict__.setdefault(
            "_fused_plans", {}
        )
        plan = cache.get(target)
        if plan is None:
            plan = self._compile(target)
            cache[target] = plan
        return plan

    def _compile(self, target: int) -> FusedPlan:
        levels = []
        empty = np.zeros(0, dtype=np.int64)
        max_candidates = 0
        for d in range(target):
            nb = int(self.nbacks[d])
            glob = d == 0 or nb == 0
            qlab = int(self.qlab[d]) if self.direct else -1
            if glob:
                max_candidates = max(max_candidates, int(self.g_len[d]))
                levels.append(
                    LevelPlan(
                        d=d, glob=True, nb=0,
                        g_len=int(self.g_len[d]),
                        pool_base=int(self._g_base[d]),
                        j_idx=empty, eid=empty, lo=empty, hi=empty,
                        qlab=qlab,
                    )
                )
                continue
            sl = slice(int(self.b_off[d]), int(self.b_off[d + 1]))
            for lo, hi in zip(self.b_lo[sl].tolist(), self.b_hi[sl].tolist()):
                if hi > lo:
                    lists = np.diff(self.local_off[lo:hi + 1])
                    max_candidates = max(max_candidates, int(lists.max()))
            levels.append(
                LevelPlan(
                    d=d, glob=False, nb=nb, g_len=0, pool_base=0,
                    j_idx=self.b_j[sl].copy(),
                    eid=self.b_eid[sl].copy(),
                    lo=self.b_lo[sl].copy(),
                    hi=self.b_hi[sl].copy(),
                    qlab=qlab,
                )
            )
        return FusedPlan(
            kernel_name=type(self).__name__,
            n_q=self.n_q,
            target=target,
            direct=self.direct,
            levels=tuple(levels),
            max_candidates=max_candidates,
        )

    # ------------------------------------------------------------------
    # Shared dense phases
    # ------------------------------------------------------------------
    def _dense_base(
        self, lv: LevelPlan, inst3: np.ndarray, present: np.ndarray
    ) -> FusedPrep:
        """GetMinCandidate for one level on dense lane matrices."""
        R, W = present.shape
        zeros = np.zeros((R, W), dtype=np.int64)
        if lv.glob:
            clen = np.where(present, np.int64(lv.g_len), np.int64(0))
            return FusedPrep(clen=clen, rlen=zeros, probes=zeros)
        nb = lv.nb
        n_ec = len(self.ecand)
        if nb == 1:
            # Single backward pair: the choice is forced, so the selection
            # stacks and the argmin collapse entirely.
            v_b = inst3[:, :, lv.j_idx[0]]
            lo_k = int(lv.lo[0])
            hi_k = int(lv.hi[0])
            pos = (
                np.searchsorted(self.ecand[lo_k:hi_k], v_b.reshape(-1))
                .reshape(R, W)
                .astype(np.int64)
                + lo_k
            )
            if n_ec:
                safe = np.minimum(pos, n_ec - 1)
                found = (pos < hi_k) & (self.ecand[safe] == v_b)
            else:
                safe = np.zeros((R, W), dtype=np.int64)
                found = np.zeros((R, W), dtype=bool)
            slot = np.where(found, safe, 0)
            span_lo = np.where(found, self.local_off[slot], 0)
            span_hi = np.where(found, self.local_off[slot + 1], 0)
            return FusedPrep(
                clen=span_hi - span_lo, rlen=zeros, probes=zeros,
                edge_id=np.full((R, W), lv.eid[0], dtype=np.int64),
                span_lo=span_lo, span_hi=span_hi,
            )
        plen_st = np.empty((nb, R, W), dtype=np.int64)
        slo_st = np.empty((nb, R, W), dtype=np.int64)
        shi_st = np.empty((nb, R, W), dtype=np.int64)
        for k in range(nb):
            v_b = inst3[:, :, lv.j_idx[k]]
            lo_k = int(lv.lo[k])
            hi_k = int(lv.hi[k])
            pos = (
                np.searchsorted(self.ecand[lo_k:hi_k], v_b.reshape(-1))
                .reshape(R, W)
                .astype(np.int64)
                + lo_k
            )
            if n_ec:
                safe = np.minimum(pos, n_ec - 1)
                found = (pos < hi_k) & (self.ecand[safe] == v_b)
            else:
                safe = np.zeros((R, W), dtype=np.int64)
                found = np.zeros((R, W), dtype=bool)
            slot = np.where(found, safe, 0)
            slo = np.where(found, self.local_off[slot], 0)
            shi = np.where(found, self.local_off[slot + 1], 0)
            slo_st[k] = slo
            shi_st[k] = shi
            plen_st[k] = shi - slo
        # First-occurrence argmin == the scalar loop's strict-< selection.
        best = np.argmin(plen_st, axis=0)
        pick = (best, np.arange(R)[:, None], np.arange(W))
        clen = plen_st[pick]
        span_lo = slo_st[pick]
        span_hi = shi_st[pick]
        return FusedPrep(
            clen=clen, rlen=zeros, probes=zeros,
            edge_id=lv.eid[best], span_lo=span_lo, span_hi=span_hi,
            best=best, slo_stack=slo_st, shi_stack=shi_st,
        )

    def _dense_dup(
        self, d: int, inst3: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Is ``v`` already in the lane's depth-``d`` prefix?"""
        if d == 0:
            return np.zeros(v.shape, dtype=bool)
        return (inst3[:, :, :d] == v[..., None]).any(axis=2)

    def _prob_factor(self, rlen: np.ndarray) -> np.ndarray:
        rlen_f = rlen.astype(np.float64)
        return np.divide(
            1.0, rlen_f, out=np.zeros(rlen.shape), where=rlen > 0
        )

    def _other_spans(
        self, prep: FusedPrep, rsel: np.ndarray, csel: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Span of each selected lane's k-th *other* backward pair."""
        assert prep.best is not None
        assert prep.slo_stack is not None and prep.shi_stack is not None
        bsel = prep.best[rsel, csel]
        other = np.where(k < bsel, k, k + 1)
        return (
            prep.slo_stack[other, rsel, csel],
            prep.shi_stack[other, rsel, csel],
        )

    # Estimator-specific phases -----------------------------------------
    def fused_prepare(
        self, lv: LevelPlan, inst3: np.ndarray, present: np.ndarray
    ) -> FusedPrep:
        """Phase A: GetMinCandidate + Refine for the level's lanes; no RNG."""
        raise NotImplementedError

    def fused_finish(
        self,
        lv: LevelPlan,
        prep: FusedPrep,
        idx: np.ndarray,
        inst3: np.ndarray,
    ) -> FusedRes:
        """Phase B/C: resolve drawn indices, then Validate."""
        raise NotImplementedError


class FusedWanderJoinKernel(FusedKernel):
    """WanderJoin on the compiled schedule: pass-through refine, validate
    probes over the level's constant other-pair spans."""

    def fused_prepare(
        self, lv: LevelPlan, inst3: np.ndarray, present: np.ndarray
    ) -> FusedPrep:
        prep = self._dense_base(lv, inst3, present)
        prep.rlen = np.where(present, prep.clen, 0)
        if lv.glob:
            prep.uniform = True
        return prep

    def fused_finish(
        self,
        lv: LevelPlan,
        prep: FusedPrep,
        idx: np.ndarray,
        inst3: np.ndarray,
    ) -> FusedRes:
        R, W = idx.shape
        v = np.full((R, W), -1, dtype=np.int64)
        probes = prep.probes
        sampled = idx >= 0
        prob_factor = self._prob_factor(prep.rlen)
        alive = np.zeros((R, W), dtype=bool)
        if sampled.any():
            if lv.glob:
                v[sampled] = self._pool[lv.pool_base + idx[sampled]]
            else:
                assert prep.span_lo is not None
                v[sampled] = self._pool[prep.span_lo[sampled] + idx[sampled]]
            # Fig. 19 WJ: one (redundant) probe for the sampled edge at
            # d > 0, charged before the duplicate check.
            if lv.d > 0:
                probes[sampled] += 1
            dup = self._dense_dup(lv.d, inst3, v)
            alive[sampled] = ~dup[sampled]
        if self.direct:
            lr, lc = np.nonzero(alive)
            probes[lr, lc] += 1
            bad = self.labels[v[lr, lc]] != lv.qlab
            alive[lr[bad], lc[bad]] = False
        for k in range(lv.nb - 1):
            ar, ac = np.nonzero(alive)
            if len(ar) == 0:
                break
            probes[ar, ac] += 1
            oslo, oshi = self._other_spans(prep, ar, ac, k)
            member = ragged_contains(self.local, oslo, oshi, v[ar, ac])
            alive[ar[~member], ac[~member]] = False
        return FusedRes(v=v, valid=alive, probes=probes, prob_factor=prob_factor)


class FusedAlleyKernel(FusedKernel):
    """Alley on the compiled schedule: survivor-major refinement rounds
    over constant pair spans, dup-then-label validate."""

    def fused_prepare(
        self, lv: LevelPlan, inst3: np.ndarray, present: np.ndarray
    ) -> FusedPrep:
        prep = self._dense_base(lv, inst3, present)
        R, W = present.shape
        probes = np.zeros((R, W), dtype=np.int64)
        if lv.d > 0:
            probes = np.where(present, prep.clen, 0)
        if lv.glob and not (self.direct and lv.d > 0):
            # Constant candidate pool, no refinement, no label filter:
            # nothing to materialise — finish samples the pool directly.
            prep.rlen = np.where(present, prep.clen, 0)
            prep.probes = probes
            prep.uniform = True
            return prep

        pr, pc = np.nonzero(present)
        counts = prep.clen[pr, pc]
        n_lanes = len(pr)
        if lv.glob:
            base = np.full(n_lanes, lv.pool_base, dtype=np.int64)
        else:
            assert prep.span_lo is not None
            base = prep.span_lo[pr, pc]
        values = self._pool[np.repeat(base, counts) + _flat_within(counts)]
        lane_of = np.repeat(np.arange(n_lanes, dtype=np.int64), counts)
        if self.direct and lv.d > 0:
            # Direct-on-data-graph mode: label-filter before intersecting
            # (one probe per pre-filter candidate, as the scalar kernel).
            probes[pr, pc] += counts
            keep = self.labels[values] == lv.qlab
            values, lane_of = values[keep], lane_of[keep]
            counts = np.bincount(lane_of, minlength=n_lanes).astype(np.int64)
        for k in range(lv.nb - 1):
            # Survivor-major early exit: a lane drops out of round k when
            # it has no surviving candidates (every lane at this level has
            # the same backward-pair count, so no per-lane nb check).
            part = np.nonzero(counts > 0)[0]
            if len(part) == 0:
                break
            probes[pr[part], pc[part]] += counts[part]
            oslo, oshi = self._other_spans(prep, pr[part], pc[part], k)
            span_lo_l = np.zeros(n_lanes, dtype=np.int64)
            span_hi_l = np.zeros(n_lanes, dtype=np.int64)
            span_lo_l[part] = oslo
            span_hi_l[part] = oshi
            pmask = np.zeros(n_lanes, dtype=bool)
            pmask[part] = True
            ridx = np.nonzero(pmask[lane_of])[0]
            el = lane_of[ridx]
            member = ragged_contains(
                self.local, span_lo_l[el], span_hi_l[el], values[ridx]
            )
            keep = np.ones(len(values), dtype=bool)
            keep[ridx[~member]] = False
            values, lane_of = values[keep], lane_of[keep]
            counts = np.bincount(lane_of, minlength=n_lanes).astype(np.int64)

        rlen = np.zeros((R, W), dtype=np.int64)
        rlen[pr, pc] = counts
        offsets = np.zeros(n_lanes, dtype=np.int64)
        if n_lanes > 1:
            np.cumsum(counts[:-1], out=offsets[1:])
        surv_off = np.zeros((R, W), dtype=np.int64)
        surv_off[pr, pc] = offsets
        prep.rlen = rlen
        prep.probes = probes
        prep.surv_values = values
        prep.surv_off = surv_off
        return prep

    def fused_finish(
        self,
        lv: LevelPlan,
        prep: FusedPrep,
        idx: np.ndarray,
        inst3: np.ndarray,
    ) -> FusedRes:
        R, W = idx.shape
        v = np.full((R, W), -1, dtype=np.int64)
        probes = prep.probes
        sampled = idx >= 0
        prob_factor = self._prob_factor(prep.rlen)
        alive = np.zeros((R, W), dtype=bool)
        if sampled.any():
            if prep.uniform:
                v[sampled] = self._pool[lv.pool_base + idx[sampled]]
            else:
                assert prep.surv_values is not None
                assert prep.surv_off is not None
                v[sampled] = prep.surv_values[
                    prep.surv_off[sampled] + idx[sampled]
                ]
            dup = self._dense_dup(lv.d, inst3, v)
            alive[sampled] = ~dup[sampled]
        if self.direct:
            # Scalar Alley charges the label probe only on failure.
            lr, lc = np.nonzero(alive)
            bad = self.labels[v[lr, lc]] != lv.qlab
            probes[lr[bad], lc[bad]] += 1
            alive[lr[bad], lc[bad]] = False
        return FusedRes(v=v, valid=alive, probes=probes, prob_factor=prob_factor)


def fused_kernel_for(
    estimator: RSVEstimator,
) -> Optional[Type[FusedKernel]]:
    """Fused kernel class for ``estimator``, or ``None`` when only the
    scalar reference path applies.  Exact types only — subclasses may
    override any RSV hook."""
    if type(estimator) is WanderJoinEstimator:
        return FusedWanderJoinKernel
    if type(estimator) is AlleyEstimator:
        return FusedAlleyKernel
    return None


# ----------------------------------------------------------------------
# Table snapshot / rebuild (multi-device sharding)
# ----------------------------------------------------------------------
#: Array attributes that fully determine plan compilation and the step
#: phases.  A kernel rebuilt from these tables (plus the scalars in the
#: meta dict) compiles the same plans and steps identically.
_TABLE_ARRAYS: Tuple[str, ...] = (
    "b_off", "b_j", "b_eid", "b_lo", "b_hi", "nbacks",
    "g_len", "ecand", "local_off", "local", "_pool", "_g_base",
)
_LABEL_ARRAYS: Tuple[str, ...] = ("labels", "qlab")

_KERNEL_CLASSES: Dict[str, Type[FusedKernel]] = {
    cls.__name__: cls for cls in (FusedWanderJoinKernel, FusedAlleyKernel)
}


def kernel_tables(
    kernel: FusedKernel,
) -> Tuple[Dict[str, object], Dict[str, np.ndarray]]:
    """Snapshot ``kernel`` as ``(meta, arrays)``.

    ``arrays`` is the read-only table set a shard worker maps from shared
    memory; ``meta`` is the small picklable remainder.  Round-trips through
    :func:`kernel_from_tables`.
    """
    names = _TABLE_ARRAYS + (_LABEL_ARRAYS if kernel.direct else ())
    arrays = {name: getattr(kernel, name) for name in names}
    meta: Dict[str, object] = {
        "cls": type(kernel).__name__,
        "n_q": kernel.n_q,
        "direct": kernel.direct,
    }
    return meta, arrays


def kernel_from_tables(
    meta: Dict[str, object], arrays: Dict[str, np.ndarray]
) -> FusedKernel:
    """Rebuild a step-identical kernel from a :func:`kernel_tables`
    snapshot without re-deriving anything from a candidate graph (the
    arrays may be zero-copy shared-memory views)."""
    cls = _KERNEL_CLASSES[str(meta["cls"])]
    kernel = cls.__new__(cls)
    kernel.n_q = int(meta["n_q"])  # type: ignore[call-overload]
    kernel.direct = bool(meta["direct"])
    names = _TABLE_ARRAYS + (_LABEL_ARRAYS if kernel.direct else ())
    for name in names:
        setattr(kernel, name, arrays[name])
    return kernel
