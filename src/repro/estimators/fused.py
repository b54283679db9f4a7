"""Fused per-level RSV kernels — the plan-compiled ``backend="fused"``.

The vectorized kernels (:mod:`repro.estimators.vectorized`) re-interpret the
matching order on every super-step: each ``prepare`` call re-gathers the
backward-edge table rows for an arbitrary mix of depths, re-derives the
ecand spans, and runs a Python-level lockstep bisection over ragged
per-lane intervals.  Under sample synchronisation none of that mixing can
happen — every running lane of a warp sits at the *same* depth — so the
whole walk can be compiled once per ``(query, estimator)`` pair into a
:class:`FusedPlan`: a flattened per-level schedule whose backward-pair
spans, candidate-pool bases, and query labels are plain Python constants.

That constancy is what the fused kernels exploit:

* the ragged per-lane binary search collapses to one
  ``np.searchsorted(ecand[lo_k:hi_k], v_b)`` per backward pair — a
  contiguous C-speed lower bound over a *constant* slice (first-occurrence
  semantics, exactly the scalar ``find``);
* GetMinCandidate becomes a first-occurrence ``np.argmin`` over an
  ``(nb, rows, lanes)`` stack (the scalar loop keeps the first backward
  edge achieving the strict minimum — the same tie-break);
* global-candidate levels skip candidate materialisation entirely: every
  lane shares the same constant pool slice, so ``finish`` gathers the
  sampled vertices straight from the pool (the vectorized path gathers
  ``lanes x g_len`` values at depth 0 only to draw one of them).

The innermost intersection kernel (sorted-span membership during Alley
refinement and WanderJoin validation) is the vectorized kernels' lockstep
bisection, :func:`~repro.estimators.vectorized.ragged_contains`, so fused
and vectorized compute the identical integer lower bound — the property
the fused backend inherits from ``vectorized``'s equivalence contract and
that CI enforces per backend.

Kernels here subclass the vectorized ones: they reuse the same precomputed
tables, so :func:`repro.estimators.vectorized.kernel_tables` snapshots
round-trip through shared memory to shard workers unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Type

import numpy as np

from repro.estimators.alley import AlleyEstimator
from repro.estimators.base import RSVEstimator
from repro.estimators.vectorized import (
    AlleyVectorKernel,
    VectorKernel,
    WanderJoinVectorKernel,
    _flat_within,
    _register_kernel_class,
    ragged_contains,
)
from repro.estimators.wanderjoin import WanderJoinEstimator


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
    """The flattened per-level schedule for one ``(kernel, target)`` pair."""

    kernel_name: str
    n_q: int
    target: int
    direct: bool
    levels: Tuple[LevelPlan, ...]

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
    """Dense ``(rows, lanes)`` phase-A output for one depth group."""

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
    """Dense phase-B/C output for one depth group."""

    v: np.ndarray
    valid: np.ndarray
    probes: np.ndarray
    prob_factor: np.ndarray
    field: int = 0


class FusedKernelMixin:
    """Plan compilation + dense per-level step phases over vector tables.

    Mixed into the vectorized kernels, which provide the precomputed
    table arrays (``b_off``/``b_j``/``ecand``/``local``/``_pool``/...).
    """

    # Provided by the VectorKernel side of the MRO.
    n_q: int
    direct: bool
    nbacks: np.ndarray
    b_off: np.ndarray
    b_j: np.ndarray
    b_eid: np.ndarray
    b_lo: np.ndarray
    b_hi: np.ndarray
    g_len: np.ndarray
    ecand: np.ndarray
    local_off: np.ndarray
    local: np.ndarray
    _pool: np.ndarray
    _g_base: np.ndarray

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
        for d in range(target):
            nb = int(self.nbacks[d])
            glob = d == 0 or nb == 0
            qlab = int(self.qlab[d]) if self.direct else -1
            if glob:
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
        )

    # ------------------------------------------------------------------
    # Shared dense phases
    # ------------------------------------------------------------------
    def _dense_base(
        self, lv: LevelPlan, inst3: np.ndarray, present: np.ndarray
    ) -> FusedPrep:
        """GetMinCandidate for one depth group on dense lane matrices."""
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
        raise NotImplementedError

    def fused_finish(
        self,
        lv: LevelPlan,
        prep: FusedPrep,
        idx: np.ndarray,
        inst3: np.ndarray,
    ) -> FusedRes:
        raise NotImplementedError


class FusedWanderJoinKernel(FusedKernelMixin, WanderJoinVectorKernel):
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


class FusedAlleyKernel(FusedKernelMixin, AlleyVectorKernel):
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


_register_kernel_class(FusedWanderJoinKernel)  # type: ignore[arg-type]
_register_kernel_class(FusedAlleyKernel)  # type: ignore[arg-type]


def fused_kernel_for(
    estimator: RSVEstimator,
) -> Optional[Type[VectorKernel]]:
    """Fused kernel class for ``estimator``, or ``None`` when the fallback
    ladder (vectorized, then scalar) should take over.  Exact types only —
    subclasses may override any RSV hook."""
    if type(estimator) is WanderJoinEstimator:
        return FusedWanderJoinKernel
    if type(estimator) is AlleyEstimator:
        return FusedAlleyKernel
    return None
