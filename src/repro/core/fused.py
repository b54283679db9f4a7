"""Fused wave execution — the vector backend's runners and warp provider.

The scalar engine walks one lane at a time through Python ``SampleState``
objects.  The vector backend keeps lane state as dense arrays and executes
the :class:`repro.estimators.fused.FusedPlan` compiled once per (query,
estimator) pair.  This module holds what both synchronisation modes share
— the frozen :class:`WaveParams`, the :class:`FusedArena` scratch, the
per-warp profile and Welford registers as struct-of-arrays columns, the
batch-end fold, and the :class:`WarpProvider` that spawns and shards
warps and resumes the ones whose quota the fold corrects — plus
:class:`FusedRunner`, the sample-synchronised runner.  Both runners draw
lane indices through :class:`repro.utils.rng.WarpStreams`.
Iteration synchronisation runs on
:class:`repro.core.vectorized.WaveRunner` over the same plan.

Under sample synchronisation every running lane of a warp sits at the
warp's depth, so :class:`FusedRunner` steps whole depth groups:

* lane state stays **dense**: ``(K, W, n_q)`` instances, ``(K, W)``
  probabilities and masks, per-warp depth/quota/profile registers as
  struct-of-arrays columns — no flat-list rebuild, no per-warp objects;
* each super-step partitions live warps by depth (usually one group) and
  runs the level's compiled kernel as whole-batch numpy ops;
* every stepping warp's lanes draw in one pass: :class:`WarpStreams`
  keeps each warp's PCG64 words prefetched and replays numpy's bounded
  draw (Lemire's method over 32-bit half-words) for all rows at once —
  the values ``Generator.integers`` would give each warp, with no
  per-warp call;
* the cost model is charged deferred: a step only logs each lane's
  charge inputs, and :class:`_ChargeLog` evaluates the logged rows of
  every step and depth in one pass — at wave end, or when the log holds
  ``_CHARGE_LOG_ROWS`` rows — folding them into the profile SoA with a
  left-to-right cumsum, the scalar charge sequence value-for-value;
* batch-end Horvitz–Thompson folds run as masked per-lane Welford updates
  across all finishing warps at once, reproducing ``HTAccumulator.add``'s
  float operation order exactly (a few warps fold through
  ``HTAccumulator.add`` itself, which is cheaper than the numpy calls);
* with inheritance, every batch start records a :class:`Checkpoint` of
  the warp — its stream position as a draw count, Welford registers,
  collected count, reservoir length, and the profile registers read off
  the charge fold's running sums — and a wave can start from one: a warp
  whose optimistic quota was too large resumes from the boundary where
  the two quotas' batches part (:func:`resume_warp`), so a correction
  costs at most one batch of level steps.

An interactive round is one or two warps, so per-step numpy dispatch, not
array width, is what the runner pays for: a step pays a handful of log
writes, and the ~100 calls of the charge formulas are paid once per wave.
Iteration synchronisation (:class:`repro.core.vectorized.WaveRunner`)
logs into the same evaluator.

All persistent buffers, the charge log's included, come from a
:class:`FusedArena` — named, high-water reused across waves *and* rounds,
so steady-state execution allocates nothing.  Bit-identity with the
scalar backend (estimates, inheritance decisions, reservoir contents,
simulated-ms) is a tested contract.

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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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
    WarpStreams,
    spawn_generator_states,
)

#: One warp-result tuple: ``(acc, profile, n_valid, collected, count)`` —
#: the same shape ``GSWORDEngine._run_warp`` returns.
WarpResult = Tuple[
    HTAccumulator, WarpProfile, int, List[Tuple[Tuple[int, ...], float]], int
]

#: Per-warp reservoir lists of ``(partial_instance, probability)`` pairs.
Collected = List[List[Tuple[Tuple[int, ...], float]]]


class Checkpoint(NamedTuple):
    """One warp's registers at a batch boundary: everything the
    sample-synchronised wave loop carries from one batch into the next.

    ``state`` is the warp's spawned generator state and ``drawn`` the
    32-bit draws its stream has consumed (the :class:`WarpStreams`
    position); ``ncoll`` the samples collected so far; ``n_collected`` the
    reservoir length; ``welford`` the HT registers ``(n, n_valid, mean,
    m2)``; ``prof`` the profile registers in :class:`_ProfileSoA` slot
    order, the exact left-to-right running sums at the boundary.  A wave started from a
    checkpoint continues bit for bit where the warp's own run went on.
    """

    state: GeneratorState
    drawn: int = 0
    ncoll: int = 0
    n_collected: int = 0
    welford: Tuple[int, int, float, float] = (0, 0, 0.0, 0.0)
    prof: Tuple[float, ...] = (0.0,) * 5 + (0,) * 5


#: What a runner returns per warp: the :data:`WarpResult` fields, then the
#: warp's batch-start checkpoints in order (recorded under sample sync with
#: inheritance — the only schedule whose warps can over-collect — and empty
#: otherwise).  A warp started from a checkpoint reports only the reservoir
#: entries it collected after it.
WarpRun = Tuple[
    HTAccumulator,
    WarpProfile,
    int,
    List[Tuple[Tuple[int, ...], float]],
    int,
    List[Checkpoint],
]


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


def _union_sweep(
    m: np.ndarray, first: np.ndarray, last: np.ndarray
) -> np.ndarray:
    """Per-row count of distinct keys covered by one inclusive key range
    ``[first, last]`` per masked lane: an interval-union sweep over the
    lane spans sorted by start."""
    fk = np.where(m, first, _KEY_SENTINEL)
    lk = np.where(m, last, np.int64(-1))
    # Row-wise argsort as flat positions: a flat take is several times
    # cheaper than a 2-D fancy gather.
    order = np.argsort(fk, axis=1)
    order += np.arange(0, fk.size, fk.shape[1])[:, None]
    fs = fk.take(order)
    ls = lk.take(order)
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

    def load(self, i: int, values: Sequence[float]) -> None:
        """Set row ``i``'s registers to ``values`` (slot order)."""
        for name, value in zip(self.__slots__, values):
            getattr(self, name)[i] = value


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
    checkpoints: Optional[List[List[Checkpoint]]] = None,
) -> List[WarpRun]:
    """One :data:`WarpRun` per wave row from the SoA registers."""
    out: List[WarpRun] = []
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
                checkpoints[i] if checkpoints is not None else [],
            )
        )
    return out


def _charge_streamed(p: WaveParams, lane_clens: np.ndarray, rate: np.ndarray):
    """Alg. 3's streamed candidate probes for ``(rows, lanes)`` charge rows,
    value-for-value with the scalar ``streaming_schedule`` charge:
    collaborative rounds over ``lane_clens`` (the refining lanes'
    candidate counts, 0 elsewhere), then each lane's independent leftover
    scan at its probe ``rate``.  Returns the per-row increments
    ``(probe_cycles, leftover_cycles, sync, comp, segs)``; the two memory
    charges are returned separately because their order matters."""
    spec = p.spec
    W = p.warp_size
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
    leftover = remainders * rate
    probe_loads = rounds_w * rate.max(axis=1) * _PROBE_LOADS
    probe_cycles = probe_loads * warp_instruction_cost(spec, spec.warp_size)
    # Lane-order fold: cumsum adds left to right, the same float
    # accumulation order as the scalar path's Python sum over the
    # 32-lane list.
    tl = leftover.cumsum(axis=1)[:, -1] * _PROBE_LOADS
    ml = leftover.max(axis=1) * _PROBE_LOADS
    lcost = np.where(
        tl > 0, ml * spec.mem_latency_cycles + tl * spec.issue_cycles, 0.0
    )
    segs = np.where(
        probe_cycles > 0, np.rint(probe_loads * W).astype(np.int64), 0
    ) + np.rint(tl).astype(np.int64)
    # Collaborative and independent scan ops are integer-valued cycles,
    # so one sum is the scalar's two additions exactly.
    comp = (rounds_w + remainders.max(axis=1)) * (_CAND_SCAN_OPS * spec.op_cycles)
    sync = rounds_w * (5 * spec.sync_cycles)
    return probe_cycles, lcost, sync, comp, segs


#: Logged (super-step, warp) rows one deferred charge evaluation covers at
#: most.  Each row costs ~1.6 KiB of log (six int64 input columns and a
#: presence mask per lane), and the evaluator's temporaries scale with the
#: rows it covers, so the cap bounds the charge's memory; a wave wider
#: than the cap evaluates every super-step.  Flushing earlier or later
#: never changes a value.
_CHARGE_LOG_ROWS = 1024


class _ChargeLog:
    """Deferred cost accounting for one wave, either sync mode.

    A super-step only *logs* what ``GSWORDEngine._charge_iteration`` reads
    — per lane of each stepping warp: the backward-pair count (0 on
    global levels), candidate count, probes, candidate span and edge id,
    plus the presence mask — into arena slabs indexed ``(step, warp)``
    over the warps live when the log window opened, and the vote, ballot
    and shfl syncs sample-sync inheritance pays after the step.
    :meth:`flush` evaluates every logged row in one vectorised pass and
    folds the increments into the profile registers in the scalar
    order; it runs at wave end and whenever the window holds
    ``_CHARGE_LOG_ROWS`` rows.  Warps only ever leave a wave, so a row
    the window holds for a warp that has finished is all zeros.

    The fold's running sums hold every register's exact value at every
    step boundary, so a batch checkpoint's profile registers cost a
    gather: :meth:`mark` notes which warps start a batch at the current
    step, and the fold appends their registers there to ``ck_float`` /
    ``ck_int`` in mark order.
    """

    __slots__ = (
        "p", "arena", "prof", "max_steps", "slot", "win", "cap", "s",
        "cols", "present", "isync", "marks", "ck_float", "ck_int",
    )

    def __init__(
        self,
        p: WaveParams,
        arena: FusedArena,
        prof: _ProfileSoA,
        K: int,
        max_steps: int,
    ) -> None:
        self.p = p
        self.arena = arena
        self.prof = prof
        # Super-steps the wave can take at most: a window never needs more
        # (a low bound would only flush early).
        self.max_steps = max_steps
        # Window column of each wave row.
        self.slot = arena.take("log_slot", (K,), np.int64)
        self.s = 0
        self.marks: List[Tuple[np.ndarray, int]] = []
        self.ck_float: List[np.ndarray] = []
        self.ck_int: List[np.ndarray] = []

    def open(self, rows: np.ndarray) -> None:
        """Start a window over the live warps ``rows``."""
        n = len(rows)
        W = self.p.warp_size
        ar = self.arena
        self.win = rows
        self.slot[rows] = np.arange(n)
        self.cap = max(1, min(_CHARGE_LOG_ROWS // n, self.max_steps))
        self.cols = ar.take("log_cols", (6, self.cap, n, W), np.int64)
        self.present = ar.take("log_present", (self.cap, n, W), np.bool_)
        self.isync = ar.take("log_isync", (self.cap, n), np.int64)
        self.s = 0
        self._clear()

    def _clear(self) -> None:
        """Blank step ``s``: warps that no longer step log nothing, and
        warps that inherit overwrite their sync count."""
        self.present[self.s] = False
        self.isync[self.s] = 0

    def _at(self, rows: np.ndarray):
        """Window columns of ``rows`` (a subset of the window)."""
        return slice(None) if len(rows) == len(self.win) else self.slot[rows]

    def step(self, rows: np.ndarray, present: np.ndarray, cols) -> None:
        """Log one level step of the warps ``rows``: ``cols`` is
        ``(nb, clen, probes, span_lo, span_hi, edge_id)``, each a
        ``(rows, lanes)`` matrix or a constant.  Lanes outside ``present``
        may hold anything."""
        j = self._at(rows)
        out = self.cols[:, self.s]
        for k, c in enumerate(cols):
            out[k, j] = c
        self.present[self.s, j] = present

    def mark(self, rows: np.ndarray) -> None:
        """The warps ``rows`` start a batch before this step."""
        self.marks.append((rows, self.s))

    def checkpoint_registers(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(5, marks)`` float and integer profile registers of every
        :meth:`mark`-ed warp at its mark, in mark order (call after the
        final flush)."""
        if not self.ck_float:
            return np.zeros((5, 0)), np.zeros((5, 0), dtype=np.int64)
        return (
            np.concatenate(self.ck_float, axis=1),
            np.concatenate(self.ck_int, axis=1),
        )

    def inherit(self, rows: np.ndarray, n_sync: np.ndarray) -> None:
        """Log the warp primitives inheritance ran after this step."""
        self.isync[self.s, self._at(rows)] = n_sync

    def advance(self, rows: np.ndarray) -> None:
        """End the super-step; ``rows`` are the warps still live."""
        self.s += 1
        if self.s == self.cap:
            self.flush()
            if len(rows):
                self.open(rows)
        else:
            self._clear()

    def flush(self) -> None:
        """Charge every logged row and fold it into the profile SoA."""
        S = self.s
        if S == 0:
            return
        self.s = 0
        self._fold(S, *self._evaluate(S))

    def _evaluate(self, S: int):
        """Per-row increments of the first ``S`` logged steps, value for
        value with ``GSWORDEngine._charge_iteration``: the memory charges
        in charge order, then compute, sync, segment, region-miss and
        busy-lane increments.  Rows are step-major."""
        p = self.p
        spec = p.spec
        W = p.warp_size
        mem_lat = spec.mem_latency_cycles
        issue = spec.issue_cycles
        N = S * len(self.win)
        pres = self.present[:S].reshape(N, W)
        nb, clen, probes, span_lo, span_hi, eid = self.cols[:, :S].reshape(
            6, N, W
        )
        width = span_hi - span_lo
        touched = width > 0
        if not pres.all():
            # Absent lanes add nothing: no lookups, probes or touches (the
            # other columns are only read through these).
            nb *= pres
            probes *= pres
            touched &= pres
        busy = pres.sum(axis=1)
        streaming = p.streaming and p.has_refine
        needs_ref = nb > 0

        # (1) backward-pair lookups, lockstep across the warp
        tot_lookup = nb.sum(axis=1) * _PROBE_LOADS
        lookup_cost = np.where(
            tot_lookup > 0,
            nb.max(axis=1) * _PROBE_LOADS * mem_lat + tot_lookup * issue,
            0.0,
        )

        # (3, computed early) per-iteration compute: the slowest present
        # lane paces the warp (streamed scans are charged below).
        base_ops = float(_ITER_BASE_OPS + _SAMPLE_OPS + _VALIDATE_OPS)
        if p.has_refine and not streaming:
            scan = np.where(needs_ref, clen, 0) * float(_CAND_SCAN_OPS)
            ops = ((base_ops + scan) * spec.op_cycles).max(axis=1)
        else:
            ops = base_ops * spec.op_cycles
        comp = np.where(busy > 0, ops, 0.0)

        # (2) candidate probes — streamed (Alg. 3) or lockstep
        segs = tot_lookup
        sync = np.zeros(N)
        if streaming:
            # (int64 / int64 true-divides in float64)
            rate = np.divide(
                probes, clen, out=np.zeros(clen.shape), where=clen > 0
            )
            probe_cycles, lcost, sync, scan_comp, probe_segs = _charge_streamed(
                p, np.where(needs_ref, clen, 0), rate
            )
            mem_terms = [lookup_cost, probe_cycles, lcost]
            segs = segs + probe_segs
            comp = comp + scan_comp
        else:
            tp = probes.sum(axis=1) * _PROBE_LOADS
            mem_terms = [
                lookup_cost,
                np.where(
                    tp > 0,
                    probes.max(axis=1) * _PROBE_LOADS * mem_lat + tp * issue,
                    0.0,
                ),
            ]
            segs = segs + tp

        # (4) coalescing-union memory instruction: refining lanes scan
        # their whole candidate span, the rest touch its middle slot.
        seg_el = spec.segment_elements
        touch = (span_lo + width // 2) // seg_el
        if p.has_refine:
            first = np.where(needs_ref, span_lo // seg_el, touch)
            last = np.where(needs_ref, (span_lo + width - 1) // seg_el, touch)
            seg_counts, extra_reg = _scan_union_rows(touched, eid, first, last)
        else:
            seg_counts, extra_reg = _touch_union_rows(touched, eid, touch)
        ucost = np.where(
            seg_counts > 0,
            mem_lat + seg_counts * issue + extra_reg * spec.region_miss_cycles,
            0.0,
        )
        um = ucost > 0
        mem_terms.append(ucost)
        segs = segs + np.where(um, seg_counts, 0)
        return mem_terms, comp, sync, segs, np.where(um, extra_reg, 0), busy

    def _fold(self, S, mem_terms, comp, sync, segs, regs, busy) -> None:
        """Add ``S`` steps of per-row increments to the window's warps in
        the scalar order.

        Per warp, each register's increments are laid out step by step in
        charge order and folded with one ``np.cumsum`` from the register's
        value: cumsum adds left to right, exactly the scalar sequence of
        ``+=``, where a pairwise ``np.sum`` would not be.  Absent terms
        are ``+0.0``, which leaves a sum unchanged.  Only ``mem``,
        ``stall_long`` and ``stall_wait`` carry fractions (the streamed
        probe rate); compute and sync cycles are integer-valued
        (``GPUSpec``'s cycle costs are ints), so their prefix sums are
        exact in any order, and the integer counters just sum.  Column
        ``s`` of each running sum is the register after ``s`` steps, which
        is where pending :meth:`mark` checkpoints read theirs.
        """
        prof = self.prof
        win = self.win
        n = len(win)
        W = self.p.warp_size

        def by_warp(x):
            return x.reshape(S, n).T

        T = len(mem_terms)
        # StallLong mirrors every memory charge: same adds, same order,
        # from its own register.
        mem = np.empty((2, n, 1 + S * T))
        mem[0, :, 0] = prof.mem[win]
        mem[1, :, 0] = prof.slong[win]
        mem[:, :, 1:] = (
            np.stack(mem_terms, axis=1).reshape(S, n, T)
            .transpose(1, 0, 2).reshape(n, S * T)
        )
        mem = np.cumsum(mem, axis=2)
        comp_run = np.cumsum(
            np.concatenate((prof.comp[win][:, None], by_warp(comp)), axis=1),
            axis=1,
        )
        # Sync: each step's charge, then the inheritance primitives after it.
        sync_run = np.empty((n, 1 + 2 * S))
        sync_run[:, 0] = prof.sync[win]
        sync_run[:, 1::2] = by_warp(sync)
        sync_run[:, 2::2] = self.isync[:S].T * self.p.spec.sync_cycles
        sync_run = np.cumsum(sync_run, axis=1)
        prof.mem[win] = mem[0, :, -1]
        prof.slong[win] = mem[1, :, -1]
        prof.comp[win] = comp_run[:, -1]
        prof.sync[win] = sync_run[:, -1]
        busy = by_warp(busy)
        stepped = busy > 0
        counters = (prof.segs, prof.regs, prof.busy, prof.ltot, prof.iters)
        ints = np.empty((len(counters), n, 1 + S), dtype=np.int64)
        for k, reg in enumerate(counters):
            ints[k, :, 0] = reg[win]
        ints[0, :, 1:] = by_warp(segs)
        ints[1, :, 1:] = by_warp(regs)
        ints[2, :, 1:] = busy
        ints[3, :, 1:] = W * stepped
        ints[4, :, 1:] = stepped
        np.cumsum(ints, axis=2, out=ints)
        for k, reg in enumerate(counters):
            reg[win] = ints[k, :, -1]

        # (5) sample-sync idle lanes sit through the whole iteration: the
        # exact pre- and post-charge totals are the prefix sums at each
        # step boundary (a finished warp's zero rows add exactly 0.0).
        swait = None
        if self.p.sync_mode is SyncMode.SAMPLE and (busy < W).any():
            m = mem[0, :, ::T]
            before = (comp_run[:, :-1] + m[:, :-1]) + sync_run[:, 0:-1:2]
            after = (comp_run[:, 1:] + m[:, 1:]) + sync_run[:, 1::2]
            idle = np.where(busy < W, (after - before) * (W - busy), 0.0)
            swait = np.cumsum(
                np.concatenate((prof.swait[win][:, None], idle), axis=1),
                axis=1,
            )
            prof.swait[win] = swait[:, -1]

        if self.marks:
            j = np.concatenate([self.slot[rows] for rows, _ in self.marks])
            t = np.repeat(
                [s for _, s in self.marks], [len(r) for r, _ in self.marks]
            )
            mem_at = mem[:, j, t * T]
            self.ck_float.append(np.stack((
                comp_run[j, t],
                mem_at[0],
                sync_run[j, 2 * t],
                mem_at[1],
                # (no idle charge in this window: the register stands)
                swait[j, t] if swait is not None else prof.swait[win[j]],
            )))
            self.ck_int.append(ints[:, j, t])
            self.marks = []


class FusedRunner:
    """Executes sample-synchronised warps against a compiled
    :class:`FusedPlan`.

    ``run_warps(starts, quotas) -> List[WarpRun]`` gives bit-identical
    results for any wave composition or process placement — which is what
    lets :mod:`repro.multidev` shard rounds unchanged.  A start is a warp's
    spawned generator state (a fresh warp: the all-zero
    :class:`Checkpoint`) or a :class:`Checkpoint` one of its earlier runs
    recorded; ``quotas`` are the warps' whole task quotas either way.
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
        self,
        starts: Sequence["GeneratorState | Checkpoint"],
        quotas: Sequence[int],
    ) -> List[WarpRun]:
        starts = [
            s if isinstance(s, Checkpoint) else Checkpoint(s) for s in starts
        ]
        results: List[WarpRun] = []
        for lo in range(0, len(starts), _FUSED_WAVE_CHUNK):
            hi = min(lo + _FUSED_WAVE_CHUNK, len(starts))
            results.extend(self._wave(starts[lo:hi], quotas[lo:hi]))
        return results

    # ------------------------------------------------------------------
    # Wave loop
    # ------------------------------------------------------------------
    def _wave(
        self, starts: Sequence[Checkpoint], quotas: Sequence[int]
    ) -> List[WarpRun]:
        p = self.p
        K = len(starts)
        W, target, n_q = p.warp_size, p.target, p.n_q
        ar = self.arena
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
        ncoll = ar.zeros("ncoll", (K,), np.int64)
        for i, c in enumerate(starts):
            if c.ncoll:
                ncoll[i] = c.ncoll
                wn[i], wvalid[i], wmean[i], wm2[i] = c.welford
                prof.load(i, c.prof)
        remaining = ar.take("remaining", (K,), np.int64)
        np.subtract(np.asarray(quotas, dtype=np.int64), ncoll, out=remaining)
        batch = ar.zeros("batch", (K,), np.int64)
        round_inh = ar.zeros("round_inh", (K,), np.int64)
        dvals = ar.zeros("dvals", (K,), np.int64)
        need_batch = ar.take("need_batch", (K,), np.bool_)
        need_batch.fill(True)
        alive = ar.take("alive", (K,), np.bool_)
        np.greater(remaining, 0, out=alive)
        collected: Optional[Collected] = (
            [[] for _ in range(K)] if p.collect_states else None
        )
        lane_iota = np.arange(W, dtype=np.int64)
        # Batch-start checkpoints: each one's warp row, and its fields but
        # the profile registers, which the log reads off its running sums
        # when it folds.
        ck_rows: List[int] = []
        ck_heads: List[tuple] = []

        rows_alive = np.nonzero(alive)[0]
        # Every batch takes at most ``target`` steps, and takes at least W
        # tasks unless it is a warp's last.
        max_steps = -(-int(remaining.max()) // W) * target
        log = _ChargeLog(p, ar, prof, K, max_steps)
        streams = WarpStreams(
            [c.state for c in starts], [c.drawn for c in starts],
            ar.take, W, max_steps * W,
        )
        if len(rows_alive):
            log.open(rows_alive)
        while len(rows_alive):
            nb_rows = rows_alive[need_batch[rows_alive]]
            if len(nb_rows):
                if p.inheritance:
                    log.mark(nb_rows)
                    drawn = streams.drawn(nb_rows).tolist()
                    for r, h in zip(nb_rows.tolist(), drawn):
                        ck_rows.append(r)
                        ck_heads.append((
                            starts[r].state,
                            h,
                            int(ncoll[r]),
                            starts[r].n_collected
                            + (len(collected[r]) if collected is not None else 0),
                            (int(wn[r]), int(wvalid[r]),
                             float(wmean[r]), float(wm2[r])),
                        ))
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
                    d0, rows_alive, inst, prob, running, valid, streams, log
                )
            else:
                for d in np.unique(dsub):
                    rows = rows_alive[dsub == d]
                    self._step_level(
                        int(d), rows, inst, prob, running, valid, streams, log
                    )

            if p.inheritance:
                self._inherit_rows(
                    rows_alive, valid, running, inst, prob, log, round_inh
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
            log.advance(rows_alive)

        log.flush()
        checkpoints: List[List[Checkpoint]] = [[] for _ in range(K)]
        prof_float, prof_int = log.checkpoint_registers()
        for r, head, fl, it in zip(
            ck_rows, ck_heads, prof_float.T.tolist(), prof_int.T.tolist()
        ):
            checkpoints[r].append(Checkpoint(*head, (*fl, *it)))
        return _warp_results(
            prof, wn, wvalid, wmean, wm2, collected, ncoll, checkpoints
        )

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
        streams: WarpStreams,
        log: _ChargeLog,
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
        idx = streams.draw(rows, prep.rlen)
        res = self.kernel.fused_finish(lv, prep, idx, inst3)
        vr, vc = np.nonzero(res.valid)
        if len(vr):
            gr = vr if full else rows[vr]
            inst[gr, vc, d] = res.v[vr, vc]
            prob[gr, vc] *= res.prob_factor[vr, vc]
        valid[rows] = res.valid
        if lv.glob:
            # Every lane scans or touches the level's whole pool slice.
            cols = (0, lv.g_len, res.probes, 0, lv.g_len, -1)
        else:
            cols = (
                lv.nb, prep.clen, res.probes,
                prep.span_lo, prep.span_hi, prep.edge_id,
            )
        log.step(rows, present, cols)

    def _inherit_rows(
        self,
        rows: np.ndarray,
        valid: np.ndarray,
        running: np.ndarray,
        inst: np.ndarray,
        prob: np.ndarray,
        log: _ChargeLog,
        round_inh: np.ndarray,
    ) -> None:
        """Alg. 2 inheritance for every stepping warp at once."""
        run_r = running[rows]
        votes = run_r & valid[rows]
        anyv = votes.any(axis=1)
        idle_m = run_r & ~votes
        idle = idle_m.sum(axis=1)
        # One vote sync per warp; a warp with a surviving lane pays a
        # ballot and one shfl-sync per inheriting lane, a warp without
        # one stops.
        log.inherit(rows, np.where(anyv, 2 + idle, 1))
        if not anyv.all():
            running[rows[~anyv]] = False
        iw = anyv & (idle > 0)
        if not iw.any():
            # No lane died this step (the common case at high valid
            # ratios): nothing to inherit.
            return
        wr = rows[iw]
        im = idle_m[iw]
        ic = idle[iw]
        parent = np.argmax(votes[iw], axis=1)
        prob[wr, parent] *= ic + 1
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


def resume_warp(runner: FusedRunner, run: WarpRun, quota: int) -> WarpResult:
    """``run``'s warp at the smaller task ``quota``, resumed from the last
    of its batch checkpoints the smaller quota still agrees with.

    A batch takes ``min(W, quota - ncoll)`` tasks, so the warp's batches at
    ``quota`` and at the larger quota ``run`` had are the same up to the
    first boundary whose ``quota - ncoll`` is below ``W``.  From there one
    short batch remains — or none, once inheritance has already collected
    ``quota`` — and the resumed wave runs just that.  When no boundary
    qualifies, the smaller quota's run is ``run`` itself.  (``run`` holds
    checkpoints whenever its quota can be too large: only inheritance
    over-collects.)
    """
    W = runner.p.warp_size
    for ck in run[5]:
        if quota - ck.ncoll < W:
            acc, prof, n_valid, tail, count, _ = runner.run_warps(
                [ck], [quota]
            )[0]
            return acc, prof, n_valid, run[3][: ck.n_collected] + tail, count
    return run[:5]


class WarpProvider:
    """Runs all of a run's warps up front; hands results to the fold loop.

    Construction runs every warp at its optimistic quota ``min(tpw,
    n - w·tpw)`` — in-process when ``n_shards == 1``, or partitioned
    round-robin by warp index across the engine's shard pool otherwise
    (bit-identical either way, because each warp's result depends only on
    its own spawned generator state; shard workers return each warp's
    batch checkpoints with its result).  The scalar loop sizes warp
    ``w``'s quota from the live remaining count, which only differs from
    the guess when inheritance over-collects: :meth:`warp` returns the
    cached result when the fold confirms the quota, and otherwise resumes
    that single warp locally from its last batch checkpoint the true
    quota agrees with (:func:`resume_warp`) — at most one batch of level
    steps, not a replay from the spawned state.  ``n_reruns`` counts those
    quota corrections; warps past the last one the fold reaches are
    computed and discarded.
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
        run = self.results[w]
        if quota == self.guesses[w]:
            return run[:5]
        self.n_reruns += 1
        return resume_warp(self.runner, run, quota)
