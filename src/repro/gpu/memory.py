"""Coalescing- and latency-aware memory accounting for simulated warps.

Two cost shapes matter for the paper's phenomena:

* **Warp instructions** — all 32 lanes issue one access together.  Cost is
  one latency plus an issue slot per distinct 128-byte *segment* touched,
  plus a locality penalty per additional distinct *region* (a region being
  one candidate-array block, e.g. the local candidate lists of one directed
  query edge).  Sample synchronisation keeps lanes in the same region
  (§3.2); iteration synchronisation scatters them and pays the penalty —
  this is the StallLong gap of Figure 5.

* **Dependent chains** — one lane issuing loads whose addresses depend on
  previous results (binary-search probes during Alley refinement).  No
  memory-level parallelism is available, so each load pays full latency.
  Warp streaming converts these serial chains into warp instructions, which
  is exactly why it wins (§4.2).
"""

from __future__ import annotations

from typing import Set, Tuple

import numpy as np

from repro.gpu.costmodel import GPUSpec
from repro.gpu.profiler import WarpProfile

#: Array ids used by the engine when charging accesses.
ARRAY_QUERY_CSR = 0
ARRAY_EDGE_CANDIDATES = 1
ARRAY_LOCAL_CANDIDATES = 2
ARRAY_GLOBAL_CANDIDATES = 3
ARRAY_SAMPLE_STATE = 4


def warp_instruction_cost(
    spec: GPUSpec, segments: int, extra_regions: int = 0
) -> float:
    """Cycles for one warp-wide memory instruction touching ``segments``
    distinct transactions across ``extra_regions`` additional regions."""
    if segments <= 0:
        return 0.0
    return (
        spec.mem_latency_cycles
        + segments * spec.issue_cycles
        + extra_regions * spec.region_miss_cycles
    )


def dependent_chain_cost(spec: GPUSpec, n_loads: int) -> float:
    """Cycles for ``n_loads`` serially-dependent single-lane loads."""
    if n_loads <= 0:
        return 0.0
    return n_loads * (spec.mem_latency_cycles + spec.issue_cycles)


def scan_segments(spec: GPUSpec, start: int, length: int) -> int:
    """Distinct segments covered by a contiguous scan of ``length`` elements."""
    if length <= 0:
        return 0
    seg = spec.segment_elements
    return (start + length - 1) // seg - start // seg + 1


class WarpMemoryTracker:
    """Accumulates one warp instruction's lane accesses, then commits cost.

    Used for the contiguous scans where cross-lane coalescing matters: the
    union of segments is billed once, so 32 lanes reading the same candidate
    block cost barely more than one lane reading it.
    """

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self._segments: Set[Tuple[int, int]] = set()
        self._regions: Set[Tuple[int, int]] = set()

    def contiguous(self, array_id: int, region: int, start: int, length: int) -> None:
        """Record a lane's sequential scan of ``length`` elements."""
        if length <= 0:
            return
        seg = self.spec.segment_elements
        first = start // seg
        last = (start + length - 1) // seg
        for s in range(first, last + 1):
            self._segments.add((array_id, s))
        self._regions.add((array_id, region))

    def touch(self, array_id: int, region: int, position: int) -> None:
        """Record a single-element access at a known offset."""
        self._segments.add((array_id, position // self.spec.segment_elements))
        self._regions.add((array_id, region))

    @property
    def pending_segments(self) -> int:
        return len(self._segments)

    def commit(self, profile: WarpProfile) -> float:
        """Convert collected accesses into cycles, charge, and reset.

        Returns the cycles charged (handy for tests).
        """
        segments = len(self._segments)
        extra_regions = max(0, len(self._regions) - 1)
        cycles = warp_instruction_cost(self.spec, segments, extra_regions)
        if cycles:
            profile.charge_memory(cycles, segments, extra_regions)
        self._segments.clear()
        self._regions.clear()
        return cycles


def _expand_ranges(firsts: np.ndarray, lasts: np.ndarray) -> np.ndarray:
    """Concatenate ``[first_i, last_i]`` inclusive integer ranges."""
    counts = lasts - firsts + 1
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    offsets = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    flat = np.repeat(firsts, counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return flat + within


#: Key packing for the batched union: ``row * 2^48 + array_id * 2^45 + tail``
#: where ``tail`` is a segment index or shifted region id.  Array ids are
#: < 8 and candidate arrays are far below 2^45 elements, so keys are
#: collision-free and fit int64 for up to 2^15 warp rows per call.
_ROW_SHIFT = np.int64(1) << 48
_AID_SHIFT = np.int64(1) << 45


def batched_union_counts(
    spec: GPUSpec,
    n_rows: int,
    scan_rows: np.ndarray,
    scan_array_ids: np.ndarray,
    scan_regions: np.ndarray,
    scan_starts: np.ndarray,
    scan_lengths: np.ndarray,
    touch_rows: np.ndarray,
    touch_array_ids: np.ndarray,
    touch_regions: np.ndarray,
    touch_positions: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-warp-row ``(segments, extra_regions)`` for a whole wave step.

    Same counts as one :class:`WarpMemoryTracker` fill-and-commit per row,
    but computed with a single sort over key-encoded ``(row, array,
    segment)`` / ``(row, array, region)`` tuples — the coalescing model
    consuming flat lane arrays instead of per-lane Python iteration.
    """
    seg = spec.segment_elements
    scan_firsts = scan_starts // seg
    scan_lasts = (scan_starts + scan_lengths - 1) // seg
    scan_base = scan_rows * _ROW_SHIFT + scan_array_ids * _AID_SHIFT
    touch_base = touch_rows * _ROW_SHIFT + touch_array_ids * _AID_SHIFT
    seg_keys = np.concatenate(
        [
            np.repeat(scan_base, scan_lasts - scan_firsts + 1)
            + _expand_ranges(scan_firsts, scan_lasts),
            touch_base + touch_positions // seg,
        ]
    )
    region_keys = np.concatenate(
        [scan_base + scan_regions + 1, touch_base + touch_regions + 1]
    )
    seg_unique = np.unique(seg_keys)
    region_unique = np.unique(region_keys)
    segments = np.bincount(seg_unique >> 48, minlength=n_rows)
    regions = np.bincount(region_unique >> 48, minlength=n_rows)
    return segments, np.maximum(0, regions - 1)
