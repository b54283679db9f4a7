"""Warp-level primitives (functional equivalents of CUDA intrinsics).

Algorithms 2 and 3 of the paper communicate between lanes with
``__any_sync`` / ``__ballot_sync`` / ``__shfl_sync`` / warp reductions.  The
simulator provides the same semantics over length-``warp_size`` Python/numpy
sequences.  Each helper optionally charges sync cycles to a profile so the
cost of warp communication is visible in the model (it is cheap — register
traffic — exactly as on hardware).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, TypeVar

from repro.errors import SimulationError
from repro.gpu.costmodel import GPUSpec
from repro.gpu.profiler import WarpProfile

T = TypeVar("T")


def _charge(profile: Optional[WarpProfile], spec: Optional[GPUSpec]) -> None:
    if profile is not None and spec is not None:
        profile.charge_sync(spec.sync_cycles)


def warp_any(
    predicate: Sequence[bool],
    profile: Optional[WarpProfile] = None,
    spec: Optional[GPUSpec] = None,
) -> bool:
    """``__any_sync``: true when any lane's predicate holds."""
    _charge(profile, spec)
    return any(bool(p) for p in predicate)


def ballot_first(
    predicate: Sequence[bool],
    profile: Optional[WarpProfile] = None,
    spec: Optional[GPUSpec] = None,
) -> int:
    """``__ballot_sync`` + ``__ffs``: index of the first lane whose
    predicate holds, or -1.  The paper's Alg. 2/3 use the ballot result to
    elect a parent/leader lane; electing the first set lane matches the
    usual ``__ffs(__ballot_sync(...))`` idiom."""
    _charge(profile, spec)
    for lane, p in enumerate(predicate):
        if bool(p):
            return lane
    return -1


def ballot_mask(
    predicate: Sequence[bool],
    profile: Optional[WarpProfile] = None,
    spec: Optional[GPUSpec] = None,
) -> int:
    """``__ballot_sync``: bitmask of lanes whose predicate holds."""
    _charge(profile, spec)
    mask = 0
    for lane, p in enumerate(predicate):
        if bool(p):
            mask |= 1 << lane
    return mask


def shfl(
    values: Sequence[T],
    src_lane: int,
    profile: Optional[WarpProfile] = None,
    spec: Optional[GPUSpec] = None,
) -> T:
    """``__shfl_sync``: broadcast lane ``src_lane``'s value to the caller."""
    if not 0 <= src_lane < len(values):
        raise SimulationError(f"shfl source lane {src_lane} out of range")
    _charge(profile, spec)
    return values[src_lane]


def reduce_sum(
    values: Sequence[float],
    profile: Optional[WarpProfile] = None,
    spec: Optional[GPUSpec] = None,
) -> float:
    """``__reduce_add_sync`` (or a shfl-down tree): warp-wide sum."""
    _charge(profile, spec)
    return float(sum(values))


def reduce_max_by_key(
    keys: Sequence[float],
    payloads: Sequence[T],
    profile: Optional[WarpProfile] = None,
    spec: Optional[GPUSpec] = None,
) -> Tuple[float, T, int]:
    """Warp-wide argmax: ``(best_key, payload_of_best, lane_of_best)``.

    Ties resolve to the lowest lane, matching a deterministic shfl-down
    reduction.  Used by warp streaming to pick the A-Res winner (Alg. 3,
    line 12).
    """
    if len(keys) != len(payloads) or len(keys) == 0:
        raise SimulationError("reduce_max_by_key needs equal, non-empty inputs")
    _charge(profile, spec)
    best_lane = 0
    best_key = float(keys[0])
    for lane in range(1, len(keys)):
        k = float(keys[lane])
        if k > best_key:
            best_key = k
            best_lane = lane
    return best_key, payloads[best_lane], best_lane
