"""Cycle and stall accounting for simulated warps and kernels.

Mirrors the counters the paper reads from *nsight* in its Figure 5
micro-benchmark:

* ``stall_long`` — cycles stalled on memory loads (StallLong);
* ``stall_wait`` — cycles lanes spend idle waiting for the rest of the warp
  to finish the current samples (StallWait).  Sample synchronisation without
  inheritance idles dead lanes until the round ends, so its StallWait is
  high; iteration synchronisation restarts immediately and keeps it low —
  the trade-off Figure 5 profiles.

Warp efficiency (busy lane-iterations / total lane-iterations) quantifies
the validate-imbalance that sample inheritance removes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class WarpProfile:
    """Accumulated counters for one simulated warp (or one kernel when
    merged).  All units are cycles except the lane/segment tallies."""

    compute_cycles: float = 0.0
    mem_cycles: float = 0.0
    sync_cycles: float = 0.0
    stall_long: float = 0.0
    stall_wait: float = 0.0
    mem_segments: int = 0
    region_misses: int = 0
    lane_busy: int = 0
    lane_total: int = 0
    iterations: int = 0

    @property
    def cycles(self) -> float:
        """Total warp-serial cycles."""
        return self.compute_cycles + self.mem_cycles + self.sync_cycles

    @property
    def warp_efficiency(self) -> float:
        """Fraction of lane-iterations doing useful work (1.0 = no idling)."""
        if self.lane_total == 0:
            return 1.0
        return self.lane_busy / self.lane_total

    def charge_compute(self, cycles: float) -> None:
        self.compute_cycles += cycles

    def charge_sync(self, cycles: float) -> None:
        self.sync_cycles += cycles

    def charge_memory(self, cycles: float, segments: int, regions: int) -> None:
        self.mem_cycles += cycles
        self.stall_long += cycles
        self.mem_segments += segments
        self.region_misses += regions

    def charge_lockstep(self, per_lane_cycles) -> None:
        """Charge a lockstep compute step: the warp advances at the pace of
        its slowest lane (divergent lanes are masked, not free)."""
        if len(per_lane_cycles) == 0:
            return
        self.compute_cycles += max(per_lane_cycles)

    def charge_idle_wait(self, iteration_cycles: float, busy: int, total: int) -> None:
        """Charge StallWait: each idle lane sits through the iteration."""
        if total > 0 and busy < total:
            self.stall_wait += iteration_cycles * (total - busy)

    def note_lanes(self, busy: int, total: int) -> None:
        self.lane_busy += busy
        self.lane_total += total
        self.iterations += 1

    def merge(self, other: "WarpProfile") -> "WarpProfile":
        self.compute_cycles += other.compute_cycles
        self.mem_cycles += other.mem_cycles
        self.sync_cycles += other.sync_cycles
        self.stall_long += other.stall_long
        self.stall_wait += other.stall_wait
        self.mem_segments += other.mem_segments
        self.region_misses += other.region_misses
        self.lane_busy += other.lane_busy
        self.lane_total += other.lane_total
        self.iterations += other.iterations
        return self


@dataclass
class KernelProfile:
    """Aggregate over all warps of one simulated kernel launch."""

    warp: WarpProfile = field(default_factory=WarpProfile)
    n_warps: int = 0
    n_samples: int = 0
    n_valid_samples: int = 0

    def add_warp(self, profile: WarpProfile, samples: int, valid: int) -> None:
        self.warp.merge(profile)
        self.n_warps += 1
        self.n_samples += samples
        self.n_valid_samples += valid

    def merge(self, other: "KernelProfile") -> "KernelProfile":
        """Fold another kernel's counters into this one.

        Used by round-capable execution (``EngineSession``) and by the
        serving scheduler, which accounts several co-resident kernels as one
        device batch."""
        self.warp.merge(other.warp)
        self.n_warps += other.n_warps
        self.n_samples += other.n_samples
        self.n_valid_samples += other.n_valid_samples
        return self

    @property
    def total_cycles(self) -> float:
        return self.warp.cycles

    @property
    def valid_ratio(self) -> float:
        if self.n_samples == 0:
            return 0.0
        return self.n_valid_samples / self.n_samples

    def stall_summary(self) -> Dict[str, float]:
        """The Figure-5 metrics, normalised per warp iteration."""
        iters = max(1, self.warp.iterations)
        return {
            "stall_long_per_iter": self.warp.stall_long / iters,
            "stall_wait_per_iter": self.warp.stall_wait / iters,
            "warp_efficiency": self.warp.warp_efficiency,
        }

    def cycle_breakdown(self) -> Dict[str, float]:
        """Where the kernel's cycles went, by category — the span-args /
        metrics-registry view of the raw counters (all units cycles)."""
        return {
            "compute": self.warp.compute_cycles,
            "memory": self.warp.mem_cycles,
            "sync": self.warp.sync_cycles,
            "stall_long": self.warp.stall_long,
            "stall_wait": self.warp.stall_wait,
        }
