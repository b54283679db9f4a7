"""Hardware cost models for the SIMT simulator and the CPU baseline.

All simulated timings in the repository derive from the two specs here, so
the constants live in one place.  Defaults approximate the paper's testbed
(RTX 2080 Ti + 12-core Xeon W-2133 @ 3.6 GHz).  The constants set absolute
scale; the paper's *relative* results (GPU ≫ CPU, gSWORD ≫ GPU baseline,
iteration sync slower than sample sync) emerge from the execution model —
utilisation, coalescing and lockstep max-over-lanes — not from these numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class GPUSpec:
    """Simulated GPU parameters (defaults ~ RTX 2080 Ti).

    Attributes:
        warp_size: lanes per warp (SIMT width).
        sm_count: streaming multiprocessors.
        resident_warps_per_sm: warps that can hide each other's latency;
            with ``sm_count`` this bounds parallel warp throughput.
        clock_ghz: SM clock; cycles / (clock * 1e6) = milliseconds.
        segment_elements: elements per memory transaction (128 B / 8 B ints).
        mem_latency_cycles: effective (throughput-amortised) latency of a
            memory instruction on the warp's critical path; dependent loads
            pay it per load, warp instructions pay it once.
        issue_cycles: pipelined issue cost per memory transaction.
        region_miss_cycles: extra cost when a warp instruction touches an
            additional distinct array region (models TLB/L2 locality; this
            is what makes iteration synchronisation lose, §3.2).
        op_cycles: one arithmetic/compare lane-op.
        sync_cycles: one warp-level primitive (_any/_ballot/_shfl/_reduce).
        launch_overhead_ms: fixed kernel launch + teardown cost.
    """

    warp_size: int = 32
    sm_count: int = 68
    resident_warps_per_sm: int = 8
    clock_ghz: float = 1.545
    segment_elements: int = 16
    mem_latency_cycles: int = 24
    issue_cycles: int = 1
    region_miss_cycles: int = 150
    op_cycles: int = 1
    sync_cycles: int = 2
    launch_overhead_ms: float = 0.01

    def __post_init__(self) -> None:
        if self.warp_size <= 0 or self.warp_size & (self.warp_size - 1):
            raise ConfigError("warp_size must be a positive power of two")
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")
        if self.segment_elements <= 0:
            raise ConfigError("segment_elements must be positive")

    @property
    def resident_warps(self) -> int:
        """Warps the device can keep in flight concurrently."""
        return self.sm_count * self.resident_warps_per_sm

    def cycles_to_ms(self, cycles: float) -> float:
        return cycles / (self.clock_ghz * 1e6)


@dataclass(frozen=True)
class CPUSpec:
    """Simulated CPU parameters (defaults ~ Xeon W-2133, 12 threads).

    Per-operation costs are higher-level than the GPU's because the CPU
    baseline is scored per RSV action rather than per memory transaction:
    caches make its access pattern largely uniform, and G-CARE-style dynamic
    scheduling balances threads, so a scalar cost model suffices.

    ``refine_probe_cycles`` is much cheaper than ``probe_cycles``: Alley's
    refinement probes run over a just-scanned (L1-resident) candidate slice,
    whereas validate/lookup probes chase cold pointers.  This is why CPU-AL
    is only ~1.1-2.7x slower than CPU-WJ in the paper while GPU-AL is ~8x
    slower than GPU-WJ: GPUs cannot cache-amortise the probes.
    """

    threads: int = 12
    clock_ghz: float = 3.6
    candidate_scan_cycles: int = 4
    probe_cycles: int = 20
    refine_probe_cycles: int = 3
    sample_overhead_cycles: int = 250
    iteration_overhead_cycles: int = 80

    def __post_init__(self) -> None:
        if self.threads <= 0:
            raise ConfigError("threads must be positive")
        if self.clock_ghz <= 0:
            raise ConfigError("clock_ghz must be positive")

    def cycles_to_ms(self, cycles: float, threads: int = 0) -> float:
        """Wall milliseconds for ``cycles`` of total work spread over
        ``threads`` dynamically-scheduled workers (0 = all threads)."""
        workers = threads or self.threads
        workers = max(1, min(workers, self.threads))
        return cycles / workers / (self.clock_ghz * 1e6)


#: Default hardware models used across benches unless overridden.
DEFAULT_GPU = GPUSpec()
DEFAULT_CPU = CPUSpec()
