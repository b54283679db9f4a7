"""Device timing: converting warp cycle totals into simulated milliseconds.

GPUs hide latency by oversubscription: while one warp stalls on memory,
others issue.  To first order the sustained throughput of an embarrassingly
parallel kernel is therefore ``total_warp_cycles / resident_warps`` device
cycles — the model used here.  Kernels smaller than the resident-warp count
are bounded by their longest warp instead (no free parallelism).

One guard rail rides along: :meth:`DeviceModel.check_watchdog` aborts a
launch that overruns a per-launch ceiling with
:class:`~repro.errors.KernelTimeout` (the hung-kernel killer real drivers
implement as a timeout reset).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ConfigError, KernelTimeout
from repro.gpu.costmodel import GPUSpec
from repro.gpu.profiler import KernelProfile


@dataclass(frozen=True)
class DeviceModel:
    """Simulated device clock plus the per-launch watchdog."""

    spec: GPUSpec = GPUSpec()

    def check_watchdog(
        self, kernel_ms: float, ceiling_ms: Optional[float] = None
    ) -> None:
        """Abort a launch whose simulated duration exceeds ``ceiling_ms``
        (raises :class:`KernelTimeout`; ``None`` = no ceiling).

        The serving layer propagates a request's remaining deadline here
        so a round that cannot finish in time aborts (and degrades) *now*
        instead of burning the deadline and timing out late.
        """
        if ceiling_ms is not None and kernel_ms > ceiling_ms:
            raise KernelTimeout(kernel_ms, ceiling_ms)

    def kernel_ms(
        self,
        profile: KernelProfile,
        longest_warp_cycles: Optional[float] = None,
    ) -> float:
        """Simulated duration of one kernel launch.

        ``longest_warp_cycles`` tightens the bound for small launches: the
        kernel cannot finish before its slowest warp does.
        """
        if profile.n_warps <= 0:
            return self.spec.launch_overhead_ms
        parallelism = min(profile.n_warps, self.spec.resident_warps)
        throughput_cycles = profile.total_cycles / parallelism
        floor_cycles = longest_warp_cycles or 0.0
        cycles = max(throughput_cycles, floor_cycles)
        return self.spec.launch_overhead_ms + self.spec.cycles_to_ms(cycles)

    def coresident_ms(
        self,
        profiles: Sequence[KernelProfile],
        longest_warp_cycles: Optional[Sequence[float]] = None,
    ) -> float:
        """Duration of several kernels launched *together* as co-resident
        warp groups sharing the device's ``resident_warps`` slots.

        The fused launch behaves like one kernel whose warps are the union
        of the member kernels': total cycles divide by the combined
        parallelism, the launch overhead is paid once, and the batch cannot
        finish before its slowest warp.  Small kernels that would each leave
        most warp slots idle when launched back-to-back instead fill each
        other's slots — the co-scheduling win dynamic batching exploits.
        """
        if not profiles:
            return self.spec.launch_overhead_ms
        total_warps = sum(p.n_warps for p in profiles)
        if total_warps <= 0:
            return self.spec.launch_overhead_ms
        total_cycles = sum(p.total_cycles for p in profiles)
        parallelism = min(total_warps, self.spec.resident_warps)
        cycles = total_cycles / parallelism
        if longest_warp_cycles:
            cycles = max(cycles, max(longest_warp_cycles))
        return self.spec.launch_overhead_ms + self.spec.cycles_to_ms(cycles)

    def scale_to_samples(
        self, measured_ms: float, measured_samples: int, target_samples: int
    ) -> float:
        """Linear extrapolation of a kernel time to a larger sample count.

        Samples are i.i.d. with constant expected cost, so time scales
        linearly once the device is saturated; the launch overhead is
        charged once.
        """
        if measured_samples <= 0:
            raise ConfigError("measured_samples must be positive")
        variable = max(0.0, measured_ms - self.spec.launch_overhead_ms)
        return (
            self.spec.launch_overhead_ms
            + variable * (target_samples / measured_samples)
        )
