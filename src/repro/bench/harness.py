"""Method runners shared by every benchmark.

``run_method`` executes one of the paper's six compared methods (Table 2)
— or one of the ablation/micro-benchmark variants — on a workload and
returns a uniform :class:`MethodResult` with the simulated per-query time
extrapolated to the paper's 10⁶-sample budget.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict

from repro.bench.workloads import Workload
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.errors import ConfigError
from repro.estimators.alley import AlleyEstimator
from repro.estimators.base import RSVEstimator
from repro.estimators.cpu_runner import CPUSamplingRunner
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.gpu.costmodel import CPUSpec, DEFAULT_CPU, DEFAULT_GPU, GPUSpec
from repro.utils.rng import derive_seed

#: The paper's per-query sample budget that timings are extrapolated to.
TARGET_SAMPLES = 10**6

#: Samples actually simulated per run; override with REPRO_BENCH_SAMPLES.
DEFAULT_SIM_SAMPLES = int(os.environ.get("REPRO_BENCH_SAMPLES", "2048"))

#: Table 2's method names, in its row order.
METHOD_NAMES = (
    "CPU-WJ", "CPU-AL", "GPU-WJ", "GPU-AL", "gSWORD-WJ", "gSWORD-AL",
)


def _estimator_for(name: str) -> RSVEstimator:
    if name.endswith("WJ"):
        return WanderJoinEstimator()
    if name.endswith("AL"):
        return AlleyEstimator()
    raise ConfigError(f"unknown estimator suffix in {name!r}")


#: Engine configurations by method family / ablation label.
ENGINE_CONFIGS: Dict[str, EngineConfig] = {
    "GPU": EngineConfig.gpu_baseline(),          # NextDoor-style baseline (O0)
    "gSWORD": EngineConfig.gsword(),             # full gSWORD (O2)
    "O0": EngineConfig.gpu_baseline(),
    "O1": EngineConfig.inheritance_only(),
    "O2": EngineConfig.gsword(),
    "sample-sync": EngineConfig.sample_sync_baseline(),
    "iteration-sync": EngineConfig.gpu_baseline(),
}


@dataclass
class MethodResult:
    """Uniform result record for one (method, workload) run."""

    method: str
    dataset: str
    query: str
    estimate: float
    n_samples: int
    n_valid: int
    simulated_ms: float  # extrapolated to TARGET_SAMPLES
    warp_efficiency: float = 1.0
    stall_long_per_iter: float = 0.0
    stall_wait_per_iter: float = 0.0

    @property
    def valid_ratio(self) -> float:
        if self.n_samples == 0:
            return 0.0
        return self.n_valid / self.n_samples


def run_method(
    workload: Workload,
    method: str,
    sim_samples: int = 0,
    target_samples: int = TARGET_SAMPLES,
    seed_salt: object = 0,
    cpu_spec: CPUSpec = DEFAULT_CPU,
    gpu_spec: GPUSpec = DEFAULT_GPU,
) -> MethodResult:
    """Run one method on one workload.

    ``method`` is either a Table 2 name (``CPU-WJ`` … ``gSWORD-AL``) or an
    ablation label combined with an estimator suffix (``O1-AL``,
    ``sample-sync-AL``...).  Timings are extrapolated from ``sim_samples``
    simulated samples to ``target_samples``.
    """
    n_sim = sim_samples or DEFAULT_SIM_SAMPLES
    seed = derive_seed(workload.seed, method, seed_salt)
    family, _, suffix = method.rpartition("-")
    if not family:
        raise ConfigError(f"malformed method name {method!r}")
    estimator = _estimator_for(suffix)

    if family == "CPU":
        runner = CPUSamplingRunner(estimator, spec=cpu_spec)
        result = runner.run(workload.cg, workload.order, n_sim, rng=seed)
        scaled_ms = result.simulated_ms * (target_samples / n_sim)
        return MethodResult(
            method=method,
            dataset=workload.dataset,
            query=workload.query.name,
            estimate=result.estimate,
            n_samples=result.n_samples,
            n_valid=result.n_valid,
            simulated_ms=scaled_ms,
        )

    config = ENGINE_CONFIGS.get(family)
    if config is None:
        raise ConfigError(
            f"unknown method family {family!r}; known: "
            f"{sorted(ENGINE_CONFIGS)} or CPU"
        )
    engine = GSWORDEngine(estimator, config, gpu_spec)
    result = engine.run(workload.cg, workload.order, n_sim, rng=seed)
    stalls = result.profile.stall_summary()
    return MethodResult(
        method=method,
        dataset=workload.dataset,
        query=workload.query.name,
        estimate=result.estimate,
        n_samples=result.n_samples,
        n_valid=result.n_valid,
        simulated_ms=result.simulated_ms_at(target_samples),
        warp_efficiency=stalls["warp_efficiency"],
        stall_long_per_iter=stalls["stall_long_per_iter"],
        stall_wait_per_iter=stalls["stall_wait_per_iter"],
    )
