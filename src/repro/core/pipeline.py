"""CPU–GPU co-processing pipeline (§5, Figure 9).

Sampling is batched: for each batch the (simulated) GPU produces complete
samples for the running estimate, while ``t`` trawled samples are handed to
CPU workers that enumerate their extensions concurrently.  When the GPU
batch finishes, CPU enumeration is cut off and only *completed*
enumerations contribute (the paper's timeout rule), so co-processing adds
essentially no latency over GPU-only sampling (Figure 16).

Because our GPU is simulated, "concurrently" is emulated deterministically:
each of the ``cpu_threads`` virtual workers receives an enumeration budget
proportional to the simulated GPU batch duration
(``enum_nodes_per_ms × gpu_batch_ms`` search-tree nodes — node throughput is
the CPU-side cost unit of :mod:`repro.enumeration`), and tasks are placed
greedily on the worker with the most remaining budget.  An enumeration that
exhausts its worker's budget is the cut-off: it is discarded, never counted
partially.  The whole run is deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.core.trawling import TrawlingEstimator, TrawlTask
from repro.errors import ConfigError, EnumerationBudgetExceeded
from repro.estimators.base import RSVEstimator
from repro.estimators.ht import HTAccumulator
from repro.gpu.costmodel import DEFAULT_GPU, GPUSpec
from repro.query.matching_order import MatchingOrder
from repro.utils.rng import RandomSource, spawn_generators


@dataclass(frozen=True)
class PipelineConfig:
    """Co-processing pipeline parameters.

    Attributes:
        n_batches: sampling batches (paper default 6, tuned in Figure 17).
        cpu_threads: enumeration workers (Figure 18 sweeps 1–12).
        trawls_per_batch: ``t`` — samples transferred to the CPU per batch
            (the paper sets ``t`` to the GPU core count; scaled down here
            with the sample counts).
        enum_nodes_per_ms: virtual CPU enumeration throughput per worker,
            in search-tree nodes per millisecond of GPU-batch budget.  The
            per-batch budget is this times the batch's simulated GPU ms.
        engine_config: configuration of the GPU-side sampling engine.
    """

    n_batches: int = 6
    cpu_threads: int = 12
    trawls_per_batch: int = 64
    enum_nodes_per_ms: float = 20000.0
    engine_config: EngineConfig = field(default_factory=EngineConfig.gsword)

    def __post_init__(self) -> None:
        if self.n_batches <= 0:
            raise ConfigError("n_batches must be positive")
        if self.cpu_threads <= 0:
            raise ConfigError("cpu_threads must be positive")
        if self.trawls_per_batch < 0:
            raise ConfigError("trawls_per_batch must be non-negative")


@dataclass
class BatchReport:
    """Per-batch accounting (feeds Figures 16 and 17)."""

    gpu_ms: float
    cpu_ms: float
    n_samples: int
    n_trawls: int
    n_trawls_completed: int
    n_trawls_discarded: int
    n_trawls_truncated: int = 0
    partial_extensions: int = 0

    @property
    def overlapped_ms(self) -> float:
        """Batch latency under overlap: CPU work hides behind the GPU."""
        return max(self.gpu_ms, min(self.cpu_ms, self.gpu_ms))


@dataclass
class PipelineResult:
    """Outcome of a co-processing run.

    ``sampling_estimate`` is the pure GPU estimate; ``trawling_estimate``
    the CPU-side estimate over trawled samples; ``final_estimate`` prefers
    trawling whenever at least one enumeration completed (it strictly
    dominates in the underestimation regime the pipeline targets).

    ``truncated`` reports that at least one CPU enumeration exceeded its
    per-batch node budget (raised as :class:`EnumerationBudgetExceeded`
    inside the pipeline and absorbed here as best-effort degradation):
    the run still answers, the truncated trawls' *partial* extension
    counts are surfaced in ``partial_extensions`` for observability, but —
    per the paper's discard rule, and because partial counts would bias
    Theorem 3's estimator — they never contribute to any estimate.
    """

    sampling_estimate: float
    trawling_estimate: float
    n_samples: int  # collected GPU samples (roots + inherited continuations)
    n_trawl_samples: int
    n_enumerated: int
    batches: List[BatchReport] = field(default_factory=list)
    sampling_accumulator: HTAccumulator = field(default_factory=HTAccumulator)
    trawling_accumulator: HTAccumulator = field(default_factory=HTAccumulator)
    n_truncated: int = 0
    partial_extensions: int = 0

    @property
    def truncated(self) -> bool:
        """True when any trawl enumeration hit its budget (best-effort run)."""
        return self.n_truncated > 0

    @property
    def final_estimate(self) -> float:
        """Trawling estimate when it produced evidence, else the sampling
        estimate.  A zero trawling estimate carries no more information than
        the (usually also zero) sampling estimate in the underestimation
        regime, so the fallback loses nothing."""
        if self.n_enumerated > 0 and self.trawling_estimate > 0:
            return self.trawling_estimate
        return self.sampling_estimate

    @property
    def total_gpu_ms(self) -> float:
        return sum(b.gpu_ms for b in self.batches)

    @property
    def total_cpu_ms(self) -> float:
        return sum(b.cpu_ms for b in self.batches)

    @property
    def total_pipeline_ms(self) -> float:
        """End-to-end latency with overlap (≈ GPU time, Figure 16)."""
        return sum(b.overlapped_ms for b in self.batches)


class CoProcessingPipeline:
    """Figure 9's batched GPU-sampling / CPU-enumeration overlap."""

    def __init__(
        self,
        estimator: RSVEstimator,
        config: Optional[PipelineConfig] = None,
        spec: GPUSpec = DEFAULT_GPU,
    ) -> None:
        """``config=None`` builds a default :class:`PipelineConfig` now,
        so its env-driven engine defaults are read at construction time."""
        if config is None:
            config = PipelineConfig()
        self.estimator = estimator
        self.config = config
        self.spec = spec
        self.engine = GSWORDEngine(estimator, config.engine_config, spec)
        self.trawler = TrawlingEstimator(estimator)

    def run(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        n_samples: int,
        rng: RandomSource = None,
    ) -> PipelineResult:
        """Run ``n_samples`` GPU samples across ``n_batches`` batches with
        concurrent CPU trawling."""
        if n_samples < self.config.n_batches:
            raise ConfigError("need at least one sample per batch")
        batch_rngs = spawn_generators(rng, 2 * self.config.n_batches)
        sampling_acc = HTAccumulator()
        trawl_acc = HTAccumulator()
        batches: List[BatchReport] = []
        n_enumerated = 0
        n_collected = 0
        n_truncated = 0
        partial_extensions = 0
        per_batch = n_samples // self.config.n_batches

        for b in range(self.config.n_batches):
            batch_samples = per_batch
            if b == self.config.n_batches - 1:
                batch_samples = n_samples - per_batch * (self.config.n_batches - 1)
            gpu_rng, cpu_rng = batch_rngs[2 * b], batch_rngs[2 * b + 1]

            # GPU side: complete samples for the running estimate.
            rec = self.engine.recorder
            batch_t0 = rec.sim_now("engine") if rec.enabled else 0.0
            gpu_result = self.engine.run(cg, order, batch_samples, rng=gpu_rng)
            sampling_acc.merge(gpu_result.accumulator)
            n_collected += gpu_result.n_samples
            gpu_ms = gpu_result.simulated_ms()

            # CPU side: t trawled samples enumerated within the GPU window.
            report = self._run_cpu_side(
                cg, order, cpu_rng, gpu_ms, trawl_acc
            )
            if rec.enabled:
                # The overlap picture (Figure 9): GPU and CPU sides of one
                # batch share a start; the CPU bar is clipped to the GPU
                # window (the paper's cut-off rule — enumeration past the
                # window is discarded), with the uncut time in args.
                rec.add_span(
                    "pipeline.gpu", track="pipeline-gpu",
                    sim_t0_ms=batch_t0, sim_dur_ms=gpu_ms,
                    args={"batch": b, "n_samples": batch_samples},
                )
                rec.add_span(
                    "pipeline.cpu", track="pipeline-cpu",
                    sim_t0_ms=batch_t0,
                    sim_dur_ms=min(report.cpu_ms, gpu_ms),
                    args={
                        "batch": b,
                        "cpu_ms": report.cpu_ms,
                        "n_trawls": report.n_trawls,
                        "n_completed": report.n_trawls_completed,
                        "n_truncated": report.n_trawls_truncated,
                    },
                )
            n_enumerated += report.n_trawls_completed
            n_truncated += report.n_trawls_truncated
            partial_extensions += report.partial_extensions
            batches.append(
                BatchReport(
                    gpu_ms=gpu_ms,
                    cpu_ms=report.cpu_ms,
                    n_samples=batch_samples,
                    n_trawls=report.n_trawls,
                    n_trawls_completed=report.n_trawls_completed,
                    n_trawls_discarded=report.n_trawls_discarded,
                    n_trawls_truncated=report.n_trawls_truncated,
                    partial_extensions=report.partial_extensions,
                )
            )

        return PipelineResult(
            sampling_estimate=sampling_acc.estimate,
            trawling_estimate=trawl_acc.estimate,
            n_samples=n_collected,
            n_trawl_samples=trawl_acc.n,
            n_enumerated=n_enumerated,
            batches=batches,
            sampling_accumulator=sampling_acc,
            trawling_accumulator=trawl_acc,
            n_truncated=n_truncated,
            partial_extensions=partial_extensions,
        )

    # ------------------------------------------------------------------
    def _run_cpu_side(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        rng: np.random.Generator,
        gpu_ms: float,
        trawl_acc: HTAccumulator,
    ) -> BatchReport:
        tasks: List[Optional[TrawlTask]] = [
            self.trawler.sample_task(cg, order, rng)
            for _ in range(self.config.trawls_per_batch)
        ]
        budget = self.config.enum_nodes_per_ms * gpu_ms
        workers = [budget] * self.config.cpu_threads
        completed = 0
        discarded = 0
        truncated = 0
        partial = 0
        for task in tasks:
            if task is None:
                # Invalid prefix: a legitimate zero-valued trawl sample.
                trawl_acc.add(0.0)
                continue
            worker = max(range(len(workers)), key=lambda w: workers[w])
            node_budget = int(workers[worker])
            if node_budget <= 0:
                discarded += 1
                continue
            try:
                self.trawler.enumerate_task(
                    cg, order, task, max_nodes=node_budget, strict=True
                )
            except EnumerationBudgetExceeded as error:
                # Best-effort degradation: the GPU window closed before the
                # enumeration finished.  Discard the sample from the
                # estimate (a partial count would bias it) but surface the
                # partial evidence on the report.
                workers[worker] -= task.enum_nodes
                discarded += 1
                truncated += 1
                partial += error.partial_count
                continue
            workers[worker] -= task.enum_nodes
            completed += 1
            trawl_acc.add(task.estimate_value)
        used = [budget - w for w in workers]
        cpu_ms = (max(used) / self.config.enum_nodes_per_ms) if used else 0.0
        return BatchReport(
            gpu_ms=gpu_ms,
            cpu_ms=cpu_ms,
            n_samples=0,
            n_trawls=len(tasks),
            n_trawls_completed=completed,
            n_trawls_discarded=discarded,
            n_trawls_truncated=truncated,
            partial_extensions=partial,
        )

