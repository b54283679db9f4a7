"""CPU baseline runner (the paper's CPU-WJ / CPU-AL within G-CARE).

Runs RSV samples and scores them with the CPU cycle model; simulated wall
time assumes G-CARE-style dynamic scheduling over ``threads`` workers,
which for i.i.d. samples is near-perfectly balanced (paper §6.1: "it
achieves high performance on CPUs because RW estimators are embarrassingly
parallel").

The runner shares the estimator kernels with the GPU engine, so CPU and GPU
estimates are equal in distribution — only the time model differs.  It has
two backends: batch mode (``backend="fused"``, the default) built on the
:mod:`repro.estimators.fused` kernels, and the scalar per-sample loop (the
reference).  Batch mode advances a block of samples depth-by-depth and
therefore consumes the caller's numpy stream in a different order than the
scalar loop — its estimates are deterministic per seed but only equal in
distribution, not bit-identical.  Simulated cycles, which are
draw-independent, agree exactly between the backends.  The engine's
``REPRO_BACKEND`` environment variable does not apply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph
from repro.core.config import BACKENDS
from repro.errors import ConfigError
from repro.estimators.base import RSVEstimator, SampleState, StepContext
from repro.estimators.ht import HTAccumulator
from repro.gpu.costmodel import CPUSpec, DEFAULT_CPU
from repro.query.matching_order import MatchingOrder
from repro.utils.rng import RandomSource, as_generator

#: Samples advanced together in batch mode.  Bounds the arrays the step
#: kernels build while keeping per-step numpy overhead amortised over
#: thousands of lanes.
_BATCH = 8192


@dataclass
class CPURunResult:
    """Outcome of a CPU sampling run.

    ``simulated_ms`` is derived from the cycle model; ``checkpoints`` maps
    sample counts to intermediate estimates when requested (Figure 1's
    convergence curves).
    """

    estimate: float
    n_samples: int
    n_valid: int
    total_cycles: float
    simulated_ms: float
    accumulator: HTAccumulator
    checkpoints: Dict[int, Tuple[float, float]] = field(default_factory=dict)

    @property
    def valid_ratio(self) -> float:
        if self.n_samples == 0:
            return 0.0
        return self.n_valid / self.n_samples


class CPUSamplingRunner:
    """RSV execution with per-operation cycle accounting (the CPU baseline).

    ``threads`` is the simulated worker count (``0`` = ``spec.threads``);
    ``backend`` is ``"fused"`` (batch mode, the default) or ``"scalar"``
    (the per-sample reference loop).  Estimators without a fused kernel
    run the scalar loop under either backend.
    """

    def __init__(
        self,
        estimator: RSVEstimator,
        spec: CPUSpec = DEFAULT_CPU,
        threads: int = 0,
        backend: str = "fused",
    ) -> None:
        self.estimator = estimator
        self.spec = spec
        self.threads = threads or spec.threads
        if backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {backend!r}"
            )
        self.backend = backend

    def _iteration_cycles(self, clen: int, probes: int, backs: int) -> float:
        """Cycle cost of one RSV iteration on the CPU model."""
        spec = self.spec
        cycles = float(spec.iteration_overhead_cycles)
        cycles += backs * spec.probe_cycles  # GetMinCandidate lookups
        if self.estimator.has_refine_stage:
            # Refinement scans + probes a cache-resident slice (cheap).
            cycles += clen * spec.candidate_scan_cycles
            cycles += probes * spec.refine_probe_cycles
        else:
            # Validate probes chase cold candidate lists.
            cycles += probes * spec.probe_cycles
        return cycles

    def run(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        n_samples: int,
        rng: RandomSource = None,
        checkpoint_at: Optional[List[int]] = None,
        max_depth: Optional[int] = None,
    ) -> CPURunResult:
        """Execute ``n_samples`` RW samples and aggregate with HT.

        ``checkpoint_at`` records ``(estimate, simulated_ms)`` snapshots at
        the given sample counts; ``max_depth`` truncates samples for
        trawling-style partial sampling.
        """
        gen = as_generator(rng)
        acc = HTAccumulator()
        total_cycles = 0.0
        checkpoints: Dict[int, Tuple[float, float]] = {}
        checkpoint_set = set(checkpoint_at or [])
        n_q = len(order)
        target_depth = n_q if max_depth is None else min(max_depth, n_q)

        if self.backend == "fused":
            kernel_cls = _kernel_for(self.estimator)
            if kernel_cls is not None:
                return self._run_batch(
                    kernel_cls, cg, order, n_samples, gen,
                    checkpoint_set, target_depth,
                )

        for i in range(n_samples):
            state = SampleState.fresh(n_q)
            total_cycles += self.spec.sample_overhead_cycles
            valid = True
            for d in range(target_depth):
                ctx = StepContext(cg, order, d)
                outcome = self.estimator.run_iteration(ctx, state, gen)
                total_cycles += self._iteration_cycles(
                    outcome.clen, outcome.probes, len(order.backward[d])
                )
                if not outcome.valid:
                    valid = False
                    break
            acc.add(state.ht_value if valid else 0.0)
            if (i + 1) in checkpoint_set:
                checkpoints[i + 1] = (
                    acc.estimate,
                    self.spec.cycles_to_ms(total_cycles, self.threads),
                )

        return CPURunResult(
            estimate=acc.estimate,
            n_samples=acc.n,
            n_valid=acc.n_valid,
            total_cycles=total_cycles,
            simulated_ms=self.spec.cycles_to_ms(total_cycles, self.threads),
            accumulator=acc,
            checkpoints=checkpoints,
        )

    def _run_batch(
        self,
        kernel_cls,
        cg: CandidateGraph,
        order: MatchingOrder,
        n_samples: int,
        gen,
        checkpoint_set,
        target_depth: int,
    ) -> CPURunResult:
        """Batch-mode execution: a block of samples per kernel step, the
        live samples at each depth as one dense row of the compiled plan.

        Per-sample cycles and HT values are computed batch-wise, then folded
        in sample order so checkpoints see the same prefix semantics as the
        scalar loop.
        """
        spec = self.spec
        n_q = len(order)
        kernel = kernel_cls(cg, order)
        levels = kernel.compile_plan(target_depth).levels
        has_refine = self.estimator.has_refine_stage
        sample_cycles = np.zeros(n_samples)
        sample_valid = np.zeros(n_samples, dtype=bool)
        sample_prob = np.ones(n_samples)

        for base in range(0, n_samples, _BATCH):
            size = min(_BATCH, n_samples - base)
            inst = np.full((size, n_q), -1, dtype=np.int64)
            prob = np.ones(size)
            alive = np.ones(size, dtype=bool)
            for d in range(target_depth):
                lanes = np.nonzero(alive)[0]
                if len(lanes) == 0:
                    break
                inst3 = inst[lanes][None]
                present = np.ones((1, len(lanes)), dtype=bool)
                prep = kernel.fused_prepare(levels[d], inst3, present)
                rlen = prep.rlen[0]
                idx = np.full((1, len(lanes)), -1, dtype=np.int64)
                drawable = np.nonzero(rlen > 0)[0]
                if len(drawable):
                    idx[0, drawable] = gen.integers(0, rlen[drawable])
                res = kernel.fused_finish(levels[d], prep, idx, inst3)
                clen, probes, valid = prep.clen[0], res.probes[0], res.valid[0]
                cycles = (
                    float(spec.iteration_overhead_cycles)
                    + len(order.backward[d]) * spec.probe_cycles
                )
                if has_refine:
                    step_cycles = (
                        cycles
                        + clen * spec.candidate_scan_cycles
                        + probes * spec.refine_probe_cycles
                    )
                else:
                    step_cycles = cycles + probes * spec.probe_cycles
                sample_cycles[base + lanes] += step_cycles
                ok = np.nonzero(valid)[0]
                inst[lanes[ok], d] = res.v[0, ok]
                prob[lanes[ok]] *= res.prob_factor[0, ok]
                alive[lanes] = valid
            sample_valid[base : base + size] = alive
            sample_prob[base : base + size] = prob

        acc = HTAccumulator()
        total_cycles = 0.0
        checkpoints: Dict[int, Tuple[float, float]] = {}
        cycles_list = sample_cycles.tolist()
        prob_list = sample_prob.tolist()
        valid_list = sample_valid.tolist()
        for i in range(n_samples):
            total_cycles += spec.sample_overhead_cycles + cycles_list[i]
            acc.add(1.0 / prob_list[i] if valid_list[i] else 0.0)
            if (i + 1) in checkpoint_set:
                checkpoints[i + 1] = (
                    acc.estimate,
                    spec.cycles_to_ms(total_cycles, self.threads),
                )

        return CPURunResult(
            estimate=acc.estimate,
            n_samples=acc.n,
            n_valid=acc.n_valid,
            total_cycles=total_cycles,
            simulated_ms=spec.cycles_to_ms(total_cycles, self.threads),
            accumulator=acc,
            checkpoints=checkpoints,
        )


def _kernel_for(estimator: RSVEstimator):
    """Late import: :mod:`repro.estimators.fused` imports the concrete
    estimators, so the lookup cannot live at module scope."""
    from repro.estimators.fused import fused_kernel_for

    return fused_kernel_for(estimator)
