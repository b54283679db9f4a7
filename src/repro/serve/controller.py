"""Adaptive per-request sample budgets.

gSWORD's benches run fixed sample budgets; a serving layer cannot — the
right budget varies by orders of magnitude across queries (a dense
4-vertex query converges in hundreds of samples, a 16-vertex sparse one
may need millions).  Following the runtime-adaptation idea of FlexiWalker,
the controller sizes each request's *next* round from the evidence so far:

* the Horvitz–Thompson accumulator's relative confidence interval
  ``z · stderr / estimate`` measures convergence, and since the CI
  half-width shrinks as ``1/√n``, the total samples needed to reach the
  target is ``n · (rel_ci / target)²`` — the controller requests the gap,
  clamped to a per-round ceiling so one request cannot monopolise batches
  (which is what keeps scheduling fair);
* the observed simulated cost per sample converts a request's remaining
  deadline into a sample cap; when the cap reaches zero the request stops
  and reports ``degraded=True`` with the best-effort estimate.

Requests whose estimate is still zero have an undefined relative CI; they
fall through to the deadline/``max_samples`` backstops, growing rounds
geometrically in the meantime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.errors import ServiceError
from repro.estimators.ht import HTAccumulator
from repro.serve.request import EstimateRequest

#: Stop-reason labels shared with :class:`EstimateResponse`.
REASON_CONVERGED = "converged"
REASON_DEADLINE = "deadline"
REASON_BUDGET = "budget"
REASON_EMPTY = "empty"
REASON_FALLBACK = "fallback"


@dataclass(frozen=True)
class BudgetPolicy:
    """Service-wide controller defaults.

    Attributes:
        min_round_samples: floor of any round (amortises launch overhead).
        max_round_samples: ceiling of any round — the fairness knob: a
            converging-slowly request yields the device after at most this
            many samples per round.
    """

    min_round_samples: int = 256
    max_round_samples: int = 8192

    def __post_init__(self) -> None:
        if self.min_round_samples <= 0:
            raise ServiceError("min_round_samples must be positive")
        if self.max_round_samples < self.min_round_samples:
            raise ServiceError("max_round_samples must be >= min_round_samples")


#: Normal quantile of the reported confidence interval (1.96 = 95%).
CI_Z = 1.96
#: Round growth factor while the CI gives no signal yet (estimate still
#: zero).
ROUND_GROWTH = 2.0


def relative_ci(acc: HTAccumulator) -> float:
    """Relative CI half-width ``CI_Z·stderr/estimate``; ``inf`` while the
    estimate is zero (no valid sample yet ⇒ no convergence signal)."""
    if acc.n < 2 or acc.estimate <= 0:
        return math.inf
    return CI_Z * acc.std_error / acc.estimate


class AdaptiveBudgetController:
    """Round-size and stop decisions for one in-flight request.

    The service calls :meth:`next_round_samples` with the request's elapsed
    simulated time (queue wait + plan build + device batches so far) before
    each round, then :meth:`observe` with the cumulative accumulator and
    the round's charged duration.  A return of ``0`` from
    :meth:`next_round_samples` means stop now; :attr:`stop_reason` and
    :attr:`degraded` describe the outcome.
    """

    def __init__(self, request: EstimateRequest, policy: BudgetPolicy) -> None:
        self.request = request
        self.policy = policy
        self.n_samples = 0
        self.n_rounds = 0
        self.rel_ci = math.inf
        self._ms_per_sample = 0.0
        self._last_round = 0
        self._stop_reason: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def converged(self) -> bool:
        return self.rel_ci <= self.request.target_rel_ci

    @property
    def degraded(self) -> bool:
        if self._stop_reason == REASON_FALLBACK:
            # CPU-fallback answers are best-effort by definition: the
            # device path failed, so the response is flagged even when the
            # fallback samples happen to converge.
            return True
        return not self.converged and self._stop_reason != REASON_EMPTY

    @property
    def stop_reason(self) -> str:
        if self._stop_reason is None:
            raise ServiceError("controller has not stopped yet")
        return self._stop_reason

    @property
    def finished(self) -> bool:
        return self._stop_reason is not None

    # ------------------------------------------------------------------
    def next_round_samples(self, elapsed_ms: float) -> int:
        """Samples the next round should run; 0 = stop (reason recorded).

        The first round always runs (even past the deadline) so every
        response carries at least a minimal-evidence estimate — degraded
        responses are best-effort, never empty.
        """
        if self._stop_reason is not None:
            return 0
        if self.converged:
            self._stop_reason = REASON_CONVERGED
            return 0
        remaining_budget = self.request.max_samples - self.n_samples
        if remaining_budget <= 0:
            self._stop_reason = REASON_BUDGET
            return 0

        want = self._desired_round()
        want = min(want, remaining_budget)

        deadline = self.request.deadline_ms
        if deadline is not None and self.n_rounds > 0:
            remaining_ms = deadline - elapsed_ms
            if remaining_ms <= 0:
                self._stop_reason = REASON_DEADLINE
                return 0
            if self._ms_per_sample > 0:
                fit = int(remaining_ms / self._ms_per_sample)
                if fit < 1:
                    self._stop_reason = REASON_DEADLINE
                    return 0
                want = min(want, fit)
        return max(1, want)

    def round_watchdog_ms(self, elapsed_ms: float) -> Optional[float]:
        """Remaining deadline budget for the next round, as a per-launch
        watchdog ceiling (``None`` = unconstrained).

        Mirrors :meth:`next_round_samples`'s first-round-always-runs rule:
        the first round is never constrained, so every response carries at
        least minimal evidence.  After that, a round whose simulated
        duration would overrun the request's remaining deadline aborts at
        the ceiling (``KernelTimeout``) instead of burning device time past
        a deadline nobody is waiting on — the end of the deadline
        propagation chain (admission -> round sizing -> launch watchdog).
        """
        if self.request.deadline_ms is None or self.n_rounds == 0:
            return None
        remaining = self.request.deadline_ms - elapsed_ms
        return remaining if remaining > 0 else None

    def _desired_round(self) -> int:
        pol = self.policy
        if self.n_rounds == 0:
            return pol.min_round_samples
        if math.isfinite(self.rel_ci):
            # 1/√n shrinkage: total needed ≈ n · (rel_ci / target)².
            needed = self.n_samples * (self.rel_ci / self.request.target_rel_ci) ** 2
            gap = int(math.ceil(needed)) - self.n_samples
        else:
            # No signal yet: grow geometrically to find valid samples.
            gap = int(self._last_round * ROUND_GROWTH)
        return max(pol.min_round_samples, min(pol.max_round_samples, gap))

    # ------------------------------------------------------------------
    def observe(self, acc: HTAccumulator, round_samples: int, round_ms: float) -> None:
        """Fold one completed round into the controller's state."""
        if round_samples <= 0:
            raise ServiceError("round_samples must be positive")
        self.n_rounds += 1
        self.n_samples += round_samples
        self._last_round = round_samples
        self.rel_ci = relative_ci(acc)
        if round_ms > 0:
            # EWMA so early (launch-overhead-heavy) rounds fade out.
            per = round_ms / round_samples
            if self._ms_per_sample == 0.0:
                self._ms_per_sample = per
            else:
                self._ms_per_sample = 0.5 * self._ms_per_sample + 0.5 * per

    def finish_empty(self) -> None:
        """Mark a provably-zero-count request (empty candidate graph)."""
        self.rel_ci = 0.0
        self._stop_reason = REASON_EMPTY

    def finish_fallback(self, acc: HTAccumulator, n_samples: int) -> None:
        """Mark a request answered by the CPU fallback path.

        ``acc`` is the combined evidence (completed device rounds plus the
        fallback run) so the reported relative CI reflects everything the
        response's estimate is based on.
        """
        self.n_samples += n_samples
        self.rel_ci = relative_ci(acc)
        self._stop_reason = REASON_FALLBACK
