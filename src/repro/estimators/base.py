"""The Refine–Sample–Validate (RSV) abstraction (paper §3.1, Alg. 1).

gSWORD unifies RW estimators behind three per-iteration steps:

* **Refine** — compute a refined candidate array from the smallest local
  candidate set;
* **Sample** — draw one vertex from the refined array and update the sample
  probability;
* **Validate** — decide whether the extended sample remains a valid partial
  instance.

Estimators implement these three hooks over a scalar :class:`SampleState`;
the CPU runner and the simulated GPU engine both drive the same hooks, so
CPU/GPU variants of an estimator are numerically identical by construction
(only their cost accounting differs).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph
from repro.query.matching_order import MatchingOrder


@dataclass
class SampleState:
    """One RW sample: a partial instance plus its inclusion probability.

    ``instance[i]`` is the data vertex matched to ``order.order[i]``; only
    the first ``depth`` entries are meaningful.  ``prob`` is the product of
    per-step sampling probabilities (``1/|C_i|``), so a completed valid
    sample contributes ``1 / prob`` to the HT numerator.
    """

    instance: List[int]
    prob: float = 1.0
    depth: int = 0

    @classmethod
    def fresh(cls, n_query_vertices: int) -> "SampleState":
        return cls(instance=[-1] * n_query_vertices, prob=1.0, depth=0)

    def copy(self) -> "SampleState":
        return SampleState(
            instance=list(self.instance), prob=self.prob, depth=self.depth
        )

    def contains(self, v: int) -> bool:
        """Duplicate check against the matched prefix (injectivity)."""
        return v in self.instance[: self.depth]

    def push(self, v: int, prob_factor: float) -> None:
        self.instance[self.depth] = v
        self.prob *= prob_factor
        self.depth += 1

    @property
    def ht_value(self) -> float:
        """HT contribution of a *valid, complete* sample: 1 / P(s)."""
        if self.prob <= 0:
            raise ValueError("sample has zero probability")
        return 1.0 / self.prob


@dataclass(frozen=True)
class StepContext:
    """Everything one RSV iteration needs: the candidate graph, the matching
    order, and the (0-based) position ``depth`` being matched."""

    cg: CandidateGraph
    order: MatchingOrder
    depth: int


@dataclass
class SampleOutcome:
    """Bookkeeping returned by one RSV iteration for cost accounting.

    ``clen``/``rlen`` are the candidate/refined array lengths; ``edge_id``
    and ``local_span`` locate the scanned array region so the GPU memory
    model can charge real offsets; ``probes`` counts membership binary
    searches performed (refine + validate).
    """

    valid: bool
    sampled_vertex: int = -1
    clen: int = 0
    rlen: int = 0
    edge_id: int = -1
    local_span: Tuple[int, int] = (0, 0)
    probes: int = 0


def get_min_candidate(
    ctx: StepContext, state: SampleState
) -> Tuple[np.ndarray, int, Tuple[int, int], List[int]]:
    """``GetMinCandidate`` of Alg. 1.

    Returns ``(cand, edge_id, span, other_backward_positions)``: the
    smallest local candidate set for the next query vertex given the partial
    instance (the *global* candidate set at depth 0), the directed edge it
    came from, its (start, end) span inside the local-candidate CSR, and the
    remaining backward positions that still need explicit verification.
    """
    cg, order, d = ctx.cg, ctx.order, ctx.depth
    u = order.order[d]
    backs = order.backward[d]
    if d == 0 or not backs:
        cand = cg.global_candidates[u]
        return cand, -1, (0, len(cand)), []
    best_cand: Optional[np.ndarray] = None
    best_eid = -1
    best_span = (0, 0)
    best_pos = -1
    for j in backs:
        u_b = order.order[j]
        eid = cg.edge_id(u_b, u)
        v_b = state.instance[j]
        span = cg.local_slice(eid, v_b)
        length = span[1] - span[0]
        if best_cand is None or length < len(best_cand):
            best_cand = cg.local_vertices[span[0] : span[1]]
            best_eid, best_span, best_pos = eid, span, j
            if length == 0:
                break
    others = [j for j in backs if j != best_pos]
    assert best_cand is not None
    return best_cand, best_eid, best_span, others


class RSVEstimator(ABC):
    """Base class for RW estimators expressed as RSV kernels.

    Subclasses provide the three steps; :meth:`run_iteration` composes them
    exactly as the inner loop of Alg. 1 and reports a
    :class:`SampleOutcome` for cost accounting.
    """

    #: Estimator name used in reports ("WJ", "AL").
    name: str = "rsv"
    #: Whether Refine does real work (drives warp-streaming applicability).
    has_refine_stage: bool = False

    @abstractmethod
    def refine(
        self,
        ctx: StepContext,
        state: SampleState,
        cand: np.ndarray,
        others: Sequence[int],
    ) -> Tuple[np.ndarray, int]:
        """Return ``(refined_candidates, probes_performed)``."""

    def sample(
        self,
        rng: np.random.Generator,
        refined: np.ndarray,
    ) -> Tuple[int, float]:
        """Uniformly draw a vertex; returns ``(vertex, prob_factor)`` or
        ``(-1, 0.0)`` when the refined set is empty (both estimators sample
        uniformly; Alg. 3 replaces this step on the GPU)."""
        if len(refined) == 0:
            return -1, 0.0
        v = int(refined[int(rng.integers(0, len(refined)))])
        return v, 1.0 / len(refined)

    @abstractmethod
    def validate(
        self,
        ctx: StepContext,
        state: SampleState,
        v: int,
        prob_factor: float,
        others: Sequence[int],
    ) -> Tuple[bool, int]:
        """Check validity; on success push ``v`` onto ``state``.

        Returns ``(valid, probes_performed)``.
        """

    def run_iteration(
        self,
        ctx: StepContext,
        state: SampleState,
        rng: np.random.Generator,
    ) -> SampleOutcome:
        """One full RSV iteration (lines 8–11 of Alg. 1)."""
        cand, edge_id, span, others = get_min_candidate(ctx, state)
        refined, refine_probes = self.refine(ctx, state, cand, others)
        v, prob_factor = self.sample(rng, refined)
        if v < 0:
            return SampleOutcome(
                valid=False, clen=len(cand), rlen=0,
                edge_id=edge_id, local_span=span, probes=refine_probes,
            )
        valid, validate_probes = self.validate(ctx, state, v, prob_factor, others)
        return SampleOutcome(
            valid=valid,
            sampled_vertex=v,
            clen=len(cand),
            rlen=len(refined),
            edge_id=edge_id,
            local_span=span,
            probes=refine_probes + validate_probes,
        )

    def run_sample(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        rng: np.random.Generator,
        max_depth: Optional[int] = None,
    ) -> Tuple[SampleState, bool]:
        """Execute one complete sample (the inner while of Alg. 1).

        Returns ``(state, valid)`` where ``valid`` means the sample reached
        ``max_depth`` (default: the full query) without invalidation.
        """
        n = len(order)
        target = n if max_depth is None else min(max_depth, n)
        state = SampleState.fresh(n)
        for d in range(target):
            outcome = self.run_iteration(StepContext(cg, order, d), state, rng)
            if not outcome.valid:
                return state, False
        return state, True
