"""The trawling strategy (Alg. 4, §5).

Trawling fights underestimation by splitting each sample into a *sampled*
prefix of ``d`` vertices and an *enumerated* suffix: the prefix navigates
the large sample space cheaply, then exact enumeration counts every
embedding extending it.  The combined per-sample estimate is
``H_s · cnt = cnt / P(s)`` — unbiased for any depth-selection distribution
(Theorem 3), including the paper's geometric ``P(d=j) ∝ 2^-j`` over
``j ∈ [3, |V_q|]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph
from repro.enumeration.backtracking import count_extensions
from repro.errors import ConfigError, EnumerationBudgetExceeded
from repro.estimators.base import RSVEstimator
from repro.estimators.ht import HTAccumulator
from repro.query.matching_order import MatchingOrder
from repro.utils.rng import RandomSource, as_generator

#: Smallest prefix depth trawling ever samples (paper §5: "we initiate the
#: enumeration process only from the third vertex onwards").
MIN_TRAWL_DEPTH = 3


def trawl_depth_distribution(n_query_vertices: int) -> Dict[int, float]:
    """The geometric depth distribution ``P(d=j) ∝ 2^-j``, ``j ∈ [3, |V_q|]``.

    Degenerates to ``{n: 1.0}`` for queries with at most 3 vertices.
    """
    if n_query_vertices <= MIN_TRAWL_DEPTH:
        return {n_query_vertices: 1.0}
    depths = list(range(MIN_TRAWL_DEPTH, n_query_vertices + 1))
    weights = np.array([2.0 ** (-j) for j in depths])
    weights /= weights.sum()
    return {d: float(w) for d, w in zip(depths, weights)}


def select_trawl_depth(n_query_vertices: int, rng: RandomSource = None) -> int:
    """Draw a trawl depth from the geometric distribution (Alg. 4's Select)."""
    dist = trawl_depth_distribution(n_query_vertices)
    gen = as_generator(rng)
    depths = list(dist)
    probs = [dist[d] for d in depths]
    return int(gen.choice(depths, p=probs))


@dataclass
class TrawlTask:
    """One trawled sample ready for CPU enumeration.

    ``ht_value`` is ``1 / P(s)`` of the valid sampled prefix (``H_s`` in
    Alg. 4); ``extension_count`` is filled in by enumeration.
    """

    prefix: Tuple[int, ...]
    depth: int
    ht_value: float
    extension_count: Optional[int] = None
    enum_nodes: int = 0
    completed: bool = False

    @property
    def estimate_value(self) -> float:
        """``H_s · cnt``; only meaningful after enumeration."""
        if self.extension_count is None:
            raise ConfigError("task has not been enumerated")
        return self.ht_value * self.extension_count


@dataclass
class TrawlingResult:
    """Aggregate outcome of a trawling run."""

    estimate: float
    n_samples: int
    n_enumerated: int
    n_discarded: int
    accumulator: HTAccumulator
    total_enum_nodes: int = 0
    depth_histogram: Dict[int, int] = field(default_factory=dict)


class TrawlingEstimator:
    """Direct (unpipelined) trawling: sample a prefix, enumerate the rest.

    The CPU–GPU co-processing pipeline wraps the same mechanics with batch
    scheduling; this class is the reference implementation used by tests to
    validate unbiasedness (Theorem 3) in isolation.
    """

    def __init__(
        self,
        estimator: RSVEstimator,
        max_enum_nodes: Optional[int] = None,
    ) -> None:
        self.estimator = estimator
        self.max_enum_nodes = max_enum_nodes

    def sample_task(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        rng: RandomSource = None,
        depth: Optional[int] = None,
    ) -> Optional[TrawlTask]:
        """Sample one partial instance; ``None`` when the prefix walk dies
        (an invalid trawl sample, which contributes 0 to the estimate)."""
        gen = as_generator(rng)
        d = depth if depth is not None else select_trawl_depth(len(order), gen)
        state, valid = self.estimator.run_sample(cg, order, gen, max_depth=d)
        if not valid:
            return None
        return TrawlTask(
            prefix=tuple(state.instance[:d]), depth=d, ht_value=state.ht_value
        )

    def enumerate_task(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        task: TrawlTask,
        max_nodes: Optional[int] = None,
        strict: bool = False,
    ) -> TrawlTask:
        """Run Alg. 4's ``Enumeration(cg, s)`` for one task, in place.

        With ``strict=True`` a budget-truncated enumeration raises
        :class:`EnumerationBudgetExceeded` carrying the partial count; the
        task is still updated in place first, so the caller can inspect
        ``enum_nodes`` / ``extension_count`` while handling the error.
        The default lenient mode just leaves ``completed=False`` (the
        paper's discard rule applies either way — a partial count must
        never enter the HT estimate)."""
        budget = max_nodes if max_nodes is not None else self.max_enum_nodes
        result = count_extensions(cg, order, task.prefix, max_nodes=budget)
        task.extension_count = result.count
        task.enum_nodes = result.nodes_visited
        task.completed = result.complete
        if strict and not result.complete:
            raise EnumerationBudgetExceeded(
                result.count,
                f"trawl enumeration truncated after {result.nodes_visited} "
                f"search-tree nodes (partial count {result.count})",
            )
        return task

    def run(
        self,
        cg: CandidateGraph,
        order: MatchingOrder,
        n_samples: int,
        rng: RandomSource = None,
    ) -> TrawlingResult:
        """Alg. 4 verbatim: ``n_samples`` trawled samples, full enumeration."""
        if n_samples <= 0:
            raise ConfigError("n_samples must be positive")
        gen = as_generator(rng)
        acc = HTAccumulator()
        histogram: Dict[int, int] = {}
        enumerated = 0
        discarded = 0
        total_nodes = 0
        for _ in range(n_samples):
            d = select_trawl_depth(len(order), gen)
            histogram[d] = histogram.get(d, 0) + 1
            task = self.sample_task(cg, order, gen, depth=d)
            if task is None:
                acc.add(0.0)
                continue
            self.enumerate_task(cg, order, task)
            total_nodes += task.enum_nodes
            if not task.completed:
                # Budget-truncated enumeration: the paper discards it.
                discarded += 1
                continue
            enumerated += 1
            acc.add(task.estimate_value)
        return TrawlingResult(
            estimate=acc.estimate,
            n_samples=acc.n,
            n_enumerated=enumerated,
            n_discarded=discarded,
            accumulator=acc,
            total_enum_nodes=total_nodes,
            depth_histogram=histogram,
        )
