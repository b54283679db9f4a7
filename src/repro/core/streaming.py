"""Warp streaming components (Alg. 3, §4.2).

Two pieces live here:

* :class:`WeightedReservoir` — the A-Res weighted reservoir sampler (Efraim
  et al. / El Sibai et al. [11]) the paper uses to pick one vertex from a
  streamed candidate sequence with probability proportional to its weight.
  The invariant of Theorem 2 (``curV`` is held with probability
  ``curW / curTotalW``) is implemented literally and property-tested.

* :func:`streaming_schedule` — the cost-relevant shape of Alg. 3: given the
  candidate-list lengths of the 32 lanes, how many collaborative warp
  rounds run (one leader's 32 candidates processed per round, lines 5–17)
  and what per-lane remainders the independent phase (lines 18–22) scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import RandomSource, as_generator


@dataclass
class WeightedReservoir:
    """Size-one A-Res reservoir over a weighted stream.

    Each arriving item with weight ``w > 0`` draws a key ``r**(1/w)``
    (``r`` uniform in (0, 1)); the item with the maximum key is retained.
    This yields inclusion probability ``w_i / Σw`` at every prefix of the
    stream — the Theorem 2 invariant.
    """

    rng: np.random.Generator
    item: int = -1
    weight: float = 0.0
    total_weight: float = 0.0
    _best_key: float = -1.0

    @classmethod
    def create(cls, rng: RandomSource = None) -> "WeightedReservoir":
        return cls(rng=as_generator(rng))

    def offer(self, item: int, weight: float) -> bool:
        """Stream one item; returns True when it replaced the reservoir."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        if weight == 0.0:
            return False
        self.total_weight += weight
        key = float(self.rng.random()) ** (1.0 / weight)
        if key > self._best_key:
            self._best_key = key
            self.item = item
            self.weight = weight
            return True
        return False

    def merge_candidate(self, item: int, weight: float, batch_total: float) -> bool:
        """Merge a pre-reduced batch winner (lines 14–16 of Alg. 3).

        A warp round has already selected ``item`` with probability
        ``weight / batch_total`` among its 32 candidates; accepting it with
        probability ``batch_total / (curTotal + batch_total)`` preserves the
        global invariant (the proof of Theorem 2).
        """
        if batch_total < 0:
            raise ValueError("batch totals must be non-negative")
        if batch_total == 0.0:
            return False
        self.total_weight += batch_total
        if float(self.rng.random()) < batch_total / self.total_weight:
            self.item = item
            self.weight = weight
            return True
        return False

    @property
    def selection_probability(self) -> float:
        """``curW / curTotalW``; the Theorem 2 invariant value."""
        if self.total_weight == 0.0:
            return 0.0
        return self.weight / self.total_weight

    @property
    def is_empty(self) -> bool:
        return self.item < 0


def warp_select(
    items: Sequence[int],
    weights: Sequence[float],
    rng: RandomSource = None,
) -> Tuple[int, float, float]:
    """One collaborative round's reduction: A-Res over 32 lane results.

    Returns ``(winner_item, winner_weight, total_weight)``; the winner is
    ``-1`` when every weight is zero.  Mirrors lines 11–13 of Alg. 3: each
    lane draws a key ``r**(1/w)`` and ``_reduce_max`` picks the largest.
    """
    gen = as_generator(rng)
    best_key, best_item, best_weight = -1.0, -1, 0.0
    total = 0.0
    for item, weight in zip(items, weights):
        if weight <= 0.0:
            continue
        total += weight
        key = float(gen.random()) ** (1.0 / weight)
        if key > best_key:
            best_key, best_item, best_weight = key, int(item), float(weight)
    return best_item, best_weight, total


@dataclass(frozen=True)
class StreamingSchedule:
    """Workload shape of one warp-streamed refine step.

    Attributes:
        collaborative_rounds: warp rounds in the collaborative phase; each
            processes ``warp_size`` candidates of one leader in lockstep.
        remainders: per-lane candidate counts left for the independent
            phase (all below the threshold).
    """

    collaborative_rounds: int
    remainders: Tuple[int, ...]
    collaborative_candidates: int

    @property
    def independent_max(self) -> int:
        """Critical-path length of the independent phase."""
        return max(self.remainders) if self.remainders else 0

    def total_candidates(self) -> int:
        return self.collaborative_candidates + sum(self.remainders)


def streaming_schedule(
    candidate_lengths: Sequence[int],
    warp_size: int = 32,
    threshold: Optional[int] = None,
) -> StreamingSchedule:
    """Compute Alg. 3's phase split for the given per-lane workloads.

    The collaborative loop runs while any lane still holds at least
    ``threshold`` unprocessed candidates (line 5); each iteration drains
    ``warp_size`` candidates from one such lane.  Everything below the
    threshold is scanned independently per lane.
    """
    limit = warp_size if threshold is None else threshold
    rounds = 0
    served = 0
    remainders: List[int] = []
    for length in candidate_lengths:
        if length < 0:
            raise ValueError("candidate lengths must be non-negative")
        # The collaborative phase keeps going while length - cur >= limit;
        # each round drains up to warp_size of the leader's candidates.
        remaining = length
        while remaining >= limit:
            drained = min(warp_size, remaining)
            remaining -= drained
            served += drained
            rounds += 1
        remainders.append(remaining)
    return StreamingSchedule(
        collaborative_rounds=rounds,
        remainders=tuple(remainders),
        collaborative_candidates=served,
    )

