"""Seeded open-loop arrival processes (the overload soak's traffic).

The failure that kills real services is often traffic itself: open-loop
clients that keep sending regardless of backlog.  An :class:`ArrivalPlan`
is a pure function from a seed to a strictly increasing sequence of
arrival timestamps on the simulated clock, replayed bit-identically run to
run so the overload soak benchmark's shed counts can be pinned as
baselines.

Two modes:

* :data:`POISSON` — a homogeneous Poisson process at ``rate_per_ms``
  (exponential inter-arrival gaps): sustained open-loop load.
* :data:`OVERLOAD` — a non-homogeneous burst process: the base Poisson
  rate is multiplied by ``burst_factor`` inside periodic burst windows
  (``burst_duration_ms`` every ``burst_every_ms``).  This is the traffic
  spike shape from ROADMAP item #3: steady load with arrival storms the
  admission layer must shed through without stranding anything.

Gap draws use an inverse-CDF exponential over a ``derive_seed``-keyed
stream, so a plan's times depend only on ``(seed, parameters)`` — never on
how many other plans were sampled first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import derive_seed

#: Arrival-mode labels.
POISSON = "poisson"
OVERLOAD = "overload"

_MODES = (POISSON, OVERLOAD)


@dataclass(frozen=True)
class ArrivalPlan:
    """A seeded deterministic open-loop arrival schedule.

    Attributes:
        seed: root seed; with the parameters it fully determines the times.
        rate_per_ms: base arrival rate (requests per simulated ms).
        mode: :data:`POISSON` or :data:`OVERLOAD`.
        burst_factor: rate multiplier inside burst windows (OVERLOAD only).
        burst_every_ms: burst-window period (OVERLOAD only).
        burst_duration_ms: burst-window length (OVERLOAD only); must be
            shorter than the period.
    """

    seed: int = 0
    rate_per_ms: float = 1.0
    mode: str = POISSON
    burst_factor: float = 4.0
    burst_every_ms: float = 50.0
    burst_duration_ms: float = 10.0

    def __post_init__(self) -> None:
        if self.rate_per_ms <= 0:
            raise ConfigError("rate_per_ms must be positive")
        if self.mode not in _MODES:
            raise ConfigError(
                f"unknown arrival mode {self.mode!r}; known: {_MODES}"
            )
        if self.burst_factor < 1.0:
            raise ConfigError("burst_factor must be >= 1.0")
        if self.burst_every_ms <= 0 or self.burst_duration_ms <= 0:
            raise ConfigError("burst window parameters must be positive")
        if self.burst_duration_ms >= self.burst_every_ms:
            raise ConfigError(
                "burst_duration_ms must be shorter than burst_every_ms"
            )

    # ------------------------------------------------------------------
    def in_burst(self, t_ms: float) -> bool:
        """Whether simulated time ``t_ms`` falls inside a burst window."""
        if self.mode != OVERLOAD:
            return False
        return (t_ms % self.burst_every_ms) < self.burst_duration_ms

    def rate_at(self, t_ms: float) -> float:
        """Instantaneous arrival rate at ``t_ms`` (requests per ms)."""
        if self.in_burst(t_ms):
            return self.rate_per_ms * self.burst_factor
        return self.rate_per_ms

    def times(self, n: int) -> List[float]:
        """The first ``n`` arrival timestamps (strictly increasing ms).

        A pure function of ``(seed, parameters, n)``; a longer request is a
        prefix-extension of a shorter one (draw ``i`` is keyed on ``i``).
        """
        if n < 0:
            raise ConfigError("n must be non-negative")
        out: List[float] = []
        t = 0.0
        for i in range(n):
            rng = np.random.default_rng(
                derive_seed(self.seed, "arrival", i)
            )
            u = rng.random()
            # Inverse-CDF exponential gap at the instantaneous rate; for
            # the burst mode this is a piecewise-rate approximation whose
            # rate is sampled at the gap's start (accurate for gaps short
            # relative to the burst window, which 2x-overload rates are).
            gap = -float(np.log1p(-u)) / self.rate_at(t)
            t += gap
            out.append(t)
        return out

    def expected_rate_per_ms(self) -> float:
        """Long-run average arrival rate (requests per ms)."""
        if self.mode != OVERLOAD:
            return self.rate_per_ms
        duty = self.burst_duration_ms / self.burst_every_ms
        return self.rate_per_ms * (1.0 + duty * (self.burst_factor - 1.0))
