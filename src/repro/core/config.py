"""Engine configuration: synchronisation mode and optimization switches.

The three ablation points of the paper's Figure 12 map directly onto
:class:`EngineConfig`:

* **O0** (GPU baseline, NextDoor-style): iteration synchronisation, no
  inheritance, no streaming — lanes restart dead samples immediately, the
  way sample-parallel GPU frameworks process RW workloads;
* **O1**: sample synchronisation + inheritance (Alg. 2);
* **O2** (full gSWORD): O1 + warp streaming (Alg. 3).

``sync_mode`` selects the §3.2 alternative: ``SAMPLE`` (gSWORD's choice) or
``ITERATION`` (the classic GPU-graph-processing approach that turns out
slower for RW estimators because of its scattered access pattern).
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.errors import ConfigError


class SyncMode(str, enum.Enum):
    """Warp synchronisation strategy (§3.2)."""

    SAMPLE = "sample"
    ITERATION = "iteration"


#: Valid values of :attr:`EngineConfig.backend`.
BACKENDS = ("fused", "scalar")


def default_backend() -> str:
    """Session default for :attr:`EngineConfig.backend`.

    ``fused`` unless the ``REPRO_BACKEND`` environment variable says
    otherwise — handy for A/B timing runs without touching call sites.
    Estimators without a fused kernel step down the fallback ladder to
    ``scalar``.
    """
    return os.environ.get("REPRO_BACKEND", "fused")


def default_shards() -> int:
    """Session default for :attr:`EngineConfig.n_shards`.

    ``1`` (single-process) unless the ``REPRO_SHARDS`` environment variable
    says otherwise — the same opt-in pattern as ``REPRO_BACKEND``.
    """
    raw = os.environ.get("REPRO_SHARDS", "1")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"REPRO_SHARDS must be an integer, got {raw!r}")


def default_trace() -> bool:
    """Session default for :attr:`EngineConfig.trace`.

    ``False`` (tracing off — the zero-cost path) unless the ``REPRO_TRACE``
    environment variable is a truthy value (``1``/``true``/``yes``/``on``).
    """
    raw = os.environ.get("REPRO_TRACE", "").strip().lower()
    return raw in ("1", "true", "yes", "on")


@dataclass(frozen=True)
class EngineConfig:
    """Configuration of one :class:`~repro.core.engine.GSWORDEngine` run.

    Attributes:
        sync_mode: sample or iteration synchronisation.
        inheritance: enable sample inheritance (Alg. 2).  Only meaningful
            under sample synchronisation (the paper's design); enabling it
            with iteration sync raises.
        streaming: enable warp streaming (Alg. 3).  A no-op for estimators
            without a refine stage (WanderJoin), exactly as in Figure 12.
        tasks_per_warp: size of the per-warp share of the block sample pool;
            larger values amortise warp start-up in the simulation.
        max_depth: truncate samples at this many matched vertices (used by
            trawling to produce partial instances); ``None`` = full query.
        streaming_threshold: minimum remaining candidates for the
            collaborative phase (32 in the paper — one per lane).
        backend: warp-execution backend.  ``"fused"`` (the default,
            overridable via ``REPRO_BACKEND``) executes a plan compiled
            once per (query, estimator) pair as whole-batch level kernels,
            under either sync mode; ``"scalar"`` is the lane-at-a-time
            reference path.  Estimates and profiles are bit-identical; the
            engine steps down the fallback ladder (fused -> scalar) for
            custom estimators, which have no fused kernel.
        n_shards: number of simulated devices (OS worker processes) a
            round's warp batch is partitioned across.  ``1`` (the default,
            overridable via ``REPRO_SHARDS``) runs in-process.  Because
            each warp owns its RNG substream, estimates are bit-identical
            for any shard count; only wall-clock and the multi-device
            makespan telemetry change.  Requires the ``"fused"``
            backend, under either sync mode.
        trace: enable span tracing (:mod:`repro.obs`).  ``False`` by
            default (overridable via ``REPRO_TRACE``): the engine then
            holds the shared no-op recorder and instrumentation costs one
            attribute check per event site.  Tracing never touches RNG
            streams, so estimates and simulated-ms are bit-identical with
            it on or off — the perf-smoke gate enforces both properties.
    """

    sync_mode: SyncMode = SyncMode.SAMPLE
    inheritance: bool = True
    streaming: bool = True
    tasks_per_warp: int = 128
    max_depth: Optional[int] = None
    streaming_threshold: int = 32
    backend: str = field(default_factory=default_backend)
    n_shards: int = field(default_factory=default_shards)
    trace: bool = field(default_factory=default_trace)

    def __post_init__(self) -> None:
        if not isinstance(self.sync_mode, SyncMode):
            object.__setattr__(self, "sync_mode", SyncMode(self.sync_mode))
        if self.backend not in BACKENDS:
            raise ConfigError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.inheritance and self.sync_mode is SyncMode.ITERATION:
            raise ConfigError(
                "sample inheritance requires sample synchronisation: lanes "
                "must share the current iteration to inherit (Alg. 2)"
            )
        if self.tasks_per_warp <= 0:
            raise ConfigError("tasks_per_warp must be positive")
        if self.max_depth is not None and self.max_depth <= 0:
            raise ConfigError("max_depth must be positive when given")
        if self.streaming_threshold <= 0:
            raise ConfigError("streaming_threshold must be positive")
        if self.n_shards < 1:
            raise ConfigError("n_shards must be >= 1")
        if self.n_shards > 1 and self.backend == "scalar":
            raise ConfigError(
                "sharded execution (n_shards > 1) requires the fused "
                "backend; the scalar reference path is single-process only"
            )

    # Named presets matching the paper's method labels -----------------
    @classmethod
    def gpu_baseline(cls, **overrides) -> "EngineConfig":
        """NextDoor-style GPU baseline (Figure 12's O0; Table 2's GPU-WJ /
        GPU-AL).  NextDoor's sample-parallel processing restarts a lane's
        sample immediately when it dies — iteration synchronisation — and
        pays the §3.2 locality penalty for it."""
        preset = dict(
            sync_mode=SyncMode.ITERATION, inheritance=False, streaming=False
        )
        return cls(**{**preset, **overrides})

    @classmethod
    def sample_sync_baseline(cls, **overrides) -> "EngineConfig":
        """Sample synchronisation without inheritance/streaming — the other
        arm of the §3.2 micro-benchmark (Figure 5)."""
        return cls(**{"inheritance": False, "streaming": False, **overrides})

    @classmethod
    def inheritance_only(cls, **overrides) -> "EngineConfig":
        """Sample inheritance only (Figure 12's O1)."""
        return cls(**{"inheritance": True, "streaming": False, **overrides})

    @classmethod
    def gsword(cls, **overrides) -> "EngineConfig":
        """Full gSWORD (Figure 12's O2)."""
        return cls(**{"inheritance": True, "streaming": True, **overrides})

    def with_max_depth(self, max_depth: Optional[int]) -> "EngineConfig":
        return replace(self, max_depth=max_depth)

    def with_backend(self, backend: str) -> "EngineConfig":
        return replace(self, backend=backend)

    def with_shards(self, n_shards: int) -> "EngineConfig":
        return replace(self, n_shards=n_shards)

    def with_trace(self, trace: bool = True) -> "EngineConfig":
        return replace(self, trace=trace)
