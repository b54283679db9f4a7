"""Multi-device sharded execution for the fused backend.

A round's warp batch is partitioned round-robin by warp index across N OS
worker processes ("shards"), each running the runner the in-process path
uses for the round's sync mode (:class:`~repro.core.fused.FusedRunner` or
:class:`~repro.core.vectorized.WaveRunner`) over kernel tables published
once via ``multiprocessing.shared_memory`` (zero-copy, read-only views).
Each worker compiles the same plan from those tables.  Because
every warp owns its spawned RNG substream, shard results assembled in warp
order are bit-identical to single-process execution for any shard count;
only wall-clock and the modeled multi-device makespan change.

The same pool also runs whole rounds: the batch scheduler places some of
a device batch's rounds on workers, one per host core beyond the
parent's (:func:`repro.serve.scheduler.host_cores`), so the batch's warp
phases run in parallel on the host.
"""

from repro.multidev.executor import ShardedVectorExecutor, shard_of
from repro.multidev.shm import SharedArrayPack, attach_pack, map_views
from repro.multidev.timing import allreduce_ms, multidev_makespan_ms

__all__ = [
    "ShardedVectorExecutor",
    "SharedArrayPack",
    "attach_pack",
    "allreduce_ms",
    "map_views",
    "multidev_makespan_ms",
    "shard_of",
]
