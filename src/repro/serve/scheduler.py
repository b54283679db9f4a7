"""Dynamic batching of sampling rounds onto the simulated device.

C-SAW's central observation is that GPU sampling throughput comes from
batching many independent sampling tasks into one launch.  The scheduler
applies it across *queries*: each scheduling tick pulls queued round-tasks
from a :class:`FairQueue` (FIFO with one tenant) and fuses them into one
device batch of co-resident warp groups.  A batch admits tasks until their
combined warp count fills the device's ``GPUSpec.resident_warps`` slots —
so small rounds from many queries share one launch instead of each leaving
most of the device idle.

Batch duration is *derived*, not asserted: each member round runs on the
ordinary engine and produces its :class:`KernelProfile`;
:meth:`DeviceModel.coresident_ms` then divides the union of warp cycles by
the shared occupancy.  Any batching speedup over serial execution is
therefore emergent from the same occupancy model every other timing in the
repository uses.

Fairness is structural: admission is FIFO and a task's continuation
re-enters at the tail of the queue (the service does this), so a query
needing many rounds interleaves with newly-arrived small queries instead
of monopolising the device — the per-round sample ceiling in
:class:`~repro.serve.controller.BudgetPolicy` bounds how much device time
any single admission can claim.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from repro.core.engine import RECOVERABLE_ERRORS, EngineSession, GPURunResult
from repro.errors import ServiceError
from repro.gpu.costmodel import DEFAULT_GPU, GPUSpec
from repro.gpu.device import DeviceModel


@dataclass
class RoundTask:
    """One schedulable unit: run ``n_samples`` on a request's session.

    ``payload`` is opaque to the scheduler (the service stores its pending-
    request record there).  ``watchdog_ms`` is passed straight to
    :meth:`~repro.core.engine.EngineSession.run_round` as the launch's
    watchdog ceiling (deadline propagation).  ``tenant``/``weight`` drive
    weighted-fair queueing in :class:`FairQueue`."""

    session: EngineSession
    n_samples: int
    payload: object = None
    tenant: str = "default"
    weight: float = 1.0
    watchdog_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if self.n_samples <= 0:
            raise ServiceError("a round task needs a positive sample count")
        if self.weight <= 0:
            raise ServiceError("a round task's tenant weight must be positive")

    def est_warps(self) -> int:
        """Warps this round will launch (the admission currency)."""
        return max(
            1,
            math.ceil(self.n_samples / self.session.engine.config.tasks_per_warp),
        )


class FairQueue:
    """Weighted-fair round-task queue: stride scheduling over tenants.

    Each tenant gets its own FIFO lane and a *pass* value that advances by
    ``est_warps / weight`` per task it dequeues — so dequeue order
    interleaves tenants proportionally to their weights in device-warp
    currency, and a hot tenant that floods its lane cannot starve the
    others: its pass races ahead and the scheduler serves everyone else
    first.  A tenant (re)activating with an empty lane starts at the
    queue's virtual time (``max`` of its old pass and the last-served
    pass), so sleeping never banks credit.

    ``q[0]`` peeks the task the next ``popleft()`` returns.  With a single
    tenant the pass values cancel out and the order is exact FIFO.
    """

    def __init__(self) -> None:
        self._lanes: Dict[str, Deque[Tuple[int, RoundTask]]] = {}
        self._pass: Dict[str, float] = {}
        self._vtime = 0.0
        self._seq = itertools.count()

    def append(self, task: RoundTask) -> None:
        lane = self._lanes.get(task.tenant)
        if lane is None:
            lane = self._lanes[task.tenant] = deque()
        if not lane:
            self._pass[task.tenant] = max(
                self._pass.get(task.tenant, 0.0), self._vtime
            )
        lane.append((next(self._seq), task))

    def _select(self) -> Optional[str]:
        """Tenant owning the next task: min pass, FIFO seq as tie-break."""
        best_key: Optional[Tuple[float, int]] = None
        best_tenant: Optional[str] = None
        for tenant, lane in self._lanes.items():
            if not lane:
                continue
            key = (self._pass[tenant], lane[0][0])
            if best_key is None or key < best_key:
                best_key = key
                best_tenant = tenant
        return best_tenant

    def __getitem__(self, index: int) -> RoundTask:
        if index != 0:
            raise IndexError("FairQueue only supports peeking the head")
        tenant = self._select()
        if tenant is None:
            raise IndexError("peek from an empty FairQueue")
        return self._lanes[tenant][0][1]

    def popleft(self) -> RoundTask:
        tenant = self._select()
        if tenant is None:
            raise IndexError("pop from an empty FairQueue")
        self._vtime = self._pass[tenant]
        _, task = self._lanes[tenant].popleft()
        self._pass[tenant] += task.est_warps() / task.weight
        return task

    def __len__(self) -> int:
        return sum(len(lane) for lane in self._lanes.values())

    def __bool__(self) -> bool:
        return any(self._lanes.values())

    def __iter__(self) -> Iterator[RoundTask]:
        for lane in self._lanes.values():
            for _, task in lane:
                yield task

    def clear(self) -> None:
        for lane in self._lanes.values():
            lane.clear()


@dataclass
class BatchResult:
    """One executed batch: per-task round results plus fused accounting.

    Fault isolation: ``round_results[i]`` is ``None`` exactly when
    ``failures[i]`` carries the error that killed task ``i``'s round —
    one sick round never poisons its batchmates.  ``fault_ms`` is the
    simulated time the batch lost to failed launches (already included
    in ``batch_ms``); ``n_faults`` counts them.
    """

    tasks: List[RoundTask]
    round_results: List[Optional[GPURunResult]]
    batch_ms: float
    n_warps: int
    n_samples: int
    failures: List[Optional[BaseException]] = field(default_factory=list)
    fault_ms: float = 0.0

    def __post_init__(self) -> None:
        if not self.failures:
            self.failures = [None] * len(self.tasks)

    @property
    def n_faults(self) -> int:
        return sum(error is not None for error in self.failures)

    @property
    def samples_per_second(self) -> float:
        if self.batch_ms <= 0:
            return 0.0
        return self.n_samples / self.batch_ms * 1000.0


#: Batch admission stops once a batch's warps exceed ``resident_warps ×
#: WARP_OVERCOMMIT`` per shard: 1.0 fills the device exactly.
WARP_OVERCOMMIT = 1.0


@dataclass
class BatchScheduler:
    """Forms and executes co-resident device batches.

    Attributes:
        spec: the shared simulated device.
        max_batch_requests: cap on rounds fused per batch (bounds the
            latency of the batch's earliest admitted request).
        n_shards: shard workers each engine partitions its rounds across.
            The admission cap scales with it — N shards expose N devices'
            worth of resident-warp slots, so batches should fill all of
            them, not just one device's share.
    """

    spec: GPUSpec = DEFAULT_GPU
    max_batch_requests: int = 64
    n_shards: int = 1
    device: DeviceModel = field(init=False)

    def __post_init__(self) -> None:
        if self.max_batch_requests <= 0:
            raise ServiceError("max_batch_requests must be positive")
        if self.n_shards < 1:
            raise ServiceError("n_shards must be >= 1")
        self.device = DeviceModel(self.spec)

    # ------------------------------------------------------------------
    def form_batch(self, queue: FairQueue) -> List[RoundTask]:
        """Pop the head of ``queue`` until the batch fills the device(s):
        its warps may not exceed ``resident_warps × WARP_OVERCOMMIT`` per
        shard.  Always admits at least one task (a single round larger
        than the device simply runs as a saturating launch)."""
        warp_cap = int(
            self.spec.resident_warps * WARP_OVERCOMMIT * self.n_shards
        )
        batch: List[RoundTask] = []
        warps = 0
        while queue and len(batch) < self.max_batch_requests:
            task = queue[0]
            task_warps = task.est_warps()
            if batch and warps + task_warps > warp_cap:
                break
            batch.append(queue.popleft())
            warps += task_warps
        return batch

    def execute(self, tasks: List[RoundTask]) -> BatchResult:
        """Run every task's round and account them as one fused launch.

        Device failures are isolated per task: a failed round yields
        ``round_results[i] = None`` and its error in ``failures[i]``; the
        rest of the batch completes normally.  Failed launches are charged
        to ``batch_ms`` on top of the co-resident duration of the
        successful rounds — a conservative model in which they serialise
        after the fused launch rather than hiding inside it.
        """
        if not tasks:
            raise ServiceError("cannot execute an empty batch")
        for task in tasks:
            if task.session.engine.spec is not self.spec:
                raise ServiceError(
                    "all batched sessions must run on the scheduler's device"
                )
        results: List[Optional[GPURunResult]] = []
        failures: List[Optional[BaseException]] = []
        fault_ms = 0.0
        for task in tasks:
            try:
                task.session.run_round(
                    task.n_samples, watchdog_ms=task.watchdog_ms
                )
            except RECOVERABLE_ERRORS:
                pass  # the report below carries the error
            report = task.session.last_round
            results.append(report.result)
            failures.append(report.error)
            fault_ms += report.fault_ms
        ok = [r for r in results if r is not None]
        batch_ms = (
            self.device.coresident_ms(
                [r.profile for r in ok],
                [r.longest_warp_cycles for r in ok],
            )
            if ok
            else self.spec.launch_overhead_ms
        ) + fault_ms
        return BatchResult(
            tasks=tasks,
            round_results=results,
            batch_ms=batch_ms,
            n_warps=sum(r.n_warps for r in ok),
            n_samples=sum(r.n_samples for r in ok),
            failures=failures,
            fault_ms=fault_ms,
        )
