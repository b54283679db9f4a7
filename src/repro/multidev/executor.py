"""Parent-side worker pool: plan publication, warp dispatch, crash healing.

One :class:`ShardedVectorExecutor` owns N long-lived worker processes and
serves two placements of warp work:

* **warp-level sharding** (:meth:`ShardedVectorExecutor.run_round`): one
  round's warps split round-robin across every worker, for engines with
  ``n_shards > 1``;
* **round placement** (:meth:`ShardedVectorExecutor.submit` /
  :meth:`~ShardedVectorExecutor.collect`): a whole round's warps on one
  named worker, which the batch scheduler uses to run a device batch's
  rounds on several host cores at once.

``run_round`` is itself submit-to-every-worker plus collect.  A *plan*
(the kernel tables in shared memory plus :class:`WaveParams`) is published
to a worker at most once per ``(kernel, params)`` pair: the first
submission that needs it on that worker carries the manifest, later ones
just name it.  Plans are keyed on the kernel object itself (held by weak
reference, so a collected kernel's plan can never match a new one) and
retired once no submission uses them, except the most recent — the next
round of the same session usually reuses it.  A retired plan's segment
is repacked by a later plan, and workers keep it attached.  A
warp-sharding submission collects its per-warp result tuples back in warp
order, each with the warp's batch checkpoints, so the parent can resume a
warp whose quota the fold corrects without replaying it; a placed round
comes back already settled to the fold's quotas.

Replies travel on a worker-side sender thread, so a worker whose earlier
replies the parent has not read yet keeps computing the submissions
queued behind them.

Failure semantics: a worker that dies (SIGKILL, a crash armed by
:meth:`ShardedVectorExecutor.inject_crash`, hard exit) is detected by its
pipe hitting EOF.  Every submission outstanding on it raises
:class:`~repro.errors.ShardFailure` — a
:class:`~repro.errors.DeviceFault`, so the serving layer degrades to its
CPU fallback — and the worker is respawned before its next submission.
Submissions on other workers are unaffected, and a token on every
request/reply pair discards any stale reply that could otherwise leak into
a later round.

Workers close the pipe ends they inherit under ``fork``, so a worker's
only open parent end is its owner's: when the owner dies, even by
SIGKILL, the worker reads EOF and exits.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import weakref
from typing import Dict, List, Optional, Sequence, Set

from repro.core.fused import WarpRun, WaveParams
from repro.errors import ConfigError, ShardFailure
from repro.estimators.fused import FusedKernel, kernel_tables
from repro.multidev.shm import SharedArrayPack, packed_size
from repro.multidev.worker import worker_loop
from repro.utils.rng import GeneratorState


def shard_of(warp_index: int, n_shards: int) -> int:
    """Shard owning a warp: round-robin by warp index.  Round-robin keeps
    the tail warps (smaller quotas) spread across shards, and any fixed
    partition is bit-identical anyway, because every warp's result
    depends only on its own spawned generator state."""
    return warp_index % n_shards


def _context() -> "tuple[mp.context.BaseContext, str]":
    """``fork`` where available (fast start, shared import state), else
    ``spawn``.  Correctness never relies on inherited memory — the plan is
    always shipped explicitly — so either method works.  The method name
    rides along because shared-memory attach tracking differs (see
    :func:`repro.multidev.shm.attach_pack`)."""
    method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    return mp.get_context(method), method


#: Segments of retired plans kept for later plans to repack.
_SPARE_SEGMENTS = 2


class _Worker:
    __slots__ = ("process", "conn", "plans", "segments", "live", "replies")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        #: Plan tokens published to this worker, and the segments it has
        #: attached.
        self.plans: Set[int] = set()
        self.segments: Set[str] = set()
        #: Tokens of submissions not yet collected, and replies that
        #: arrived while an earlier-submitted one was being collected.
        self.live: Set[int] = set()
        self.replies: Dict[int, tuple] = {}


class _Plan:
    __slots__ = ("token", "kernel", "params", "pack", "payload", "pending")

    def __init__(
        self, token: int, kernel: FusedKernel, params: WaveParams,
        pack: SharedArrayPack, meta: Dict[str, object],
    ) -> None:
        self.token = token
        self.kernel = weakref.ref(kernel)
        self.params = params
        self.pack = pack
        self.payload = (pack.manifest, meta, params)
        self.pending = 0  # submissions not yet collected


class Ticket:
    """One submission: collect it with :meth:`ShardedVectorExecutor.collect`
    (or drop it with :meth:`~ShardedVectorExecutor.cancel`)."""

    __slots__ = ("index", "worker", "token", "plan")

    def __init__(self, index: int, worker: Optional[_Worker], token: int,
                 plan: _Plan) -> None:
        self.index = index
        self.worker = worker  # None: the worker was unreachable at submit
        self.token = token
        self.plan = plan


def _stop_workers(
    workers: List[Optional[_Worker]],
    plans: List[_Plan],
    spare: List[SharedArrayPack],
) -> None:
    """Stop every worker and release every shared segment.  Runs from
    :meth:`ShardedVectorExecutor.close`, or when the executor is
    garbage-collected or the interpreter exits."""
    for worker in workers:
        if worker is None:
            continue
        try:
            worker.conn.send(("stop",))
        except (OSError, BrokenPipeError):
            pass
    for i in range(len(workers)):
        _reap(workers, i)
    for plan in plans:
        plan.pack.close()
    plans.clear()
    for pack in spare:
        pack.close()
    spare.clear()


def _reap(workers: List[Optional[_Worker]], index: int) -> None:
    worker = workers[index]
    if worker is None:
        return
    try:
        worker.conn.close()
    except OSError:  # pragma: no cover - already closed
        pass
    worker.process.join(timeout=5)
    if worker.process.is_alive():  # pragma: no cover - defensive
        worker.process.terminate()
        worker.process.join(timeout=5)
    workers[index] = None


class ShardedVectorExecutor:
    """Pool of ``n_shards`` worker processes running fused warp batches."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise ConfigError("ShardedVectorExecutor needs at least one worker")
        self.n_shards = n_shards
        self._ctx, self._start_method = _context()
        self._workers: List[Optional[_Worker]] = [None] * n_shards
        self._tokens = itertools.count(1)
        self._plan_ids = itertools.count(1)
        # Most recently used last.
        self._plans: List[_Plan] = []
        self._spare: List[SharedArrayPack] = []
        self._pending_crash: Optional[int] = None
        self._closed = False
        #: Plans shipped to a worker, counted per worker (telemetry).
        self.n_published = 0
        self._finalizer = weakref.finalize(
            self, _stop_workers, self._workers, self._plans, self._spare
        )

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # A forked child inherits this pipe's parent end and every other
        # worker's; it closes them so that its owner's death reads as EOF.
        inherited = []
        if self._start_method == "fork":
            inherited = [parent_conn] + [
                w.conn for w in self._workers if w is not None
            ]
        process = self._ctx.Process(
            target=worker_loop,
            args=(child_conn, inherited),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _live_worker(self, index: int) -> _Worker:
        """Worker ``index``, respawned first if it died (pool healing)."""
        worker = self._workers[index]
        if worker is None or not worker.process.is_alive():
            if worker is not None:
                _reap(self._workers, index)
            worker = self._workers[index] = self._spawn(index)
        return worker

    def close(self) -> None:
        """Stop every worker and release the shared segments (idempotent)."""
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "ShardedVectorExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Test hook
    # ------------------------------------------------------------------
    def inject_crash(self, shard: int) -> None:
        """Make worker ``shard`` hard-exit at the next submission it gets,
        so tests can drive the real death-detection path.

        A round's shard count is capped at its warp count, so a one-warp
        sharded round runs in-process and leaves the crash armed."""
        self._pending_crash = shard

    # ------------------------------------------------------------------
    # Plan publication
    # ------------------------------------------------------------------
    def _plan_for(self, kernel: FusedKernel, params: WaveParams) -> _Plan:
        for i, plan in enumerate(self._plans):
            if plan.kernel() is kernel and plan.params == params:
                self._plans.append(self._plans.pop(i))
                return plan
        meta, arrays = kernel_tables(kernel)
        plan = _Plan(
            next(self._plan_ids), kernel, params, self._pack(arrays), meta
        )
        self._plans.append(plan)
        return plan

    def _pack(self, arrays) -> SharedArrayPack:
        """A segment holding ``arrays``: the smallest spare one they fit
        in, else a new one sized to the next power of two, so that later
        plans fit it too."""
        need = packed_size(arrays)
        fits = [pack for pack in self._spare if pack.nbytes >= need]
        if not fits:
            return SharedArrayPack(arrays, capacity=1 << need.bit_length())
        pack = min(fits, key=lambda p: p.nbytes)
        self._spare.remove(pack)
        pack.repack(arrays)
        return pack

    def _retire_plans(self) -> None:
        """Drop every plan no submission uses, except the most recent one
        whose kernel is still alive."""
        keep = None
        for plan in reversed(self._plans):
            if plan.pending == 0 and plan.kernel() is not None:
                keep = plan
                break
        for plan in [p for p in self._plans if p.pending == 0 and p is not keep]:
            self._plans.remove(plan)
            self._tell(plan.token, "plans", "drop")
            self._spare.append(plan.pack)
        while len(self._spare) > _SPARE_SEGMENTS:
            pack = min(self._spare, key=lambda p: p.nbytes)
            self._spare.remove(pack)
            self._tell(pack.manifest[0], "segments", "unmap")
            pack.close()

    def _tell(self, key, held: str, op: str) -> None:
        """Send ``(op, key)`` to every worker holding ``key`` in its
        ``held`` set (no reply), and forget that it holds it."""
        for worker in self._workers:
            if worker is not None and key in getattr(worker, held):
                getattr(worker, held).discard(key)
                try:
                    worker.conn.send((op, key))
                except (OSError, BrokenPipeError):
                    pass  # a dead worker is noticed at its next use

    # ------------------------------------------------------------------
    # Warp dispatch
    # ------------------------------------------------------------------
    def submit(
        self,
        shard: int,
        kernel: FusedKernel,
        params: WaveParams,
        states: Sequence[GeneratorState],
        quotas: Sequence[int],
        settle: bool = False,
    ) -> Ticket:
        """Start running warps ``states`` at ``quotas`` on worker
        ``shard`` and return at once; :meth:`collect` waits for them.
        With ``settle`` the warps are a whole round at its optimistic
        quotas, and the worker settles them to the fold's quotas
        (:func:`~repro.core.fused.settle_warps`) before replying.

        Several submissions may be outstanding on one worker; it runs them
        in submission order."""
        if self._closed:
            raise ConfigError("executor is closed")
        worker = self._live_worker(shard)
        plan = self._plan_for(kernel, params)
        plan.pending += 1
        setup = None if plan.token in worker.plans else plan.payload
        crash = self._pending_crash == shard
        if crash:
            self._pending_crash = None
        token = next(self._tokens)
        try:
            worker.conn.send(
                ("run", token, plan.token, setup, list(states), list(quotas),
                 settle, crash)
            )
        except (OSError, BrokenPipeError):
            _reap(self._workers, shard)
            return Ticket(shard, None, token, plan)
        if setup is not None:
            worker.plans.add(plan.token)
            worker.segments.add(plan.pack.manifest[0])
            self.n_published += 1
        worker.live.add(token)
        return Ticket(shard, worker, token, plan)

    def collect(self, ticket: Ticket):
        """The results of a :meth:`submit`, in warp order: each warp's
        :data:`~repro.core.fused.WarpRun`, or for a settled submission
        ``(results, n_reruns)`` as :func:`~repro.core.fused.settle_warps`
        returns them.

        Raises :class:`ShardFailure` if the worker died or errored before
        replying."""
        i = ticket.index
        try:
            if ticket.worker is None or self._workers[i] is not ticket.worker:
                raise ShardFailure(f"shard {i} worker died mid-round", shard=i)
            reply = self._recv(ticket)
            if reply[0] != "ok":
                raise ShardFailure(
                    f"shard {i} errored mid-round: {reply[2]}", shard=i
                )
            return reply[2]
        finally:
            self.cancel(ticket)

    def cancel(self, ticket: Ticket) -> None:
        """Forget a submission: its reply, if one ever comes, is dropped.
        Idempotent; :meth:`collect` calls it."""
        worker = ticket.worker
        if worker is not None and ticket.token in worker.live:
            worker.live.discard(ticket.token)
            worker.replies.pop(ticket.token, None)
        if ticket.plan is not None:
            ticket.plan.pending -= 1
            ticket.plan = None  # type: ignore[assignment]
            if not self._closed:
                self._retire_plans()

    def run_round(
        self,
        kernel: FusedKernel,
        params: WaveParams,
        states: Sequence[GeneratorState],
        quotas: Sequence[int],
    ) -> List[WarpRun]:
        """Run one round's warps across the pool (warp ``w`` on worker
        :func:`shard_of` ``(w, n)``); results in warp order.

        Raises :class:`ShardFailure` if any worker dies mid-round (after
        collecting the survivors, so no stale replies outlive the round).
        """
        if self._closed:
            raise ConfigError("executor is closed")
        n = self.n_shards
        slices = [list(range(s, len(states), n)) for s in range(n)]
        tickets = [
            self.submit(
                s, kernel, params,
                [states[w] for w in warp_ids], [quotas[w] for w in warp_ids],
            )
            for s, warp_ids in enumerate(slices)
        ]
        results: List[Optional[WarpRun]] = [None] * len(states)
        failure: Optional[ShardFailure] = None
        for ticket, warp_ids in zip(tickets, slices):
            try:
                runs = self.collect(ticket)
            except ShardFailure as error:
                failure = failure or error
                continue
            for w, result in zip(warp_ids, runs):
                results[w] = result
        if failure is not None:
            raise failure
        return results  # type: ignore[return-value]

    def _recv(self, ticket: Ticket) -> tuple:
        """The reply to ``ticket``.  Replies to other live submissions on
        the same worker are kept for their own collect; replies to
        cancelled ones are discarded."""
        worker = ticket.worker
        assert worker is not None
        reply = worker.replies.pop(ticket.token, None)
        while reply is None:
            try:
                got = worker.conn.recv()
            except (EOFError, OSError):
                _reap(self._workers, ticket.index)
                raise ShardFailure(
                    f"shard {ticket.index} worker died mid-round",
                    shard=ticket.index,
                )
            if got[1] == ticket.token:
                reply = got
            elif got[1] in worker.live:
                worker.replies[got[1]] = got
        return reply
