"""Parent-side shard pool: plan publication, round dispatch, crash healing.

One :class:`ShardedVectorExecutor` owns N long-lived worker processes.  A
*plan* (the kernel tables in shared memory plus :class:`WaveParams`) is
broadcast once per ``(kernel, params)`` pair and reused across session
rounds; each round ships only the per-warp generator states and quotas of
every shard's slice and collects the per-warp result tuples back in warp
order — each with the warp's batch checkpoints, so the parent can resume
a warp whose quota the fold corrects without replaying it.

Failure semantics: a worker that dies mid-round (SIGKILL, a crash armed
by :meth:`ShardedVectorExecutor.inject_crash`, hard exit) is detected by
its pipe hitting EOF.  The round raises
:class:`~repro.errors.ShardFailure` — a
:class:`~repro.errors.DeviceFault`, so the serving layer degrades to its
CPU fallback — and the pool respawns the worker before the next round
runs.  Surviving shards' replies are still drained,
and a token on every request/reply pair discards any stale reply that
could otherwise leak into a later round.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
from typing import List, Optional, Sequence

from repro.core.fused import WarpRun, WaveParams
from repro.errors import ConfigError, ShardFailure
from repro.estimators.fused import FusedKernel, kernel_tables
from repro.multidev.shm import SharedArrayPack
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


class _Worker:
    __slots__ = ("process", "conn", "plan_id")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.plan_id: Optional[int] = None


class ShardedVectorExecutor:
    """N-worker pool executing sharded rounds for one engine."""

    def __init__(self, n_shards: int) -> None:
        if n_shards < 2:
            raise ConfigError("ShardedVectorExecutor needs n_shards >= 2")
        self.n_shards = n_shards
        self._ctx, self._start_method = _context()
        self._workers: List[Optional[_Worker]] = [None] * n_shards
        self._tokens = itertools.count(1)
        self._plan_ids = itertools.count(1)
        self._pack: Optional[SharedArrayPack] = None
        self._plan_id: Optional[int] = None
        self._plan_kernel: Optional[FusedKernel] = None
        self._plan_params: Optional[WaveParams] = None
        self._plan_payload = None
        self._pending_crash: Optional[int] = None
        self._closed = False
        atexit.register(self.close)

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, index: int) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_loop,
            args=(child_conn,),
            name=f"repro-shard-{index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def _ensure_workers(self) -> None:
        """Respawn any worker that died (pool healing between rounds)."""
        for i, worker in enumerate(self._workers):
            if worker is None or not worker.process.is_alive():
                if worker is not None:
                    self._reap(i)
                self._workers[i] = self._spawn(i)

    def _reap(self, index: int) -> None:
        worker = self._workers[index]
        if worker is None:
            return
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if worker.process.is_alive():  # pragma: no cover - defensive
            worker.process.terminate()
        worker.process.join(timeout=5)
        self._workers[index] = None

    def close(self) -> None:
        """Stop every worker and release the shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        for worker in self._workers:
            if worker is None:
                continue
            try:
                worker.conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for i in range(len(self._workers)):
            self._reap(i)
        if self._pack is not None:
            self._pack.close()
            self._pack = None

    def __enter__(self) -> "ShardedVectorExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Test hook
    # ------------------------------------------------------------------
    def inject_crash(self, shard: int) -> None:
        """Make worker ``shard`` hard-exit at the next round, so tests can
        drive the real death-detection path."""
        self._pending_crash = shard

    # ------------------------------------------------------------------
    # Plan publication
    # ------------------------------------------------------------------
    def _setup_plan(self, kernel: FusedKernel, params: WaveParams) -> None:
        if kernel is not self._plan_kernel or params != self._plan_params:
            meta, arrays = kernel_tables(kernel)
            if self._pack is not None:
                self._pack.close()
            self._pack = SharedArrayPack(arrays)
            self._plan_id = next(self._plan_ids)
            self._plan_kernel = kernel
            self._plan_params = params
            self._plan_payload = (self._pack.manifest, meta, params)
        manifest, meta, params = self._plan_payload
        pending = []
        for i, worker in enumerate(self._workers):
            assert worker is not None
            if worker.plan_id == self._plan_id:
                continue
            token = next(self._tokens)
            worker.conn.send(
                ("setup", token, self._plan_id, manifest, meta, params)
            )
            pending.append((i, token))
        for i, token in pending:
            reply = self._recv(i, token)
            if reply[0] != "ok":
                raise ShardFailure(
                    f"shard {i} failed plan setup: {reply[2]}", shard=i
                )
            self._workers[i].plan_id = self._plan_id  # type: ignore[union-attr]

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
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
        draining the survivors, so no stale replies outlive the round).
        """
        if self._closed:
            raise ConfigError("executor is closed")
        self._ensure_workers()
        self._setup_plan(kernel, params)
        crash = self._pending_crash
        self._pending_crash = None

        n = self.n_shards
        token = next(self._tokens)
        slices = [list(range(s, len(states), n)) for s in range(n)]
        for s, warp_ids in enumerate(slices):
            worker = self._workers[s]
            assert worker is not None
            try:
                worker.conn.send((
                    "run",
                    token,
                    self._plan_id,
                    [states[w] for w in warp_ids],
                    [quotas[w] for w in warp_ids],
                    crash == s,
                ))
            except (OSError, BrokenPipeError):
                self._reap(s)

        results: List[Optional[WarpRun]] = [None] * len(states)
        failure: Optional[ShardFailure] = None
        for s, warp_ids in enumerate(slices):
            if self._workers[s] is None:
                failure = failure or ShardFailure(
                    f"shard {s} worker unreachable at dispatch", shard=s
                )
                continue
            try:
                reply = self._recv(s, token)
            except ShardFailure as error:
                failure = failure or error
                continue
            if reply[0] != "ok":
                failure = failure or ShardFailure(
                    f"shard {s} errored mid-round: {reply[2]}", shard=s
                )
                continue
            for w, result in zip(warp_ids, reply[2]):
                results[w] = result
        if failure is not None:
            raise failure
        return results  # type: ignore[return-value]

    def _recv(self, index: int, token: int):
        """Next reply from worker ``index`` matching ``token``; stale
        replies (aborted earlier rounds) are discarded by token mismatch."""
        worker = self._workers[index]
        assert worker is not None
        while True:
            try:
                reply = worker.conn.recv()
            except (EOFError, OSError):
                self._reap(index)
                raise ShardFailure(
                    f"shard {index} worker died mid-round", shard=index
                )
            if len(reply) >= 2 and reply[1] == token:
                return reply
