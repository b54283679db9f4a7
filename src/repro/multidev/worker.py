"""Shard worker: the child-process half of multi-device execution.

The parent publishes each *plan* (shared-memory manifest of the kernel
tables, kernel meta, :class:`~repro.core.fused.WaveParams`) to a worker
once, inside the first submission that needs it, and then ships per
submission just the warps' generator states and task quotas.  The worker
rebuilds the kernel over zero-copy views, compiles the same plan, and
runs the same runner the in-process path uses for ``params.sync_mode`` —
bit-identical by construction.  A worker holds every plan it was given
until the parent drops it, keeps each segment attached until the parent
unmaps it (a segment is repacked for later plans), and all its runners
share one scratch arena (they run one at a time).

All logic lives in :func:`build_runtime` / :class:`ShardRuntime` so it is
testable in-process; :func:`worker_loop` is the thin child-side message
pump.
"""

from __future__ import annotations

import os
import queue
import threading
from multiprocessing.shared_memory import SharedMemory
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.fused import FusedArena, WarpRun, WaveParams, settle_warps
from repro.core.vectorized import runner_for
from repro.estimators.fused import kernel_from_tables
from repro.multidev.shm import attach_segment, map_views
from repro.utils.rng import GeneratorState


class ShardRuntime:
    """One plan's per-worker state: rebuilt kernel + persistent runner.

    The runner matches ``params.sync_mode``, and its scratch arena persists
    across rounds, the same reuse the in-process path gets.
    """

    def __init__(
        self, meta: Mapping[str, object], arrays: Dict[str, np.ndarray],
        params: WaveParams, arena: Optional[FusedArena] = None,
    ) -> None:
        self.kernel = kernel_from_tables(dict(meta), arrays)
        self.runner = runner_for(self.kernel, params, arena)

    def run(
        self, states: Sequence[GeneratorState], quotas: Sequence[int],
        settle: bool = False,
    ):
        """The warps' runs, or with ``settle`` (a whole round at its
        optimistic quotas) the settled ``(results, n_reruns)``."""
        runs: List[WarpRun] = self.runner.run_warps(states, quotas)
        if settle:
            return settle_warps(self.runner, runs, quotas)
        return runs


def build_runtime(
    meta: Mapping[str, object],
    arrays: Dict[str, np.ndarray],
    params: WaveParams,
    arena: Optional[FusedArena] = None,
) -> ShardRuntime:
    """Construct the runtime a worker hosts (pure; used in-process by
    tests and by :func:`worker_loop` in children)."""
    return ShardRuntime(meta, arrays, params, arena)


#: Exit code of a deliberately crashed worker (``inject_crash``).
CRASH_EXIT_CODE = 17


def _send_replies(conn, outbox: "queue.SimpleQueue") -> None:  # pragma: no cover
    """Sender thread: ship replies in order.  A reply the parent has not
    read yet blocks only this thread, so the worker keeps computing the
    submissions queued behind it."""
    while True:
        reply = outbox.get()
        if reply is None:
            return
        try:
            conn.send(reply)
        except (OSError, BrokenPipeError):
            return


def _unmap(segments: Dict[str, SharedMemory], name: str) -> None:
    """Detach segment ``name``; a view still alive keeps the mapping
    until the worker exits."""
    segment = segments.pop(name, None)
    if segment is not None:
        try:
            segment.close()
        except BufferError:
            pass


def worker_loop(conn, inherited=()) -> None:  # pragma: no cover - child only
    """Message pump.  ``inherited`` are pipe ends the child got from its
    parent under ``fork``; they are closed first, so that the owner's
    death reads as EOF here.

    ``("run", token, plan_id, setup, states, quotas, settle, crash)`` runs
    warps on plan ``plan_id``, first installing it from ``setup``
    (``(manifest, meta, params)``) when that is not ``None``, and settles
    them with ``settle``; ``crash`` hard-exits (the ``inject_crash`` test
    hook).  Replies are ``("ok", token, runs)`` or
    ``("err", token, message)``.  ``("drop", plan_id)`` releases a plan
    and ``("unmap", name)`` a segment (no reply); ``("stop",)`` ends the
    loop."""
    for end in inherited:
        end.close()
    plans: Dict[int, ShardRuntime] = {}
    segments: Dict[str, SharedMemory] = {}
    arena = FusedArena()
    outbox: "queue.SimpleQueue" = queue.SimpleQueue()
    sender = threading.Thread(
        target=_send_replies, args=(conn, outbox), daemon=True
    )
    sender.start()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            op = msg[0]
            if op == "stop":
                break
            if op == "drop":
                plans.pop(msg[1], None)
                continue
            if op == "unmap":
                _unmap(segments, msg[1])
                continue
            token = msg[1]
            try:
                if op != "run":
                    raise RuntimeError(f"unknown shard op {op!r}")
                plan_id, setup, states, quotas, settle, crash = msg[2:8]
                if crash:
                    os._exit(CRASH_EXIT_CODE)
                if setup is not None:
                    (name, entries), meta, params = setup
                    if name not in segments:
                        segments[name] = attach_segment(name)
                    arrays = map_views(segments[name].buf, entries)
                    plans[plan_id] = build_runtime(meta, arrays, params, arena)
                if plan_id not in plans:
                    raise RuntimeError(f"shard has no plan {plan_id}")
                runtime = plans[plan_id]
                outbox.put(("ok", token, runtime.run(states, quotas, settle)))
            except Exception as error:
                # Stringify: arbitrary exceptions may not unpickle in the
                # parent; the executor wraps this into a ShardFailure.
                outbox.put(("err", token, f"{type(error).__name__}: {error}"))
    finally:
        outbox.put(None)
        sender.join(timeout=5)
        plans.clear()
        for name in list(segments):
            _unmap(segments, name)
        conn.close()
