"""Shard worker: the child-process half of multi-device execution.

The parent ships each worker a one-time *plan* (shared-memory manifest of
the kernel tables, kernel meta, :class:`~repro.core.fused.WaveParams`)
and then, per round, just the worker's slice of per-warp generator states
and task quotas.  The worker rebuilds the kernel over zero-copy views,
compiles the same plan, and runs the same runner the in-process path uses
for ``params.sync_mode`` — bit-identical by construction.

All logic lives in :func:`build_runtime` / :class:`ShardRuntime` so it is
testable in-process; :func:`worker_loop` is the thin child-side message
pump.
"""

from __future__ import annotations

import os
from typing import Dict, List, Mapping, Sequence

import numpy as np

from repro.core.fused import WarpRun, WaveParams
from repro.core.vectorized import runner_for
from repro.estimators.fused import kernel_from_tables
from repro.multidev.shm import PackManifest, attach_pack
from repro.utils.rng import GeneratorState


class ShardRuntime:
    """One plan's per-worker state: rebuilt kernel + persistent runner.

    The runner matches ``params.sync_mode``, and its scratch arena persists
    across rounds, the same reuse the in-process path gets.
    """

    def __init__(
        self, meta: Mapping[str, object], arrays: Dict[str, np.ndarray],
        params: WaveParams,
    ) -> None:
        self.kernel = kernel_from_tables(dict(meta), arrays)
        self.runner = runner_for(self.kernel, params)

    def run(
        self, states: Sequence[GeneratorState], quotas: Sequence[int]
    ) -> List[WarpRun]:
        return self.runner.run_warps(states, quotas)


def build_runtime(
    meta: Mapping[str, object],
    arrays: Dict[str, np.ndarray],
    params: WaveParams,
) -> ShardRuntime:
    """Construct the runtime a worker hosts (pure; used in-process by
    tests and by :func:`worker_loop` in children)."""
    return ShardRuntime(meta, arrays, params)


#: Exit code of a deliberately crashed worker (``inject_crash``).
CRASH_EXIT_CODE = 17


def worker_loop(conn) -> None:  # pragma: no cover - runs in child processes
    """Message pump: ``("setup", token, plan_id, manifest, meta, params)``
    installs a plan; ``("run", token, plan_id, states, quotas, crash)``
    executes a slice (or hard-exits when ``crash`` — the
    ``inject_crash`` test hook); ``("stop",)`` ends the loop.  Replies are
    ``("ok", token, payload)`` or ``("err", token, message)``."""
    runtime = None
    plan_id = None
    segment = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            op, token = msg[0], msg[1]
            try:
                if op == "setup":
                    new_plan: int = msg[2]
                    manifest: PackManifest = msg[3]
                    meta, params = msg[4], msg[5]
                    if segment is not None:
                        segment.close()
                    segment, arrays = attach_pack(manifest)
                    runtime = build_runtime(meta, arrays, params)
                    plan_id = new_plan
                    conn.send(("ok", token, None))
                elif op == "run":
                    want_plan, states, quotas, crash = msg[2:6]
                    if crash:
                        os._exit(CRASH_EXIT_CODE)
                    if runtime is None or want_plan != plan_id:
                        raise RuntimeError(
                            f"shard has plan {plan_id}, round wants {want_plan}"
                        )
                    conn.send(("ok", token, runtime.run(states, quotas)))
                else:
                    raise RuntimeError(f"unknown shard op {op!r}")
            except Exception as error:
                # Stringify: arbitrary exceptions may not unpickle in the
                # parent; the executor wraps this into a ShardFailure.
                conn.send(("err", token, f"{type(error).__name__}: {error}"))
    finally:
        if segment is not None:
            segment.close()
        conn.close()
