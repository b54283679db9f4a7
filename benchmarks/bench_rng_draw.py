"""RNG draw-path micro-benchmark: sequential replay vs counter streams.

Times the raw draw primitives both rng modes are built on, at the batch
sizes the wave executor actually uses, and reports the per-draw cost and
the counter/sequential throughput ratio:

* ``sequential`` — one ``Generator.integers`` call per warp per
  super-step (the replay contract: every backend must consume the same
  per-warp PCG64 stream, so draws cannot batch across warps);
* ``counter`` — one :func:`repro.utils.lanerng.philox_bounded` pass for
  the whole wave (draws are pure functions of (lane key, counter), so
  cross-warp batching is free by construction).

The interesting column is small batches: at a few draws per warp per
step the sequential path is all numpy call dispatch, which is exactly
the floor counter mode lifts (DESIGN.md "Lane RNG modes").  Appends the
machine-readable payload to ``results/rng_draw.json`` — uploaded as a CI
artifact by the benchmarks workflow.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench.reporting import render_table, save_results
from repro.utils.lanerng import philox_bounded, warp_keys
from repro.utils.rng import spawn_generator_states, spawn_generators

#: (warps per wave, draws per warp per super-step) shapes to time.  The
#: small-draw rows model deep query levels (one draw per live task); the
#: large rows model root sampling over full 32-lane batches.
SHAPES = [(64, 1), (64, 8), (256, 8), (256, 32), (1024, 32)]
BOUND = 1000
REPEATS = 5


def _time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_rng_draw():
    rows = []
    payload = {"bound": BOUND, "shapes": []}
    for n_warps, per_warp in SHAPES:
        n_draws = n_warps * per_warp
        gens = spawn_generators(20240613, n_warps)
        bounds = np.full(per_warp, BOUND, dtype=np.int64)

        def sequential():
            for gen in gens:
                gen.integers(0, bounds)

        keys = warp_keys(spawn_generator_states(20240613, n_warps))
        k0 = np.repeat(keys[:, 0].astype(np.uint64), per_warp)
        k1 = np.repeat(keys[:, 1].astype(np.uint64), per_warp)
        idx = np.tile(np.arange(per_warp, dtype=np.uint64), n_warps)
        all_bounds = np.full(n_draws, BOUND, dtype=np.int64)

        def counter():
            philox_bounded(k0, k1, idx, all_bounds)

        seq_s = _time(sequential)
        ctr_s = _time(counter)
        ratio = seq_s / ctr_s if ctr_s > 0 else float("inf")
        rows.append([
            f"{n_warps}x{per_warp}",
            f"{seq_s / n_draws * 1e9:.0f}ns",
            f"{ctr_s / n_draws * 1e9:.0f}ns",
            f"{ratio:.2f}x",
        ])
        payload["shapes"].append({
            "n_warps": n_warps,
            "draws_per_warp": per_warp,
            "sequential_ns_per_draw": seq_s / n_draws * 1e9,
            "counter_ns_per_draw": ctr_s / n_draws * 1e9,
            "counter_speedup": ratio,
        })
    print()
    print(render_table(
        ["Wave shape", "sequential/draw", "counter/draw", "counter speedup"],
        rows,
        title="RNG draw path: per-warp Generator.integers vs wave Philox",
    ))
    save_results("rng_draw", payload)
    return payload


def test_rng_draw(benchmark):
    payload = benchmark.pedantic(run_rng_draw, rounds=1, iterations=1)
    # Counter mode must win where it matters: small per-warp draw counts,
    # where the sequential path is pure numpy call dispatch.
    small = [s for s in payload["shapes"] if s["draws_per_warp"] <= 8]
    assert all(s["counter_speedup"] > 1.0 for s in small)


if __name__ == "__main__":
    run_rng_draw()
