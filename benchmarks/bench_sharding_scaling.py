"""Multi-process sharding scaling: speedup/efficiency at 1/2/4/8 workers.

Not a paper figure — this benchmarks the multi-device execution layer the
reproduction adds (``repro.multidev``).  Two speedups are reported per
shard count:

* **modeled** — ``simulated_ms / multidev_ms``: the deterministic
  multi-device makespan (max over per-shard device clocks plus a tree
  all-reduce).  This is the repository's primary timing currency and is
  host-independent.
* **measured** — wall-clock of the 1-shard in-process run over the
  N-shard pool run.  Real OS processes doing real work, so this one is
  honest about the host: on a single-core container the workers serialise
  and the pool's IPC overhead makes N > 1 *slower*; the record keeps
  ``host_cores`` beside it so readers can tell the two situations apart.

The workload runs on the default backend (``fused``), the one the
service shards.  Bit-identity is asserted for every shard count — estimates, sample
counts, and single-device simulated time must match the 1-shard run
exactly, or the benchmark aborts.

``--enforce`` additionally fails the run when the 4-worker gate does not
hold (modeled speedup always; measured speedup only on hosts with at
least 4 cores) — the perf-smoke CI job applies the same gate per commit.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.bench.reporting import render_table, save_results
from repro.bench.workloads import build_workload
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.estimators.alley import AlleyEstimator
from repro.serve.scheduler import host_cores

SEED = 20240613
SHARD_COUNTS = (1, 2, 4, 8)
#: The scaling workload must saturate several simulated devices: Alley on
#: orkut does real per-step work (dense neighborhoods, refine stages), and
#: small warps (``tasks_per_warp=16``) keep the longest-warp serial floor
#: far below the per-shard throughput term.  Launch-overhead-dominated
#: kernels (small sample counts) do not shard profitably — by design.
N_SAMPLES = int(os.environ.get("REPRO_BENCH_SHARD_SAMPLES", "131072"))
TASKS_PER_WARP = 16
WALL_REPEATS = int(os.environ.get("REPRO_BENCH_SHARD_REPEATS", "2"))
GATE_SHARDS = 4
GATE_SPEEDUP = 1.5


def run_scaling() -> dict:
    workload = build_workload("orkut", 6, "dense", 0)
    records = []
    rows = []
    reference = None
    base_wall = None
    for shards in SHARD_COUNTS:
        config = EngineConfig.gsword(
            tasks_per_warp=TASKS_PER_WARP
        ).with_shards(shards)
        with GSWORDEngine(AlleyEstimator(), config=config) as engine:
            # Warmup run: spawns the pool and publishes the shared-memory
            # plan, so the timed region measures steady-state rounds.
            engine.run(workload.cg, workload.order, N_SAMPLES, rng=SEED)
            best_wall = float("inf")
            result = None
            for _ in range(WALL_REPEATS):
                start = time.perf_counter()
                result = engine.run(
                    workload.cg, workload.order, N_SAMPLES, rng=SEED
                )
                best_wall = min(best_wall, time.perf_counter() - start)
        wall_ms = best_wall * 1000.0
        if reference is None:
            reference = result
            base_wall = wall_ms
        elif (
            result.estimate != reference.estimate
            or result.n_samples != reference.n_samples
            or result.simulated_ms() != reference.simulated_ms()
        ):
            raise SystemExit(
                f"{shards}-shard run diverged from 1-shard reference "
                f"(estimate {result.estimate} vs {reference.estimate}) — "
                "sharding equivalence broken"
            )
        modeled_speedup = (
            result.simulated_ms() / result.multidev_ms()
            if result.multidev_ms() > 0 else 0.0
        )
        measured_speedup = base_wall / wall_ms if wall_ms > 0 else 0.0
        records.append({
            "shards": shards,
            "effective_shards": result.n_shards,
            "estimate": result.estimate,
            "simulated_ms": result.simulated_ms(),
            "multidev_ms": result.multidev_ms(),
            "modeled_speedup": modeled_speedup,
            "modeled_efficiency": modeled_speedup / shards,
            "wall_ms": wall_ms,
            "measured_speedup": measured_speedup,
            "measured_efficiency": measured_speedup / shards,
        })
        rows.append([
            shards, result.n_shards, result.multidev_ms(),
            modeled_speedup, modeled_speedup / shards,
            wall_ms, measured_speedup,
        ])
    print()
    print(render_table(
        ["shards", "effective", "multidev ms", "modeled x", "modeled eff",
         "wall ms", "measured x"],
        rows,
        title=f"Sharding scaling (alley, orkut q6, {N_SAMPLES} samples, "
              f"{host_cores()} host cores)",
    ))
    at_gate = next(r for r in records if r["shards"] == GATE_SHARDS)
    cores = host_cores()
    gate = {
        "shards": GATE_SHARDS,
        "threshold": GATE_SPEEDUP,
        "host_cores": cores,
        "modeled_speedup": at_gate["modeled_speedup"],
        "modeled_passed": at_gate["modeled_speedup"] >= GATE_SPEEDUP,
        "measured_speedup": at_gate["measured_speedup"],
        # Wall-clock parallelism needs real cores: the measured gate is
        # only meaningful when the host grants >= GATE_SHARDS of them.
        "measured_enforceable": cores >= GATE_SHARDS,
        "measured_passed": (
            at_gate["measured_speedup"] >= GATE_SPEEDUP
            if cores >= GATE_SHARDS
            else None
        ),
    }
    return {
        "seed": SEED,
        "n_samples": N_SAMPLES,
        "workload": {
            "estimator": "alley",
            "dataset": "orkut",
            "query": "q6 dense #0",
            "tasks_per_warp": TASKS_PER_WARP,
            "backend": reference.backend,
        },
        "host_cores": cores,
        "records": records,
        "gate": gate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--enforce", action="store_true",
        help="exit non-zero when the 4-worker speedup gate fails",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="do not write results/ JSON"
    )
    args = parser.parse_args(argv)
    payload = run_scaling()
    gate = payload["gate"]
    print(
        f"\ngate @ {gate['shards']} workers: modeled "
        f"{gate['modeled_speedup']:.2f}x "
        f"({'PASS' if gate['modeled_passed'] else 'FAIL'}, "
        f"threshold {gate['threshold']}x); measured "
        f"{gate['measured_speedup']:.2f}x "
        + (
            f"({'PASS' if gate['measured_passed'] else 'FAIL'})"
            if gate["measured_enforceable"]
            else f"(not enforceable on {gate['host_cores']} host cores)"
        )
    )
    if not args.no_save:
        path = save_results("sharding_scaling", payload)
        if path is not None:
            print(f"results written to {path}")
    if args.enforce:
        failed = not gate["modeled_passed"] or gate["measured_passed"] is False
        return 1 if failed else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
