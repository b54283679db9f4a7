"""CI perf-regression smoke test (the ``perf-smoke`` job).

Runs a trimmed micro-benchmark suite on one fixed seed/graph and compares
against the checked-in baselines in ``benchmarks/baselines.json``:

* **exact gates** — HT estimates and simulated milliseconds are
  deterministic per seed, so any drift from the baseline fails the build
  outright (a semantics change snuck into the cost model or kernels);
* **wall-clock gates** — wall time is noisy on shared runners, so the
  absolute check only fails beyond ``--wall-tolerance`` × the
  ``wall_ms_fused`` baseline (default 4×), while the sharp check is
  self-relative: the ``fused`` backend must beat the scalar reference by
  ``--min-speedup`` (default 1.5×) within the same process, and must stay
  bit-identical to it (estimate and simulated milliseconds are compared
  exactly, and the run must report ``backend == "fused"`` — a silent
  fallback to the scalar rung would pass equivalence while voiding the
  perf claim).
* **saturating gate** — a saturating workload (dblp q6 dense, 65536
  samples, 128 tasks/warp: enough warps that whole-batch level kernels
  amortise their dispatch) gates the compiled plan's margin over the
  scalar reference: fused must beat scalar by ``--min-fused-speedup``
  (default 4.5×) on Alley and by the WanderJoin floor (3.0×).  The WJ
  floor dates from when the fused runners made one ``Generator.integers``
  call per warp per level step, a cost the scalar reference shares; they
  now draw every stepping warp's lanes in one
  :class:`repro.utils.rng.WarpStreams` pass, so the floor is a loose
  regression bound, not a cap on WJ's ratio.

* **small-wave gate** — single interactive-size rounds (256 samples at
  128 tasks per warp, i.e. 2-warp waves) on hprd k=4/k=8 and orkut k=12,
  where per-step numpy dispatch rather than array width sets the cost.
  ``fused`` is the default backend, so it must run them (no fallback),
  bit-identical to the scalar reference, with best-of-N wall within
  ``--wall-tolerance`` × the ``small_waves`` baseline.

* **O0 gate** — the paper's NextDoor-style GPU baseline
  (``EngineConfig.gpu_baseline()``: iteration synchronisation) on Alley
  yeast q8 and WanderJoin dblp q8, 4096 samples: the fused run must report
  ``backend == "fused"``, be bit-identical to scalar, and beat it by
  ``O0_MIN_SPEEDUP`` (2.0×), best-of-N timed alternately.  Self-relative,
  so it needs no baseline entry.

* **sharding gates** — one saturating workload runs at 1 and 4 shards:
  estimates and simulated milliseconds must be bit-identical, the
  deterministic multi-device makespan must show a ≥1.5× modeled speedup,
  and (only on hosts granting ≥4 cores) the measured wall speedup must
  clear the same bar.
* **tracing gates** — one case runs with ``repro.obs`` tracing on and
  off: estimate and simulated milliseconds must be bit-identical (the
  recorder must never perturb an RNG stream), and the *projected*
  disabled-path overhead — the measured cost of one ``recorder.enabled``
  guard times the number of events a traced run records — must stay
  under ``TRACE_OVERHEAD_PCT`` of the untraced wall time.  Projection is
  used instead of differencing two noisy wall timings because the real
  disabled cost (a few hundred branch checks per run) is far below
  runner noise.

* **candidate-build gates** — ``build_candidate_graph`` with the serving
  defaults (NLF + two refinement sweeps) on fixed orkut k=12 and patents
  k=16 queries, the sizes the cold serving path builds: best-of-N wall
  within ``--wall-tolerance`` × the ``candidate_build`` baseline, and an
  exact SHA-256 digest of every output array (dtype included) — the
  batched build must never change what it builds.  Refresh that section
  alone with ``--update-candidate-build-baselines``.

Refresh the baselines after an intentional change with::

    PYTHONPATH=src python benchmarks/perf_smoke.py --update-baselines

Regression drill: set ``PERF_SMOKE_SYNTHETIC_DELAY_MS=200`` to inject a
per-run sleep into the timed sections and watch the job fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from repro.bench.workloads import build_workload
from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.estimators.alley import AlleyEstimator
from repro.estimators.wanderjoin import WanderJoinEstimator
from repro.obs import NO_TRACE, FlightRecorder, TraceRecorder

BASELINE_PATH = Path(__file__).resolve().parent / "baselines.json"
SEED = 20240613
N_SAMPLES = 2048
WALL_REPEATS = 3

CASES = [
    ("wj_yeast_q6", WanderJoinEstimator, "yeast", 6),
    ("alley_yeast_q6", AlleyEstimator, "yeast", 6),
    ("wj_dblp_q8", WanderJoinEstimator, "dblp", 8),
    ("alley_orkut_q6", AlleyEstimator, "orkut", 6),
]

# Saturating gate workload: per-level work must saturate whole-batch numpy
# ops (big warp fleets, full 32-lane batches) for the compiled plan to show
# its margin — the same reasoning as the sharding workload below.  Alley
# carries the 4.5x gate; WanderJoin keeps the lower regression floor it
# got when a per-warp RNG call per level step capped its ratio.
FUSED_N_SAMPLES = int(os.environ.get("PERF_SMOKE_FUSED_SAMPLES", "65536"))
FUSED_TASKS_PER_WARP = 128
FUSED_WALL_REPEATS = 3
FUSED_DATASET = "dblp"
FUSED_K = 6
FUSED_WJ_MIN_SPEEDUP = 3.0

# Small-wave gate: the shape of an interactive request's round.
SMALL_WAVE_CASES = [
    ("alley_hprd_q4", AlleyEstimator, "hprd", 4),
    ("alley_hprd_q8", AlleyEstimator, "hprd", 8),
    ("wj_hprd_q8", WanderJoinEstimator, "hprd", 8),
    ("alley_orkut_q12", AlleyEstimator, "orkut", 12),
]
SMALL_WAVE_SAMPLES = 256
SMALL_WAVE_TASKS_PER_WARP = 128
SMALL_WAVE_REPEATS = 30

# O0 gate: iteration-synchronised rounds (gpu_baseline) on the compiled
# plan.  Timing alternates the two backends so host-speed drift hits both
# alike.
O0_CASES = [
    ("o0_alley_yeast_q8", AlleyEstimator, "yeast", 8),
    ("o0_wj_dblp_q8", WanderJoinEstimator, "dblp", 8),
]
O0_SAMPLES = 4096
O0_REPEATS = 5
O0_MIN_SPEEDUP = 2.0

# Sharding gate workload: must be throughput-bound (many small balanced
# warps, per-shard warp counts above device residency) or the modeled
# makespan cannot improve — see benchmarks/bench_sharding_scaling.py.
SHARD_N_SAMPLES = int(os.environ.get("PERF_SMOKE_SHARD_SAMPLES", "131072"))
SHARD_TASKS_PER_WARP = 16
SHARD_WALL_REPEATS = 2
SHARD_GATE = 4
SHARD_MIN_SPEEDUP = 1.5

# Tracing gate: max projected disabled-path overhead (% of untraced wall)
# and the guard-loop length used to measure one `enabled` check.
TRACE_OVERHEAD_PCT = 2.0
TRACE_GUARD_CALLS = 200_000
#: Micro-benchmark loop sizing the flight ring's per-event recording cost
#: (the always-on path actually records, so the guard alone is not the
#: whole story).
FLIGHT_EVENT_CALLS = 20_000

# Candidate-build gate: the largest cold-path builds (orkut k=12, patents
# k=16), timed best-of-N with the serving filter defaults.
BUILD_CASES = [
    ("build_orkut_q12", "orkut", 12),
    ("build_patents_q16", "patents", 16),
]
BUILD_WALL_REPEATS = 5


def _synthetic_delay() -> None:
    delay_ms = float(os.environ.get("PERF_SMOKE_SYNTHETIC_DELAY_MS", "0"))
    if delay_ms > 0:
        time.sleep(delay_ms / 1000.0)


def _run_case(estimator_cls, dataset: str, k: int, backend: str):
    workload = build_workload(dataset, k, "dense", 0)
    engine = GSWORDEngine(
        estimator_cls(), EngineConfig.gsword(backend=backend)
    )
    best_wall = float("inf")
    result = None
    for _ in range(WALL_REPEATS):
        start = time.perf_counter()
        result = engine.run(workload.cg, workload.order, N_SAMPLES, rng=SEED)
        _synthetic_delay()
        best_wall = min(best_wall, time.perf_counter() - start)
    return result, best_wall * 1000.0


def _diverged(fus, sca) -> bool:
    return (
        fus.estimate != sca.estimate or fus.simulated_ms() != sca.simulated_ms()
    )


def measure() -> dict:
    """Run every case on both backends; returns the measurement dict."""
    entries = {}
    for name, estimator_cls, dataset, k in CASES:
        sca, sca_wall = _run_case(estimator_cls, dataset, k, "scalar")
        fus, fus_wall = _run_case(estimator_cls, dataset, k, "fused")
        if _diverged(fus, sca):
            raise SystemExit(
                f"{name}: fused backend diverged (estimate {fus.estimate} vs "
                f"{sca.estimate}, simulated {fus.simulated_ms()} vs "
                f"{sca.simulated_ms()}) — equivalence broken"
            )
        if fus.backend != "fused":
            raise SystemExit(
                f"{name}: fused run fell back to {fus.backend!r} "
                f"({fus.backend_label}) — the compiled plan no longer covers "
                "this workload"
            )
        lane_steps = fus.profile.warp.lane_total
        entries[name] = {
            "estimate": fus.estimate,
            "simulated_ms": fus.simulated_ms(),
            "wall_ms_scalar": sca_wall,
            "wall_ms_fused": fus_wall,
            "speedup": sca_wall / fus_wall if fus_wall > 0 else float("inf"),
            "lane_steps_per_sec": (
                lane_steps / (fus_wall / 1000.0) if fus_wall > 0 else 0.0
            ),
        }
    return {"format": 1, "seed": SEED, "n_samples": N_SAMPLES, "entries": entries}


def _run_fused_gate_case(estimator_cls, backend: str):
    workload = build_workload(FUSED_DATASET, FUSED_K, "dense", 0)
    engine = GSWORDEngine(
        estimator_cls(),
        EngineConfig.gsword(backend=backend, tasks_per_warp=FUSED_TASKS_PER_WARP),
    )
    # Warmup compiles the plan / builds kernel tables outside the timing.
    engine.run(workload.cg, workload.order, 2048, rng=1)
    best_wall = float("inf")
    result = None
    for _ in range(FUSED_WALL_REPEATS):
        start = time.perf_counter()
        result = engine.run(
            workload.cg, workload.order, FUSED_N_SAMPLES, rng=SEED
        )
        _synthetic_delay()
        best_wall = min(best_wall, time.perf_counter() - start)
    return result, best_wall * 1000.0


def measure_fused() -> dict:
    """Run the saturating gate workload on the scalar and fused backends.

    Aborts outright when fused output diverges from scalar or when the
    engine silently fell back to the scalar rung — both void the gate.
    """
    out = {
        "dataset": FUSED_DATASET,
        "k": FUSED_K,
        "n_samples": FUSED_N_SAMPLES,
        "tasks_per_warp": FUSED_TASKS_PER_WARP,
    }
    for label, estimator_cls in (
        ("alley", AlleyEstimator), ("wj", WanderJoinEstimator)
    ):
        sca, sca_wall = _run_fused_gate_case(estimator_cls, "scalar")
        fus, fus_wall = _run_fused_gate_case(estimator_cls, "fused")
        if _diverged(fus, sca):
            raise SystemExit(
                f"fused[{label}]: backends disagree (estimate {fus.estimate} "
                f"vs {sca.estimate}, simulated {fus.simulated_ms()} vs "
                f"{sca.simulated_ms()}) — equivalence broken"
            )
        if fus.backend != "fused":
            raise SystemExit(
                f"fused[{label}]: gate run fell back to {fus.backend!r} "
                f"({fus.backend_label}) — cannot gate the compiled plan"
            )
        out[f"estimate_{label}"] = fus.estimate
        out[f"simulated_ms_{label}"] = fus.simulated_ms()
        out[f"wall_ms_scalar_{label}"] = sca_wall
        out[f"wall_ms_fused_{label}"] = fus_wall
        out[f"fused_speedup_{label}"] = (
            sca_wall / fus_wall if fus_wall > 0 else float("inf")
        )
    return out


def compare_fused(cur: dict, base: dict, min_fused_speedup: float) -> list:
    failures = []
    if not base:
        return ["fused: no baseline section (run --update-baselines)"]
    for label in ("alley", "wj"):
        for key in (f"estimate_{label}", f"simulated_ms_{label}"):
            if cur[key] != base.get(key):
                failures.append(
                    f"fused: {key} {cur[key]} != baseline {base.get(key)} "
                    "(deterministic — must match exactly)"
                )
    if cur["fused_speedup_alley"] < min_fused_speedup:
        failures.append(
            f"fused: Alley compiled plan only "
            f"{cur['fused_speedup_alley']:.2f}x faster than scalar "
            f"(gate: {min_fused_speedup:.2f}x)"
        )
    if cur["fused_speedup_wj"] < FUSED_WJ_MIN_SPEEDUP:
        failures.append(
            f"fused: WanderJoin compiled plan only "
            f"{cur['fused_speedup_wj']:.2f}x faster than scalar "
            f"(floor: {FUSED_WJ_MIN_SPEEDUP:.2f}x)"
        )
    return failures


def measure_small_waves() -> dict:
    """Best-of-N fused wall time of one small round per case, checked
    against the scalar reference."""
    out = {}
    for name, estimator_cls, dataset, k in SMALL_WAVE_CASES:
        workload = build_workload(dataset, k, "dense", 0)
        engine = GSWORDEngine(
            estimator_cls(),
            EngineConfig.gsword(
                backend="fused", tasks_per_warp=SMALL_WAVE_TASKS_PER_WARP
            ),
        )
        # Warmup builds the kernel tables and compiles the plan.
        engine.run(workload.cg, workload.order, SMALL_WAVE_SAMPLES, rng=1)
        best = float("inf")
        for _ in range(SMALL_WAVE_REPEATS):
            start = time.perf_counter()
            fus = engine.run(
                workload.cg, workload.order, SMALL_WAVE_SAMPLES, rng=SEED
            )
            best = min(best, time.perf_counter() - start)
        sca = GSWORDEngine(
            estimator_cls(),
            EngineConfig.gsword(
                backend="scalar", tasks_per_warp=SMALL_WAVE_TASKS_PER_WARP
            ),
        ).run(workload.cg, workload.order, SMALL_WAVE_SAMPLES, rng=SEED)
        out[name] = {
            "backend": fus.backend,
            "identical": not _diverged(fus, sca),
            "wall_ms_fused": best * 1000.0,
        }
    return out


def compare_small_waves(cur: dict, base: dict, wall_tolerance: float) -> list:
    failures = []
    for name, entry in cur.items():
        if entry["backend"] != "fused":
            failures.append(
                f"{name}: small-wave fused run fell back to "
                f"{entry['backend']!r}"
            )
        if not entry["identical"]:
            failures.append(
                f"{name}: fused and scalar disagree on a small wave "
                "(estimate or simulated ms) — equivalence broken"
            )
        ref = base.get(name)
        if ref is None:
            failures.append(f"{name}: no small-wave baseline entry")
        elif entry["wall_ms_fused"] > ref["wall_ms_fused"] * wall_tolerance:
            failures.append(
                f"{name}: fused {entry['wall_ms_fused']:.2f}ms on a "
                f"{SMALL_WAVE_SAMPLES}-sample round exceeds "
                f"{wall_tolerance:.1f}x baseline ({ref['wall_ms_fused']:.2f}ms)"
            )
    return failures


def measure_o0() -> dict:
    """Best-of-N wall of one gpu_baseline (iteration-sync) round per case
    on both backends, timed alternately."""
    out = {}
    for name, estimator_cls, dataset, k in O0_CASES:
        workload = build_workload(dataset, k, "dense", 0)
        engines = {
            backend: GSWORDEngine(
                estimator_cls(), EngineConfig.gpu_baseline(backend=backend)
            )
            for backend in ("scalar", "fused")
        }
        for engine in engines.values():  # build kernels / compile plans
            engine.run(workload.cg, workload.order, O0_SAMPLES, rng=1)
        best = dict.fromkeys(engines, float("inf"))
        results = {}
        for _ in range(O0_REPEATS):
            for backend, engine in engines.items():
                start = time.perf_counter()
                results[backend] = engine.run(
                    workload.cg, workload.order, O0_SAMPLES, rng=SEED
                )
                _synthetic_delay()
                best[backend] = min(best[backend], time.perf_counter() - start)
        fus = results["fused"]
        out[name] = {
            "backend": fus.backend,
            "identical": not _diverged(fus, results["scalar"]),
            "wall_ms_scalar": best["scalar"] * 1000.0,
            "wall_ms_fused": best["fused"] * 1000.0,
            "speedup": best["scalar"] / best["fused"],
        }
    return out


def compare_o0(cur: dict) -> list:
    """Self-relative gates — no baseline entry needed."""
    failures = []
    for name, entry in cur.items():
        if entry["backend"] != "fused":
            failures.append(
                f"{name}: O0 run fell back to {entry['backend']!r}"
            )
        if not entry["identical"]:
            failures.append(
                f"{name}: fused and scalar disagree on an O0 round "
                "(estimate or simulated ms) — equivalence broken"
            )
        if entry["speedup"] < O0_MIN_SPEEDUP:
            failures.append(
                f"{name}: fused {entry['wall_ms_fused']:.1f}ms only "
                f"{entry['speedup']:.2f}x faster than scalar "
                f"{entry['wall_ms_scalar']:.1f}ms (gate: {O0_MIN_SPEEDUP:.2f}x)"
            )
    return failures


def dump_plan_ir(path: Path) -> None:
    """Write the fused-gate workload's compiled plan IR (a CI artifact —
    reviewers can diff what schedule actually gated the build)."""
    from repro.estimators.fused import fused_kernel_for

    workload = build_workload(FUSED_DATASET, FUSED_K, "dense", 0)
    plans = {}
    for label, estimator_cls in (
        ("wanderjoin", WanderJoinEstimator), ("alley", AlleyEstimator)
    ):
        kernel_cls = fused_kernel_for(estimator_cls())
        kernel = kernel_cls(workload.cg, workload.order)
        plans[label] = kernel.compile_plan(len(workload.order)).to_ir()
    path.write_text(
        json.dumps(
            {
                "workload": {
                    "dataset": FUSED_DATASET,
                    "k": FUSED_K,
                    "query_type": "dense",
                    "index": 0,
                },
                "plans": plans,
            },
            indent=2,
        )
        + "\n"
    )


def host_cores() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _run_sharded(shards: int):
    workload = build_workload("orkut", 6, "dense", 0)
    config = EngineConfig.gsword(
        tasks_per_warp=SHARD_TASKS_PER_WARP
    ).with_shards(shards)
    with GSWORDEngine(AlleyEstimator(), config=config) as engine:
        # Warmup spawns the worker pool and publishes the shared-memory
        # plan so the timed region measures steady-state rounds.
        engine.run(workload.cg, workload.order, SHARD_N_SAMPLES, rng=SEED)
        best_wall = float("inf")
        result = None
        for _ in range(SHARD_WALL_REPEATS):
            start = time.perf_counter()
            result = engine.run(
                workload.cg, workload.order, SHARD_N_SAMPLES, rng=SEED
            )
            _synthetic_delay()
            best_wall = min(best_wall, time.perf_counter() - start)
    return result, best_wall * 1000.0


def measure_sharding() -> dict:
    """Run the sharding workload at 1 and ``SHARD_GATE`` shards.

    Aborts outright if the sharded run is not bit-identical to the
    single-process one — that is a correctness break, not a perf
    regression.
    """
    base, base_wall = _run_sharded(1)
    sharded, shard_wall = _run_sharded(SHARD_GATE)
    if (
        sharded.estimate != base.estimate
        or sharded.n_samples != base.n_samples
        or sharded.simulated_ms() != base.simulated_ms()
    ):
        raise SystemExit(
            f"sharding: {SHARD_GATE}-shard run diverged from 1-shard "
            f"(estimate {sharded.estimate} vs {base.estimate}, simulated "
            f"{sharded.simulated_ms()} vs {base.simulated_ms()}) — "
            "equivalence broken"
        )
    return {
        "shards": SHARD_GATE,
        "n_samples": SHARD_N_SAMPLES,
        "estimate": sharded.estimate,
        "simulated_ms": sharded.simulated_ms(),
        "multidev_ms": sharded.multidev_ms(),
        "modeled_speedup": (
            sharded.simulated_ms() / sharded.multidev_ms()
            if sharded.multidev_ms() > 0 else 0.0
        ),
        "wall_ms_1shard": base_wall,
        "wall_ms_sharded": shard_wall,
        "measured_speedup": (
            base_wall / shard_wall if shard_wall > 0 else float("inf")
        ),
        "host_cores": host_cores(),
    }


def compare_sharding(cur: dict, base: dict) -> list:
    failures = []
    if not base:
        return ["sharding: no baseline section (run --update-baselines)"]
    for key in ("estimate", "simulated_ms", "multidev_ms"):
        if cur[key] != base[key]:
            failures.append(
                f"sharding: {key} {cur[key]} != baseline {base[key]} "
                "(deterministic — must match exactly)"
            )
    if cur["modeled_speedup"] < SHARD_MIN_SPEEDUP:
        failures.append(
            f"sharding: modeled speedup {cur['modeled_speedup']:.2f}x at "
            f"{cur['shards']} shards below gate {SHARD_MIN_SPEEDUP:.2f}x"
        )
    if cur["host_cores"] >= SHARD_GATE:
        if cur["measured_speedup"] < SHARD_MIN_SPEEDUP:
            failures.append(
                f"sharding: measured wall speedup "
                f"{cur['measured_speedup']:.2f}x at {cur['shards']} shards "
                f"below gate {SHARD_MIN_SPEEDUP:.2f}x "
                f"({cur['host_cores']} cores)"
            )
    return failures


def measure_tracing() -> dict:
    """Run one case traced and untraced; project the disabled-path cost.

    Aborts outright if tracing changes the estimate or the simulated
    milliseconds — observability must not perturb the experiment.
    """
    workload = build_workload("yeast", 6, "dense", 0)
    config = EngineConfig.gsword()
    best_off = float("inf")
    base = None
    for _ in range(WALL_REPEATS):
        engine = GSWORDEngine(AlleyEstimator(), config)
        start = time.perf_counter()
        base = engine.run(workload.cg, workload.order, N_SAMPLES, rng=SEED)
        _synthetic_delay()
        best_off = min(best_off, time.perf_counter() - start)
    recorder = TraceRecorder()
    traced_engine = GSWORDEngine(AlleyEstimator(), config, recorder=recorder)
    traced = traced_engine.run(
        workload.cg, workload.order, N_SAMPLES, rng=SEED
    )
    if (
        traced.estimate != base.estimate
        or traced.simulated_ms() != base.simulated_ms()
    ):
        raise SystemExit(
            f"tracing: traced run diverged from untraced (estimate "
            f"{traced.estimate} vs {base.estimate}, simulated "
            f"{traced.simulated_ms()} vs {base.simulated_ms()}) — "
            "tracing must be bit-identical"
        )
    # Disabled-path cost: every instrumentation site is one attribute
    # load + branch on the NO_TRACE singleton.  Time that guard directly
    # and project it over the number of events a traced run records
    # (every event implies at most a handful of guard hits).
    recorder_off = NO_TRACE
    hits = 0
    start = time.perf_counter()
    for _ in range(TRACE_GUARD_CALLS):
        if recorder_off.enabled:
            hits += 1
    guard_s = time.perf_counter() - start
    assert hits == 0
    per_guard_ms = guard_s * 1000.0 / TRACE_GUARD_CALLS
    projected_ms = per_guard_ms * max(1, recorder.n_events) * 4
    wall_off_ms = best_off * 1000.0

    # The always-on flight ring: enabled but untriggered, it *records*
    # every event into a bounded deque, so its real cost is the per-event
    # recording, not just the guard.  It must also be bit-identical.
    flight = FlightRecorder(capacity=512)
    flight_engine = GSWORDEngine(AlleyEstimator(), config, recorder=flight)
    flighted = flight_engine.run(
        workload.cg, workload.order, N_SAMPLES, rng=SEED
    )
    if (
        flighted.estimate != base.estimate
        or flighted.simulated_ms() != base.simulated_ms()
    ):
        raise SystemExit(
            f"flight: ring-recorded run diverged from untraced (estimate "
            f"{flighted.estimate} vs {base.estimate}, simulated "
            f"{flighted.simulated_ms()} vs {base.simulated_ms()}) — "
            "flight recording must be bit-identical"
        )
    probe = FlightRecorder(capacity=512)
    start = time.perf_counter()
    for _ in range(FLIGHT_EVENT_CALLS):
        probe.instant("flight.probe", track="engine", sim_ms=0.0)
    event_s = time.perf_counter() - start
    per_event_ms = event_s * 1000.0 / FLIGHT_EVENT_CALLS
    flight_projected_ms = per_event_ms * max(1, recorder.n_events)

    return {
        "n_events": recorder.n_events,
        "wall_ms_off": wall_off_ms,
        "guard_ns": per_guard_ms * 1e6,
        "projected_overhead_ms": projected_ms,
        "projected_overhead_pct": (
            projected_ms / wall_off_ms * 100.0 if wall_off_ms > 0 else 0.0
        ),
        "flight_event_ns": per_event_ms * 1e6,
        "flight_projected_overhead_ms": flight_projected_ms,
        "flight_projected_overhead_pct": (
            flight_projected_ms / wall_off_ms * 100.0
            if wall_off_ms > 0 else 0.0
        ),
    }


def compare_tracing(cur: dict) -> list:
    """Self-relative gates — no baseline entry needed."""
    failures = []
    if cur["projected_overhead_pct"] >= TRACE_OVERHEAD_PCT:
        failures.append(
            f"tracing: projected disabled-path overhead "
            f"{cur['projected_overhead_pct']:.3f}% of untraced wall "
            f"({cur['projected_overhead_ms']:.4f}ms over "
            f"{cur['wall_ms_off']:.1f}ms) exceeds gate "
            f"{TRACE_OVERHEAD_PCT:.1f}%"
        )
    if cur.get("flight_projected_overhead_pct", 0.0) >= TRACE_OVERHEAD_PCT:
        failures.append(
            f"flight: projected always-on ring overhead "
            f"{cur['flight_projected_overhead_pct']:.3f}% of untraced "
            f"wall ({cur['flight_projected_overhead_ms']:.4f}ms over "
            f"{cur['wall_ms_off']:.1f}ms) exceeds gate "
            f"{TRACE_OVERHEAD_PCT:.1f}%"
        )
    return failures


def candidate_graph_digest(cg) -> str:
    """SHA-256 over every candidate-graph array: dtype, shape and bytes."""
    digest = hashlib.sha256()
    arrays = (
        cg.q_offsets, cg.q_targets, cg.ecand_offsets, cg.ecand_vertices,
        cg.local_offsets, cg.local_vertices, *cg.global_candidates,
    )
    for array in arrays:
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def measure_candidate_build() -> dict:
    """Best-of-N ``build_candidate_graph`` wall time per fixed query."""
    out = {}
    for name, dataset, k in BUILD_CASES:
        workload = build_workload(dataset, k, "dense", 0)
        build_candidate_graph(workload.graph, workload.query)  # warm caches
        best_wall = float("inf")
        for _ in range(BUILD_WALL_REPEATS):
            start = time.perf_counter()
            cg = build_candidate_graph(workload.graph, workload.query)
            _synthetic_delay()
            best_wall = min(best_wall, time.perf_counter() - start)
        out[name] = {
            "dataset": dataset,
            "k": k,
            "local_entries": cg.total_local_entries(),
            "digest": candidate_graph_digest(cg),
            "wall_ms": best_wall * 1000.0,
        }
    return out


def compare_candidate_build(
    cur: dict, base: dict, wall_tolerance: float
) -> list:
    failures = []
    for name, entry in cur.items():
        ref = base.get(name)
        if ref is None:
            failures.append(
                f"{name}: no baseline entry "
                "(run --update-candidate-build-baselines)"
            )
            continue
        if entry["digest"] != ref["digest"]:
            failures.append(
                f"{name}: candidate-graph digest {entry['digest'][:16]} != "
                f"baseline {ref['digest'][:16]} (deterministic — must match "
                "exactly)"
            )
        if entry["wall_ms"] > ref["wall_ms"] * wall_tolerance:
            failures.append(
                f"{name}: build wall {entry['wall_ms']:.1f}ms exceeds "
                f"{wall_tolerance:.1f}x baseline ({ref['wall_ms']:.1f}ms)"
            )
    return failures


def _print_candidate_build(build: dict) -> None:
    for name, entry in build.items():
        print(
            f"{name:<20} wall={entry['wall_ms']:.1f}ms "
            f"local={entry['local_entries']} "
            f"digest={entry['digest'][:16]}"
        )


def compare(current: dict, baseline: dict, wall_tolerance: float,
            min_speedup: float) -> list:
    failures = []
    base_entries = baseline.get("entries", {})
    for name, cur in current["entries"].items():
        base = base_entries.get(name)
        if base is None:
            failures.append(f"{name}: no baseline entry (run --update-baselines)")
            continue
        if cur["estimate"] != base["estimate"]:
            failures.append(
                f"{name}: estimate {cur['estimate']} != baseline "
                f"{base['estimate']} (deterministic — must match exactly)"
            )
        if cur["simulated_ms"] != base["simulated_ms"]:
            failures.append(
                f"{name}: simulated_ms {cur['simulated_ms']} != baseline "
                f"{base['simulated_ms']} (deterministic — must match exactly)"
            )
        if cur["wall_ms_fused"] > base["wall_ms_fused"] * wall_tolerance:
            failures.append(
                f"{name}: fused wall {cur['wall_ms_fused']:.1f}ms exceeds "
                f"{wall_tolerance:.1f}x baseline ({base['wall_ms_fused']:.1f}ms)"
            )
        if cur["speedup"] < min_speedup:
            failures.append(
                f"{name}: fused only {cur['speedup']:.2f}x faster than "
                f"scalar (gate: {min_speedup:.2f}x)"
            )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--update-baselines", action="store_true",
        help="write current measurements to benchmarks/baselines.json",
    )
    parser.add_argument(
        "--update-candidate-build-baselines", action="store_true",
        help="merge ONLY the candidate-build section into "
        "benchmarks/baselines.json, leaving every other entry untouched",
    )
    parser.add_argument(
        "--wall-tolerance", type=float, default=4.0,
        help="max allowed wall-clock ratio vs baseline (default 4.0)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=1.5,
        help="min fused-over-scalar wall speedup per case (default 1.5)",
    )
    parser.add_argument(
        "--min-fused-speedup", type=float, default=4.5,
        help="min fused-over-scalar wall speedup on the saturating "
        "Alley gate workload (default 4.5)",
    )
    parser.add_argument(
        "--plan-out", type=Path, default=None,
        help="also dump the fused-gate workload's compiled plan IR to "
        "this JSON file (uploaded as a CI artifact)",
    )
    args = parser.parse_args(argv)

    if args.update_candidate_build_baselines:
        if not BASELINE_PATH.is_file():
            print("no baselines.json — run with --update-baselines first")
            return 1
        build = measure_candidate_build()
        _print_candidate_build(build)
        baseline = json.loads(BASELINE_PATH.read_text())
        baseline["candidate_build"] = build
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"candidate-build baselines merged into {BASELINE_PATH}")
        return 0

    current = measure()
    for name, entry in current["entries"].items():
        print(
            f"{name:<20} est={entry['estimate']:<12.4f} "
            f"sim={entry['simulated_ms']:.3f}ms "
            f"wall={entry['wall_ms_fused']:.1f}ms "
            f"speedup={entry['speedup']:.2f}x "
            f"({entry['lane_steps_per_sec']:.0f} lane-steps/s)"
        )
    fused = measure_fused()
    current["fused"] = fused
    print(
        f"{'fused_gate':<20} "
        f"alley={fused['fused_speedup_alley']:.2f}x "
        f"wj={fused['fused_speedup_wj']:.2f}x "
        f"(scalar {fused['wall_ms_scalar_alley']:.0f}/"
        f"{fused['wall_ms_scalar_wj']:.0f}ms, fused "
        f"{fused['wall_ms_fused_alley']:.0f}/"
        f"{fused['wall_ms_fused_wj']:.0f}ms)"
    )
    small_waves = measure_small_waves()
    current["small_waves"] = small_waves
    for name, entry in small_waves.items():
        print(
            f"{name:<20} small wave: fused {entry['wall_ms_fused']:.2f}ms "
            f"backend={entry['backend']} identical={entry['identical']}"
        )
    o0 = measure_o0()
    for name, entry in o0.items():
        print(
            f"{name:<20} O0: fused {entry['wall_ms_fused']:.1f}ms vs scalar "
            f"{entry['wall_ms_scalar']:.1f}ms = {entry['speedup']:.2f}x "
            f"(gate >= {O0_MIN_SPEEDUP:.2f}x) backend={entry['backend']} "
            f"identical={entry['identical']}"
        )
    if args.plan_out is not None:
        dump_plan_ir(args.plan_out)
        print(f"fused plan IR written to {args.plan_out}")
    sharding = measure_sharding()
    current["sharding"] = sharding
    measured_note = (
        f"measured={sharding['measured_speedup']:.2f}x"
        if sharding["host_cores"] >= SHARD_GATE
        else f"measured not enforceable on {sharding['host_cores']} cores"
    )
    print(
        f"{'sharding_' + str(SHARD_GATE) + 'w':<20} "
        f"est={sharding['estimate']:<12.4f} "
        f"multidev={sharding['multidev_ms']:.3f}ms "
        f"modeled={sharding['modeled_speedup']:.2f}x {measured_note}"
    )
    tracing = measure_tracing()
    print(
        f"{'tracing':<20} events={tracing['n_events']:<4} "
        f"guard={tracing['guard_ns']:.0f}ns "
        f"projected_overhead={tracing['projected_overhead_pct']:.4f}% "
        f"(gate <{TRACE_OVERHEAD_PCT:.0f}%)"
    )
    print(
        f"{'flight':<20} event={tracing['flight_event_ns']:.0f}ns "
        f"projected_overhead="
        f"{tracing['flight_projected_overhead_pct']:.4f}% "
        f"(gate <{TRACE_OVERHEAD_PCT:.0f}%)"
    )
    build = measure_candidate_build()
    current["candidate_build"] = build
    _print_candidate_build(build)

    if args.update_baselines:
        BASELINE_PATH.write_text(json.dumps(current, indent=2) + "\n")
        print(f"baselines written to {BASELINE_PATH}")
        return 0

    if not BASELINE_PATH.is_file():
        print("no baselines.json — run with --update-baselines first")
        return 1
    baseline = json.loads(BASELINE_PATH.read_text())
    failures = compare(
        current, baseline, args.wall_tolerance, args.min_speedup
    )
    failures += compare_fused(
        fused, baseline.get("fused", {}), args.min_fused_speedup
    )
    failures += compare_small_waves(
        small_waves, baseline.get("small_waves", {}), args.wall_tolerance
    )
    failures += compare_o0(o0)
    failures += compare_sharding(sharding, baseline.get("sharding", {}))
    failures += compare_tracing(tracing)
    failures += compare_candidate_build(
        build, baseline.get("candidate_build", {}), args.wall_tolerance
    )
    if failures:
        print("\nPERF SMOKE FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print("\nperf smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
