"""Chaos resilience benchmark: the service under deterministic fault storms.

Drives the full serving stack — retries, watchdog, circuit breaker, CPU
fallback — against seeded :class:`~repro.faults.plan.FaultPlan` schedules
at increasing launch-fault rates and verifies the resilience contract:

* **zero stranded tickets** — every submitted request's ticket completes
  (answered or failed), nothing blocks forever;
* **100% answered** — with the CPU fallback enabled every request gets an
  estimate (possibly ``degraded=True``), none error out;
* **bounded accuracy loss** — the mean q-error against a high-budget
  fault-free reference stays within 2× of the fault-free service run's
  mean q-error (retried rounds are fresh i.i.d. draws, so faults cost
  time, not bias — see ``EngineSession``'s checkpoint semantics);
* **replayable postmortems** — the always-on flight recorder
  (:mod:`repro.obs.flight`) must capture at least one trigger bundle
  from the faulted runs, and replaying it must reproduce the captured
  round's estimate and simulated ms bit-identically.

Everything is seeded and runs on simulated time, so a failing acceptance
check reproduces exactly.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.faults import FaultKind, FaultPlan
from repro.metrics.qerror import q_error
from repro.obs.flight import replay_bundle
from repro.serve.cache import build_plan
from repro.serve.controller import BudgetPolicy
from repro.serve.request import EstimateRequest, resolve_estimator
from repro.serve.service import EstimationService, ServiceConfig
from repro.bench.serving import build_request_pool, request_stream
from repro.utils.rng import derive_seed

CHAOS_SEED = 20250806
#: Fault rates the default sweep visits (0.0 = the fault-free control run).
DEFAULT_FAULT_RATES = (0.0, 0.10, 0.25)
#: Generous device budget: real candidate graphs always fit, so only the
#: injected OOM pressure (which dwarfs any budget) trips admission.
MEMORY_BUDGET_BYTES = 8 << 30


def reference_estimates(
    pool: Sequence[EstimateRequest],
    n_samples: int = 16_384,
    seed: int = CHAOS_SEED,
) -> List[float]:
    """High-budget fault-free estimates per pool template (the q-error
    reference — exact counts are unavailable at bench scale, and a large
    fixed-budget run is the usual stand-in)."""
    estimates: List[float] = []
    for i, request in enumerate(pool):
        plan = build_plan(request.graph, request.query)
        if plan.cg.is_empty():
            estimates.append(0.0)
            continue
        engine = GSWORDEngine(
            resolve_estimator(request.estimator), EngineConfig.gsword()
        )
        result = engine.run(
            plan.cg, plan.order, n_samples,
            rng=derive_seed(seed, "chaos-reference", i),
        )
        estimates.append(result.estimate)
    return estimates


def run_chaos_run(
    fault_rate: float,
    pool: Sequence[EstimateRequest],
    reference: Sequence[float],
    n_requests: int = 48,
    clients: int = 8,
    seed: int = CHAOS_SEED,
    watchdog_ms: float = 5.0,
    policy: Optional[BudgetPolicy] = None,
) -> Dict[str, object]:
    """One service run at ``fault_rate``; returns a flat result record.

    Tickets are collected individually (not via ``estimate_many``) so a
    failed or stranded ticket is *counted*, never allowed to abort the
    bench — the whole point is measuring how many there are."""
    config = ServiceConfig(
        policy=policy or BudgetPolicy(min_round_samples=256,
                                      max_round_samples=4096),
        faults=(
            FaultPlan.uniform(seed=derive_seed(seed, "plan", fault_rate),
                              rate=fault_rate)
            if fault_rate > 0 else None
        ),
        memory_budget_bytes=MEMORY_BUDGET_BYTES,
        watchdog_ms=watchdog_ms,
        cpu_fallback=True,
    )
    service = EstimationService(config)
    stream = request_stream(pool, n_requests)
    tickets = []
    wave = max(1, clients)
    for start in range(0, len(stream), wave):
        batch = stream[start:start + wave]
        wave_tickets = [service.submit(request) for request in batch]
        service.drain()
        tickets.extend(wave_tickets)

    n_failed = 0
    n_stranded = 0
    q_errors: List[float] = []
    n_degraded = 0
    n_fallback_answers = 0
    for i, ticket in enumerate(tickets):
        if not ticket.done():
            n_stranded += 1
            continue
        try:
            response = ticket.result(timeout=0)
        except Exception:  # noqa: BLE001 - failures are a measured outcome
            n_failed += 1
            continue
        q_errors.append(q_error(reference[i % len(pool)], response.estimate))
        n_degraded += int(response.degraded)
        n_fallback_answers += int(bool(response.extras.get("fallback")))

    snap = service.metrics_snapshot()
    bundles = service.flight_bundles()
    n_answered = len(q_errors)
    return {
        "fault_rate": fault_rate,
        "n_requests": len(tickets),
        "n_answered": n_answered,
        "n_failed": n_failed,
        "n_stranded": n_stranded,
        "answered_pct": 100.0 * n_answered / len(tickets) if tickets else 0.0,
        "n_degraded": n_degraded,
        "n_fallback_answers": n_fallback_answers,
        "mean_q_error": (
            sum(q_errors) / len(q_errors) if q_errors else float("inf")
        ),
        "max_q_error": max(q_errors) if q_errors else float("inf"),
        "p95_latency_ms": snap["latency_ms"]["p95"],
        "clock_ms": snap["clock_ms"],
        "resilience": snap["resilience"],
        "breakers": snap["breakers"],
        "faults_injected": snap["faults_injected"],
        "flight": snap.get("flight", {}),
        # Newest postmortem bundle this run triggered (None on a healthy
        # run) — the acceptance replay cross-check consumes it.
        "flight_bundle": bundles[-1] if bundles else None,
    }


def run_postmortem_capture(
    pool: Sequence[EstimateRequest],
    seed: int = CHAOS_SEED,
    n_requests: int = 8,
    stall_rate: float = 0.5,
    watchdog_ms: float = 0.05,
) -> Dict[str, object]:
    """Deterministic trigger storm for the postmortem-replay gate.

    The resilience sweep's retries are *supposed* to absorb most faults,
    so at CI scale it may finish without a single post-retry failure —
    and therefore without a flight trigger.  This phase removes the
    safety nets on purpose: retries off, a watchdog ceiling far below a
    64x-stalled launch, and a heavy stall rate, so the watchdog
    deterministically kills launches, the breaker trips, and the flight
    monitor snapshots bundles (``kernel_timeout`` / ``breaker_open``).
    The CPU fallback still answers every request — the storm breaks
    rounds, not the contract."""
    config = ServiceConfig(
        policy=BudgetPolicy(min_round_samples=256, max_round_samples=4096),
        faults=FaultPlan(
            seed=derive_seed(seed, "postmortem"),
            rates={FaultKind.STALL: stall_rate},
            stall_factor=64.0,
        ),
        memory_budget_bytes=MEMORY_BUDGET_BYTES,
        watchdog_ms=watchdog_ms,
        retry=False,
        cpu_fallback=True,
    )
    service = EstimationService(config)
    stream = request_stream(pool, n_requests)
    n_answered = 0
    for request in stream:
        try:
            service.estimate(request)
            n_answered += 1
        except Exception:  # noqa: BLE001 - the storm may fail requests
            pass
    snap = service.metrics_snapshot()
    bundles = service.flight_bundles()
    return {
        "n_requests": len(stream),
        "n_answered": n_answered,
        "stall_rate": stall_rate,
        "watchdog_ms": watchdog_ms,
        "flight": snap.get("flight", {}),
        "bundle": bundles[-1] if bundles else None,
    }


def run_chaos_benchmark(
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    n_requests: int = 48,
    clients: int = 8,
    distinct: int = 6,
    seed: int = CHAOS_SEED,
    watchdog_ms: float = 5.0,
) -> Dict[str, object]:
    """The full sweep plus the acceptance verdict.

    The acceptance gate evaluates the first swept rate ≥ 0.10 against the
    rate-0 control: zero stranded tickets, every request answered, and
    mean q-error within 2× of the control's.
    """
    if 0.0 not in fault_rates:
        fault_rates = (0.0,) + tuple(fault_rates)
    pool = build_request_pool(
        distinct=distinct, target_rel_ci=0.2, max_samples=8192, seed=seed
    )
    reference = reference_estimates(pool, seed=seed)
    runs = [
        run_chaos_run(
            rate, pool, reference, n_requests=n_requests, clients=clients,
            seed=seed, watchdog_ms=watchdog_ms,
        )
        for rate in fault_rates
    ]

    control = next(r for r in runs if r["fault_rate"] == 0.0)
    chaos = next((r for r in runs if r["fault_rate"] >= 0.10), None)
    # The newest bundle any faulted sweep run triggered (highest rate
    # wins); the dedicated postmortem storm guarantees one otherwise.
    postmortem = run_postmortem_capture(pool, seed=seed)
    bundle = next(
        (
            r["flight_bundle"]
            for r in sorted(runs, key=lambda r: -float(r["fault_rate"]))
            if r["fault_rate"] > 0 and r.get("flight_bundle") is not None
        ),
        None,
    ) or postmortem["bundle"]
    replay_report: Optional[Dict[str, object]] = None
    if bundle is not None:
        replay_report = replay_bundle(bundle)
    acceptance: Dict[str, object] = {"evaluated_rate": None, "passed": False}
    if chaos is not None:
        checks = {
            "zero_stranded": chaos["n_stranded"] == 0,
            "all_answered": chaos["n_answered"] == chaos["n_requests"],
            "q_error_within_2x": (
                chaos["mean_q_error"] <= 2.0 * control["mean_q_error"]
            ),
            "flight_bundle_captured": bundle is not None,
            "flight_replay_bit_identical": bool(
                replay_report is not None and replay_report["match"]
            ),
        }
        acceptance = {
            "evaluated_rate": chaos["fault_rate"],
            "control_mean_q_error": control["mean_q_error"],
            "chaos_mean_q_error": chaos["mean_q_error"],
            **checks,
            "passed": all(checks.values()),
        }
    return {
        "postmortem": {k: v for k, v in postmortem.items() if k != "bundle"},
        "flight_bundle": bundle,
        "flight_replay": replay_report,
        "seed": seed,
        "n_requests": n_requests,
        "clients": clients,
        "distinct": distinct,
        "watchdog_ms": watchdog_ms,
        "fault_rates": list(fault_rates),
        "runs": runs,
        "acceptance": acceptance,
    }
