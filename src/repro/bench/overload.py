"""Open-loop overload soak benchmark (the ``repro soak-bench`` harness).

The serving benchmark (:mod:`repro.bench.serving`) is *closed-loop*: a
wave of clients waits for its responses before the next wave arrives, so
the queue can never outrun the device.  Real traffic is open-loop —
arrivals keep coming regardless of backlog — and under sustained
overload (arrival rate > service rate) an unbounded queue turns every
latency unbounded.  This harness drives :class:`EstimationService`
through exactly that regime and measures what the admission layer
(:mod:`repro.serve.admission`) buys:

1. **Calibrate** — a closed-loop run measures the device's sustainable
   per-request service time, so the overload factor is relative to
   *measured* capacity, not a guess.
2. **Soak** — a seeded :class:`~repro.faults.ArrivalPlan` (OVERLOAD
   mode: Poisson base rate with periodic burst storms) schedules
   arrivals at ``overload_factor`` × capacity across three tenants (one
   "hot" tenant sends ~70% of traffic).  The same arrivals drive two
   configurations:

   * **shed** — bounded queue + per-tenant quotas + deadline-infeasibility
     shedding + deadline propagation (the overload stack on);
   * **baseline** — the legacy unbounded front door (admission ``None``).

3. **Gate** — zero stranded tickets in both configurations, every shed
   carries a positive ``retry_after_ms``, the *admitted* p99 stays
   bounded under the shed config, and goodput (deadline-met completions
   per simulated second) with shedding is at least the no-shedding
   baseline's.  The shed configuration also runs the default SLO set
   (:mod:`repro.obs.slo`): the overload storm must *fire* a burn-rate
   alert and the post-storm drain must *clear* it — both at exact,
   seed-reproducible simulated instants.

Everything is simulated-clock deterministic: the arrival schedule, the
tenant assignment and the per-round RNG streams all key off seeds, so shed counts replay bit-identically and the shed *rate*
can be pinned as a band in ``benchmarks/baselines.json`` (the
``soak-smoke`` CI job).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, Overloaded
from repro.faults import OVERLOAD, ArrivalPlan
from repro.obs.registry import quantile
from repro.obs.slo import default_slo_policy
from repro.serve.admission import AdmissionPolicy, TenantQuota
from repro.serve.request import EstimateRequest
from repro.serve.service import EstimationService, ServiceConfig, Ticket
from repro.utils.rng import derive_seed

from repro.bench.serving import build_request_pool

OVERLOAD_ROOT_SEED = 20250806

#: Tenant mix: one hot tenant dominating traffic, two background tenants.
TENANTS: Tuple[str, ...] = ("hot", "beta", "gamma")
TENANT_SHARES: Tuple[float, ...] = (0.70, 0.15, 0.15)

#: Per-request deadline, in multiples of the calibrated service time.
DEADLINE_FACTOR = 30.0

#: Admitted-p99 bound, in multiples of the request deadline (gate 3).
P99_DEADLINE_SLACK = 3.0

#: SLO burn-rate windows, in multiples of the calibrated service time —
#: like the burst windows, sized so the alert dynamics are invariant to
#: how fast the calibrated device happens to be.
SLO_SHORT_WINDOW_FACTOR = 10.0
SLO_LONG_WINDOW_FACTOR = 40.0

#: Device co-residency cap for the soak.  Co-resident rounds share the
#: device nearly for free in the cost model, so an unbounded batch width
#: would let throughput grow with queue depth and no arrival rate could
#: genuinely overload the baseline; capping the batch fixes the service
#: rate the overload factor is measured against.
MAX_BATCH_REQUESTS = 8


def build_soak_pool(
    distinct: int = 6,
    seed: int = OVERLOAD_ROOT_SEED,
) -> List[EstimateRequest]:
    """Small-query pool for the soak: the load comes from arrival *rate*,
    not per-request weight, so requests are deliberately light."""
    return build_request_pool(
        datasets=("yeast",),
        sizes=(4,),
        distinct=distinct,
        target_rel_ci=0.30,
        max_samples=2048,
        seed=seed,
    )


def calibrate_capacity(
    pool: Sequence[EstimateRequest], n_requests: int = 24
) -> Dict[str, float]:
    """Closed-loop capacity probe: sustainable simulated ms per request.

    Runs ``n_requests`` through a plain (no admission) service in one
    batched wave and divides total device time by completions — the
    service rate the overload factor is expressed against.  The batch cap
    matches the soak configs, so calibration measures the same saturated
    regime the arrivals will drive.
    """
    service = EstimationService(
        ServiceConfig(max_batch_requests=MAX_BATCH_REQUESTS)
    )
    try:
        requests = [
            _fresh_request(pool[i % len(pool)], tenant="default")
            for i in range(n_requests)
        ]
        service.estimate_many(requests)
        snap = service.metrics_snapshot()
    finally:
        service.close()
    n_completed = max(1, int(snap["n_completed"]))
    ms_per_request = float(snap["clock_ms"]) / n_completed
    return {
        "n_requests": float(n_requests),
        "clock_ms": float(snap["clock_ms"]),
        "ms_per_request": ms_per_request,
        "capacity_per_s": 1000.0 / ms_per_request if ms_per_request > 0 else 0.0,
    }


def assign_tenants(n: int, seed: int = OVERLOAD_ROOT_SEED) -> List[str]:
    """Deterministic per-arrival tenant assignment (~:data:`TENANT_SHARES`).

    Draw ``i`` keys on ``(seed, "tenant", i)`` so the assignment, like the
    arrival plan, is a pure function of the seed — prefix-stable when the
    soak is run at a different length.
    """
    cuts = np.cumsum(TENANT_SHARES)
    out: List[str] = []
    for i in range(n):
        u = np.random.default_rng(derive_seed(seed, "tenant", i)).random()
        out.append(TENANTS[int(np.searchsorted(cuts, u))])
    return out


def default_admission_policy(
    capacity_per_s: float, max_pending: int = 48
) -> AdmissionPolicy:
    """The soak's overload stack: bounded queue, a rate quota that caps the
    hot tenant near half the device, and WFQ weight favouring ``beta``."""
    return AdmissionPolicy(
        max_pending=max_pending,
        quotas={
            # The hot tenant sends ~1.4x capacity on its own; capping it at
            # ~55% of the device leaves room for the background tenants.
            "hot": TenantQuota(
                rate_per_s=0.55 * capacity_per_s, burst=12.0, weight=1.0
            ),
            "beta": TenantQuota(weight=2.0),
        },
        shed_on_deadline=True,
    )


def _fresh_request(
    template: EstimateRequest,
    tenant: str,
    deadline_ms: Optional[float] = None,
) -> EstimateRequest:
    """A new request record off a pool template (ids/tickets never alias)."""
    return EstimateRequest(
        graph=template.graph,
        query=template.query,
        target_rel_ci=template.target_rel_ci,
        deadline_ms=deadline_ms,
        max_samples=template.max_samples,
        estimator=template.estimator,
        tenant=tenant,
    )


def run_open_loop(
    config: ServiceConfig,
    pool: Sequence[EstimateRequest],
    arrival_times: Sequence[float],
    tenants: Sequence[str],
    deadline_ms: float,
) -> Dict[str, object]:
    """Drive one service config through an open-loop arrival schedule.

    Between arrivals the device processes whatever is queued until the
    simulated clock catches up with the next arrival timestamp (then
    :meth:`~EstimationService.advance_clock` models any idle gap); each
    arrival is submitted without waiting for earlier responses.  After
    the last arrival the queue drains fully, so every admitted ticket
    reaches a terminal state before accounting starts.
    """
    service = EstimationService(config)
    admitted: List[Tuple[int, str, Ticket]] = []
    sheds: List[Dict[str, object]] = []
    try:
        for i, t_arrival in enumerate(arrival_times):
            while service.clock_ms < t_arrival and service.queue_depth() > 0:
                if not service.process_once():
                    break
            service.advance_clock(t_arrival)
            request = _fresh_request(
                pool[i % len(pool)], tenant=tenants[i], deadline_ms=deadline_ms
            )
            try:
                admitted.append((i, tenants[i], service.submit(request)))
            except Overloaded as shed:
                sheds.append({
                    "arrival": i,
                    "tenant": tenants[i],
                    "reason": shed.reason,
                    "retry_after_ms": shed.retry_after_ms,
                })
        service.drain()
        snap = service.metrics_snapshot()
        slo_snap = None
        slo_exposition: Optional[str] = None
        if config.slo is not None and service.slo is not None:
            # Post-storm idle padding: advance the clock one long window
            # past the last event so the burn windows empty and any
            # active alert clears — deterministically, because the
            # padding instant is a pure function of the drain clock.
            service.advance_clock(
                service.clock_ms + config.slo.long_window_ms + 1.0
            )
            slo_snap = service.slo.snapshot(service.clock_ms)
            slo_exposition = service.slo.to_registry(
                service.clock_ms
            ).prometheus_text()
    finally:
        service.close()

    stranded = sum(1 for _, _, ticket in admitted if not ticket.done())
    latencies: List[float] = []
    deadline_met = 0
    n_failed = 0
    by_tenant: Dict[str, Dict[str, int]] = {
        name: {"arrivals": 0, "admitted": 0, "shed": 0, "deadline_met": 0}
        for name in TENANTS
    }
    for name in tenants:
        by_tenant[name]["arrivals"] += 1
    for shed in sheds:
        by_tenant[str(shed["tenant"])]["shed"] += 1
    for _, tenant, ticket in admitted:
        by_tenant[tenant]["admitted"] += 1
        if not ticket.done():
            continue
        try:
            response = ticket.result(timeout=0)
        except Exception:  # noqa: BLE001 - failed tickets are counted, not raised
            n_failed += 1
            continue
        latencies.append(response.latency_ms)
        if response.latency_ms <= deadline_ms:
            deadline_met += 1
            by_tenant[tenant]["deadline_met"] += 1

    clock_ms = float(snap["clock_ms"])
    n_arrivals = len(arrival_times)
    return {
        "admission_enabled": config.admission is not None,
        "n_arrivals": n_arrivals,
        "n_admitted": len(admitted),
        "n_shed": len(sheds),
        "shed_rate": len(sheds) / n_arrivals if n_arrivals else 0.0,
        "shed_by_reason": dict(snap["admission"]["shed_by_reason"]),
        "min_retry_after_ms": (
            min(float(s["retry_after_ms"]) for s in sheds) if sheds else None
        ),
        "n_completed": len(latencies),
        "n_failed": n_failed,
        "n_stranded": stranded,
        "deadline_met": deadline_met,
        "deadline_ms": deadline_ms,
        "clock_ms": clock_ms,
        "goodput_per_s": (
            deadline_met / clock_ms * 1000.0 if clock_ms > 0 else 0.0
        ),
        "p50_admitted_ms": quantile(latencies, 0.5),
        "p99_admitted_ms": quantile(latencies, 0.99),
        "max_admitted_ms": max(latencies) if latencies else 0.0,
        "by_tenant": by_tenant,
        "n_degraded": snap["n_degraded"],
        "ewma_request_ms": snap["admission_state"].get("ewma_request_ms"),
        "slo": slo_snap,
        "slo_exposition": slo_exposition,
    }


def run_overload_comparison(
    n_requests: int,
    overload_factor: float = 2.0,
    seed: int = OVERLOAD_ROOT_SEED,
    max_pending: int = 48,
) -> Dict[str, object]:
    """Soak phase: identical arrivals through the shed and baseline configs."""
    pool = build_soak_pool(seed=seed)
    calibration = calibrate_capacity(pool)
    ms_per_request = calibration["ms_per_request"]
    deadline_ms = DEADLINE_FACTOR * ms_per_request
    # Burst windows are sized in service-time units so the storm shape is
    # invariant to how fast the calibrated device happens to be.
    plan = ArrivalPlan(
        seed=derive_seed(seed, "arrivals"),
        rate_per_ms=overload_factor / ms_per_request,
        mode=OVERLOAD,
        burst_factor=3.0,
        burst_every_ms=40.0 * ms_per_request,
        burst_duration_ms=10.0 * ms_per_request,
    )
    arrival_times = plan.times(n_requests)
    tenants = assign_tenants(n_requests, seed=seed)

    shed_config = ServiceConfig(
        max_batch_requests=MAX_BATCH_REQUESTS,
        admission=default_admission_policy(
            calibration["capacity_per_s"], max_pending=max_pending
        ),
        propagate_deadline=True,
        slo=default_slo_policy(
            latency_threshold_ms=deadline_ms,
            short_window_ms=SLO_SHORT_WINDOW_FACTOR * ms_per_request,
            long_window_ms=SLO_LONG_WINDOW_FACTOR * ms_per_request,
        ),
    )
    baseline_config = ServiceConfig(max_batch_requests=MAX_BATCH_REQUESTS)
    shed = run_open_loop(shed_config, pool, arrival_times, tenants, deadline_ms)
    baseline = run_open_loop(
        baseline_config, pool, arrival_times, tenants, deadline_ms
    )
    return {
        "overload_factor": overload_factor,
        "expected_rate_per_ms": plan.expected_rate_per_ms(),
        "calibration": calibration,
        "deadline_ms": deadline_ms,
        "shed": shed,
        "baseline": baseline,
    }


def _slo_state_reached(run: Dict[str, object], state: str) -> bool:
    """Did the run's SLO alert log record at least one ``state`` entry?"""
    slo = run.get("slo") or {}
    return any(
        entry.get("state") == state for entry in slo.get("alert_log", [])
    )


def evaluate_gates(payload: Dict[str, object]) -> Dict[str, object]:
    """The soak's acceptance gates (shared by the bench script and CI)."""
    soak = payload["soak"]
    shed = soak["shed"]
    baseline = soak["baseline"]
    p99_bound_ms = P99_DEADLINE_SLACK * float(soak["deadline_ms"])
    gates = {
        "zero_stranded": (
            shed["n_stranded"] == 0 and baseline["n_stranded"] == 0
        ),
        "sheds_carry_retry_after": (
            shed["n_shed"] > 0 and float(shed["min_retry_after_ms"]) > 0.0
        ),
        "admitted_p99_bounded": (
            float(shed["p99_admitted_ms"]) <= p99_bound_ms
        ),
        "goodput_not_worse_than_baseline": (
            float(shed["goodput_per_s"]) >= float(baseline["goodput_per_s"])
        ),
        "slo_alert_fired": _slo_state_reached(shed, "fire"),
        "slo_alert_cleared": _slo_state_reached(shed, "clear"),
    }
    gates["p99_bound_ms"] = p99_bound_ms
    gates["passed"] = all(
        value for key, value in gates.items() if isinstance(value, bool)
    )
    return gates


def run_overload_soak(
    n_requests: int = 2000,
    overload_factor: float = 2.0,
    seed: int = OVERLOAD_ROOT_SEED,
    quick: bool = False,
) -> Dict[str, object]:
    """The full soak: overload comparison + gate verdicts."""
    if n_requests < 1:
        raise ConfigError("the soak needs at least one arrival")
    if overload_factor <= 0:
        raise ConfigError("overload_factor must be positive")
    if quick:
        n_requests = min(n_requests, 400)
    payload: Dict[str, object] = {
        "seed": seed,
        "quick": quick,
        "n_requests": n_requests,
        "soak": run_overload_comparison(
            n_requests, overload_factor=overload_factor, seed=seed
        ),
    }
    payload["acceptance"] = evaluate_gates(payload)
    return payload


__all__ = [
    "OVERLOAD_ROOT_SEED",
    "SLO_SHORT_WINDOW_FACTOR",
    "SLO_LONG_WINDOW_FACTOR",
    "TENANTS",
    "TENANT_SHARES",
    "build_soak_pool",
    "calibrate_capacity",
    "assign_tenants",
    "default_admission_policy",
    "run_open_loop",
    "run_overload_comparison",
    "evaluate_gates",
    "run_overload_soak",
]
