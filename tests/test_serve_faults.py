"""Service-level resilience: fault survival, fallback, breaker, worker
crash recovery, and the stranded-ticket guarantee."""

import time

import pytest

from repro.errors import DeviceFault, ServiceError, ServiceTimeout
from repro.faults import FaultKind, FaultPlan
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.serve import EstimateRequest, EstimationService, ServiceConfig
from repro.serve.breaker import COOLDOWN_MS, FAILURE_THRESHOLD
from repro.serve.controller import REASON_FALLBACK, BudgetPolicy
from repro.utils.rng import derive_seed

FAST_POLICY = BudgetPolicy(min_round_samples=128, max_round_samples=1024)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("yeast")


@pytest.fixture(scope="module")
def make_requests(graph):
    def build(n, max_samples=4096, target_rel_ci=0.3):
        return [
            EstimateRequest(
                graph=graph,
                query=extract_query(
                    graph, 4, rng=derive_seed(9, i % 4), name=f"sf-q{i % 4}"
                ),
                target_rel_ci=target_rel_ci,
                max_samples=max_samples,
                request_id=f"sf-{i}",
            )
            for i in range(n)
        ]

    return build


def make_service(**overrides):
    overrides.setdefault("policy", FAST_POLICY)
    return EstimationService(ServiceConfig(**overrides))


class TestFaultSurvival:
    def test_all_answered_under_faults(self, make_requests):
        service = make_service(
            faults=FaultPlan.uniform(seed=7, rate=0.25),
            watchdog_ms=5.0,
            memory_budget_bytes=8 << 30,
        )
        responses = service.estimate_many(make_requests(12))
        assert len(responses) == 12
        assert all(r.estimate >= 0 for r in responses)
        snap = service.metrics_snapshot()
        assert snap["n_failed"] == 0
        assert snap["queue_depth"] == 0  # nothing stranded

    def test_fault_metrics_recorded(self, make_requests):
        service = make_service(
            faults=FaultPlan.from_rates(seed=3, corruption=0.5),
        )
        service.estimate_many(make_requests(8))
        res = service.metrics_snapshot()["resilience"]
        assert res["n_faults"] > 0
        assert res["n_retries"] > 0
        assert res["faults_by_kind"].get("corruption", 0) > 0
        assert sum(res["faults_by_kind"].values()) == res["n_faults"]

    def test_injector_stats_surface(self, make_requests):
        service = make_service(faults=FaultPlan.uniform(seed=1, rate=0.2))
        service.estimate_many(make_requests(4))
        injected = service.metrics_snapshot()["faults_injected"]
        assert injected["n_launches"] > 0

    def test_healthy_service_reports_no_faults(self, make_requests):
        service = make_service()
        service.estimate_many(make_requests(4))
        res = service.metrics_snapshot()["resilience"]
        assert res["n_faults"] == res["n_round_failures"] == 0
        assert service.metrics_snapshot()["faults_injected"] == {
            "enabled": False
        }


class TestCPUFallback:
    def test_always_failing_device_degrades_to_cpu(self, make_requests):
        service = make_service(
            faults=FaultPlan(rates={FaultKind.CORRUPTION: 1.0}),
        )
        responses = service.estimate_many(make_requests(4))
        for r in responses:
            assert r.degraded
            assert r.stop_reason == REASON_FALLBACK
            assert r.extras["fallback"] is True
            assert r.n_samples > 0 and r.estimate >= 0
        res = service.metrics_snapshot()["resilience"]
        assert res["n_fallbacks"] == 4

    def test_fallback_disabled_fails_tickets(self, make_requests):
        service = make_service(
            faults=FaultPlan(rates={FaultKind.CORRUPTION: 1.0}),
            retry=False,
            cpu_fallback=False,
        )
        ticket = service.submit(make_requests(1)[0])
        service.drain()
        with pytest.raises(DeviceFault):
            ticket.result(timeout=0)
        assert service.metrics_snapshot()["n_failed"] == 1

    def test_fallback_combines_committed_device_rounds(self, make_requests):
        # First launch healthy, everything after corrupts; a tight CI
        # target forces a second round, which fails — the fallback answer
        # must include the committed first round's samples.
        plan = FaultPlan(
            rates={FaultKind.CORRUPTION: 1.0},
            overrides={0: ()},
        )
        service = make_service(faults=plan, retry=False)
        [response] = service.estimate_many(
            make_requests(1, max_samples=65_536, target_rel_ci=0.01)
        )
        assert response.stop_reason == REASON_FALLBACK
        assert response.n_samples > response.extras["fallback_samples"]


class TestCircuitBreaker:
    def test_consecutive_failures_trip_breaker(self, make_requests):
        # The first FAILURE_THRESHOLD launches corrupt (tripping the
        # breaker mid-batch); the surviving requests need further rounds,
        # which the now-open breaker rejects pre-enqueue — they degrade to
        # the CPU fallback.
        plan = FaultPlan(overrides={
            i: (FaultKind.CORRUPTION,) for i in range(FAILURE_THRESHOLD)
        })
        service = make_service(faults=plan, retry=False)
        service.estimate_many(
            make_requests(6, max_samples=65_536, target_rel_ci=0.01)
        )
        snap = service.metrics_snapshot()
        assert snap["resilience"]["n_breaker_trips"] >= 1
        assert snap["breakers"]["alley"]["state"] == "open"
        # Once open, later rounds are rejected pre-launch and degrade.
        assert snap["resilience"]["n_breaker_rejections"] > 0
        assert snap["n_completed"] == 6  # all still answered via fallback

    def test_breaker_recovers_after_cooldown(self, make_requests):
        # Wave 1 trips the breaker (its first FAILURE_THRESHOLD launches
        # corrupt); once the clock passes the cooldown the breaker is
        # HALF_OPEN, and wave 2's first round is the probe — it succeeds
        # and closes the breaker.
        plan = FaultPlan(overrides={
            i: (FaultKind.CORRUPTION,) for i in range(FAILURE_THRESHOLD)
        })
        service = make_service(faults=plan, retry=False)
        requests = make_requests(FAILURE_THRESHOLD + 1)
        # fails -> trip + fallback
        service.estimate_many(requests[:FAILURE_THRESHOLD])
        assert service.metrics_snapshot()["breakers"]["alley"]["state"] == (
            "open"
        )
        service.advance_clock(service.clock_ms + COOLDOWN_MS)
        # half-open probe succeeds
        service.estimate_many(requests[FAILURE_THRESHOLD:])
        breaker = service.metrics_snapshot()["breakers"]["alley"]
        assert breaker["n_trips"] >= 1
        assert breaker["n_recoveries"] >= 1
        assert breaker["state"] == "closed"


class TestWorkerCrashRecovery:
    def test_worker_survives_crash_and_fails_inflight(self, make_requests):
        service = make_service()
        original = service.scheduler.execute
        crashes = {"n": 0}

        def crash_once(batch):
            if crashes["n"] == 0:
                crashes["n"] += 1
                raise RuntimeError("injected scheduler crash")
            return original(batch)

        service.scheduler.execute = crash_once
        service.start()
        try:
            first = service.submit(make_requests(1)[0])
            with pytest.raises(RuntimeError, match="injected scheduler crash"):
                first.result(timeout=10.0)
            # The worker must still be alive and serving.
            second = service.submit(make_requests(2)[1])
            response = second.result(timeout=10.0)
            assert response.estimate >= 0
        finally:
            service.stop()
        snap = service.metrics_snapshot()
        assert snap["resilience"]["n_worker_crashes"] == 1
        assert snap["n_failed"] >= 1

    def test_inline_drain_still_propagates(self, make_requests):
        service = make_service()

        def always_crash(batch):
            raise RuntimeError("inline crash")

        service.scheduler.execute = always_crash
        service.submit(make_requests(1)[0])
        with pytest.raises(RuntimeError, match="inline crash"):
            service.drain()


class TestTicketTimeout:
    def test_timeout_raises_service_timeout(self, make_requests):
        service = make_service()
        ticket = service.submit(make_requests(1)[0])  # never drained
        start = time.monotonic()
        with pytest.raises(ServiceTimeout):
            ticket.result(timeout=0.01)
        assert time.monotonic() - start < 5.0
        assert isinstance(ServiceTimeout("x"), ServiceError)

    def test_done_ticket_ignores_timeout(self, make_requests):
        service = make_service()
        ticket = service.submit(make_requests(1)[0])
        service.drain()
        assert ticket.result(timeout=0).estimate >= 0


class TestDeterministicChaos:
    def test_same_seed_same_outcome(self, make_requests):
        def run():
            service = make_service(
                faults=FaultPlan.uniform(seed=13, rate=0.3),
                watchdog_ms=5.0,
            )
            responses = service.estimate_many(make_requests(8))
            res = service.metrics_snapshot()["resilience"]
            return (
                [r.estimate for r in responses],
                res["n_faults"],
                res["faults_by_kind"],
            )

        assert run() == run()
