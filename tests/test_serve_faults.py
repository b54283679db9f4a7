"""Service-level resilience: watchdog kills and shard crashes answered by
the CPU fallback, worker crash recovery, and the stranded-ticket
guarantee."""

import dataclasses
import itertools
import time

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.errors import (
    KernelTimeout,
    ServiceError,
    ServiceTimeout,
    ShardFailure,
    SimulationError,
)
from repro.estimators.cpu_runner import CPUSamplingRunner
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.serve import EstimateRequest, EstimationService, ServiceConfig
from repro.serve.controller import REASON_FALLBACK, BudgetPolicy
from repro.utils.rng import derive_seed

FAST_POLICY = BudgetPolicy(min_round_samples=128, max_round_samples=1024)

#: A deadline the first round fits and a later, CI-driven round overruns,
#: so ``propagate_deadline`` has the watchdog kill that round.
KILLING_DEADLINE_MS = 0.05


@pytest.fixture(scope="module")
def graph():
    return load_dataset("yeast")


@pytest.fixture(scope="module")
def make_requests(graph):
    def build(n, max_samples=4096, target_rel_ci=0.3, deadline_ms=None):
        return [
            EstimateRequest(
                graph=graph,
                query=extract_query(
                    graph, 4, rng=derive_seed(9, i % 4), name=f"sf-q{i % 4}"
                ),
                target_rel_ci=target_rel_ci,
                max_samples=max_samples,
                deadline_ms=deadline_ms,
                request_id=f"sf-{i}",
            )
            for i in range(n)
        ]

    return build


def make_service(**overrides):
    overrides.setdefault("policy", FAST_POLICY)
    return EstimationService(ServiceConfig(**overrides))


def deadline_killed_requests(make_requests, n):
    """Requests whose tight CI target needs more rounds than the
    deadline leaves room for."""
    return make_requests(
        n, max_samples=65_536, target_rel_ci=0.01,
        deadline_ms=KILLING_DEADLINE_MS,
    )


def crash_launches(monkeypatch, healthy=0, error=None):
    """Fail every engine launch after the first ``healthy`` with ``error``
    (by default the :class:`ShardFailure` a dead shard worker raises)."""
    if error is None:
        error = ShardFailure("shard 0 worker died mid-round", shard=0)
    real_run = GSWORDEngine.run
    launches = itertools.count()

    def run(self, *args, **kwargs):
        if next(launches) >= healthy:
            raise error
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(GSWORDEngine, "run", run)


class TestFaultSurvival:
    def test_all_answered_under_watchdog_kills(self, make_requests):
        service = make_service(propagate_deadline=True)
        responses = service.estimate_many(
            deadline_killed_requests(make_requests, 12)
        )
        assert len(responses) == 12
        assert all(r.estimate >= 0 for r in responses)
        snap = service.metrics_snapshot()
        assert snap["n_failed"] == 0
        assert snap["queue_depth"] == 0  # nothing stranded
        assert snap["resilience"]["n_round_failures"] > 0  # kills happened

    def test_fault_metrics_recorded(self, make_requests):
        service = make_service(propagate_deadline=True)
        responses = service.estimate_many(
            deadline_killed_requests(make_requests, 8)
        )
        res = service.metrics_snapshot()["resilience"]
        assert res["n_faults"] > 0
        # Every killed round degraded its request to the CPU fallback.
        assert res["n_faults"] == res["n_round_failures"] == res[
            "n_fallbacks"
        ]
        assert res["n_fallbacks"] == sum(
            r.stop_reason == REASON_FALLBACK for r in responses
        )
        # A watchdog kill is billed its ceiling, never more than the
        # deadline it was derived from.
        assert 0.0 < res["fault_ms"] <= res["n_faults"] * KILLING_DEADLINE_MS

    def test_healthy_service_reports_no_faults(self, make_requests):
        service = make_service()
        service.estimate_many(make_requests(4))
        res = service.metrics_snapshot()["resilience"]
        assert res["n_faults"] == res["n_round_failures"] == 0
        assert res["n_fallbacks"] == 0 and res["fault_ms"] == 0.0


class TestCPUFallback:
    def test_always_failing_device_degrades_to_cpu(
        self, make_requests, monkeypatch
    ):
        crash_launches(monkeypatch)
        service = make_service()
        responses = service.estimate_many(make_requests(4))
        for r in responses:
            assert r.degraded
            assert r.stop_reason == REASON_FALLBACK
            assert r.extras["fallback"] is True
            assert r.extras["device_error"].startswith("ShardFailure")
            assert r.n_samples > 0 and r.estimate >= 0
        res = service.metrics_snapshot()["resilience"]
        assert res["n_fallbacks"] == 4

    @pytest.mark.parametrize(
        "error, bundle_kinds",
        [
            (KernelTimeout(0.5, 0.25), ["kernel_timeout"]),
            (
                ShardFailure("shard 1 worker died mid-round", shard=1),
                ["shard_failure"],
            ),
            (SimulationError("lane mismatch"), []),
        ],
        ids=["kernel-timeout", "shard-failure", "simulation-error"],
    )
    def test_every_device_failure_degrades_to_cpu(
        self, make_requests, monkeypatch, error, bundle_kinds
    ):
        # A watchdog kill or a dead shard worker fires a flight
        # postmortem; a simulation error does not.
        crash_launches(monkeypatch, error=error)
        service = make_service()
        [response] = service.estimate_many(make_requests(1))
        assert response.degraded
        assert response.stop_reason == REASON_FALLBACK
        assert response.extras["device_error"] == (
            f"{type(error).__name__}: {error}"
        )
        res = service.metrics_snapshot()["resilience"]
        assert res["n_round_failures"] == res["n_fallbacks"] == 1
        kinds = [b["trigger"]["kind"] for b in service.flight_bundles()]
        assert kinds == bundle_kinds

    def test_non_device_error_is_not_degraded(
        self, make_requests, monkeypatch
    ):
        crash_launches(monkeypatch, error=ValueError("programming error"))
        service = make_service()
        service.submit(make_requests(1)[0])
        with pytest.raises(ValueError, match="programming error"):
            service.drain()
        assert service.metrics_snapshot()["resilience"]["n_fallbacks"] == 0

    def test_failing_fallback_fails_the_ticket(
        self, make_requests, monkeypatch
    ):
        crash_launches(monkeypatch)

        def broken(self, *args, **kwargs):
            raise RuntimeError("host sampler broke")

        monkeypatch.setattr(CPUSamplingRunner, "run", broken)
        service = make_service()
        ticket = service.submit(make_requests(1)[0])
        service.drain()
        with pytest.raises(RuntimeError, match="host sampler broke"):
            ticket.result(timeout=0)
        assert service.metrics_snapshot()["n_failed"] == 1

    def test_fallback_combines_committed_device_rounds(
        self, make_requests, monkeypatch
    ):
        # First launch healthy, every later one crashes; a tight CI
        # target forces a second round, which fails — the fallback answer
        # must include the committed first round's samples.
        crash_launches(monkeypatch, healthy=1)
        service = make_service()
        [response] = service.estimate_many(
            make_requests(1, max_samples=65_536, target_rel_ci=0.01)
        )
        assert response.stop_reason == REASON_FALLBACK
        assert response.n_samples > response.extras["fallback_samples"]

    def test_real_shard_crash_degrades_and_pool_heals(self, make_requests):
        # 256-sample rounds are two warps: one per shard worker.
        service = make_service(
            policy=BudgetPolicy(min_round_samples=256, max_round_samples=1024),
            engine_config=EngineConfig.gsword(backend="fused").with_shards(2),
        )
        try:
            first, second, third = make_requests(3)
            assert not service.estimate(first).degraded
            [engine] = service._engines.values()
            engine._shard_executor().inject_crash(0)
            crashed = service.estimate(second)
            assert crashed.degraded
            assert crashed.stop_reason == REASON_FALLBACK
            assert crashed.extras["device_error"].startswith("ShardFailure")
            assert not service.estimate(third).degraded  # the pool healed
        finally:
            service.close()

    def test_real_shard_crash_leaves_a_flight_postmortem(self, make_requests):
        # 256-sample rounds are two warps, so the round after the crash is
        # dispatched to the pool and its worker dies mid-round.
        service = make_service(
            policy=BudgetPolicy(min_round_samples=256, max_round_samples=1024),
            engine_config=EngineConfig.gsword(backend="fused").with_shards(2),
        )
        try:
            first, second = make_requests(2)
            assert not service.estimate(first).degraded
            assert service.flight_bundles() == []
            [engine] = service._engines.values()
            engine._shard_executor().inject_crash(0)
            crashed = service.estimate(second)
            assert crashed.degraded
            [bundle] = service.flight_bundles()
            trigger = bundle["trigger"]
            assert trigger["kind"] == "shard_failure"
            assert trigger["details"]["shard"] == 0
            assert trigger["details"]["request_id"] == second.request_id
            faults = [
                e for e in bundle["ring"]["traceEvents"]
                if e.get("name") == "fault"
            ]
            assert faults and faults[-1]["args"]["shard"] == 0
        finally:
            service.close()


class TestServiceConfigSurface:
    def test_fields_are_exactly_these(self):
        assert [f.name for f in dataclasses.fields(ServiceConfig)] == [
            "spec", "engine_config", "cache_bytes", "max_batch_requests",
            "policy", "admission", "propagate_deadline", "flight", "slo",
        ]

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("faults", None),
            ("memory_budget_bytes", 1 << 20),
            ("watchdog_ms", 1.0),
            ("retry", True),
            ("cpu_fallback", False),
        ],
    )
    def test_resilience_knobs_are_not_settable(self, knob, value):
        # Failure handling has no switches: the watchdog ceiling comes
        # from request deadlines and the CPU fallback always answers.
        with pytest.raises(TypeError):
            ServiceConfig(**{knob: value})


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


class TestDeterministicKills:
    def test_same_seed_same_outcome(self, make_requests):
        def run():
            service = make_service(propagate_deadline=True)
            responses = service.estimate_many(
                deadline_killed_requests(make_requests, 8)
            )
            res = service.metrics_snapshot()["resilience"]
            return (
                [r.estimate for r in responses],
                res["n_faults"],
                res["fault_ms"],
            )

        assert run() == run()
