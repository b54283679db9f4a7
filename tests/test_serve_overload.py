"""Service-level overload behaviour: load shedding with retry hints,
the shutdown race, cancellation releasing admission capacity, thread
safety under concurrent submitters, and deadline propagation
(repro/serve/service.py + repro/serve/admission.py)."""

import threading

import pytest

from repro.errors import (
    Overloaded,
    RequestCancelled,
    ServiceClosed,
)
from repro.gpu.costmodel import DEFAULT_GPU
from repro.gpu.device import DeviceModel
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.serve import (
    AdmissionPolicy,
    EstimateRequest,
    EstimationService,
    ServiceConfig,
    TenantQuota,
)
from repro.serve.controller import AdaptiveBudgetController, BudgetPolicy
from repro.utils.rng import derive_seed

#: A loose-CI, small-budget profile so service tests stay fast.
FAST_POLICY = BudgetPolicy(min_round_samples=128, max_round_samples=2048)

#: Repeats of the shutdown race; without serialised inline ticks it
#: strands a submitter within the first few.
RACE_REPEATS = 10


@pytest.fixture(scope="module")
def yeast():
    return load_dataset("yeast")


@pytest.fixture(scope="module")
def query(yeast):
    return extract_query(yeast, 4, rng=derive_seed(55, "overload"), name="ov-q4")


def make_request(yeast, query, *, tenant="default", deadline_ms=None):
    return EstimateRequest(
        graph=yeast,
        query=query,
        target_rel_ci=0.30,
        max_samples=2048,
        tenant=tenant,
        deadline_ms=deadline_ms,
    )


def make_service(**overrides):
    overrides.setdefault("policy", FAST_POLICY)
    return EstimationService(ServiceConfig(**overrides))


# ---------------------------------------------------------------------------
# Load shedding
# ---------------------------------------------------------------------------
class TestShedding:
    def test_queue_full_shed(self, yeast, query):
        service = make_service(admission=AdmissionPolicy(max_pending=2))
        service.submit(make_request(yeast, query))
        service.submit(make_request(yeast, query))
        with pytest.raises(Overloaded) as exc:
            service.submit(make_request(yeast, query))
        assert exc.value.reason == "queue_full"
        assert exc.value.retry_after_ms > 0
        snap = service.metrics_snapshot()
        assert snap["admission"]["n_shed"] == 1
        assert snap["admission"]["shed_by_reason"] == {"queue_full": 1}
        # The two admitted requests still complete.
        service.drain()
        assert service.metrics_snapshot()["n_completed"] == 2

    def test_quota_shed_is_per_tenant(self, yeast, query):
        service = make_service(
            admission=AdmissionPolicy(
                max_pending=None,
                quotas={"hot": TenantQuota(rate_per_s=1.0, burst=2.0)},
            )
        )
        service.submit(make_request(yeast, query, tenant="hot"))
        service.submit(make_request(yeast, query, tenant="hot"))
        with pytest.raises(Overloaded) as exc:
            service.submit(make_request(yeast, query, tenant="hot"))
        assert exc.value.reason == "quota"
        assert exc.value.tenant == "hot"
        assert exc.value.retry_after_ms > 0
        # Unmetered tenants are untouched by the hot tenant's exhaustion.
        for _ in range(4):
            service.submit(make_request(yeast, query, tenant="cold"))
        service.drain()
        assert service.metrics_snapshot()["n_completed"] == 6

    def test_quota_refills_on_simulated_clock(self, yeast, query):
        service = make_service(
            admission=AdmissionPolicy(
                max_pending=None,
                quotas={"hot": TenantQuota(rate_per_s=1000.0, burst=1.0)},
            )
        )
        service.submit(make_request(yeast, query, tenant="hot"))
        with pytest.raises(Overloaded) as exc:
            service.submit(make_request(yeast, query, tenant="hot"))
        # One token per simulated ms: advancing the clock re-admits.
        service.advance_clock(service.clock_ms + exc.value.retry_after_ms)
        service.submit(make_request(yeast, query, tenant="hot"))
        service.drain()
        assert service.metrics_snapshot()["n_completed"] == 2

    def test_deadline_shed(self, yeast, query):
        service = make_service(admission=AdmissionPolicy(max_pending=None))
        # Establish a service-time EWMA, then pile up a backlog.
        service.estimate(make_request(yeast, query))
        for _ in range(6):
            service.submit(make_request(yeast, query))
        with pytest.raises(Overloaded) as exc:
            service.submit(make_request(yeast, query, deadline_ms=1e-6))
        assert exc.value.reason == "deadline"
        assert exc.value.retry_after_ms > 0
        # The same submission without a deadline is admitted.
        service.submit(make_request(yeast, query))
        service.drain()
        # 1 warm-up estimate + 6 backlog + 1 deadline-free resubmission.
        assert service.metrics_snapshot()["n_completed"] == 8

    def test_no_admission_policy_means_legacy_unbounded(self, yeast, query):
        service = make_service()
        for _ in range(8):
            service.submit(make_request(yeast, query, deadline_ms=1e-6))
        service.drain()
        assert service.metrics_snapshot()["n_completed"] == 8


# ---------------------------------------------------------------------------
# Shutdown race (typed rejection, zero stranded tickets)
# ---------------------------------------------------------------------------
class TestShutdownRace:
    def test_submit_after_close_raises_service_closed(self, yeast, query):
        service = make_service()
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(make_request(yeast, query))

    def test_stop_is_restartable_close_is_terminal(self, yeast, query):
        # stop() pauses the worker but keeps the service usable (inline
        # processing still works); only close() rejects permanently.
        service = make_service()
        service.start()
        service.stop(drain=True)
        ticket = service.submit(make_request(yeast, query))
        service.drain()
        assert ticket.result().estimate >= 0
        service.close()
        with pytest.raises(ServiceClosed):
            service.submit(make_request(yeast, query))

    def test_close_with_queued_work_strands_nothing(self, yeast, query):
        service = make_service()
        tickets = [service.submit(make_request(yeast, query)) for _ in range(4)]
        service.close()
        # Every ticket is terminal: either answered before the shutdown or
        # failed with the typed ServiceClosed — never left hanging.
        for ticket in tickets:
            assert ticket.done()
            with pytest.raises(ServiceClosed):
                ticket.result(timeout=0)

    def test_estimate_many_racing_stop(self, yeast, query):
        """A submitter racing shutdown either gets answers or a typed
        rejection — no ticket waits forever (the stranded-ticket race).

        Each repeat releases one group of submitters while ``stop()`` runs
        and a second group right after it, so several callers find the
        worker gone and drain inline at once: their ticks must run one at a
        time, or rounds interleave on the shared engine and a drainer dies
        with its tickets stranded."""
        for _ in range(RACE_REPEATS):
            service = make_service()
            service.start()
            early, late = threading.Event(), threading.Event()
            outcomes = []
            errors = []

            def submitter(gate):
                gate.wait()
                try:
                    responses = service.estimate_many(
                        [make_request(yeast, query) for _ in range(3)]
                    )
                    outcomes.append(("ok", len(responses)))
                except ServiceClosed:
                    outcomes.append(("closed", 0))
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append(error)

            threads = [
                threading.Thread(target=submitter, args=(gate,), daemon=True)
                for gate in (early, late)
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            early.set()
            service.stop(drain=True)
            late.set()
            for t in threads:
                t.join(timeout=10)
                assert not t.is_alive(), "submitter stranded on its ticket"
            assert errors == []
            assert len(outcomes) == 8
            for kind, n in outcomes:
                assert kind in ("ok", "closed")
                if kind == "ok":
                    assert n == 3
            service.close()


# ---------------------------------------------------------------------------
# Cancellation
# ---------------------------------------------------------------------------
class TestCancellation:
    def test_cancel_releases_admission_slot(self, yeast, query):
        service = make_service(admission=AdmissionPolicy(max_pending=2))
        first = service.submit(make_request(yeast, query))
        service.submit(make_request(yeast, query))
        with pytest.raises(Overloaded):
            service.submit(make_request(yeast, query))
        assert first.cancel()
        # The freed slot admits the next submission immediately.
        service.submit(make_request(yeast, query))
        service.drain()
        assert service.metrics_snapshot()["n_completed"] == 2
        with pytest.raises(RequestCancelled):
            first.result(timeout=0)

    def test_cancel_is_idempotent_and_post_completion_safe(self, yeast, query):
        service = make_service()
        ticket = service.submit(make_request(yeast, query))
        assert ticket.cancel()
        assert not ticket.cancel()
        done = service.submit(make_request(yeast, query))
        service.drain()
        assert done.result().estimate >= 0
        assert not done.cancel()  # already terminal
        snap = service.metrics_snapshot()
        assert snap["admission"]["n_cancelled"] == 1
        assert snap["queue_depth"] == 0

    def test_cancelled_rounds_are_dropped_lazily(self, yeast, query):
        service = make_service()
        tickets = [service.submit(make_request(yeast, query)) for _ in range(3)]
        tickets[1].cancel()
        assert service.queue_depth() == 2
        service.drain()
        assert service.metrics_snapshot()["n_completed"] == 2
        assert tickets[0].result().estimate >= 0
        assert tickets[2].result().estimate >= 0


# ---------------------------------------------------------------------------
# Thread hammer
# ---------------------------------------------------------------------------
class TestThreadHammer:
    def test_concurrent_submitters_and_depth_probes(self, yeast, query):
        """N threads submitting M requests each against a started worker,
        with concurrent queue_depth() probes, must leave every ticket
        terminal and the queue empty."""
        n_threads, per_thread = 6, 4
        service = make_service(
            admission=AdmissionPolicy(max_pending=None)
        )
        service.start()
        results = []
        errors = []
        lock = threading.Lock()

        def submitter(idx):
            for j in range(per_thread):
                try:
                    ticket = service.submit(
                        make_request(yeast, query, tenant=f"t{idx % 3}")
                    )
                    response = ticket.result(timeout=60)
                    with lock:
                        results.append(response)
                except Exception as error:  # noqa: BLE001 - recorded and failed
                    with lock:
                        errors.append(error)

        def prober():
            for _ in range(200):
                depth = service.queue_depth()
                assert depth >= 0

        threads = [
            threading.Thread(target=submitter, args=(i,))
            for i in range(n_threads)
        ] + [threading.Thread(target=prober) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
            assert not t.is_alive()
        service.stop(drain=True)

        assert not errors
        assert len(results) == n_threads * per_thread
        assert len({r.request_id for r in results}) == len(results)
        assert service.queue_depth() == 0
        snap = service.metrics_snapshot()
        assert snap["n_completed"] == len(results)
        assert snap["n_failed"] == 0


# ---------------------------------------------------------------------------
# Deadline propagation
# ---------------------------------------------------------------------------
class TestDeadlinePropagation:
    def test_round_watchdog_budget(self, yeast, query):
        request = make_request(yeast, query, deadline_ms=10.0)
        ctrl = AdaptiveBudgetController(request, FAST_POLICY)
        # First round is never constrained (every response carries some
        # evidence even if the deadline is already blown).
        assert ctrl.round_watchdog_ms(5.0) is None
        ctrl.n_rounds = 1
        assert ctrl.round_watchdog_ms(4.0) == pytest.approx(6.0)
        assert ctrl.round_watchdog_ms(10.0) is None  # expired -> no ceiling
        assert ctrl.round_watchdog_ms(15.0) is None
        no_deadline = AdaptiveBudgetController(
            make_request(yeast, query), FAST_POLICY
        )
        no_deadline.n_rounds = 1
        assert no_deadline.round_watchdog_ms(100.0) is None

    def test_device_watchdog_is_the_per_launch_ceiling(self):
        from repro.errors import KernelTimeout

        device = DeviceModel(DEFAULT_GPU)
        device.check_watchdog(1e9)  # no ceiling at all
        device.check_watchdog(10.0, ceiling_ms=10.0)  # fits exactly
        with pytest.raises(KernelTimeout):
            device.check_watchdog(50.0, ceiling_ms=10.0)

    def test_propagate_deadline_end_to_end(self, yeast, query):
        service = make_service(propagate_deadline=True)
        responses = service.estimate_many(
            [
                make_request(yeast, query, deadline_ms=deadline)
                for deadline in (None, 1000.0, 0.5)
            ]
        )
        assert len(responses) == 3
        for r in responses:
            assert r.estimate >= 0
        assert service.queue_depth() == 0
