"""Unit tests for the admission layer (repro/serve/admission.py), the
weighted-fair queue (repro/serve/scheduler.py), the arrival plans
(repro/bench/arrivals.py), and the replay-safe RNG state cloning that
launch capture and flight replay depend on."""

from collections import deque

import numpy as np
import pytest

from repro.errors import ConfigError, ServiceError
from repro.bench.arrivals import OVERLOAD, POISSON, ArrivalPlan
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    MIN_RETRY_AFTER_MS,
    TenantQuota,
    TokenBucket,
)
from repro.serve.scheduler import FairQueue, RoundTask
from repro.utils.rng import (
    clone_state,
    generator_from_state,
    spawn_generator_states,
)


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------
class TestTokenBucket:
    def test_starts_full_and_drains(self):
        bucket = TokenBucket(capacity=3, rate_per_ms=1.0, now_ms=0.0)
        assert all(bucket.try_take(0.0) for _ in range(3))
        assert not bucket.try_take(0.0)

    def test_refills_on_simulated_clock(self):
        bucket = TokenBucket(capacity=2, rate_per_ms=0.5, now_ms=0.0)
        bucket.try_take(0.0)
        bucket.try_take(0.0)
        assert not bucket.try_take(1.0)  # only 0.5 tokens back
        assert bucket.try_take(2.0)      # 1.0 token after 2 ms

    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(capacity=2, rate_per_ms=10.0, now_ms=0.0)
        bucket._refill(1000.0)
        assert bucket.tokens == 2.0

    def test_time_to_token(self):
        bucket = TokenBucket(capacity=1, rate_per_ms=0.25, now_ms=0.0)
        assert bucket.time_to_token_ms(0.0) == 0.0
        bucket.try_take(0.0)
        assert bucket.time_to_token_ms(0.0) == pytest.approx(4.0)
        assert bucket.time_to_token_ms(2.0) == pytest.approx(2.0)

    def test_unmetered_never_empties(self):
        bucket = TokenBucket(capacity=1, rate_per_ms=None, now_ms=0.0)
        assert all(bucket.try_take(0.0) for _ in range(100))
        assert bucket.time_to_token_ms(0.0) == 0.0

    def test_clock_going_backwards_is_safe(self):
        bucket = TokenBucket(capacity=1, rate_per_ms=1.0, now_ms=10.0)
        bucket.try_take(10.0)
        bucket._refill(5.0)  # no negative elapsed
        assert bucket.tokens == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# AdmissionController.decide
# ---------------------------------------------------------------------------
class TestAdmissionController:
    def test_admits_under_every_limit(self):
        ctrl = AdmissionController(AdmissionPolicy(max_pending=4))
        assert ctrl.decide("a", None, 0, 0.0) is None

    def test_queue_full_shed_and_hint(self):
        ctrl = AdmissionController(AdmissionPolicy(max_pending=2))
        ctrl.observe_batch(1, 10.0)  # EWMA = 10 ms/request
        decision = ctrl.decide("a", None, 2, 0.0)
        assert decision is not None
        assert decision.reason == "queue_full"
        assert decision.retry_after_ms == pytest.approx(10.0)

    def test_queue_full_does_not_consume_token(self):
        policy = AdmissionPolicy(
            max_pending=1,
            quotas={"a": TenantQuota(rate_per_s=1.0, burst=1.0)},
        )
        ctrl = AdmissionController(policy)
        for _ in range(5):
            decision = ctrl.decide("a", None, 1, 0.0)
            assert decision.reason == "queue_full"
        # The bucket was never drawn from: the first admissible call takes
        # its single burst token.
        assert ctrl.decide("a", None, 0, 0.0) is None
        assert ctrl.decide("a", None, 0, 0.0).reason == "quota"

    def test_quota_shed_hints_time_to_token(self):
        policy = AdmissionPolicy(
            max_pending=None,
            quotas={"a": TenantQuota(rate_per_s=1000.0, burst=1.0)},
        )
        ctrl = AdmissionController(policy)
        assert ctrl.decide("a", None, 0, 0.0) is None
        decision = ctrl.decide("a", None, 0, 0.0)
        assert decision.reason == "quota"
        assert decision.retry_after_ms == pytest.approx(1.0)  # 1 token/ms

    def test_quota_isolated_per_tenant(self):
        policy = AdmissionPolicy(
            max_pending=None,
            quotas={"hot": TenantQuota(rate_per_s=1.0, burst=1.0)},
        )
        ctrl = AdmissionController(policy)
        assert ctrl.decide("hot", None, 0, 0.0) is None
        assert ctrl.decide("hot", None, 0, 0.0).reason == "quota"
        # The default quota is unmetered: other tenants sail through.
        for _ in range(10):
            assert ctrl.decide("cold", None, 0, 0.0) is None

    def test_deadline_shed_uses_backlog_prediction(self):
        ctrl = AdmissionController(AdmissionPolicy(max_pending=None))
        ctrl.observe_batch(1, 10.0)  # EWMA = 10 ms/request
        # 5 queued x 10 ms = 50 ms predicted wait > 20 ms deadline.
        decision = ctrl.decide("a", 20.0, 5, 0.0)
        assert decision.reason == "deadline"
        assert decision.retry_after_ms == pytest.approx(30.0)
        # A feasible deadline (or none at all) is admitted.
        assert ctrl.decide("a", 100.0, 5, 0.0) is None
        assert ctrl.decide("a", None, 5, 0.0) is None

    def test_deadline_shed_disabled(self):
        ctrl = AdmissionController(
            AdmissionPolicy(max_pending=None, shed_on_deadline=False)
        )
        ctrl.observe_batch(1, 10.0)
        assert ctrl.decide("a", 1.0, 50, 0.0) is None

    def test_retry_after_floor(self):
        ctrl = AdmissionController(AdmissionPolicy(max_pending=1))
        decision = ctrl.decide("a", None, 1, 0.0)  # no EWMA yet
        assert decision.retry_after_ms == MIN_RETRY_AFTER_MS

    def test_ewma_converges(self):
        ctrl = AdmissionController(AdmissionPolicy())
        ctrl.observe_batch(2, 8.0)   # 4 ms/request seeds the EWMA
        ctrl.observe_batch(1, 8.0)   # 0.7*4 + 0.3*8
        assert ctrl.ewma_request_ms == pytest.approx(5.2)
        ctrl.observe_batch(0, 5.0)   # ignored
        ctrl.observe_batch(3, 0.0)   # ignored
        assert ctrl.ewma_request_ms == pytest.approx(5.2)

    def test_snapshot_shape(self):
        ctrl = AdmissionController(AdmissionPolicy())
        ctrl.decide("a", None, 0, 0.0)
        snap = ctrl.snapshot()
        assert "ewma_request_ms" in snap
        assert "a" in snap["buckets"]

    def test_policy_validation(self):
        with pytest.raises(ConfigError):
            AdmissionPolicy(max_pending=0)
        with pytest.raises(ConfigError):
            TenantQuota(rate_per_s=0.0)
        with pytest.raises(ConfigError):
            TenantQuota(weight=0.0)
        with pytest.raises(ConfigError):
            TenantQuota(burst=0.5)


# ---------------------------------------------------------------------------
# FairQueue
# ---------------------------------------------------------------------------
class _StubConfig:
    tasks_per_warp = 32


class _StubEngine:
    config = _StubConfig()


class _StubSession:
    engine = _StubEngine()


def _task(tenant="default", weight=1.0, n_samples=32):
    return RoundTask(
        session=_StubSession(), n_samples=n_samples,
        tenant=tenant, weight=weight,
    )


class TestFairQueue:
    def test_single_tenant_is_exact_fifo(self):
        fq = FairQueue()
        dq = deque()
        tasks = [_task(n_samples=32 * (1 + i % 3)) for i in range(20)]
        for t in tasks:
            fq.append(t)
            dq.append(t)
        order_fq = [fq.popleft() for _ in range(len(tasks))]
        order_dq = [dq.popleft() for _ in range(len(tasks))]
        assert order_fq == order_dq

    def test_deque_compatible_surface(self):
        fq = FairQueue()
        assert not fq
        assert len(fq) == 0
        with pytest.raises(IndexError):
            fq[0]
        with pytest.raises(IndexError):
            fq.popleft()
        task = _task()
        fq.append(task)
        assert fq and len(fq) == 1
        assert fq[0] is task          # peek does not pop
        assert fq[0] is task
        with pytest.raises(IndexError):
            fq[1]
        assert list(fq) == [task]
        assert fq.popleft() is task
        assert not fq

    def test_interleaves_tenants_under_contention(self):
        fq = FairQueue()
        for _ in range(10):
            fq.append(_task("hog"))
        fq.append(_task("mouse"))
        drained = [fq.popleft().tenant for _ in range(6)]
        # The mouse's single task is served within the first few pops
        # even though ten hog tasks arrived first.
        assert "mouse" in drained[:2]

    def test_weights_share_proportionally(self):
        fq = FairQueue()
        for _ in range(30):
            fq.append(_task("heavy", weight=2.0))
            fq.append(_task("light", weight=1.0))
        first = [fq.popleft().tenant for _ in range(18)]
        heavy = first.count("heavy")
        light = first.count("light")
        # 2:1 weights -> about two heavy dequeues per light one.
        assert heavy == pytest.approx(2 * light, abs=2)

    def test_sleeping_tenant_banks_no_credit(self):
        fq = FairQueue()
        for _ in range(50):
            fq.append(_task("busy"))
        for _ in range(40):
            fq.popleft()
        # A tenant activating late starts at the queue's virtual time, so
        # it cannot monopolise the head with decades of banked credit.
        fq.append(_task("late"))
        fq.append(_task("late"))
        drained = [fq.popleft().tenant for _ in range(4)]
        assert drained.count("late") <= 2
        assert "busy" in drained

    def test_clear(self):
        fq = FairQueue()
        fq.append(_task("a"))
        fq.append(_task("b"))
        fq.clear()
        assert not fq and len(fq) == 0

    def test_task_validation(self):
        with pytest.raises(ServiceError):
            _task(n_samples=0)
        with pytest.raises(ServiceError):
            _task(weight=0.0)


# ---------------------------------------------------------------------------
# ArrivalPlan
# ---------------------------------------------------------------------------
class TestArrivalPlan:
    def test_deterministic_and_prefix_stable(self):
        plan = ArrivalPlan(seed=7, rate_per_ms=2.0)
        assert plan.times(50) == plan.times(50)
        assert plan.times(50)[:20] == plan.times(20)

    def test_strictly_increasing(self):
        for mode in (POISSON, OVERLOAD):
            times = ArrivalPlan(seed=3, rate_per_ms=5.0, mode=mode).times(200)
            assert all(b > a for a, b in zip(times, times[1:]))

    def test_poisson_rate_roughly_matches(self):
        plan = ArrivalPlan(seed=11, rate_per_ms=4.0)
        times = plan.times(2000)
        observed = len(times) / times[-1]
        assert observed == pytest.approx(4.0, rel=0.15)

    def test_overload_bursts_raise_the_average_rate(self):
        base = ArrivalPlan(seed=5, rate_per_ms=1.0)
        storm = ArrivalPlan(
            seed=5, rate_per_ms=1.0, mode=OVERLOAD,
            burst_factor=4.0, burst_every_ms=50.0, burst_duration_ms=10.0,
        )
        assert storm.expected_rate_per_ms() == pytest.approx(1.6)
        assert base.expected_rate_per_ms() == pytest.approx(1.0)
        # Burst windows really contain more arrivals per ms.
        times = storm.times(4000)
        horizon = times[-1]
        in_burst = sum(1 for t in times if storm.in_burst(t))
        burst_ms = (horizon // 50.0) * 10.0
        calm_ms = horizon - burst_ms
        assert in_burst / burst_ms > (len(times) - in_burst) / calm_ms

    def test_in_burst_windows(self):
        plan = ArrivalPlan(
            seed=0, rate_per_ms=1.0, mode=OVERLOAD,
            burst_every_ms=50.0, burst_duration_ms=10.0,
        )
        assert plan.in_burst(0.0)
        assert plan.in_burst(9.9)
        assert not plan.in_burst(10.0)
        assert not plan.in_burst(49.9)
        assert plan.in_burst(50.0)
        assert plan.rate_at(50.0) == pytest.approx(plan.burst_factor)
        # POISSON mode has no bursts at all.
        assert not ArrivalPlan(seed=0, rate_per_ms=1.0).in_burst(0.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            ArrivalPlan(rate_per_ms=0.0)
        with pytest.raises(ConfigError):
            ArrivalPlan(mode="storm")
        with pytest.raises(ConfigError):
            ArrivalPlan(mode=OVERLOAD, burst_factor=0.5)
        with pytest.raises(ConfigError):
            ArrivalPlan(
                mode=OVERLOAD, burst_every_ms=10.0, burst_duration_ms=10.0
            )
        with pytest.raises(ConfigError):
            ArrivalPlan().times(-1)


# ---------------------------------------------------------------------------
# clone_state (the launch-replay primitive)
# ---------------------------------------------------------------------------
class TestCloneState:
    def test_clone_replays_direct_draws(self):
        state = spawn_generator_states(1234, 1)[0]
        a = generator_from_state(clone_state(state)).random(8)
        b = generator_from_state(clone_state(state)).random(8)
        assert np.array_equal(a, b)

    def test_clone_is_spawn_safe(self):
        """Spawning from one attempt must not perturb the next attempt's
        spawned sub-streams (SeedSequence.spawn mutates the sequence)."""
        state = spawn_generator_states(99, 1)[0]

        def spawn_and_draw(seq_state):
            rng = generator_from_state(seq_state)
            children = rng.bit_generator.seed_seq.spawn(4)
            return [generator_from_state(c).random() for c in children]

        first = spawn_and_draw(clone_state(state))
        second = spawn_and_draw(clone_state(state))
        assert first == second
        # Without the clone the second consumer sees different children.
        shared = clone_state(state)
        third = spawn_and_draw(shared)
        fourth = spawn_and_draw(shared)
        assert third == first
        assert fourth != first

    def test_int_states_pass_through(self):
        assert clone_state(42) == 42
