"""Tests for dynamic batching of rounds (repro/serve/scheduler.py)."""

from collections import deque

import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine, RetryPolicy
from repro.errors import DeviceFault, ServiceError
from repro.estimators.alley import AlleyEstimator
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.gpu.costmodel import GPUSpec
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.serve.scheduler import BatchScheduler, RoundTask

#: A small device so batching/warp-cap effects show at test scale.
SMALL_SPEC = GPUSpec(sm_count=2, resident_warps_per_sm=4)  # 8 resident warps
ENGINE_CONFIG = EngineConfig.gsword(tasks_per_warp=128)


@pytest.fixture(scope="module")
def plans():
    graph = load_dataset("yeast")
    out = []
    for i in range(3):
        query = extract_query(graph, 4, rng=i)
        cg = build_candidate_graph(graph, query)
        out.append((cg, quicksi_order(query, graph)))
    return out


def make_session(plans, i=0, spec=SMALL_SPEC, seed=0, fault_plan=None):
    cg, order = plans[i % len(plans)]
    injector = FaultInjector(fault_plan) if fault_plan is not None else None
    engine = GSWORDEngine(AlleyEstimator(), ENGINE_CONFIG, spec,
                          injector=injector)
    return engine.session(cg, order, rng=seed)


class TestRoundTask:
    def test_est_warps(self, plans):
        session = make_session(plans)
        assert RoundTask(session, 128).est_warps() == 1
        assert RoundTask(session, 129).est_warps() == 2
        assert RoundTask(session, 1).est_warps() == 1

    def test_rejects_empty_round(self, plans):
        with pytest.raises(ServiceError):
            RoundTask(make_session(plans), 0)


class TestFormBatch:
    def test_fills_device_then_stops(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        # 256 samples = 2 warps each; 8 resident warps -> 4 tasks per batch.
        queue = deque(
            RoundTask(make_session(plans, i), 256, payload=i) for i in range(6)
        )
        batch = scheduler.form_batch(queue)
        assert [t.payload for t in batch] == [0, 1, 2, 3]  # FIFO prefix
        assert len(queue) == 2

    def test_mixed_sizes_fifo_no_starvation(self, plans):
        """A large task at the head doesn't let later small tasks jump it,
        and a large task behind small ones isn't starved: admission is
        strictly FIFO over the warp budget."""
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        big = RoundTask(make_session(plans, 0), 1024, payload="big")  # 8 warps
        small = [
            RoundTask(make_session(plans, i + 1), 256, payload=f"s{i}")
            for i in range(3)
        ]
        queue = deque([small[0], big, small[1], small[2]])
        first = scheduler.form_batch(queue)
        # small0 (2 warps) + big (8 warps) would exceed 8: batch stops at big?
        # No: big is admitted only if it fits; 2+8 > 8 so the batch is just
        # small0, and big goes next — in arrival order, never skipped.
        assert [t.payload for t in first] == ["s0"]
        second = scheduler.form_batch(queue)
        assert [t.payload for t in second] == ["big"]
        third = scheduler.form_batch(queue)
        assert [t.payload for t in third] == ["s1", "s2"]

    def test_oversized_task_still_admitted_alone(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        queue = deque([RoundTask(make_session(plans), 10_000)])  # ≫ device
        batch = scheduler.form_batch(queue)
        assert len(batch) == 1 and not queue

    def test_max_batch_requests_cap(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC, max_batch_requests=2)
        queue = deque(RoundTask(make_session(plans, i), 128) for i in range(4))
        assert len(scheduler.form_batch(queue)) == 2

    def test_empty_queue(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        assert scheduler.form_batch(deque()) == []
        assert scheduler.run_tick(deque()) is None


class TestExecute:
    def test_batch_accounting_sums_members(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        tasks = [RoundTask(make_session(plans, i, seed=i), 256) for i in range(3)]
        result = scheduler.execute(tasks)
        assert result.n_samples == sum(r.n_samples for r in result.round_results)
        assert result.n_warps == sum(r.n_warps for r in result.round_results)
        assert result.batch_ms > 0
        assert result.samples_per_second > 0

    def test_coresident_batch_beats_serial_launches(self, plans):
        """The fused batch is faster than the same kernels back-to-back —
        emergent from shared occupancy + one launch overhead."""
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        tasks = [RoundTask(make_session(plans, i, seed=i), 256) for i in range(4)]
        result = scheduler.execute(tasks)
        serial_ms = sum(r.simulated_ms() for r in result.round_results)
        assert result.batch_ms < serial_ms

    def test_coresident_no_faster_than_physics(self, plans):
        """The fused batch can't beat the work/parallelism lower bound."""
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        tasks = [RoundTask(make_session(plans, i, seed=i), 256) for i in range(4)]
        result = scheduler.execute(tasks)
        total_cycles = sum(r.profile.total_cycles for r in result.round_results)
        floor = SMALL_SPEC.launch_overhead_ms + SMALL_SPEC.cycles_to_ms(
            total_cycles / SMALL_SPEC.resident_warps
        )
        assert result.batch_ms >= floor * 0.999

    def test_spec_mismatch_rejected(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        alien = make_session(plans, 0, spec=GPUSpec())  # different device
        with pytest.raises(ServiceError):
            scheduler.execute([RoundTask(alien, 128)])

    def test_empty_batch_rejected(self, plans):
        with pytest.raises(ServiceError):
            BatchScheduler(spec=SMALL_SPEC).execute([])

    def test_bad_config_rejected(self):
        with pytest.raises(ServiceError):
            BatchScheduler(max_batch_requests=0)
        with pytest.raises(ServiceError):
            BatchScheduler(warp_overcommit=0)


#: Corruption on the listed launches of one engine (pre-draw faults: the
#: failed launch costs one launch overhead and no RNG substream).
def corrupt(*launches):
    return FaultPlan(overrides={i: (FaultKind.CORRUPTION,) for i in launches})


class TestFaultAccounting:
    """The batch's fault bill, per kind of task: fail-fast, retried,
    retry-exhausted and hedged rounds, alone and mixed in one batch."""

    OVERHEAD = SMALL_SPEC.launch_overhead_ms
    POLICY = RetryPolicy(max_retries=2)

    def coresident_ms(self, scheduler, result):
        ok = [r for r in result.round_results if r is not None]
        if not ok:
            return SMALL_SPEC.launch_overhead_ms
        return scheduler.device.coresident_ms(
            [r.profile for r in ok], [r.longest_warp_cycles for r in ok]
        )

    def assert_batch_ms(self, scheduler, result):
        assert result.batch_ms == pytest.approx(
            self.coresident_ms(scheduler, result)
            + result.fault_ms + result.hedge_extra_ms
        )

    def test_fail_fast_task_bills_one_abort(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        session = make_session(plans, fault_plan=corrupt(0))
        result = scheduler.execute([RoundTask(session, 128, retry=None)])
        assert result.round_results == [None]
        assert isinstance(result.failures[0], DeviceFault)
        assert result.n_faults == 1
        assert result.n_retries == 0
        assert result.fault_ms == pytest.approx(self.OVERHEAD)
        assert result.fault_kinds == ["corruption"]
        assert result.n_hedges == 0
        self.assert_batch_ms(scheduler, result)

    def test_task_recovers_after_retries(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        session = make_session(plans, fault_plan=corrupt(0, 1))
        result = scheduler.execute(
            [RoundTask(session, 128, retry=self.POLICY)]
        )
        assert result.failures == [None]
        assert result.round_results[0] is not None
        assert result.n_faults == 2
        assert result.n_retries == 2
        assert result.fault_ms == pytest.approx(
            2 * self.OVERHEAD
            + self.POLICY.backoff_for(0) + self.POLICY.backoff_for(1)
        )
        assert result.fault_kinds == ["corruption", "corruption"]
        assert session.n_rounds == 1
        self.assert_batch_ms(scheduler, result)

    def test_task_exhausts_retries(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        session = make_session(plans, fault_plan=corrupt(0, 1, 2))
        result = scheduler.execute(
            [RoundTask(session, 128, retry=self.POLICY)]
        )
        assert result.round_results == [None]
        assert isinstance(result.failures[0], DeviceFault)
        assert result.n_faults == 3
        assert result.n_retries == 2
        assert result.fault_ms == pytest.approx(
            3 * self.OVERHEAD
            + self.POLICY.backoff_for(0) + self.POLICY.backoff_for(1)
        )
        assert result.fault_kinds == ["corruption"] * 3
        assert session.n_rounds == 0
        self.assert_batch_ms(scheduler, result)

    def test_hedged_task_rides_out_a_failed_primary(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        session = make_session(plans, fault_plan=corrupt(0))
        result = scheduler.execute(
            [RoundTask(session, 128, hedge_delay_ms=0.01)]
        )
        assert result.failures == [None]
        assert result.n_faults == 1
        assert result.n_retries == 0
        assert result.fault_ms == 0.0  # overlapped by the hedge
        assert result.fault_kinds == ["corruption"]
        assert result.n_hedges == 1 and result.n_hedge_wins == 1
        assert result.hedge_extra_ms == pytest.approx(0.01)
        self.assert_batch_ms(scheduler, result)

    def test_mixed_batch_sums_every_bill(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        tasks = [
            RoundTask(make_session(plans, 0, seed=0), 128, payload="healthy"),
            RoundTask(make_session(plans, 1, fault_plan=corrupt(0)), 128,
                      payload="fail-fast"),
            RoundTask(make_session(plans, 2, fault_plan=corrupt(0)), 128,
                      payload="retried", retry=self.POLICY),
            RoundTask(make_session(plans, 0, seed=3, fault_plan=corrupt(0)),
                      128, payload="hedged", hedge_delay_ms=0.01),
        ]
        result = scheduler.execute(tasks)
        ok = [r is not None for r in result.round_results]
        assert ok == [True, False, True, True]
        assert [f is not None for f in result.failures] == [
            False, True, False, False
        ]
        assert result.n_faults == 3
        assert result.n_retries == 1
        assert result.fault_ms == pytest.approx(
            2 * self.OVERHEAD + self.POLICY.backoff_for(0)
        )
        assert result.fault_kinds == ["corruption"] * 3
        assert result.n_hedges == 1 and result.n_hedge_wins == 1
        assert result.n_samples == sum(
            r.n_samples for r in result.round_results if r is not None
        )
        self.assert_batch_ms(scheduler, result)
