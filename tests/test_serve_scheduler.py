"""Tests for dynamic batching of rounds (repro/serve/scheduler.py)."""

import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.errors import KernelTimeout, ServiceError, ShardFailure
from repro.estimators.alley import AlleyEstimator
from repro.gpu.costmodel import GPUSpec
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.serve.scheduler import BatchScheduler, FairQueue, RoundTask

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


def fifo(tasks=()):
    """A single-tenant :class:`FairQueue`: exact FIFO over ``tasks``."""
    queue = FairQueue()
    for task in tasks:
        queue.append(task)
    return queue


def make_session(plans, i=0, spec=SMALL_SPEC, seed=0):
    cg, order = plans[i % len(plans)]
    engine = GSWORDEngine(AlleyEstimator(), ENGINE_CONFIG, spec)
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
        queue = fifo(
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
        queue = fifo([small[0], big, small[1], small[2]])
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
        queue = fifo([RoundTask(make_session(plans), 10_000)])  # ≫ device
        batch = scheduler.form_batch(queue)
        assert len(batch) == 1 and not queue

    def test_max_batch_requests_cap(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC, max_batch_requests=2)
        queue = fifo(RoundTask(make_session(plans, i), 128) for i in range(4))
        assert len(scheduler.form_batch(queue)) == 2

    def test_empty_queue(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        assert scheduler.form_batch(fifo()) == []


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
            BatchScheduler(n_shards=0)


def crashed_session(plans, monkeypatch, i=0):
    """A session whose launches die the way a crashed shard worker's do."""
    session = make_session(plans, i)

    def run(*args, **kwargs):
        raise ShardFailure("shard 0 worker died mid-round", shard=0)

    monkeypatch.setattr(session.engine, "run", run)
    return session


#: A per-round watchdog ceiling every 128-sample round overruns.
TINY_WATCHDOG_MS = 1e-3


class TestFaultAccounting:
    """The batch's fault bill, per kind of failed round: a crashed shard
    worker and a watchdog kill, alone and mixed in one batch."""

    OVERHEAD = SMALL_SPEC.launch_overhead_ms

    def coresident_ms(self, scheduler, result):
        ok = [r for r in result.round_results if r is not None]
        if not ok:
            return SMALL_SPEC.launch_overhead_ms
        return scheduler.device.coresident_ms(
            [r.profile for r in ok], [r.longest_warp_cycles for r in ok]
        )

    def assert_batch_ms(self, scheduler, result):
        assert result.batch_ms == pytest.approx(
            self.coresident_ms(scheduler, result) + result.fault_ms
        )

    def test_crashed_task_bills_one_launch_overhead(self, plans, monkeypatch):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        session = crashed_session(plans, monkeypatch)
        result = scheduler.execute([RoundTask(session, 128)])
        assert result.round_results == [None]
        assert isinstance(result.failures[0], ShardFailure)
        assert result.n_faults == 1
        assert result.fault_ms == pytest.approx(self.OVERHEAD)
        assert session.n_rounds == 0
        self.assert_batch_ms(scheduler, result)

    def test_timed_out_task_bills_the_watchdog(self, plans):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        session = make_session(plans)
        result = scheduler.execute(
            [RoundTask(session, 128, watchdog_ms=TINY_WATCHDOG_MS)]
        )
        assert result.round_results == [None]
        assert isinstance(result.failures[0], KernelTimeout)
        assert result.n_faults == 1
        # The killed launch held the device for the full ceiling.
        assert result.fault_ms == pytest.approx(TINY_WATCHDOG_MS)
        assert session.n_rounds == 0
        self.assert_batch_ms(scheduler, result)

    def test_mixed_batch_sums_every_bill(self, plans, monkeypatch):
        scheduler = BatchScheduler(spec=SMALL_SPEC)
        tasks = [
            RoundTask(make_session(plans, 0, seed=0), 128, payload="healthy"),
            RoundTask(crashed_session(plans, monkeypatch, 1), 128,
                      payload="crashed"),
            RoundTask(make_session(plans, 2), 128, payload="killed",
                      watchdog_ms=TINY_WATCHDOG_MS),
        ]
        result = scheduler.execute(tasks)
        ok = [r is not None for r in result.round_results]
        assert ok == [True, False, False]
        assert [f is not None for f in result.failures] == [
            False, True, True
        ]
        assert result.n_faults == 2
        assert result.fault_ms == pytest.approx(
            self.OVERHEAD + TINY_WATCHDOG_MS
        )
        assert result.n_samples == result.round_results[0].n_samples
        self.assert_batch_ms(scheduler, result)
