"""Engine-session resilience: checkpoints, retries, watchdog, OOM.

The statistical centrepiece is the retry-unbiasedness property: because
every attempt draws the *next* ``SeedSequence.spawn`` child, retried
rounds are fresh i.i.d. draws and the Horvitz–Thompson estimator's mean
is unchanged by any fault/retry pattern (class docstring of
``EngineSession``).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine, RetryPolicy
from repro.errors import (
    ConfigError,
    DeviceFault,
    DeviceOOM,
    KernelTimeout,
    SimulationError,
)
from repro.estimators.alley import AlleyEstimator
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.gpu.costmodel import DEFAULT_GPU
from repro.gpu.device import DeviceModel
from repro.graph.datasets import load_dataset
from repro.obs.trace import TraceRecorder
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order


@pytest.fixture(scope="module")
def plan_parts():
    graph = load_dataset("yeast")
    query = extract_query(graph, 4, rng=1, name="faults-q4")
    cg = build_candidate_graph(graph, query)
    order = quicksi_order(query, graph)
    assert not cg.is_empty()
    return cg, order


def make_engine(plan=None, watchdog_ms=None, memory_budget_bytes=None,
                recorder=None):
    device = DeviceModel(
        DEFAULT_GPU,
        watchdog_ms=watchdog_ms,
        memory_budget_bytes=memory_budget_bytes,
    )
    injector = FaultInjector(plan) if plan is not None else None
    return GSWORDEngine(
        AlleyEstimator(), EngineConfig.gsword(), DEFAULT_GPU,
        device=device, injector=injector, recorder=recorder,
    )


class TestFaultRaising:
    def test_corruption_raises_device_fault(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine(FaultPlan(overrides={0: (FaultKind.CORRUPTION,)}))
        session = engine.session(cg, order, rng=0)
        with pytest.raises(DeviceFault) as excinfo:
            session.run_round(128)
        assert excinfo.value.kind == "corruption"

    def test_desync_raises_simulation_error(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine(FaultPlan(overrides={0: (FaultKind.DESYNC,)}))
        session = engine.session(cg, order, rng=0)
        with pytest.raises(SimulationError):
            session.run_round(128)

    def test_injected_oom_raises(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine(
            FaultPlan(overrides={0: (FaultKind.OOM,)}),
            memory_budget_bytes=8 << 30,
        )
        session = engine.session(cg, order, rng=0)
        with pytest.raises(DeviceOOM):
            session.run_round(128)

    def test_organic_oom_from_tight_budget(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine(memory_budget_bytes=16)  # nothing fits
        session = engine.session(cg, order, rng=0)
        with pytest.raises(DeviceOOM) as excinfo:
            session.run_round(128)
        assert excinfo.value.requested_bytes == cg.nbytes

    def test_stall_trips_watchdog(self, plan_parts):
        cg, order = plan_parts
        plan = FaultPlan(
            overrides={0: (FaultKind.STALL,)}, stall_factor=1e6
        )
        engine = make_engine(plan, watchdog_ms=5.0)
        session = engine.session(cg, order, rng=0)
        with pytest.raises(KernelTimeout) as excinfo:
            session.run_round(128)
        assert excinfo.value.kernel_ms > excinfo.value.watchdog_ms == 5.0

    def test_stall_without_watchdog_just_runs_slow(self, plan_parts):
        cg, order = plan_parts
        plan = FaultPlan(overrides={0: (FaultKind.STALL,)}, stall_factor=64.0)
        slow = make_engine(plan).session(cg, order, rng=0).run_round(128).result
        fast = make_engine().session(cg, order, rng=0).run_round(128).result
        assert slow.simulated_ms() > fast.simulated_ms()
        assert slow.estimate == fast.estimate  # timing-only fault


class TestCheckpointSemantics:
    def test_failed_round_leaves_session_untouched(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine(FaultPlan(overrides={1: (FaultKind.CORRUPTION,)}))
        session = engine.session(cg, order, rng=0)
        session.run_round(128)
        before = (
            session.n_rounds, session.n_samples,
            session.accumulator.n, session.result().estimate,
        )
        with pytest.raises(DeviceFault):
            session.run_round(128)
        after = (
            session.n_rounds, session.n_samples,
            session.accumulator.n, session.result().estimate,
        )
        assert before == after

    def test_recovery_after_failed_round(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine(FaultPlan(overrides={1: (FaultKind.DESYNC,)}))
        session = engine.session(cg, order, rng=0)
        session.run_round(128)
        with pytest.raises(SimulationError):
            session.run_round(128)
        session.run_round(128)  # the session is still usable
        assert session.n_rounds == 2
        assert session.n_samples >= 256


class TestResilientRetry:
    def test_retry_recovers_and_bills_faults(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine(
            FaultPlan(overrides={
                0: (FaultKind.CORRUPTION,), 1: (FaultKind.DESYNC,),
            })
        )
        session = engine.session(cg, order, rng=0)
        report = session.run_round(128, retry=RetryPolicy(max_retries=3))
        assert report.n_faults == 2
        assert report.n_retries == 2
        assert len(report.errors) == 2
        # 2 abort charges + backoff(0) + backoff(1)
        policy = RetryPolicy()
        expected = (
            2 * engine.spec.launch_overhead_ms
            + policy.backoff_for(0) + policy.backoff_for(1)
        )
        assert report.fault_ms == pytest.approx(expected)
        assert session.n_rounds == 1
        assert session.last_round is report

    def test_retries_exhausted_raises_last_error(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine(FaultPlan(rates={FaultKind.CORRUPTION: 1.0}))
        session = engine.session(cg, order, rng=0)
        with pytest.raises(DeviceFault):
            session.run_round(128, retry=RetryPolicy(max_retries=2))
        report = session.last_round
        assert report.n_faults == 3  # initial attempt + 2 retries
        assert report.n_retries == 2
        assert session.n_rounds == 0
        assert len(report.errors) == 3
        assert report.result is None

    def test_timeout_abort_charges_watchdog(self, plan_parts):
        cg, order = plan_parts
        plan = FaultPlan(overrides={0: (FaultKind.STALL,)}, stall_factor=1e6)
        engine = make_engine(plan, watchdog_ms=7.5)
        session = engine.session(cg, order, rng=0)
        report = session.run_round(128, retry=RetryPolicy(backoff_ms=0.0))
        assert isinstance(report.errors[0], KernelTimeout)
        assert report.fault_ms == pytest.approx(7.5)

    def test_retry_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_factor=0.5)


class TestRetryUnbiasedness:
    """Pre-draw faults (corruption/OOM/desync) abort before the round's
    RNG substream is drawn, so a retried round commits *bit-identical*
    data to the fault-free run — the strongest form of unbiasedness."""

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**20))
    def test_predraw_fault_retry_is_estimate_transparent(
        self, plan_parts, seed
    ):
        cg, order = plan_parts
        healthy = make_engine().session(cg, order, rng=seed)
        healthy.run_round(64)

        faulted_engine = make_engine(
            FaultPlan(overrides={0: (FaultKind.CORRUPTION,)})
        )
        faulted = faulted_engine.session(cg, order, rng=seed)
        report = faulted.run_round(64, retry=RetryPolicy())
        assert report.n_retries == 1
        assert faulted.result().estimate == healthy.result().estimate

    def test_timeout_retry_mean_within_ci(self, plan_parts):
        """Post-draw faults (watchdog timeouts) consume a substream, so
        retried estimates differ sample-wise — but their *mean* over many
        seeds matches the fault-free mean within pooled CI bounds."""
        cg, order = plan_parts
        n_runs, n_samples = 24, 96
        plan = FaultPlan(overrides={0: (FaultKind.STALL,)}, stall_factor=1e6)

        healthy_estimates = []
        faulted_estimates = []
        for seed in range(n_runs):
            h = make_engine().session(cg, order, rng=seed)
            h.run_round(n_samples)
            healthy_estimates.append(h.result().estimate)

            f = make_engine(
                FaultPlan(
                    overrides=plan.overrides, stall_factor=plan.stall_factor
                ),
                watchdog_ms=5.0,
            ).session(cg, order, rng=seed)
            report = f.run_round(
                n_samples, retry=RetryPolicy(max_retries=2)
            )
            assert report.n_retries >= 1  # the fault actually fired
            faulted_estimates.append(f.result().estimate)

        h_mean = float(np.mean(healthy_estimates))
        f_mean = float(np.mean(faulted_estimates))
        pooled_se = float(np.sqrt(
            np.var(healthy_estimates, ddof=1) / n_runs
            + np.var(faulted_estimates, ddof=1) / n_runs
        ))
        assert abs(h_mean - f_mean) <= 5.0 * pooled_se + 1e-9


class TestHedgedRetry:
    """A hedged round's pair of launches is attempt 0 of the retry loop."""

    @pytest.mark.parametrize("max_retries", [0, 1, 2])
    def test_failed_pair_spends_exactly_the_retry_budget(
        self, plan_parts, max_retries
    ):
        cg, order = plan_parts
        rec = TraceRecorder()
        engine = make_engine(
            FaultPlan(seed=1, rates={FaultKind.CORRUPTION: 1.0}),
            recorder=rec,
        )
        session = engine.session(cg, order, rng=0)
        sentinel = rec.begin("sentinel", track="engine")
        with pytest.raises(DeviceFault):
            session.run_round(
                128, retry=RetryPolicy(max_retries=max_retries),
                hedge_delay_ms=0.0,
            )
        rec.end(sentinel)  # the round left no span open on the track
        report = session.last_round
        assert engine.injector.n_launches == 2 + max_retries
        assert len(report.errors) == 2 + max_retries
        assert report.n_retries == max_retries
        assert report.hedged and report.result is None
        rounds = rec.spans("engine.round")
        assert len(rounds) == 1
        assert rounds[0]["args"]["status"] == "failed"
        assert len(rec.spans("sentinel")) == 1

    def test_failed_pair_then_retry_charges_backoff(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine(FaultPlan(overrides={
            0: (FaultKind.CORRUPTION,), 1: (FaultKind.CORRUPTION,),
        }))
        session = engine.session(cg, order, rng=0)
        policy = RetryPolicy(max_retries=2)
        report = session.run_round(128, retry=policy, hedge_delay_ms=0.0)
        overhead = engine.spec.launch_overhead_ms
        assert report.result is not None
        assert report.n_faults == 2 and report.n_retries == 1
        # Both launches died at launch: the pair burned one overhead after
        # the hedge delay, then the single retry waited backoff(0).
        assert report.fault_ms == pytest.approx(overhead + policy.backoff_for(0))
        assert engine.injector.n_launches == 3


class TestLaunchCapture:
    def test_capture_is_the_committed_launch(self, plan_parts):
        """With the hedge armed on every round, the capture must describe
        whichever launch committed — not the losing (stalled) backup."""
        cg, order = plan_parts
        plan = FaultPlan(seed=5, rates={FaultKind.STALL: 0.5},
                         stall_factor=24.0)
        session = make_engine(plan).session(cg, order, rng=0)
        stalled_losers = 0
        for r in range(12):
            report = session.run_round(128, hedge_delay_ms=0.0)
            launch, result = report.launch, report.result
            # Each round launches the primary (2r) and the hedge (2r+1).
            assert launch["launch_index"] == 2 * r + int(report.hedge_won)
            assert launch["simulated_ms"] == result.simulated_ms()
            assert launch["estimate"] == result.estimate
            committed = plan.faults_for(launch["launch_index"])
            expected = plan.stall_factor if committed.stalls else 1.0
            assert launch["stall_factor"] == expected
            if not report.hedge_won and plan.faults_for(2 * r + 1).stalls:
                stalled_losers += 1
        assert stalled_losers > 0  # the plan really produced a stalled loser


class TestEngineWiring:
    def test_mismatched_device_spec_rejected(self):
        from repro.gpu.costmodel import GPUSpec

        other = GPUSpec(sm_count=DEFAULT_GPU.sm_count + 1)
        with pytest.raises(ConfigError):
            GSWORDEngine(
                AlleyEstimator(), EngineConfig.gsword(), DEFAULT_GPU,
                device=DeviceModel(other),
            )

    def test_default_device_attached(self):
        engine = GSWORDEngine(AlleyEstimator())
        assert engine.device.spec == engine.spec
        assert engine.injector is None
