"""Engine-session resilience: checkpoints, the launch watchdog, capture.

A round fails in two ways a running service meets: the watchdog kills a
launch that overruns its per-round ceiling (the serving layer derives it
from the request's deadline), or a shard worker dies mid-round.  The
watchdog cases here use a tiny per-round ``watchdog_ms`` on a healthy
session.  The statistical centrepiece: every round draws the *next*
``SeedSequence.spawn`` child, so the round after a killed one is a fresh
i.i.d. draw and the Horvitz–Thompson estimator's mean is unchanged
(class docstring of ``EngineSession``).
"""

from dataclasses import fields

import numpy as np
import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import (
    RECOVERABLE_ERRORS,
    EngineSession,
    GSWORDEngine,
    RoundReport,
)
from repro.errors import (
    ConfigError,
    DeviceFault,
    EnumerationBudgetExceeded,
    KernelTimeout,
    QueryError,
    ReproError,
    ServiceError,
    ShardFailure,
    SimulationError,
)
from repro.estimators.alley import AlleyEstimator
from repro.gpu.costmodel import DEFAULT_GPU
from repro.gpu.device import DeviceModel
from repro.graph.datasets import load_dataset
from repro.obs.trace import TraceRecorder
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.utils.rng import clone_state, generator_from_state

#: A per-round watchdog ceiling no launch fits under.
TINY_WATCHDOG_MS = 1e-6


@pytest.fixture(scope="module")
def plan_parts():
    graph = load_dataset("yeast")
    query = extract_query(graph, 4, rng=1, name="faults-q4")
    cg = build_candidate_graph(graph, query)
    order = quicksi_order(query, graph)
    assert not cg.is_empty()
    return cg, order


def make_engine(recorder=None):
    return GSWORDEngine(
        AlleyEstimator(), EngineConfig.gsword(), DEFAULT_GPU,
        recorder=recorder,
    )


class TestErrorHierarchy:
    def test_device_faults_under_repro_error(self):
        for error in (DeviceFault(), KernelTimeout(2.0, 1.0), ShardFailure()):
            assert isinstance(error, ReproError)
            assert isinstance(error, DeviceFault)

    def test_timeout_carries_times(self):
        error = KernelTimeout(12.5, 5.0)
        assert error.kernel_ms == 12.5
        assert error.watchdog_ms == 5.0

    def test_enumeration_budget_partial_count(self):
        error = EnumerationBudgetExceeded(17)
        assert error.partial_count == 17

    def test_timeout_message_names_both_times(self):
        message = str(KernelTimeout(12.5, 5.0))
        assert "12.500" in message and "5.000" in message

    def test_shard_failure_carries_the_shard(self):
        error = ShardFailure("shard 3 worker died mid-round", shard=3)
        assert error.shard == 3
        assert str(error) == "shard 3 worker died mid-round"

    def test_shard_failure_defaults(self):
        error = ShardFailure()
        assert error.shard is None
        assert str(error) == "shard worker failure"


class TestDeviceWatchdog:
    @pytest.mark.parametrize(
        "kernel_ms, ceiling_ms, kills",
        [
            (5.0, None, False),
            (1e9, None, False),
            (5.0, 10.0, False),
            (5.0, 5.0, False),
            (0.0, 0.0, False),
            (5.0001, 5.0, True),
        ],
        ids=[
            "no-ceiling", "no-ceiling-huge", "under", "at-ceiling",
            "zero-at-zero", "over",
        ],
    )
    def test_kills_only_a_launch_over_its_ceiling(
        self, kernel_ms, ceiling_ms, kills
    ):
        device = DeviceModel(DEFAULT_GPU)
        if not kills:
            device.check_watchdog(kernel_ms, ceiling_ms)
            return
        with pytest.raises(KernelTimeout) as excinfo:
            device.check_watchdog(kernel_ms, ceiling_ms)
        assert excinfo.value.kernel_ms == kernel_ms
        assert excinfo.value.watchdog_ms == ceiling_ms


class TestWatchdog:
    def test_tiny_watchdog_kills_the_launch(self, plan_parts):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=0)
        with pytest.raises(KernelTimeout) as excinfo:
            session.run_round(128, watchdog_ms=TINY_WATCHDOG_MS)
        error = excinfo.value
        assert error.kernel_ms > error.watchdog_ms == TINY_WATCHDOG_MS

    def test_roomy_watchdog_lets_the_round_commit(self, plan_parts):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=0)
        report = session.run_round(128, watchdog_ms=1e6)
        assert report.result is not None and report.error is None
        assert session.n_rounds == 1

    def test_killed_launch_is_billed_the_ceiling(self, plan_parts):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=0)
        with pytest.raises(KernelTimeout):
            session.run_round(128, watchdog_ms=0.002)
        report = session.last_round
        assert isinstance(report.error, KernelTimeout)
        # The aborted launch held the device for the full ceiling.
        assert report.fault_ms == 0.002


class TestWatchdogCeiling:
    """The ceiling is compared with the launch's own simulated ms: a
    same-seed launch commits at or above its duration and dies below it."""

    @pytest.fixture(scope="class")
    def launch_ms(self, plan_parts):
        cg, order = plan_parts
        report = make_engine().session(cg, order, rng=5).run_round(128)
        return report.result.simulated_ms()

    @pytest.mark.parametrize("factor", [1.0, 1.5, 1000.0])
    def test_ceiling_at_or_above_the_launch_commits(
        self, plan_parts, launch_ms, factor
    ):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=5)
        report = session.run_round(128, watchdog_ms=launch_ms * factor)
        assert report.error is None
        assert report.result.simulated_ms() == launch_ms

    @pytest.mark.parametrize("factor", [0.5, 0.999])
    def test_ceiling_below_the_launch_kills(
        self, plan_parts, launch_ms, factor
    ):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=5)
        with pytest.raises(KernelTimeout) as excinfo:
            session.run_round(128, watchdog_ms=launch_ms * factor)
        assert excinfo.value.kernel_ms == launch_ms
        assert session.n_rounds == 0


def failing_engine(monkeypatch, error):
    """An engine whose every launch raises ``error`` before executing
    (the way a dead shard worker fails a round)."""
    engine = make_engine()

    def run(*args, **kwargs):
        raise error

    monkeypatch.setattr(engine, "run", run)
    return engine


class TestRoundFailures:
    @pytest.mark.parametrize(
        "error",
        [
            ShardFailure("shard 1 worker died mid-round", shard=1),
            SimulationError("lane mismatch"),
            DeviceFault("device fault"),
        ],
        ids=["shard-failure", "simulation-error", "device-fault"],
    )
    def test_recoverable_error_fails_the_round_at_launch_overhead(
        self, plan_parts, monkeypatch, error
    ):
        cg, order = plan_parts
        session = failing_engine(monkeypatch, error).session(cg, order, rng=0)
        with pytest.raises(type(error)):
            session.run_round(128)
        report = session.last_round
        assert report.error is error
        assert report.result is None
        assert report.fault_ms == DEFAULT_GPU.launch_overhead_ms
        assert session.n_rounds == 0 and session.n_samples == 0

    @pytest.mark.parametrize(
        "error",
        [ConfigError("bad config"), ValueError("programming error")],
        ids=["config-error", "value-error"],
    )
    def test_other_errors_propagate_unbilled(
        self, plan_parts, monkeypatch, error
    ):
        cg, order = plan_parts
        session = failing_engine(monkeypatch, error).session(cg, order, rng=0)
        with pytest.raises(type(error)):
            session.run_round(128)
        report = session.last_round
        assert report.error is None and report.fault_ms == 0.0
        assert report.result is None

    @pytest.mark.parametrize(
        "error, recoverable",
        [
            (KernelTimeout(2.0, 1.0), True),
            (ShardFailure(), True),
            (SimulationError(), True),
            (ConfigError(), False),
            (QueryError(), False),
            (ServiceError(), False),
        ],
        ids=[
            "kernel-timeout", "shard-failure", "simulation-error",
            "config-error", "query-error", "service-error",
        ],
    )
    def test_recoverable_errors_are_the_device_failures(
        self, error, recoverable
    ):
        assert isinstance(error, RECOVERABLE_ERRORS) == recoverable

    def test_session_recovers_after_a_shard_failure(
        self, plan_parts, monkeypatch
    ):
        cg, order = plan_parts
        engine = make_engine()
        session = engine.session(cg, order, rng=2)
        real_run = engine.run
        calls = []

        def run(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise ShardFailure("shard 0 worker died mid-round", shard=0)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(engine, "run", run)
        with pytest.raises(ShardFailure):
            session.run_round(128)
        report = session.run_round(128)
        assert report.error is None
        # The failed round committed nothing, so the next one is the
        # session's first committed round.
        assert report.launch["round"] == 0
        assert session.n_rounds == 1


class TestRunRoundSurface:
    def test_round_report_fields(self):
        assert [f.name for f in fields(RoundReport)] == [
            "result", "error", "fault_ms", "launch",
        ]

    def test_run_round_takes_no_retry_argument(self, plan_parts):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=0)
        with pytest.raises(TypeError):
            session.run_round(128, retry=False)
        assert session.last_round is None

    def test_ledger_aliases_are_run_round(self):
        assert EngineSession.run_round_resilient is EngineSession.run_round
        assert EngineSession.run_round_hedged is EngineSession.run_round


class TestCheckpointSemantics:
    def test_failed_round_leaves_session_untouched(self, plan_parts):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=0)
        session.run_round(128)
        before = (
            session.n_rounds, session.n_samples,
            session.accumulator.n, session.result().estimate,
        )
        with pytest.raises(KernelTimeout):
            session.run_round(128, watchdog_ms=TINY_WATCHDOG_MS)
        after = (
            session.n_rounds, session.n_samples,
            session.accumulator.n, session.result().estimate,
        )
        assert before == after

    def test_recovery_after_failed_round(self, plan_parts):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=0)
        session.run_round(128)
        with pytest.raises(KernelTimeout):
            session.run_round(128, watchdog_ms=TINY_WATCHDOG_MS)
        session.run_round(128)  # the session is still usable
        assert session.n_rounds == 2
        assert session.n_samples >= 256


class TestUnbiasedness:
    def test_round_after_a_kill_keeps_the_mean(self, plan_parts):
        """A killed launch consumes its substream, so the round after it
        differs sample-wise from the healthy run — but the *mean* over
        many seeds matches the healthy mean within pooled CI bounds."""
        cg, order = plan_parts
        n_runs, n_samples = 24, 96

        healthy_estimates = []
        killed_estimates = []
        for seed in range(n_runs):
            h = make_engine().session(cg, order, rng=seed)
            h.run_round(n_samples)
            healthy_estimates.append(h.result().estimate)

            k = make_engine().session(cg, order, rng=seed)
            with pytest.raises(KernelTimeout):
                k.run_round(n_samples, watchdog_ms=TINY_WATCHDOG_MS)
            k.run_round(n_samples)
            killed_estimates.append(k.result().estimate)

        h_mean = float(np.mean(healthy_estimates))
        k_mean = float(np.mean(killed_estimates))
        pooled_se = float(np.sqrt(
            np.var(healthy_estimates, ddof=1) / n_runs
            + np.var(killed_estimates, ddof=1) / n_runs
        ))
        assert abs(h_mean - k_mean) <= 5.0 * pooled_se + 1e-9


class TestFailedRound:
    def test_failed_round_traces_one_closed_round_span(self, plan_parts):
        cg, order = plan_parts
        rec = TraceRecorder()
        session = make_engine(recorder=rec).session(cg, order, rng=0)
        sentinel = rec.begin("sentinel", track="engine")
        with pytest.raises(KernelTimeout):
            session.run_round(128, watchdog_ms=TINY_WATCHDOG_MS)
        rec.end(sentinel)  # the round left no span open on the track
        assert session.last_round.result is None
        assert len(rec.spans("kernel.launch")) == 1  # exactly one launch
        rounds = rec.spans("engine.round")
        assert len(rounds) == 1
        assert rounds[0]["args"]["status"] == "failed"
        assert rounds[0]["args"]["error"] == "KernelTimeout"
        aborts = rec.spans("kernel.abort")
        assert len(aborts) == 1
        assert aborts[0]["args"]["watchdog_ms"] == TINY_WATCHDOG_MS
        assert len(rec.spans("sentinel")) == 1
        rec.chrome_trace()  # raises while any span is still open


class TestLaunchCapture:
    def test_capture_is_the_committed_launch(self, plan_parts):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=0)
        for r in range(6):
            report = session.run_round(128)
            launch, result = report.launch, report.result
            assert launch["round"] == r
            assert launch["n_samples"] == 128
            assert launch["simulated_ms"] == result.simulated_ms()
            assert launch["estimate"] == result.estimate

    def test_timed_out_round_captures_the_killed_launch(self, plan_parts):
        """A failed round keeps the capture of the launch the watchdog
        killed: the one a postmortem bundle needs to replay."""
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=0)
        with pytest.raises(KernelTimeout):
            session.run_round(128, watchdog_ms=TINY_WATCHDOG_MS)
        report = session.last_round
        assert report.result is None
        assert report.launch["round"] == 0
        assert report.launch["simulated_ms"] == report.error.kernel_ms
        assert report.launch["simulated_ms"] > TINY_WATCHDOG_MS

    def test_launch_that_never_executed_is_not_captured(
        self, plan_parts, monkeypatch
    ):
        cg, order = plan_parts
        engine = failing_engine(
            monkeypatch, ShardFailure("shard 0 worker died mid-round", shard=0)
        )
        session = engine.session(cg, order, rng=0)
        with pytest.raises(ShardFailure):
            session.run_round(128)
        assert session.last_round.launch is None

    def test_killed_launch_replays_from_its_capture(self, plan_parts):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=4)
        with pytest.raises(KernelTimeout):
            session.run_round(128, watchdog_ms=TINY_WATCHDOG_MS)
        launch = session.last_round.launch
        rng = generator_from_state(clone_state(launch["rng_state"]))
        replay = make_engine().run(cg, order, launch["n_samples"], rng=rng)
        assert replay.estimate == launch["estimate"]
        assert replay.simulated_ms() == launch["simulated_ms"]

    def test_captured_state_replays_the_committed_round(self, plan_parts):
        cg, order = plan_parts
        engine = make_engine()
        session = engine.session(cg, order, rng=11)
        session.run_round(96)
        launch = session.run_round(128).launch
        rng = generator_from_state(clone_state(launch["rng_state"]))
        replay = make_engine().run(cg, order, launch["n_samples"], rng=rng)
        assert replay.estimate == launch["estimate"]
        assert replay.simulated_ms() == launch["simulated_ms"]
        assert launch["round"] == 1


class TestRoundReport:
    def test_healthy_round_reports_an_empty_fault_bill(self, plan_parts):
        cg, order = plan_parts
        session = make_engine().session(cg, order, rng=3)
        report = session.run_round(192)
        assert session.last_round is report
        assert report.result is not None
        assert report.error is None and report.fault_ms == 0.0
        assert report.launch["n_samples"] == 192
        assert report.launch["estimate"] == report.result.estimate


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
