"""Tests for repro.obs.flight: the bounded flight-recorder ring, RNG
state serialization, the trigger monitor (cooldowns, lazy contexts),
postmortem bundle I/O, bit-identical replay, and the serving layer's
end-to-end capture-then-replay path under a deterministic shed storm and
under deadline-watchdog kills."""

import json

import numpy as np
import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.errors import ObservabilityError, Overloaded, ServiceError
from repro.estimators.alley import AlleyEstimator
from repro.gpu.costmodel import GPUSpec
from repro.graph.datasets import load_dataset
from repro.obs import NO_TRACE, TraceRecorder
from repro.obs.flight import (
    FLIGHT_SCHEMA,
    MAX_BUNDLES,
    SHED_MIN_EVENTS,
    SHED_RATE_THRESHOLD,
    SHED_WINDOW_MS,
    TRIGGER_COOLDOWN_MS,
    TRIGGER_KINDS,
    FlightMonitor,
    FlightRecorder,
    build_bundle,
    deserialize_rng_state,
    graph_identity,
    load_bundle,
    replay_bundle,
    serialize_engine_config,
    serialize_gpu_spec,
    serialize_plan,
    serialize_rng_state,
    serialize_round,
    write_bundle,
)
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.serve import (
    AdmissionPolicy,
    EstimateRequest,
    EstimationService,
    ServiceConfig,
)
from repro.serve.controller import BudgetPolicy
from repro.utils.rng import clone_state, derive_seed, generator_from_state


@pytest.fixture(scope="module")
def workload():
    graph = load_dataset("yeast")
    query = extract_query(graph, 4, rng=8)
    cg = build_candidate_graph(graph, query)
    order = quicksi_order(query, graph)
    return graph, query, cg, order


def _context():
    """Minimal live-object trigger context a monitor can serialize."""
    return {"engine_config": EngineConfig(), "gpu_spec": GPUSpec()}


# ----------------------------------------------------------------------
# The bounded ring
# ----------------------------------------------------------------------
class TestFlightRecorderRing:
    def test_ring_bounded_and_counts_evictions(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.instant(f"e{i}", track="engine", sim_ms=float(i))
        assert rec.n_evicted == 12
        snap = rec.ring_snapshot()
        events = [e for e in snap["traceEvents"] if e["ph"] != "M"]
        assert len(events) == 8
        # The ring keeps the *most recent* capacity events.
        assert [e["name"] for e in events] == [f"e{i}" for i in range(12, 20)]
        assert snap["otherData"]["ring_capacity"] == 8
        assert snap["otherData"]["n_evicted"] == 12

    def test_ring_snapshot_tolerates_open_spans(self):
        rec = FlightRecorder(capacity=16)
        rec.begin("batch", track="engine")
        rec.instant("mid", track="engine")
        # A postmortem snapshot happens mid-flight: the open span is
        # reported, not an error (unlike chrome_trace()).
        snap = rec.ring_snapshot()
        assert snap["otherData"]["open_spans"] == ["batch"]
        with pytest.raises(ObservabilityError):
            rec.chrome_trace()

    def test_capacity_validated(self):
        with pytest.raises(ObservabilityError):
            FlightRecorder(capacity=0)

    def test_flight_recording_is_bit_identical(self, workload):
        _, _, cg, order = workload
        plain = GSWORDEngine(AlleyEstimator(), EngineConfig()).run(
            cg, order, 256, rng=7
        )
        rec = FlightRecorder(capacity=64)
        recorded = GSWORDEngine(
            AlleyEstimator(), EngineConfig(), recorder=rec
        ).run(cg, order, 256, rng=7)
        assert recorded.estimate == plain.estimate
        assert recorded.simulated_ms() == plain.simulated_ms()
        assert rec.n_events > 0


# ----------------------------------------------------------------------
# Serialization building blocks
# ----------------------------------------------------------------------
class TestRngStateSerde:
    def test_seed_sequence_round_trip(self):
        state = np.random.SeedSequence(42).spawn(3)[2]
        payload = json.loads(json.dumps(serialize_rng_state(state)))
        back = deserialize_rng_state(payload)
        assert isinstance(back, np.random.SeedSequence)
        assert back.spawn_key == state.spawn_key
        a = generator_from_state(clone_state(state)).integers(0, 1 << 30, 16)
        b = generator_from_state(clone_state(back)).integers(0, 1 << 30, 16)
        assert (a == b).all()

    def test_int_round_trip(self):
        payload = json.loads(json.dumps(serialize_rng_state(1234)))
        assert deserialize_rng_state(payload) == 1234

    def test_unknown_kind_rejected(self):
        with pytest.raises(ObservabilityError):
            deserialize_rng_state({"kind": "mt19937-raw", "value": 1})


class TestGraphIdentity:
    def test_explicit_id_with_fingerprint_kept_verbatim(self):
        # The graph must not even be touched (no fingerprint hashing).
        assert graph_identity(object(), graph_id="g@v3#abc") == "g@v3#abc"

    def test_composed_from_graph(self, workload):
        graph = workload[0]
        fp = graph.content_fingerprint()
        assert graph_identity(graph) == f"yeast@v0#{fp}"
        assert graph_identity(graph, graph_id="yeast@v2") == f"yeast@v2#{fp}"


# ----------------------------------------------------------------------
# The trigger monitor
# ----------------------------------------------------------------------
class TestFlightMonitor:
    def test_consider_builds_bundle(self):
        rec = FlightRecorder(capacity=16)
        rec.instant("warmup", track="engine")
        monitor = FlightMonitor(rec)
        bundle = monitor.consider(
            "shed_spike", 3.0, {"reason": "queue_full"}, _context()
        )
        assert bundle is not None and bundle in monitor.bundles
        assert bundle["schema"] == FLIGHT_SCHEMA
        assert bundle["trigger"]["kind"] == "shed_spike"
        assert bundle["trigger"]["sim_ms"] == 3.0
        assert bundle["trigger"]["details"]["reason"] == "queue_full"
        names = [
            e["name"] for e in bundle["ring"]["traceEvents"]
            if e["ph"] != "M"
        ]
        # The trigger annotates the ring before snapshotting it.
        assert names[-1] == "flight.trigger"
        json.dumps(bundle)  # self-contained and JSON-safe

    def test_trigger_kinds_are_exactly_these(self):
        # A run of shard crashes fires nothing: only watchdog kills,
        # shed spikes and q-error drift snapshot a bundle.
        assert TRIGGER_KINDS == ("kernel_timeout", "shed_spike", "qerror_drift")
        monitor = FlightMonitor(NO_TRACE)
        with pytest.raises(ObservabilityError):
            monitor.consider("breaker_open", 0.0, {}, _context())

    def test_unknown_kind_rejected(self):
        monitor = FlightMonitor(NO_TRACE)
        with pytest.raises(ObservabilityError):
            monitor.consider("disk_full", 0.0, {}, _context())
        with pytest.raises(ObservabilityError):
            build_bundle(
                kind="disk_full", sim_ms=0.0, details={}, ring={},
                metrics={},
                engine_config=serialize_engine_config(EngineConfig()),
                gpu_spec=serialize_gpu_spec(GPUSpec()), graph="",
                plan=None, round_capture=None,
            )

    def test_cooldown_suppresses_per_kind(self):
        assert TRIGGER_COOLDOWN_MS == 50.0
        monitor = FlightMonitor(FlightRecorder(capacity=8))
        ctx = _context()
        assert monitor.consider("shed_spike", 0.0, {}, ctx) is not None
        assert monitor.consider("shed_spike", 10.0, {}, ctx) is None
        # Cooldowns are per kind: a different trigger still fires.
        assert monitor.consider("kernel_timeout", 10.0, {}, ctx) is not None
        assert monitor.consider("shed_spike", 60.0, {}, ctx) is not None
        assert monitor.n_triggers == 3
        assert monitor.n_suppressed == 1
        assert monitor.snapshot()["bundle_kinds"] == [
            "shed_spike", "kernel_timeout", "shed_spike"
        ]

    def test_max_bundles_drops_oldest(self):
        monitor = FlightMonitor(FlightRecorder(capacity=8))
        ctx = _context()
        for i in range(MAX_BUNDLES + 1):  # each past the previous cooldown
            monitor.consider(
                "qerror_drift", i * TRIGGER_COOLDOWN_MS, {"i": i}, ctx
            )
        assert len(monitor.bundles) == MAX_BUNDLES
        assert [b["trigger"]["details"]["i"] for b in monitor.bundles] == list(
            range(1, MAX_BUNDLES + 1)
        )

    def test_lazy_context_evaluated_only_on_fire(self):
        monitor = FlightMonitor(FlightRecorder(capacity=8))
        calls = []

        def context():
            calls.append(1)
            return _context()

        assert monitor.consider("shed_spike", 0.0, {}, context) is not None
        assert monitor.consider("shed_spike", 1.0, {}, context) is None
        # The suppressed firing never paid for context serialization.
        assert len(calls) == 1

    def test_check_shed_gates(self):
        # Fires at a shed rate >= 0.5 over >= 8 admission decisions.
        monitor = FlightMonitor(FlightRecorder(capacity=8))
        ctx = _context()
        assert monitor.check_shed(0.0, 1.0, 4, ctx) is None  # too few events
        assert monitor.check_shed(0.0, 0.4, 16, ctx) is None  # below rate
        bundle = monitor.check_shed(0.0, 0.8, 16, ctx, details={"reason": "q"})
        assert bundle is not None
        assert bundle["trigger"]["details"]["shed_rate"] == 0.8
        assert bundle["trigger"]["details"]["reason"] == "q"

    def test_check_shed_fires_at_its_exact_thresholds(self):
        monitor = FlightMonitor(FlightRecorder(capacity=8))
        ctx = _context()
        rate = SHED_RATE_THRESHOLD
        assert monitor.check_shed(0.0, rate, SHED_MIN_EVENTS - 1, ctx) is None
        bundle = monitor.check_shed(0.0, rate, SHED_MIN_EVENTS, ctx)
        assert bundle is not None
        assert bundle["trigger"]["details"]["window_ms"] == SHED_WINDOW_MS
        # A second spike inside the cooldown is suppressed, not re-fired.
        assert monitor.check_shed(1.0, 1.0, 32, ctx) is None
        assert monitor.n_suppressed == 1

    def test_check_q_error(self):
        monitor = FlightMonitor(FlightRecorder(capacity=8))  # bound 2.0
        ctx = _context()
        assert monitor.check_q_error(0.0, 110.0, 100.0, ctx) is None
        bundle = monitor.check_q_error(0.0, 10.0, 100.0, ctx)
        assert bundle is not None
        assert bundle["trigger"]["details"]["q_error"] == 10.0
        # A zero reference is an infinite q-error, not a crash.
        monitor2 = FlightMonitor(FlightRecorder(capacity=8))
        assert monitor2.check_q_error(0.0, 5.0, 0.0, ctx) is not None


# ----------------------------------------------------------------------
# Bundle I/O
# ----------------------------------------------------------------------
class TestBundleIO:
    def test_write_load_round_trip(self, tmp_path):
        monitor = FlightMonitor(FlightRecorder(capacity=8))
        bundle = monitor.consider("shed_spike", 2.0, {}, _context())
        path = str(tmp_path / "bundle.json")
        write_bundle(bundle, path)
        assert load_bundle(path) == json.loads(json.dumps(bundle))

    def test_load_rejects_garbage_and_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        with pytest.raises(ObservabilityError):
            load_bundle(str(bad))
        wrong = tmp_path / "wrong.json"
        wrong.write_text(json.dumps({"schema": "repro.trace/1"}))
        with pytest.raises(ObservabilityError):
            load_bundle(str(wrong))
        with pytest.raises(ObservabilityError):
            load_bundle(str(tmp_path / "missing.json"))
        # A repro.flight/1 bundle, whose engine_config still carries the
        # retired RNG-mode field: refused by schema, not by a TypeError
        # when replay rebuilds its EngineConfig.
        old = tmp_path / "old.json"
        old_config = dict(serialize_engine_config(EngineConfig()))
        old_config["rng_" + "mode"] = "sequential"
        old.write_text(json.dumps(
            {"schema": "repro.flight/1", "engine_config": old_config}
        ))
        with pytest.raises(ObservabilityError, match="repro.flight/1"):
            load_bundle(str(old))


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def _make_bundle(workload, config, n_samples=512):
    """Run one engine round, then hand-capture it the way the serving
    layer does, through the same serialize_* helpers a live trigger uses."""
    graph, query, cg, order = workload
    state = np.random.SeedSequence(derive_seed(123, "flight-replay"))
    engine = GSWORDEngine(AlleyEstimator(), config)
    try:
        result = engine.run(
            cg, order, n_samples, rng=generator_from_state(clone_state(state))
        )
    finally:
        engine.close()
    launch = {
        "rng_state": state,
        "n_samples": n_samples,
        "estimate": float(result.estimate),
        "simulated_ms": float(result.simulated_ms()),
        "backend": result.backend_label,
        "n_warps": int(result.n_warps),
        "round": 1,
    }
    return build_bundle(
        kind="kernel_timeout",
        sim_ms=5.0,
        details={},
        ring={"traceEvents": [], "otherData": {"source": "none"}},
        metrics={},
        engine_config=serialize_engine_config(config),
        gpu_spec=serialize_gpu_spec(GPUSpec()),
        graph=graph_identity(graph),
        plan=serialize_plan(graph, query, order, "alley", "quicksi"),
        round_capture=serialize_round(launch),
    )


class TestReplay:
    def test_sequential_replay_bit_identical(self, workload):
        bundle = _make_bundle(workload, EngineConfig())
        # A JSON round trip first: replay must work from the file form.
        report = replay_bundle(json.loads(json.dumps(bundle)))
        assert report["match"]
        assert report["estimate_match"] and report["simulated_ms_match"]
        assert report["replayed"] == report["expected"]

    def test_tampered_expectation_detected(self, workload):
        bundle = json.loads(json.dumps(_make_bundle(workload, EngineConfig())))
        bundle["round"]["expected"]["estimate"] += 1.0
        report = replay_bundle(bundle)
        assert not report["match"] and not report["estimate_match"]

    def test_bundle_without_round_not_replayable(self):
        bundle = build_bundle(
            kind="shed_spike", sim_ms=0.0, details={}, ring={}, metrics={},
            engine_config=serialize_engine_config(EngineConfig()),
            gpu_spec=serialize_gpu_spec(GPUSpec()), graph="g@v0#0",
            plan=None, round_capture=None,
        )
        with pytest.raises(ObservabilityError):
            replay_bundle(bundle)


# ----------------------------------------------------------------------
# Serving-layer integration
# ----------------------------------------------------------------------
#: Requests the shed storm submits at one simulated instant; with two
#: admission slots, 10 of 12 shed and cross the shed-spike threshold.
STORM_BURST = 12


def _run_storm(workload, seed=99):
    """A deterministic shed storm: one request runs (so a launch is
    captured), then a burst overruns a two-slot admission queue."""
    service = EstimationService(ServiceConfig(
        policy=BudgetPolicy(min_round_samples=256, max_round_samples=2048),
        admission=AdmissionPolicy(max_pending=2),
    ))
    graph, query = workload[0], workload[1]

    def request(i):
        return EstimateRequest(
            graph=graph, query=query, max_samples=2048,
            request_id=f"storm-{seed}-{i}",
        )

    service.estimate(request(0))
    for i in range(1, STORM_BURST + 1):
        try:
            service.submit(request(i))
        except Overloaded:
            pass
    service.drain()
    return service


def _deadline_killed_service(workload):
    """Deadline propagation with a deadline the first round fits and the
    CI-driven second round overruns: the watchdog kills that round."""
    service = EstimationService(ServiceConfig(
        policy=BudgetPolicy(min_round_samples=128, max_round_samples=1024),
        propagate_deadline=True,
    ))
    graph = workload[0]
    query = extract_query(graph, 4, rng=derive_seed(9, 0), name="kill-q4")
    response = service.estimate(EstimateRequest(
        graph=graph, query=query, target_rel_ci=0.01, max_samples=65_536,
        deadline_ms=0.05,
    ))
    assert response.stop_reason == "fallback"
    return service


class TestServiceFlight:
    def test_recorder_ladder(self):
        # Flight recording is the always-on default...
        service = EstimationService(ServiceConfig())
        assert isinstance(service.recorder, FlightRecorder)
        assert service.flight is not None
        # ...full tracing wins over it...
        traced = EstimationService(
            ServiceConfig(engine_config=EngineConfig.gsword(trace=True))
        )
        assert type(traced.recorder) is TraceRecorder
        # ...and flight=False disables both ring and monitor.
        off = EstimationService(ServiceConfig(flight=False))
        assert off.recorder is NO_TRACE
        assert off.flight is None
        with pytest.raises(ServiceError):
            off.write_flight_bundle("/dev/null")

    def test_untriggered_service_has_no_bundles(self):
        service = EstimationService(ServiceConfig())
        assert service.flight_bundles() == []
        with pytest.raises(ServiceError):
            service.write_flight_bundle("/dev/null")

    def test_storm_captures_replayable_bundles(self, workload, tmp_path):
        service = _run_storm(workload)
        bundles = service.flight_bundles()
        assert [b["trigger"]["kind"] for b in bundles] == ["shed_spike"]
        snap = service.metrics_snapshot()
        assert snap["flight"]["n_triggers"] >= 1
        assert snap["flight"]["n_bundles"] == len(bundles)

        bundle = bundles[-1]
        assert bundle["trigger"]["details"]["shed_rate"] >= SHED_RATE_THRESHOLD
        assert bundle["round"] is not None  # the warm-up request's launch
        assert bundle["graph"].startswith("yeast@v0#")
        # Replay from the JSON form — bit-identical.
        report = replay_bundle(json.loads(json.dumps(bundle)))
        assert report["match"]
        # write_flight_bundle persists the newest bundle verbatim.
        path = str(tmp_path / "postmortem.json")
        written = service.write_flight_bundle(path)
        assert load_bundle(path) == json.loads(json.dumps(written))

    def test_storm_is_deterministic(self, workload):
        def signature(service):
            return [
                (b["trigger"]["kind"], b["trigger"]["sim_ms"],
                 json.dumps(b["round"], sort_keys=True))
                for b in service.flight_bundles()
            ]

        a = signature(_run_storm(workload))
        b = signature(_run_storm(workload))
        assert a == b and a

    def test_watchdog_kill_bundle_replays_the_killed_launch(self, workload):
        service = _deadline_killed_service(workload)
        [bundle] = service.flight_bundles()
        trigger = bundle["trigger"]
        assert trigger["kind"] == "kernel_timeout"
        details = trigger["details"]
        assert details["kernel_ms"] > details["watchdog_ms"]
        # The bundle carries the killed launch itself.
        assert bundle["round"]["expected"]["simulated_ms"] == (
            details["kernel_ms"]
        )
        report = replay_bundle(json.loads(json.dumps(bundle)))
        assert report["match"]

    def test_qerror_drift_via_report_q_error(self):
        service = EstimationService(ServiceConfig())
        assert service.report_q_error(105.0, 100.0) is None
        bundle = service.report_q_error(1000.0, 100.0)
        assert bundle is not None
        assert bundle["trigger"]["kind"] == "qerror_drift"
        # Pre-launch trigger: no launch has run, so no plan or round yet.
        assert bundle["plan"] is None and bundle["round"] is None


# ----------------------------------------------------------------------
# trace-report extensions: top-N spans, anomalies, bundle inspection
# ----------------------------------------------------------------------
class TestTraceReportExtensions:
    def _recorder_with_spans(self):
        rec = FlightRecorder(capacity=64)
        for name, dur in (("launch.a", 3.0), ("launch.b", 1.0),
                          ("launch.c", 2.0)):
            handle = rec.begin(name, track="engine", args={"n_warps": 4})
            rec.end(handle, sim_dur_ms=dur)
        rec.instant("fault", track="engine")
        rec.instant("overload.shed", track="serve")
        rec.instant("request.submit", track="serve")
        return rec

    def test_top_spans_orders_by_duration(self):
        from repro.obs.report import top_spans

        payload = self._recorder_with_spans().ring_snapshot()
        rows = top_spans(payload, 2)
        assert [(r["name"], r["sim_ms"]) for r in rows] == [
            ("launch.a", 3.0), ("launch.c", 2.0)
        ]
        # Wall-clock noise is stripped; real args survive.
        assert rows[0]["args"] == {"n_warps": 4}
        with pytest.raises(ObservabilityError):
            top_spans(payload, 0)

    def test_anomaly_section_separates_trouble(self):
        from repro.obs.report import anomaly_instants, count_instants

        payload = self._recorder_with_spans().ring_snapshot()
        assert count_instants(payload) == {
            "fault": 1, "overload.shed": 1, "request.submit": 1,
        }
        # Routine annotations are excluded from the anomaly tally.
        assert anomaly_instants(payload) == {"fault": 1, "overload.shed": 1}

    def test_flight_bundle_inspectable_via_trace_report(self, tmp_path):
        from repro.obs.report import load_trace, render_report

        rec = self._recorder_with_spans()
        monitor = FlightMonitor(rec)
        bundle = monitor.consider(
            "kernel_timeout", 6.0, {"watchdog_ms": 0.05},
            {**_context(), "graph_identity": "yeast@v0#deadbeef"},
        )
        path = str(tmp_path / "bundle.json")
        write_bundle(bundle, path)
        payload = load_trace(path)  # bundles load transparently
        assert payload["otherData"]["flight_trigger"]["kind"] == (
            "kernel_timeout"
        )
        text = render_report(payload)
        assert "flight bundle: trigger=kernel_timeout" in text
        assert "yeast@v0#deadbeef" in text
        assert "top 3 slowest spans" in text or "slowest spans" in text
        assert "flight.trigger=1" in text and "fault=1" in text
