"""Tests for repro.obs: trace schema/nesting, the metrics registry, the
deterministic reservoir, and the tracing↔engine reconciliation contract
(span geometry equals the cost model's simulated milliseconds, and
tracing never perturbs an estimate)."""

import json

import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.errors import ObservabilityError
from repro.estimators.alley import AlleyEstimator
from repro.graph.datasets import load_dataset
from repro.obs import (
    NO_TRACE,
    Histogram,
    MetricsRegistry,
    Reservoir,
    TraceRecorder,
    load_trace,
    quantile,
    render_report,
    span_breakdown,
    validate_chrome_trace,
)
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.serve.metrics import ServiceMetrics


@pytest.fixture(scope="module")
def workload():
    graph = load_dataset("yeast")
    query = extract_query(graph, 5, rng=8, query_type="dense")
    cg = build_candidate_graph(graph, query)
    order = quicksi_order(query, graph)
    return cg, order


# ----------------------------------------------------------------------
# Trace recorder + Chrome-trace export
# ----------------------------------------------------------------------
class TestTraceRecorder:
    def test_export_schema(self):
        rec = TraceRecorder(process_name="test-proc")
        outer = rec.begin("outer", track="t", args={"k": 1})
        inner = rec.begin("inner", track="t")
        rec.end(inner, sim_dur_ms=2.0)
        rec.end(outer, args={"status": "ok"})
        rec.instant("mark", track="t")
        payload = rec.chrome_trace()
        assert payload["displayTimeUnit"] == "ms"
        spans = validate_chrome_trace(payload)
        assert [s["name"] for s in spans] == ["inner", "outer"]
        for span in spans:
            for key in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert key in span
            assert span["ph"] == "X"
            # Two-clock contract: wall time rides in args.
            assert "wall_ms" in span["args"]
            assert "wall_dur_ms" in span["args"]
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {e["name"]: e["args"]["name"] for e in meta}
        assert names["process_name"] == "test-proc"
        assert "t" in names.values()

    def test_nesting_and_cursor_monotonicity(self):
        rec = TraceRecorder()
        parent = rec.begin("parent", track="t")
        child = rec.begin("child", track="t")
        rec.end(child, sim_dur_ms=3.0)
        rec.end(parent)  # end = cursor → parent covers the child
        sibling = rec.begin("sibling", track="t")
        rec.end(sibling, sim_dur_ms=1.0)
        spans = {s["name"]: s for s in rec.spans()}
        assert spans["parent"]["dur"] >= spans["child"]["dur"]
        # The sibling starts where the parent ended — no overlap.
        assert spans["sibling"]["ts"] >= (
            spans["parent"]["ts"] + spans["parent"]["dur"]
        )
        validate_chrome_trace(rec.chrome_trace())

    def test_out_of_order_end_raises(self):
        rec = TraceRecorder()
        outer = rec.begin("outer", track="t")
        rec.begin("inner", track="t")
        with pytest.raises(ObservabilityError, match="out of order"):
            rec.end(outer)

    def test_export_with_open_span_raises(self):
        rec = TraceRecorder()
        rec.begin("dangling", track="t")
        with pytest.raises(ObservabilityError, match="open spans"):
            rec.chrome_trace()

    def test_add_span_advances_cursor(self):
        rec = TraceRecorder()
        rec.add_span("a", track="t", sim_t0_ms=1.0, sim_dur_ms=4.0)
        assert rec.sim_now("t") == pytest.approx(5.0)
        with pytest.raises(ObservabilityError):
            rec.add_span("bad", track="t", sim_t0_ms=0.0, sim_dur_ms=-1.0)

    def test_set_clock_is_monotone(self):
        rec = TraceRecorder()
        rec.set_clock("t", 10.0)
        rec.set_clock("t", 4.0)  # earlier clock is a no-op
        assert rec.sim_now("t") == pytest.approx(10.0)
        with pytest.raises(ObservabilityError):
            rec.advance("t", -1.0)

    def test_warp_sample_every_validated(self):
        with pytest.raises(ObservabilityError):
            TraceRecorder(warp_sample_every=0)

    def test_no_trace_is_inert(self):
        assert NO_TRACE.enabled is False
        handle = NO_TRACE.begin("x", track="t")
        NO_TRACE.end(handle)
        NO_TRACE.instant("x")
        NO_TRACE.advance("t", 5.0)
        assert NO_TRACE.sim_now("t") == 0.0


class TestValidateChromeTrace:
    def _event(self, name, ts, dur, tid=1):
        return {"name": name, "cat": "c", "ph": "X", "ts": ts, "dur": dur,
                "pid": 1, "tid": tid, "args": {}}

    def test_missing_key_raises(self):
        bad = {"traceEvents": [{"ph": "X", "ts": 0.0, "pid": 1, "tid": 1}]}
        with pytest.raises(ObservabilityError, match="missing required key"):
            validate_chrome_trace(bad)

    def test_missing_dur_raises(self):
        event = self._event("a", 0.0, 1.0)
        del event["dur"]
        with pytest.raises(ObservabilityError, match="missing dur"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_negative_duration_raises(self):
        bad = {"traceEvents": [self._event("a", 0.0, -1.0)]}
        with pytest.raises(ObservabilityError, match="negative"):
            validate_chrome_trace(bad)

    def test_partial_overlap_raises(self):
        bad = {"traceEvents": [
            self._event("a", 0.0, 10.0),
            self._event("b", 5.0, 10.0),  # straddles a's end
        ]}
        with pytest.raises(ObservabilityError, match="overlaps"):
            validate_chrome_trace(bad)

    def test_overlap_on_other_track_is_fine(self):
        ok = {"traceEvents": [
            self._event("a", 0.0, 10.0, tid=1),
            self._event("b", 5.0, 10.0, tid=2),
        ]}
        assert len(validate_chrome_trace(ok)) == 2

    def test_unknown_phase_raises(self):
        bad = {"traceEvents": [
            {"name": "a", "ph": "Z", "ts": 0.0, "pid": 1, "tid": 1}
        ]}
        with pytest.raises(ObservabilityError, match="phase"):
            validate_chrome_trace(bad)

    def test_payload_without_events_raises(self):
        with pytest.raises(ObservabilityError, match="traceEvents"):
            validate_chrome_trace({})


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("requests", "reqs").inc(3)
        reg.gauge("depth", "queue depth").set(7.5)
        hist = reg.histogram("latency", "ms")
        for v in (1.0, 2.0, 3.0):
            hist.observe(v)
        snap = reg.snapshot()
        assert snap["requests"]["type"] == "counter"
        assert snap["requests"]["series"][0]["value"] == 3.0
        assert snap["depth"]["series"][0]["value"] == 7.5
        summary = snap["latency"]["series"][0]
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["p50"] == pytest.approx(2.0)

    def test_labelled_children(self):
        reg = MetricsRegistry()
        fam = reg.counter("by_kind", "k", labels=("kind",))
        fam.labels(kind="a").inc()
        fam.labels(kind="a").inc()
        fam.labels(kind="b").inc()
        series = {
            tuple(e["labels"].items()): e["value"]
            for e in reg.snapshot()["by_kind"]["series"]
        }
        assert series[(("kind", "a"),)] == 2.0
        assert series[(("kind", "b"),)] == 1.0

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        fam = reg.counter("c", "c", labels=("kind",))
        with pytest.raises(ObservabilityError, match="expects labels"):
            fam.labels(wrong="x")
        with pytest.raises(ObservabilityError, match="use .labels"):
            fam.inc()  # labelled family has no default child

    def test_reregistration(self):
        reg = MetricsRegistry()
        a = reg.counter("c", "c", labels=("k",))
        assert reg.counter("c", "c", labels=("k",)) is a  # idempotent
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.gauge("c", "c", labels=("k",))
        with pytest.raises(ObservabilityError, match="already registered"):
            reg.counter("c", "c", labels=("other",))

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ObservabilityError, match="only increase"):
            reg.counter("c", "c").inc(-1.0)

    def test_counter_advance_to_is_idempotent(self):
        counter = MetricsRegistry().counter("c", "c").labels()
        counter.advance_to(5)
        counter.advance_to(5)  # exporting the same total again
        assert counter.value == 5.0
        with pytest.raises(ObservabilityError, match="only increase"):
            counter.advance_to(4)

    def test_prometheus_text(self):
        reg = MetricsRegistry(namespace="repro")
        reg.counter("reqs", "requests").inc(2)
        fam = reg.gauge("depth", "d", labels=("queue",))
        fam.labels(queue="main").set(4)
        hist = reg.histogram("lat", "latency")
        hist.observe(1.0)
        hist.observe(3.0)
        text = reg.prometheus_text()
        assert "# HELP repro_reqs requests" in text
        assert "# TYPE repro_reqs counter" in text
        assert "repro_reqs 2" in text
        assert 'repro_depth{queue="main"} 4' in text
        assert "# TYPE repro_lat summary" in text
        assert 'repro_lat{quantile="0.5"} 2' in text
        assert "repro_lat_sum 4" in text
        assert "repro_lat_count 2" in text


class TestServiceSnapshotBridge:
    """``ServiceMetrics`` records straight into registry families; its
    ``snapshot()`` is a plain-dict view over the same values."""

    def test_minimal_snapshot_maps(self):
        metrics = ServiceMetrics()
        for depth in (1, 3, 2, 3):
            metrics.record_submit(depth)
        metrics.record_batch(2, 512, 5.0)
        metrics.record_batch(4, 512, 7.5)
        for i, latency in enumerate((4.0, 2.0, 10.0, 4.0)):
            metrics.record_completion(latency, 1.0, 225, degraded=i == 0)
        metrics.record_backends(["fused"] * 6)
        metrics.record_shards([2] * 6)
        metrics.record_hosts(["parent"] * 4 + ["worker"] * 2)
        metrics.record_round_faults(2, 3.0)

        snap = metrics.snapshot()
        assert snap["n_submitted"] == 4 and type(snap["n_submitted"]) is int
        assert snap["max_queue_depth"] == 3
        assert snap["total_samples"] == 1024 and snap["total_valid"] == 900
        assert snap["busy_ms"] == 12.5
        assert snap["mean_batch_size"] == 3.0
        assert snap["samples_per_second"] == 1024 / 12.5 * 1000.0
        assert snap["rounds_by_backend"] == {"fused": 6}
        assert snap["rounds_by_shard_count"] == {"2": 6}
        assert snap["rounds_by_host"] == {"parent": 4, "worker": 2}
        assert snap["latency_ms"] == {
            "count": 4, "mean": 5.0, "p50": 4.0,
            "p95": pytest.approx(9.1), "p99": pytest.approx(9.82),
            "max": 10.0,
        }
        resilience = snap["resilience"]
        assert resilience["n_faults"] == 2 and resilience["fault_ms"] == 3.0

        out = metrics.registry.snapshot()
        states = {e["labels"]["state"]: e["value"]
                  for e in out["requests_total"]["series"]}
        assert states == {"submitted": 4.0, "completed": 4.0,
                          "degraded": 1.0, "failed": 0.0}
        assert out["latency_ms"]["type"] == "histogram"
        (latency,) = out["latency_ms"]["series"]
        assert latency["count"] == 4 and latency["sum"] == 20.0
        events = {e["labels"]["event"]: e["value"]
                  for e in out["resilience_events_total"]["series"]}
        assert events["faults"] == 2.0 and events["fallbacks"] == 0.0
        assert out["mean_batch_size"]["series"][0]["value"] == 3.0
        # The whole registry serialises (what --metrics-out writes).
        json.dumps(out)
        assert metrics.registry.prometheus_text().startswith("# HELP")

    def test_batches_keep_no_per_batch_state(self):
        def series_sizes(metrics):
            return {name: len(family["series"])
                    for name, family in metrics.registry.snapshot().items()}

        metrics = ServiceMetrics()
        metrics.record_batch(3, 100, 1.0)
        sizes = series_sizes(metrics)
        state = {k: type(v) for k, v in vars(metrics).items()}
        per_batch = [1 + i % 7 for i in range(499)]
        for n in per_batch:
            metrics.record_batch(n, 100, 1.0)
        snap = metrics.snapshot()
        assert snap["n_batches"] == 500
        assert snap["n_rounds"] == 3 + sum(per_batch)
        assert metrics.mean_batch_size == snap["n_rounds"] / snap["n_batches"]
        assert snap["mean_batch_size"] == metrics.mean_batch_size
        # Nothing grows with the number of batches: the same series and
        # attributes as after one batch, and no per-batch list anywhere.
        assert series_sizes(metrics) == sizes
        assert {k: type(v) for k, v in vars(metrics).items()} == state
        assert not any(isinstance(v, list) for v in vars(metrics).values())


# ----------------------------------------------------------------------
# quantile() / Reservoir / Histogram
# ----------------------------------------------------------------------
class TestPercentile:
    def test_empty_returns_zero(self):
        assert quantile([], 0.5) == 0.0
        assert Reservoir().quantile(0.5) == 0.0

    def test_single_sample(self):
        for q in (0.0, 0.375, 1.0):
            assert quantile([4.2], q) == 4.2

    def test_extremes(self):
        values = [5.0, 1.0, 3.0, 2.0]
        assert quantile(values, 0.0) == 1.0
        assert quantile(values, 1.0) == 5.0

    def test_interpolation(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)
        res = Reservoir()
        for v in (4.0, 1.0, 3.0, 2.0):
            res.add(v)
        assert res.quantile(0.5) == pytest.approx(2.5)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            quantile([1.0], -0.01)
        with pytest.raises(ValueError):
            quantile([1.0], 1.01)


class TestReservoir:
    def test_exact_aggregates_and_bounded_sample(self):
        res = Reservoir(max_samples=64)
        values = [float((i * 37) % 101) for i in range(1000)]
        for v in values:
            res.add(v)
        assert res.count == 1000
        assert res.total == pytest.approx(sum(values))
        assert res.mean == pytest.approx(sum(values) / 1000)
        assert res.max_value == max(values)
        assert len(res.values()) == 64

    def test_deterministic(self):
        a, b = Reservoir(max_samples=32), Reservoir(max_samples=32)
        for i in range(500):
            a.add(float(i))
            b.add(float(i))
        assert a.values() == b.values()

    def test_validation(self):
        with pytest.raises(ObservabilityError):
            Reservoir(max_samples=0)
        with pytest.raises(ValueError):
            Reservoir().quantile(1.5)


class TestLatencyHistogram:
    def test_empty_snapshot(self):
        snap = Histogram().snapshot()
        assert snap == {"count": 0, "sum": 0.0, "mean": 0.0, "p50": 0.0,
                        "p95": 0.0, "p99": 0.0, "max": 0.0}
        # The service's JSON view of an empty latency histogram.
        assert ServiceMetrics().snapshot()["latency_ms"] == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0,
            "max": 0.0,
        }

    def test_bounded_with_exact_aggregates(self):
        hist = Histogram(max_samples=128)
        values = [float((i * 13) % 97) + 0.5 for i in range(2000)]
        for v in values:
            hist.observe(v)
        assert len(hist.reservoir.values()) == 128  # memory stays bounded
        snap = hist.snapshot()
        assert snap["count"] == 2000
        assert snap["mean"] == pytest.approx(sum(values) / 2000)
        assert snap["max"] == max(values)
        # Percentiles are estimates from the retained subsample — close,
        # not exact (the documented tradeoff for bounded memory).
        assert abs(snap["p50"] - quantile(values, 0.5)) < 15.0


# ----------------------------------------------------------------------
# End-to-end: engine tracing reconciles with the cost model
# ----------------------------------------------------------------------
class TestEngineTracing:
    def test_kernel_span_matches_simulated_ms(self, workload):
        cg, order = workload
        rec = TraceRecorder(warp_sample_every=1)
        engine = GSWORDEngine(
            AlleyEstimator(), EngineConfig.gsword(), recorder=rec
        )
        result = engine.run(cg, order, 512, rng=11)
        launches = rec.spans("kernel.launch")
        assert len(launches) == 1
        assert launches[0]["dur"] == pytest.approx(
            result.simulated_ms() * 1000.0
        )
        assert launches[0]["args"]["status"] == "ok"
        assert launches[0]["args"]["host"] == "parent" == result.host
        # Sampled warp spans sit inside the engine timeline.
        assert rec.spans("warp")
        validate_chrome_trace(rec.chrome_trace())

    def test_sharded_trace_reproduces_makespan(self, workload):
        cg, order = workload
        rec = TraceRecorder()
        config = EngineConfig.gsword().with_shards(4)
        with GSWORDEngine(AlleyEstimator(), config, recorder=rec) as engine:
            result = engine.run(cg, order, 1024, rng=3)
        shard_spans = rec.spans("shard.kernel")
        assert 1 < len(shard_spans) <= 4
        k0 = rec.spans("kernel.launch")[0]["ts"]
        # All shards launch together at the kernel start; their envelope
        # plus the allreduce is the multi-device makespan.
        assert all(s["ts"] == pytest.approx(k0) for s in shard_spans)
        envelope = max(s["dur"] for s in shard_spans)
        allreduce = rec.spans("multidev.allreduce")[0]
        assert (envelope + allreduce["dur"]) / 1000.0 == pytest.approx(
            result.multidev_ms()
        )
        validate_chrome_trace(rec.chrome_trace())

    def test_tracing_is_bit_identical(self, workload):
        cg, order = workload
        config = EngineConfig.gsword()
        base = GSWORDEngine(AlleyEstimator(), config).run(
            cg, order, 512, rng=19
        )
        traced = GSWORDEngine(
            AlleyEstimator(), config.with_trace(), ).run(cg, order, 512, rng=19)
        assert traced.estimate == base.estimate
        assert traced.simulated_ms() == base.simulated_ms()
        assert traced.n_valid == base.n_valid


class TestTraceReport:
    def test_report_renders(self, tmp_path, workload):
        cg, order = workload
        rec = TraceRecorder()
        engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword(),
                              recorder=rec)
        session = engine.session(cg, order, rng=2)
        session.run_round(256)
        rec.instant("fault", track="engine", args={"kind": "transient"})
        path = tmp_path / "trace.json"
        rec.write(str(path))
        payload = load_trace(str(path))
        rows = span_breakdown(payload)
        assert any(r["name"] == "engine.round" for r in rows)
        text = render_report(payload)
        assert "engine.round" in text
        assert "fault=1" in text

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(ObservabilityError):
            load_trace(str(path))
