"""Tests for repro.obs.registry hardening: thread-safety under
concurrent updates, Prometheus label-value escaping round-trips, and
parser-level validation of the service's live registry (exact family
names and label sets)."""

import json
import sys
import threading

import pytest

from repro.errors import ObservabilityError, Overloaded
from repro.graph.datasets import load_dataset
from repro.obs.registry import (
    MetricsRegistry,
    escape_label_value,
    parse_prometheus_text,
    unescape_label_value,
)
from repro.obs.slo import default_slo_policy
from repro.query.extract import extract_query
from repro.serve import EstimateRequest, EstimationService, ServiceConfig
from repro.serve.admission import AdmissionPolicy
from repro.serve.controller import BudgetPolicy
from repro.serve.metrics import RESILIENCE_EVENTS, ServiceMetrics


def _hammer(n_threads, fn):
    """Run ``fn(thread_index)`` on ``n_threads`` threads from a barrier."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def body(i):
        barrier.wait()
        try:
            fn(i)
        except Exception as error:  # noqa: BLE001 - surfaced below
            errors.append(error)

    threads = [threading.Thread(target=body, args=(i,))
               for i in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []


class TestThreadSafety:
    N_THREADS = 8
    N_OPS = 2000

    def test_counter_increments_are_not_lost(self):
        reg = MetricsRegistry()
        counter = reg.counter("ops_total", labels=("kind",))

        def work(i):
            # Everyone hammers one shared child plus a private one.
            for _ in range(self.N_OPS):
                counter.labels(kind="shared").inc()
                counter.labels(kind=f"t{i}").inc()

        _hammer(self.N_THREADS, work)
        series = {e["labels"]["kind"]: e["value"]
                  for e in reg.snapshot()["ops_total"]["series"]}
        assert series["shared"] == self.N_THREADS * self.N_OPS
        for i in range(self.N_THREADS):
            assert series[f"t{i}"] == self.N_OPS

    def test_histogram_aggregates_stay_exact(self):
        reg = MetricsRegistry()
        hist = reg.histogram("latency", max_samples=256)

        def work(i):
            for _ in range(self.N_OPS):
                hist.observe(1.0)

        _hammer(self.N_THREADS, work)
        snap = reg.snapshot()["latency"]["series"][0]
        assert snap["count"] == self.N_THREADS * self.N_OPS
        assert snap["mean"] == 1.0 and snap["max"] == 1.0

    def test_concurrent_child_creation_yields_one_child(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth", labels=("queue",))

        def work(i):
            gauge.labels(queue="main").set(float(i))

        _hammer(self.N_THREADS, work)
        family = reg.families()[0]
        assert len(list(family.children())) == 1

    def test_concurrent_registration_returns_one_family(self):
        reg = MetricsRegistry()
        seen = []
        lock = threading.Lock()

        def work(i):
            family = reg.counter("shared_total", labels=("k",))
            with lock:
                seen.append(family)

        _hammer(self.N_THREADS, work)
        assert len(reg.families()) == 1
        assert all(f is seen[0] for f in seen)


NASTY_VALUES = [
    'back\\slash',
    'say "hi"',
    'line\nbreak',
    'all\\three: "q"\nnewline',
    "",
    "plain",
]


class TestLabelEscaping:
    @pytest.mark.parametrize("value", NASTY_VALUES)
    def test_escape_round_trip(self, value):
        assert unescape_label_value(escape_label_value(value)) == value

    def test_escaped_text_is_single_line(self):
        assert "\n" not in escape_label_value("a\nb")

    def test_unescape_rejects_invalid_sequence(self):
        with pytest.raises(ObservabilityError):
            unescape_label_value("\\t")

    def test_exposition_round_trip_through_parser(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("paths", "Path gauge", labels=("path",))
        for i, value in enumerate(NASTY_VALUES):
            gauge.labels(path=value).set(float(i))
        text = reg.prometheus_text()
        # A raw newline inside a label value would split a sample line in
        # two and corrupt the exposition.
        samples = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(samples) == len(NASTY_VALUES)
        parsed = parse_prometheus_text(text)
        recovered = {s["labels"]["path"]: s["value"]
                     for s in parsed["repro_paths"]["samples"]}
        assert recovered == {v: float(i)
                             for i, v in enumerate(NASTY_VALUES)}


class TestExpositionParser:
    def test_rejects_undeclared_sample(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus_text("mystery_total 1\n")

    def test_rejects_bad_type(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus_text("# TYPE x widget\nx 1\n")

    def test_rejects_unterminated_labels(self):
        text = '# TYPE x gauge\nx{a="b" 1\n'
        with pytest.raises(ObservabilityError):
            parse_prometheus_text(text)

    def test_rejects_bad_value(self):
        with pytest.raises(ObservabilityError):
            parse_prometheus_text("# TYPE x gauge\nx notanumber\n")

    def test_rejects_dangling_escape(self):
        text = '# TYPE x gauge\nx{a="b\\"} 1\n'
        with pytest.raises(ObservabilityError):
            parse_prometheus_text(text)

    def test_summary_suffixes_attach_to_family(self):
        text = (
            "# TYPE lat summary\n"
            'lat{quantile="0.5"} 2\n'
            "lat_sum 10\nlat_count 5\n"
        )
        parsed = parse_prometheus_text(text)
        names = {s["name"] for s in parsed["lat"]["samples"]}
        assert names == {"lat", "lat_sum", "lat_count"}


class TestExactValues:
    """The exposition writes each value in shortest round-trip form, so
    the parser reads back exactly the float the registry holds."""

    def test_values_parse_back_exactly(self):
        reg = MetricsRegistry(namespace="repro")
        reg.counter("samples_total", "drawn samples").inc(1_234_567)
        reg.gauge("ratio", "a 9-digit gauge").set(123.456789)
        hist = reg.histogram("lat_ms", "latency")
        for v in (0.1, 0.2, 1234.5678901):
            hist.observe(v)
        parsed = parse_prometheus_text(reg.prometheus_text())

        def value(family, sample):
            (s,) = [s for s in parsed[family]["samples"]
                    if s["name"] == sample]
            return s["value"]

        assert value("repro_samples_total", "repro_samples_total") == 1234567
        assert value("repro_ratio", "repro_ratio") == 123.456789
        assert value("repro_lat_ms", "repro_lat_ms_sum") == (
            0.1 + 0.2 + 1234.5678901
        )
        assert value("repro_lat_ms", "repro_lat_ms_count") == 3


@pytest.fixture(scope="module")
def served_registry():
    """The live registry of a real (small) service run with SLOs on."""
    graph = load_dataset("yeast")
    query = extract_query(graph, 4, rng=8)
    service = EstimationService(ServiceConfig(
        slo=default_slo_policy(),
        policy=BudgetPolicy(min_round_samples=128, max_round_samples=1024),
    ))
    for _ in range(4):
        service.estimate(
            EstimateRequest(graph=graph, query=query, max_samples=1024)
        )
    return service.registry()


class TestServiceBridgeNames:
    EXPECTED_LABELS = {
        "requests_total": ("state",),
        "rounds_by_backend_total": ("backend",),
        "rounds_by_shard_count_total": ("shards",),
        "samples_total": ("kind",),
        "latency_ms": (),
        "queue_wait_ms": (),
        "retry_after_ms": (),
        "resilience_events_total": ("event",),
        "plan_cache": ("stat",),
        "kernel_stall": ("metric",),
        "multidev_ms": (),
        "slo_burn_rate": ("slo", "window"),
        "slo_alert_active": ("slo",),
        "slo_alerts_total": ("slo", "state"),
    }

    def test_exact_family_names_and_labels(self, served_registry):
        by_name = {f.name: f for f in served_registry.families()}
        expected_names = {
            "requests_total", "batches_total", "rounds_total",
            "rounds_by_backend_total", "rounds_by_shard_count_total",
            "samples_total", "device_busy_ms", "samples_per_second",
            "mean_batch_size", "max_queue_depth", "service_clock_ms",
            "latency_ms", "queue_wait_ms", "resilience_events_total",
            "queue_depth", "plan_cache", "plan_cache_events_total",
            "kernel_stall", "multidev_ms",
            "slo_burn_rate", "slo_alert_active", "slo_alerts_total",
        }
        assert expected_names <= set(by_name)
        for name, labels in self.EXPECTED_LABELS.items():
            assert by_name[name].label_names == labels, name
        for name in ("latency_ms", "queue_wait_ms", "retry_after_ms"):
            assert by_name[name].metric_type == "histogram", name

    def test_fault_free_service_exports_no_fault_series(self, served_registry):
        """A healthy run counts no fault events, charges no fault time,
        and exports no per-kind fault, retry or breaker family."""
        snapshot = served_registry.snapshot()
        for name in ("faults_injected_total", "faults_by_kind_total",
                     "retries", "breaker_trips", "breaker_rejections"):
            assert name not in snapshot, name
        events = {
            s["labels"]["event"]: s["value"]
            for s in snapshot["resilience_events_total"]["series"]
        }
        assert set(events) <= set(RESILIENCE_EVENTS)
        assert all(value == 0 for value in events.values())
        assert snapshot["fault_ms"]["series"][0]["value"] == 0.0

    def test_resilience_events_are_the_remaining_failures(self):
        assert RESILIENCE_EVENTS == (
            "faults", "round_failures", "fallbacks", "worker_crashes",
        )

    def test_exposition_parses_and_is_fully_declared(self, served_registry):
        text = served_registry.prometheus_text()
        parsed = parse_prometheus_text(text)  # undeclared samples raise
        assert all(name.startswith("repro_") for name in parsed)
        assert all(entry["type"] is not None for entry in parsed.values())
        states = {s["labels"]["state"]: s["value"]
                  for s in parsed["repro_requests_total"]["samples"]}
        assert states["submitted"] == 4.0 and states["completed"] == 4.0
        burn_labels = {
            (s["labels"]["slo"], s["labels"]["window"])
            for s in parsed["repro_slo_burn_rate"]["samples"]
        }
        assert ("admitted_latency", "short") in burn_labels
        assert ("q_error", "long") in burn_labels
        # Latency families are summaries: quantiles plus _sum/_count.
        latency = parsed["repro_latency_ms"]
        assert latency["type"] == "summary"
        assert {s["name"] for s in latency["samples"]} == {
            "repro_latency_ms", "repro_latency_ms_sum",
            "repro_latency_ms_count",
        }
        quantiles = {s["labels"].get("quantile")
                     for s in latency["samples"]}
        assert quantiles == {"0.5", "0.95", "0.99", None}
        count = [s["value"] for s in latency["samples"]
                 if s["name"] == "repro_latency_ms_count"]
        assert count == [4.0]
        # The snapshot form is JSON-safe end to end.
        json.dumps(served_registry.snapshot())


class TestRunBridgeNames:
    def test_snapshot_bridge_declares_everything(self):
        # Shed and cancellation records land in their families
        # and the whole exposition parses cleanly.
        metrics = ServiceMetrics()
        for retry_after_ms in (0.5, 0.25, 1.0):
            metrics.record_shed("queue_full", retry_after_ms)
        metrics.record_cancelled()
        names = {f.name for f in metrics.registry.families()}
        assert {"admission_shed_total", "requests_cancelled_total",
                "retry_after_ms"} <= names
        parsed = parse_prometheus_text(metrics.registry.prometheus_text())
        shed = parsed["repro_admission_shed_total"]["samples"]
        assert shed[0]["labels"] == {"reason": "queue_full"}
        assert shed[0]["value"] == 3.0
        retry = {s["name"]: s["value"]
                 for s in parsed["repro_retry_after_ms"]["samples"]
                 if "quantile" not in s["labels"]}
        assert retry == {"repro_retry_after_ms_sum": 1.75,
                         "repro_retry_after_ms_count": 3.0}
        assert metrics.snapshot()["admission"]["retry_after_ms"]["max"] == 1.0


def _series(out, name, label):
    """``{label value: value}`` of one family in a registry snapshot."""
    return {e["labels"][label]: e["value"] for e in out[name]["series"]}


def _value(out, name):
    (entry,) = out[name]["series"]
    return entry["value"]


class TestLiveServiceRegistry:
    """A service that sheds, absorbs deadline-watchdog kills and fires +
    clears an SLO alert exports all of it live."""

    @pytest.fixture(scope="class")
    def service(self):
        graph = load_dataset("yeast")
        query = extract_query(graph, 8, rng=1, query_type="dense")
        policy = default_slo_policy()
        service = EstimationService(ServiceConfig(
            slo=policy,
            admission=AdmissionPolicy(max_pending=2),
            propagate_deadline=True,
            policy=BudgetPolicy(min_round_samples=64, max_round_samples=256),
        ))
        for _ in range(4):
            try:
                # The tight CI target needs rounds the deadline leaves no
                # room for, so the watchdog kills them.
                service.submit(EstimateRequest(
                    graph=graph, query=query, target_rel_ci=0.01,
                    max_samples=2048, deadline_ms=0.05,
                ))
            except Overloaded:
                pass
        service.drain()
        for _ in range(6):
            service.report_q_error(1000.0, 100.0)  # q = 10: all bad
        service.advance_clock(service.clock_ms + policy.long_window_ms + 1.0)
        yield service
        service.close()

    def test_scenario_covers_every_event(self, service):
        snap = service.metrics_snapshot()
        assert snap["admission"]["n_shed"] > 0
        assert snap["resilience"]["n_faults"] > 0
        assert snap["resilience"]["n_fallbacks"] > 0
        alerts = snap["slo"]["alerts"]["q_error"]
        assert alerts["n_fired"] == 1 and alerts["n_cleared"] == 1

    def test_exposition_round_trips(self, service):
        reg = service.registry()
        out = reg.snapshot()
        parsed = parse_prometheus_text(reg.prometheus_text())
        assert set(parsed) == {f"repro_{name}" for name in out}
        for name, family in out.items():
            entry = parsed[f"repro_{name}"]
            samples = entry["samples"]
            if family["type"] == "histogram":
                assert entry["type"] == "summary"
                for series in family["series"]:
                    by_name = {s["name"]: s["value"] for s in samples
                               if "quantile" not in s["labels"]}
                    assert by_name[f"repro_{name}_count"] == series["count"]
                    assert by_name[f"repro_{name}_sum"] == series["sum"]
                continue
            assert entry["type"] == family["type"]
            assert [(s["labels"], s["value"]) for s in samples] == [
                (e["labels"], e["value"]) for e in family["series"]
            ]

    def test_repeated_export_is_idempotent(self, service):
        first = service.registry().snapshot()
        second = service.registry().snapshot()
        assert first == second

    def test_snapshot_view_matches_families(self, service):
        snap = service.metrics_snapshot()
        out = service.registry().snapshot()
        assert _series(out, "requests_total", "state") == {
            state: snap[f"n_{state}"]
            for state in ("submitted", "completed", "degraded", "failed")
        }
        assert _value(out, "batches_total") == snap["n_batches"]
        assert _value(out, "rounds_total") == snap["n_rounds"]
        assert _series(out, "samples_total", "kind") == {
            "drawn": snap["total_samples"], "valid": snap["total_valid"],
        }
        assert _value(out, "mean_batch_size") == snap["mean_batch_size"]
        assert _value(out, "mean_batch_size") == (
            snap["n_rounds"] / snap["n_batches"]
        )
        assert _series(out, "rounds_by_backend_total", "backend") == (
            snap["rounds_by_backend"]
        )
        admission = snap["admission"]
        assert _series(out, "admission_shed_total", "reason") == (
            admission["shed_by_reason"]
        )
        resilience = snap["resilience"]
        assert _series(out, "resilience_events_total", "event") == {
            key[2:]: value for key, value in resilience.items()
            if key.startswith("n_")
        }
        assert _value(out, "fault_ms") == resilience["fault_ms"] > 0
        events = _series(out, "plan_cache_events_total", "event")
        assert events == {
            key: snap["cache"][key] for key in ("hits", "misses", "evictions")
        }
        assert _series(out, "plan_cache", "stat") == {
            key: snap["cache"][key]
            for key in ("entries", "bytes", "max_bytes", "hit_rate")
        }
        assert _value(out, "queue_depth") == snap["queue_depth"]
        assert _value(out, "service_clock_ms") == snap["clock_ms"]
        assert _value(out, "multidev_ms") == snap["multidev_ms"]
        assert _series(out, "kernel_stall", "metric") == pytest.approx(
            snap["stall"]
        )
        alerts = snap["slo"]["alerts"]
        fired = {
            (e["labels"]["slo"], e["labels"]["state"]): e["value"]
            for e in out["slo_alerts_total"]["series"]
        }
        assert fired == {
            (name, state): totals[f"n_{word}"]
            for name, totals in alerts.items()
            for state, word in (("fire", "fired"), ("clear", "cleared"))
        }
        for name, key in (("latency_ms", None), ("queue_wait_ms", None),
                          ("retry_after_ms", "admission")):
            (series,) = out[name]["series"]
            view = (snap[key] if key else snap)[name]
            assert {k: series[k] for k in view} == view
        assert out["retry_after_ms"]["series"][0]["count"] == (
            admission["n_shed"]
        )


def test_concurrent_registry_exports_while_serving():
    # Exporters race the worker and each other: the counters they advance
    # (plan-cache hits/misses, rounds, samples) grow underneath them, and
    # a stale total written after a fresher one would be rejected.
    graph = load_dataset("yeast")
    query = extract_query(graph, 4, rng=8)
    service = EstimationService(ServiceConfig(
        policy=BudgetPolicy(min_round_samples=64, max_round_samples=128),
    ))
    service.start()
    n_clients, n_requests = 2, 10
    clients_done = threading.Semaphore(0)

    def body(i):
        if i < n_clients:
            for _ in range(n_requests):
                service.submit(EstimateRequest(
                    graph=graph, query=query, max_samples=256,
                )).result(timeout=60)
            clients_done.release()
            return
        # Export for as long as the clients are being served.
        while not clients_done.acquire(blocking=False):
            service.registry()
        clients_done.release()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave threads as finely as possible
    try:
        _hammer(6, body)
    finally:
        sys.setswitchinterval(interval)
        service.close()
    out = service.registry().snapshot()
    snap = service.metrics_snapshot()
    assert _series(out, "requests_total", "state")["completed"] == (
        n_clients * n_requests
    )
    assert _series(out, "plan_cache_events_total", "event") == {
        key: snap["cache"][key] for key in ("hits", "misses", "evictions")
    }


def test_metrics_snapshot_excludes_writers(monkeypatch):
    # A writer that appends to the SLO windows (report_q_error takes the
    # service lock) must wait while metrics_snapshot reads them; otherwise
    # the read races the worker and can see a deque mutate mid-iteration.
    service = EstimationService(ServiceConfig(slo=default_slo_policy()))
    read_snapshot = service.slo.snapshot
    writers = []

    def snapshot_with_writer(now_ms):
        writer = threading.Thread(
            target=service.report_q_error, args=(100.0, 100.0)
        )
        writer.start()
        writer.join(timeout=0.2)
        writers.append((writer, writer.is_alive()))
        return read_snapshot(now_ms)

    monkeypatch.setattr(service.slo, "snapshot", snapshot_with_writer)
    try:
        service.metrics_snapshot()
    finally:
        service.close()
    ((writer, was_blocked),) = writers
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert was_blocked
