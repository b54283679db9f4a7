"""Tests for repro.obs.slo: objective/policy validation, burn-rate math
on the simulated clock, deterministic multi-window fire/clear sequences,
the registry export (exact family names and labels through the text
exposition parser), and the serving layer's SLO feed."""

import json

import pytest

from repro.errors import ObservabilityError
from repro.obs.registry import parse_prometheus_text
from repro.obs.slo import (
    BURN_THRESHOLD,
    MIN_WINDOW_EVENTS,
    SLOEngine,
    SLOObjective,
    SLOPolicy,
    default_slo_policy,
)
from repro.serve import EstimateRequest, EstimationService, ServiceConfig
from repro.serve.controller import BudgetPolicy


def one_objective_policy(**overrides):
    """target 0.9 => budget 0.1: an all-bad window burns at 10x."""
    kwargs = dict(
        objectives=(SLOObjective("avail", target=0.9),),
        short_window_ms=10.0,
        long_window_ms=40.0,
    )
    kwargs.update(overrides)
    return SLOPolicy(**kwargs)


class TestValidation:
    def test_objective_bounds(self):
        with pytest.raises(ObservabilityError):
            SLOObjective("", target=0.9)
        for target in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ObservabilityError):
                SLOObjective("x", target=target)
        assert SLOObjective("x", target=0.99).budget == pytest.approx(0.01)

    def test_policy_bounds(self):
        obj = (SLOObjective("x", target=0.9),)
        with pytest.raises(ObservabilityError):
            SLOPolicy(objectives=())
        with pytest.raises(ObservabilityError):
            SLOPolicy(objectives=obj + obj)  # duplicate names
        with pytest.raises(ObservabilityError):
            SLOPolicy(objectives=obj, short_window_ms=0.0)
        with pytest.raises(ObservabilityError):
            SLOPolicy(objectives=obj, short_window_ms=50.0,
                      long_window_ms=50.0)  # long must exceed short

    def test_clear_threshold_defaults_to_fire(self):
        # One burn threshold both fires and clears: an active alert holds
        # while the short window burns at or above it, clears below it.
        assert BURN_THRESHOLD == 2.0
        engine = SLOEngine(one_objective_policy())
        for t in range(10):  # all bad: burn 10x
            engine.record("avail", float(t), good=False)
        assert [e["state"] for e in engine.evaluate(9.0)] == ["fire"]
        # 2 bad of 10 in the short window burns exactly 2.0: still firing.
        for t in range(10, 18):
            engine.record("avail", float(t), good=True)
        assert engine.burn_rate("avail", 17.0, 10.0)[0] == pytest.approx(2.0)
        assert engine.evaluate(17.0) == []
        engine.record("avail", 18.0, good=True)  # 1 bad of 10: below
        assert [e["state"] for e in engine.evaluate(18.0)] == ["clear"]

    def test_default_policy_objectives(self):
        policy = default_slo_policy(latency_threshold_ms=3.5)
        names = {o.name for o in policy.objectives}
        assert names == {"admitted_latency", "shed_rate", "degraded",
                         "q_error"}
        engine = SLOEngine(policy)
        assert engine.objective("admitted_latency").threshold_ms == 3.5
        assert engine.objective("nope") is None
        assert engine.has_objective("shed_rate")


class TestBurnRate:
    def test_exact_math(self):
        engine = SLOEngine(one_objective_policy())
        for t, good in [(1.0, False), (2.0, False), (3.0, True), (4.0, True)]:
            engine.record("avail", t, good)
        # 2 bad of 4 in window, budget 0.1 -> (0.5)/0.1 = 5.0
        burn, n = engine.burn_rate("avail", 5.0, 10.0)
        assert burn == pytest.approx(5.0) and n == 4

    def test_min_events_gate(self):
        engine = SLOEngine(one_objective_policy())
        for t in range(MIN_WINDOW_EVENTS - 1):
            engine.record("avail", float(t), good=False)
        burn, n = engine.burn_rate("avail", 4.0, 10.0)
        # not enough signal to alert on
        assert burn == 0.0 and n == MIN_WINDOW_EVENTS - 1

    def test_window_is_half_open(self):
        engine = SLOEngine(one_objective_policy())
        engine.record("avail", 0.0, good=False)  # exactly at now - window
        engine.record("avail", 10.0, good=False)  # exactly at now
        _, n = engine.burn_rate("avail", 10.0, 10.0)
        assert n == 1

    def test_unknown_objective(self):
        engine = SLOEngine(one_objective_policy())
        with pytest.raises(ObservabilityError):
            engine.burn_rate("nope", 0.0, 10.0)
        # ...but record() ignores unknown names (wiring sites report
        # unconditionally).
        engine.record("nope", 0.0, good=False)
        assert engine.n_events == 0

    def test_events_trimmed_past_long_window(self):
        engine = SLOEngine(one_objective_policy())
        engine.record("avail", 0.0, good=False)
        engine.record("avail", 100.0, good=True)
        _, n = engine.burn_rate("avail", 100.0, 40.0)
        assert n == 1  # the t=0 event fell off the long horizon


class TestFireClear:
    def test_deterministic_fire_then_clear(self):
        engine = SLOEngine(one_objective_policy())
        transitions = []
        for t in range(6):
            engine.record("avail", float(t), good=False)
            transitions += engine.evaluate(float(t))
        fires = [e for e in transitions if e["state"] == "fire"]
        assert len(fires) == 1
        fire = fires[0]
        assert fire["slo"] == "avail"
        assert fire["short_burn"] >= 2.0 and fire["long_burn"] >= 2.0
        assert engine.active_alerts() == ["avail"]

        # Idle time drains the windows; the short-window check clears it.
        cleared = engine.evaluate(fire["sim_ms"] + 41.0)
        assert [e["state"] for e in cleared] == ["clear"]
        assert engine.active_alerts() == []
        assert [e["state"] for e in engine.alert_log] == ["fire", "clear"]
        # Re-evaluating at a later instant is transition-free.
        assert engine.evaluate(200.0) == []

    def test_no_duplicate_fire_while_active(self):
        engine = SLOEngine(one_objective_policy())
        for t in range(20):
            engine.record("avail", float(t), good=False)
            engine.evaluate(float(t))
        assert sum(
            1 for e in engine.alert_log if e["state"] == "fire"
        ) == 1

    def test_long_window_vetoes_short_blip(self):
        # A short burst of bad events after healthy traffic: the short
        # window spikes past the threshold but the long window — which
        # requires *sustained* badness — stays diluted, so no alert.
        engine = SLOEngine(one_objective_policy())
        for t in range(20):
            engine.record("avail", float(t), good=True)
            engine.evaluate(float(t))
        for t in range(20, 24):
            engine.record("avail", float(t), good=False)
            engine.evaluate(float(t))
        short, _ = engine.burn_rate("avail", 23.0, 10.0)
        long_, _ = engine.burn_rate("avail", 23.0, 40.0)
        assert short >= 2.0 > long_
        engine.evaluate(30.0)
        assert engine.alert_log == []

    def test_same_seed_same_alert_instants(self):
        def run():
            engine = SLOEngine(one_objective_policy())
            for t in range(6):
                engine.record("avail", float(t), good=False)
                engine.evaluate(float(t))
            engine.evaluate(60.0)
            return engine.alert_log

        assert run() == run()


class TestSnapshotAndRegistry:
    def _fired_engine(self):
        engine = SLOEngine(one_objective_policy())
        for t in range(6):
            engine.record("avail", float(t), good=False)
            engine.evaluate(float(t))
        return engine

    def test_snapshot_shape(self):
        engine = self._fired_engine()
        snap = engine.snapshot(5.0)
        json.dumps(snap)
        assert snap["alerts"]["avail"] == {
            "window_events": 6, "n_fired": 1, "n_cleared": 0, "active": 1,
        }
        assert snap["burn_rates"]["avail"]["short"] == pytest.approx(10.0)
        assert snap["n_events"] == 6

    def test_to_registry_exact_families(self):
        reg = self._fired_engine().to_registry(5.0)
        assert {f.name for f in reg.families()} == {
            "slo_burn_rate", "slo_alert_active", "slo_alerts_total",
        }
        by_name = {f.name: f for f in reg.families()}
        assert by_name["slo_burn_rate"].label_names == ("slo", "window")
        assert by_name["slo_alert_active"].label_names == ("slo",)
        assert by_name["slo_alerts_total"].label_names == ("slo", "state")

        parsed = parse_prometheus_text(reg.prometheus_text())
        assert set(parsed) == {
            "repro_slo_burn_rate", "repro_slo_alert_active",
            "repro_slo_alerts_total",
        }
        burn = {
            s["labels"]["window"]: s["value"]
            for s in parsed["repro_slo_burn_rate"]["samples"]
            if s["labels"]["slo"] == "avail"
        }
        assert burn == {"short": pytest.approx(10.0),
                        "long": pytest.approx(10.0)}
        assert parsed["repro_slo_alert_active"]["samples"][0]["value"] == 1.0

    def test_snapshot_bridge_matches_live_export(self):
        """The JSON snapshot and the registry export agree, and exporting
        twice into one registry never double-counts the alerts."""
        engine = self._fired_engine()
        reg = engine.to_registry(5.0)
        engine.to_registry(5.0, registry=reg)
        live = reg.snapshot()
        snap = json.loads(json.dumps(engine.snapshot(5.0)))
        burn = {
            (e["labels"]["slo"], e["labels"]["window"]): e["value"]
            for e in live["slo_burn_rate"]["series"]
        }
        assert burn == {
            ("avail", window): snap["burn_rates"]["avail"][window]
            for window in ("short", "long")
        }
        totals = snap["alerts"]["avail"]
        alerts = {e["labels"]["state"]: e["value"]
                  for e in live["slo_alerts_total"]["series"]}
        assert alerts == {"fire": totals["n_fired"],
                          "clear": totals["n_cleared"]}
        assert alerts == {"fire": 1.0, "clear": 0.0}
        (active,) = live["slo_alert_active"]["series"]
        assert active["value"] == totals["active"] == 1

    def test_report_renders(self):
        engine = self._fired_engine()
        text = engine.report(5.0)
        assert "avail" in text and "FIRE" in text and "yes" in text
        empty = SLOEngine(one_objective_policy()).report(0.0)
        assert "alert log: (empty)" in empty


class TestServiceSLOFeed:
    def test_q_error_feed_fires_and_clears(self):
        policy = default_slo_policy()
        service = EstimationService(ServiceConfig(slo=policy, flight=False))
        for _ in range(6):
            service.report_q_error(1000.0, 100.0)  # q = 10, all bad
        snap = service.metrics_snapshot()["slo"]
        assert snap["alerts"]["q_error"]["n_fired"] == 1
        assert snap["alerts"]["q_error"]["active"] == 1
        # Advancing the simulated clock past the long window drains the
        # burn windows and deterministically clears the alert.
        service.advance_clock(service.clock_ms + policy.long_window_ms + 1.0)
        snap = service.metrics_snapshot()["slo"]
        assert snap["alerts"]["q_error"]["n_cleared"] == 1
        assert snap["alerts"]["q_error"]["active"] == 0
        log = snap["alert_log"]
        assert [e["state"] for e in log if e["slo"] == "q_error"] == [
            "fire", "clear"
        ]

    def test_completions_feed_objectives(self):
        from repro.graph.datasets import load_dataset
        from repro.query.extract import extract_query

        graph = load_dataset("yeast")
        query = extract_query(graph, 4, rng=8)
        service = EstimationService(ServiceConfig(
            slo=default_slo_policy(),
            policy=BudgetPolicy(min_round_samples=128,
                                max_round_samples=1024),
        ))
        for _ in range(4):
            service.estimate(
                EstimateRequest(graph=graph, query=query, max_samples=1024)
            )
        snap = service.metrics_snapshot()["slo"]
        # Each completion records admitted_latency + degraded (shed_rate
        # needs an admission policy, q_error an external reference).
        assert snap["n_events"] >= 8
        assert set(snap["burn_rates"]) == {
            "admitted_latency", "shed_rate", "degraded", "q_error",
        }
        text = service.registry().prometheus_text()
        assert 'repro_slo_burn_rate{slo="shed_rate",window="short"}' in text
        assert 'repro_slo_alert_active{slo="degraded"}' in text
        parse_prometheus_text(text)  # the whole exposition is well-formed

    def test_slo_disabled_by_default(self):
        service = EstimationService(ServiceConfig(flight=False))
        assert service.slo is None
        assert "slo" not in service.metrics_snapshot()
