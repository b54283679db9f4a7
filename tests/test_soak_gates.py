"""The overload soak's acceptance gates (``bench.overload.evaluate_gates``).

Each gate is checked on a hand-built soak payload: a payload that passes
every gate, then one mutation per gate that must fail that gate alone.
The ``flight_replay_bit_identical`` gate replays a real postmortem bundle
captured from one engine round.
"""

import copy
import json

import numpy as np
import pytest

from repro.bench.overload import P99_DEADLINE_SLACK, evaluate_gates
from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.estimators.alley import AlleyEstimator
from repro.gpu.costmodel import GPUSpec
from repro.graph.datasets import load_dataset
from repro.obs.flight import (
    build_bundle,
    graph_identity,
    serialize_engine_config,
    serialize_gpu_spec,
    serialize_plan,
    serialize_round,
)
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.utils.rng import clone_state, derive_seed, generator_from_state

GATES = (
    "zero_stranded",
    "sheds_carry_retry_after",
    "admitted_p99_bounded",
    "goodput_not_worse_than_baseline",
    "slo_alert_fired",
    "slo_alert_cleared",
    "flight_replay_bit_identical",
)

DEADLINE_MS = 10.0


def _bundle():
    """A ``shed_spike`` bundle carrying one captured engine round, built
    through the serialize_* helpers a live trigger uses."""
    graph = load_dataset("yeast")
    query = extract_query(graph, 4, rng=8)
    order = quicksi_order(query, graph)
    cg = build_candidate_graph(graph, query)
    config = EngineConfig()
    state = np.random.SeedSequence(derive_seed(77, "soak-gate"))
    engine = GSWORDEngine(AlleyEstimator(), config)
    try:
        result = engine.run(
            cg, order, 256, rng=generator_from_state(clone_state(state))
        )
    finally:
        engine.close()
    launch = {
        "rng_state": state,
        "n_samples": 256,
        "estimate": float(result.estimate),
        "simulated_ms": float(result.simulated_ms()),
        "backend": result.backend_label,
        "n_warps": int(result.n_warps),
        "round": 0,
    }
    bundle = build_bundle(
        kind="shed_spike",
        sim_ms=1.0,
        details={"shed_rate": 0.8, "n_events": 16},
        ring={"traceEvents": [], "otherData": {"source": "none"}},
        metrics={},
        engine_config=serialize_engine_config(config),
        gpu_spec=serialize_gpu_spec(GPUSpec()),
        graph=graph_identity(graph),
        plan=serialize_plan(graph, query, order, "alley", "quicksi"),
        round_capture=serialize_round(launch),
    )
    return json.loads(json.dumps(bundle))  # the file form


@pytest.fixture(scope="module")
def bundle():
    return _bundle()


@pytest.fixture
def payload(bundle):
    """A soak payload that passes every gate."""
    return {
        "soak": {
            "deadline_ms": DEADLINE_MS,
            "shed": {
                "n_stranded": 0,
                "n_shed": 5,
                "min_retry_after_ms": 0.25,
                "p99_admitted_ms": 4.0,
                "goodput_per_s": 120.0,
                "slo": {"alert_log": [
                    {"state": "fire"}, {"state": "clear"},
                ]},
            },
            "baseline": {"n_stranded": 0, "goodput_per_s": 100.0},
        },
        "flight_bundle": copy.deepcopy(bundle),
    }


def _break_shed_stranded(p):
    p["soak"]["shed"]["n_stranded"] = 1


def _break_baseline_stranded(p):
    p["soak"]["baseline"]["n_stranded"] = 2


def _break_no_sheds(p):
    p["soak"]["shed"]["n_shed"] = 0


def _break_zero_retry_after(p):
    p["soak"]["shed"]["min_retry_after_ms"] = 0.0


def _break_p99(p):
    p["soak"]["shed"]["p99_admitted_ms"] = P99_DEADLINE_SLACK * DEADLINE_MS + 1


def _break_goodput(p):
    p["soak"]["shed"]["goodput_per_s"] = 99.0


def _break_no_fire(p):
    p["soak"]["shed"]["slo"]["alert_log"] = [{"state": "clear"}]


def _break_no_clear(p):
    p["soak"]["shed"]["slo"]["alert_log"] = [{"state": "fire"}]


def _break_tampered_bundle(p):
    p["flight_bundle"]["round"]["expected"]["estimate"] += 1.0


def _break_missing_bundle(p):
    p["flight_bundle"] = None


def _break_bundle_without_round(p):
    p["flight_bundle"]["round"] = None


MUTATIONS = [
    (_break_shed_stranded, "zero_stranded"),
    (_break_baseline_stranded, "zero_stranded"),
    (_break_no_sheds, "sheds_carry_retry_after"),
    (_break_zero_retry_after, "sheds_carry_retry_after"),
    (_break_p99, "admitted_p99_bounded"),
    (_break_goodput, "goodput_not_worse_than_baseline"),
    (_break_no_fire, "slo_alert_fired"),
    (_break_no_clear, "slo_alert_cleared"),
    (_break_tampered_bundle, "flight_replay_bit_identical"),
    (_break_missing_bundle, "flight_replay_bit_identical"),
    (_break_bundle_without_round, "flight_replay_bit_identical"),
]


class TestEvaluateGates:
    def test_passing_payload_passes_every_gate(self, payload):
        gates = evaluate_gates(payload)
        assert {g: gates[g] for g in GATES} == {g: True for g in GATES}
        assert gates["passed"] is True
        assert gates["p99_bound_ms"] == P99_DEADLINE_SLACK * DEADLINE_MS
        replay = gates["flight_replay"]
        assert replay["match"] and replay["replayed"] == replay["expected"]

    def test_gate_set_is_exactly_these(self, payload):
        gates = evaluate_gates(payload)
        assert {k for k, v in gates.items() if isinstance(v, bool)} == (
            set(GATES) | {"passed"}
        )

    @pytest.mark.parametrize(
        "mutate, gate", MUTATIONS, ids=[m.__name__[7:] for m, _ in MUTATIONS]
    )
    def test_each_failure_fails_its_gate_alone(self, payload, mutate, gate):
        mutate(payload)
        gates = evaluate_gates(payload)
        failed = {g for g in GATES if not gates[g]}
        assert failed == {gate}
        assert gates["passed"] is False

    def test_p99_at_the_bound_passes(self, payload):
        payload["soak"]["shed"]["p99_admitted_ms"] = (
            P99_DEADLINE_SLACK * DEADLINE_MS
        )
        assert evaluate_gates(payload)["admitted_p99_bounded"] is True

    def test_unreplayable_bundle_reports_no_replay(self, payload):
        _break_bundle_without_round(payload)
        assert evaluate_gates(payload)["flight_replay"] is None
