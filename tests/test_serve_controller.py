"""Tests for adaptive sample budgets (repro/serve/controller.py)."""

import math

import pytest

from repro.errors import ServiceError
from repro.estimators.ht import HTAccumulator
from repro.graph.datasets import load_dataset
from repro.query.extract import extract_query
from repro.serve.controller import (
    REASON_BUDGET,
    REASON_CONVERGED,
    REASON_DEADLINE,
    REASON_EMPTY,
    AdaptiveBudgetController,
    BudgetPolicy,
    relative_ci,
)
from repro.serve.request import EstimateRequest

POLICY = BudgetPolicy(min_round_samples=100, max_round_samples=1000)


@pytest.fixture(scope="module")
def workload():
    graph = load_dataset("yeast")
    return graph, extract_query(graph, 4, rng=0)


def make_request(workload, **kwargs):
    graph, query = workload
    return EstimateRequest(graph=graph, query=query, **kwargs)


def make_controller(workload, policy=POLICY, **kwargs):
    return AdaptiveBudgetController(make_request(workload, **kwargs), policy)


def acc_with(values):
    acc = HTAccumulator()
    for v in values:
        acc.add(v)
    return acc


class TestBudgetPolicy:
    def test_validation(self):
        with pytest.raises(ServiceError):
            BudgetPolicy(min_round_samples=0)
        with pytest.raises(ServiceError):
            BudgetPolicy(min_round_samples=100, max_round_samples=50)


class TestRelativeCI:
    def test_undefined_without_signal(self):
        assert relative_ci(acc_with([])) == math.inf
        assert relative_ci(acc_with([5.0])) == math.inf  # n < 2
        assert relative_ci(acc_with([0.0, 0.0])) == math.inf  # estimate 0

    def test_zero_for_constant_values(self):
        assert relative_ci(acc_with([7.0] * 10)) == 0.0

    def test_matches_formula(self):
        acc = acc_with([100.0, 200.0, 150.0, 50.0])
        expected = 1.96 * acc.std_error / acc.estimate
        assert relative_ci(acc) == pytest.approx(expected)

    def test_shrinks_with_samples(self):
        few = acc_with([100.0, 200.0] * 2)
        many = acc_with([100.0, 200.0] * 50)
        assert relative_ci(many) < relative_ci(few)


class TestRoundSizing:
    def test_first_round_is_min(self, workload):
        ctl = make_controller(workload)
        assert ctl.next_round_samples(0.0) == POLICY.min_round_samples

    def test_first_round_runs_even_past_deadline(self, workload):
        """Degraded responses are best-effort, never empty: round 1 runs
        regardless of the deadline."""
        ctl = make_controller(workload, deadline_ms=1.0)
        assert ctl.next_round_samples(elapsed_ms=99.0) > 0

    def test_geometric_growth_without_signal(self, workload):
        ctl = make_controller(workload)
        n1 = ctl.next_round_samples(0.0)
        ctl.observe(acc_with([0.0] * n1), n1, round_ms=0.1)  # rel_ci still inf
        assert ctl.next_round_samples(0.0) == n1 * 2  # growth=2.0
        ctl.observe(acc_with([0.0] * (n1 * 3)), n1 * 2, round_ms=0.1)
        assert ctl.next_round_samples(0.0) == n1 * 4

    def test_ci_gap_sizing(self, workload):
        """With a CI signal the next round requests the 1/√n gap."""
        ctl = make_controller(workload, target_rel_ci=0.05)
        n1 = ctl.next_round_samples(0.0)
        acc = acc_with([100.0, 200.0] * (n1 // 2))
        ctl.observe(acc, n1, round_ms=0.1)
        rel = relative_ci(acc)
        needed = math.ceil(n1 * (rel / 0.05) ** 2) - n1
        want = max(POLICY.min_round_samples, min(POLICY.max_round_samples, needed))
        assert ctl.next_round_samples(0.0) == want

    def test_round_ceiling_bounds_fairness(self, workload):
        """A far-from-converged request still yields the device after
        max_round_samples."""
        ctl = make_controller(workload, target_rel_ci=1e-6)
        n1 = ctl.next_round_samples(0.0)
        ctl.observe(acc_with([100.0, 200.0] * (n1 // 2)), n1, round_ms=0.1)
        assert ctl.next_round_samples(0.0) == POLICY.max_round_samples

    def test_round_capped_by_remaining_budget(self, workload):
        ctl = make_controller(workload, max_samples=150)
        n1 = ctl.next_round_samples(0.0)
        assert n1 == 100
        ctl.observe(acc_with([0.0] * n1), n1, round_ms=0.1)
        assert ctl.next_round_samples(0.0) == 50  # budget remnant, not 200


class TestStopping:
    def test_converged(self, workload):
        ctl = make_controller(workload, target_rel_ci=0.5)
        n1 = ctl.next_round_samples(0.0)
        ctl.observe(acc_with([100.0] * n1), n1, round_ms=0.1)  # rel_ci = 0
        assert ctl.next_round_samples(0.0) == 0
        assert ctl.stop_reason == REASON_CONVERGED
        assert ctl.finished and ctl.converged and not ctl.degraded

    def test_budget_backstop(self, workload):
        """Zero-estimate requests (rel_ci forever inf) stop at max_samples
        and report degraded."""
        ctl = make_controller(workload, max_samples=100)
        n1 = ctl.next_round_samples(0.0)
        ctl.observe(acc_with([0.0] * n1), n1, round_ms=0.1)
        assert ctl.next_round_samples(0.0) == 0
        assert ctl.stop_reason == REASON_BUDGET
        assert ctl.degraded

    def test_deadline_elapsed(self, workload):
        ctl = make_controller(workload, deadline_ms=1.0, target_rel_ci=0.01)
        n1 = ctl.next_round_samples(0.0)
        ctl.observe(acc_with([100.0, 200.0] * (n1 // 2)), n1, round_ms=0.5)
        assert ctl.next_round_samples(elapsed_ms=1.5) == 0
        assert ctl.stop_reason == REASON_DEADLINE
        assert ctl.degraded

    def test_deadline_no_room_for_a_sample(self, workload):
        """Deadline not yet hit, but the observed ms/sample says not even
        one more sample fits."""
        ctl = make_controller(workload, deadline_ms=10.0, target_rel_ci=0.01)
        n1 = ctl.next_round_samples(0.0)
        ctl.observe(acc_with([100.0, 200.0] * (n1 // 2)), n1, round_ms=100.0)
        # ms_per_sample = 1.0; remaining 0.5 ms fits 0 samples.
        assert ctl.next_round_samples(elapsed_ms=9.5) == 0
        assert ctl.stop_reason == REASON_DEADLINE

    def test_deadline_shrinks_round_to_fit(self, workload):
        ctl = make_controller(workload, deadline_ms=1000.0)
        n1 = ctl.next_round_samples(0.0)
        ctl.observe(acc_with([0.0] * n1), n1, round_ms=100.0)  # 1 ms/sample
        # Geometric growth wants 200; only ~120 ms remain -> 120 samples.
        assert ctl.next_round_samples(elapsed_ms=880.0) == 120

    def test_finish_empty(self, workload):
        ctl = make_controller(workload)
        ctl.finish_empty()
        assert ctl.stop_reason == REASON_EMPTY
        assert not ctl.degraded and ctl.rel_ci == 0.0
        assert ctl.next_round_samples(0.0) == 0

    def test_stop_reason_before_stop_raises(self, workload):
        with pytest.raises(ServiceError):
            make_controller(workload).stop_reason

    def test_observe_rejects_empty_round(self, workload):
        with pytest.raises(ServiceError):
            make_controller(workload).observe(acc_with([1.0]), 0, 0.1)


class TestEWMA:
    def test_ms_per_sample_blends(self, workload):
        ctl = make_controller(workload, deadline_ms=1e9)
        n1 = ctl.next_round_samples(0.0)  # 100
        ctl.observe(acc_with([0.0] * n1), n1, round_ms=100.0)  # 1.0 ms/sample
        assert ctl._ms_per_sample == pytest.approx(1.0)
        n2 = ctl.next_round_samples(0.0)  # 200
        ctl.observe(acc_with([0.0] * 300), n2, round_ms=600.0)  # 3.0 ms/sample
        assert ctl._ms_per_sample == pytest.approx(2.0)  # 0.5/0.5 blend
