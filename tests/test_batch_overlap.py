"""Round placement: a device batch's rounds run their warp phases on the
parent and on shard workers, and fold in task order.

The scheduler reads the host's core count from
``repro.serve.scheduler.host_cores``; the tests force the placement on
(two cores: the parent plus one worker) and off (one core) by patching it.
Placement may only change which process computes a round's warps, never an
answer, a span order or a reservoir.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine
from repro.estimators import AlleyEstimator, WanderJoinEstimator
from repro.estimators.fused import fused_kernel_for
from repro.graph.datasets import load_dataset
from repro.obs.flight import replay_bundle
from repro.obs.trace import TraceRecorder
from repro.query.extract import extract_query
from repro.query.matching_order import quicksi_order
from repro.serve import EstimateRequest, EstimationService, ServiceConfig
from repro.serve import scheduler as scheduler_mod
from repro.serve.controller import BudgetPolicy
from repro.serve.scheduler import BatchScheduler, RoundTask, host_cores

FUSED = EngineConfig.gsword(backend="fused")
#: Three 512-sample rounds per request, so a wave's batches hold four.
POLICY = BudgetPolicy(min_round_samples=512, max_round_samples=512)

_REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


@pytest.fixture(scope="module")
def graph():
    return load_dataset("yeast")


@pytest.fixture(scope="module")
def queries(graph):
    """Noisy queries: none converges before its sample budget."""
    return [extract_query(graph, 8, rng=seed) for seed in (1, 11, 16, 20)]


@pytest.fixture
def cores(monkeypatch):
    """``cores(n)`` makes the scheduler see ``n`` usable cores."""

    def force(n: int) -> None:
        monkeypatch.setattr(scheduler_mod, "host_cores", lambda: n)

    return force


def make_service(config: EngineConfig = FUSED) -> EstimationService:
    return EstimationService(ServiceConfig(engine_config=config, policy=POLICY))


def make_wave(graph, queries, tag: str, max_samples: int = 1536):
    """Alley and WanderJoin alternating, each run to its sample budget."""
    return [
        EstimateRequest(
            graph, query, target_rel_ci=1e-6, max_samples=max_samples,
            estimator="alley" if i % 2 == 0 else "wanderjoin",
            request_id=f"{tag}-{i}",
        )
        for i, query in enumerate(queries)
    ]


def answer(response):
    return (
        response.request_id, response.estimate, response.n_samples,
        response.latency_ms, response.rel_ci, response.n_rounds,
        response.stop_reason, response.degraded,
    )


def worker_pids(pool) -> list:
    return [w.process.pid for w in pool._workers if w is not None]


def gone(pid: int) -> bool:
    """The process exited (a zombie nobody reaped counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def wait_gone(pids, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if all(gone(pid) for pid in pids):
            return True
        time.sleep(0.05)
    return all(gone(pid) for pid in pids)


class TestHostCores:
    def test_reads_the_affinity_mask(self):
        assert host_cores() == len(os.sched_getaffinity(0))


class TestSameAnswers:
    def test_estimate_many_matches_one_core(self, graph, queries, cores):
        answers = {}
        hosts = {}
        for n in (1, 2):
            cores(n)
            service = make_service()
            try:
                responses = service.estimate_many(
                    make_wave(graph, queries, "same")
                )
                answers[n] = [answer(r) for r in responses]
                hosts[n] = service.metrics_snapshot()["rounds_by_host"]
                snap = service.metrics_snapshot()
                assert snap["n_rounds"] == sum(r.n_rounds for r in responses)
            finally:
                service.close()
        assert answers[2] == answers[1]
        assert hosts[1] == {"parent": sum(hosts[2].values())}
        assert hosts[2]["worker"] > 0 and hosts[2]["parent"] > 0

    def test_repeated_sessions_match(self, graph, queries, cores):
        """A batch holding two rounds of each of its sessions: every round
        draws the RNG child a one-by-one launch draws, wherever its warps
        run, and the spans keep task order."""
        outcomes = {}
        for n in (1, 2):
            cores(n)
            scheduler = BatchScheduler()
            rec = TraceRecorder()
            try:
                sessions = []
                for estimator, query in (
                    (AlleyEstimator(), queries[0]),
                    (WanderJoinEstimator(), queries[1]),
                ):
                    engine = GSWORDEngine(estimator, FUSED, recorder=rec)
                    cg = build_candidate_graph(graph, query)
                    sessions.append(
                        engine.session(cg, quicksi_order(query, graph), rng=7)
                    )
                tasks = [RoundTask(s, 512) for s in sessions + sessions]
                batch = scheduler.execute(tasks)
                launches = rec.spans("kernel.launch")
                outcomes[n] = (
                    batch.batch_ms,
                    [(r.estimate, r.n_samples, r.simulated_ms())
                     for r in batch.round_results],
                    [s.result().estimate for s in sessions],
                    [span["args"]["simulated_ms"] for span in launches],
                )
                hosts = [span["args"]["host"] for span in launches]
                assert [r.host for r in batch.round_results] == hosts
                if n == 2:
                    assert "worker" in hosts and hosts[0] == "parent"
                else:
                    assert set(hosts) == {"parent"}
            finally:
                scheduler.close()
        assert outcomes[2] == outcomes[1]

    @pytest.mark.parametrize("estimator_cls", [AlleyEstimator, WanderJoinEstimator])
    def test_worker_round_keeps_its_reservoir(self, graph, queries, estimator_cls):
        """A round whose warp phase ran (and was settled) on a shard worker
        folds the same reservoir, estimate and profile as in process."""
        query = queries[2]
        cg = build_candidate_graph(graph, query)
        order = quicksi_order(query, graph)
        engine = GSWORDEngine(estimator_cls(), FUSED)
        local = engine.session(cg, order, rng=5).run_round(
            1024, collect_states=True
        ).result
        scheduler = BatchScheduler()
        try:
            session = engine.session(cg, order, rng=5)
            prepared = session.prepare_round(1024, collect_states=True)
            session.prepare_warps(prepared).place(scheduler._worker_pool(1), 0)
            placed = session.run_round(
                1024, collect_states=True, prepared=prepared
            ).result
        finally:
            scheduler.close()
        assert placed.host == "worker" and local.host == "parent"
        assert placed.collected and placed.collected == local.collected
        assert (placed.estimate, placed.n_samples, placed.simulated_ms()) == (
            local.estimate, local.n_samples, local.simulated_ms()
        )
        assert placed.profile == local.profile
        assert placed.n_rerun_warps == local.n_rerun_warps

    def test_flight_bundle_of_a_worker_round_replays(
        self, graph, queries, cores
    ):
        cores(2)
        service = make_service()
        try:
            tickets = [
                service.submit(r) for r in make_wave(graph, queries, "fl")
            ]
            assert service.process_once()  # one batch of four rounds
            # The newest captured launch is the batch's last round, which
            # placement gives to the worker.
            bundle = service.report_q_error(1.0, 1e9)
            assert bundle is not None
            launches = [
                e for e in bundle["ring"]["traceEvents"]
                if e.get("name") == "kernel.launch" and e.get("ph") == "X"
            ]
            assert launches[-1]["args"]["host"] == "worker"
            report = replay_bundle(json.loads(json.dumps(bundle)))
            assert report["match"], report
            service.drain()
            assert all(t.done() for t in tickets)
        finally:
            service.close()


class TestWorkerCrash:
    def test_crash_degrades_only_the_workers_rounds(self, graph, queries, cores):
        cores(2)
        service = make_service()
        try:
            healthy = service.estimate_many(make_wave(graph, queries, "warm"))
            assert all(r.stop_reason == "budget" for r in healthy)
            pool = service.scheduler._pool
            assert pool is not None
            [first_pid] = worker_pids(pool)
            pool.inject_crash(0)
            wave = service.estimate_many(make_wave(graph, queries, "crash"))
            degraded = [r for r in wave if r.stop_reason == "fallback"]
            assert 0 < len(degraded) < len(wave)
            for response in degraded:
                assert response.degraded
                assert response.extras["device_error"].startswith(
                    "ShardFailure"
                )
            snap = service.metrics_snapshot()
            assert snap["resilience"]["n_round_failures"] == len(degraded)
            kinds = [b["trigger"]["kind"] for b in service.flight_bundles()]
            assert "shard_failure" in kinds
            # The pool respawned its worker before the next batch.
            after = service.estimate_many(make_wave(graph, queries, "after"))
            assert all(r.stop_reason == "budget" for r in after)
            assert worker_pids(pool) and worker_pids(pool) != [first_pid]
            assert gone(first_pid)
        finally:
            service.close()


class TestPoolNeverStarts:
    def test_single_round_batches(self, graph, queries, cores):
        cores(2)
        service = make_service()
        try:
            for request in make_wave(graph, queries, "one", max_samples=512):
                service.estimate(request)
            assert service.scheduler._pool is None
        finally:
            service.close()

    def test_scalar_backend(self, graph, queries, cores):
        cores(2)
        service = make_service(EngineConfig.gsword(backend="scalar"))
        try:
            service.estimate_many(make_wave(graph, queries, "sc", 1024))
            assert service.scheduler._pool is None
        finally:
            service.close()

    def test_sharded_engines(self, graph, queries, cores):
        cores(2)
        service = make_service(FUSED.with_shards(2))
        try:
            service.estimate_many(make_wave(graph, queries, "sh", 1024))
            assert service.scheduler._pool is None
            assert set(service.metrics_snapshot()["rounds_by_host"]) == {
                "parent"
            }
        finally:
            service.close()

    def test_one_core(self, graph, queries, cores):
        cores(1)
        service = make_service()
        try:
            service.estimate_many(make_wave(graph, queries, "1c"))
            assert service.scheduler._pool is None
        finally:
            service.close()


class TestBuildsAndPublications:
    def test_each_round_builds_and_publishes_at_most_once(
        self, graph, queries, cores, monkeypatch
    ):
        """Two engines whose rounds interleave in one batch: each round
        evicts the other's kernel from its engine's last-plan cache, so
        every round builds one, and carries it to its fold and resumes."""
        builds = []
        for estimator in (AlleyEstimator(), WanderJoinEstimator()):
            cls = fused_kernel_for(estimator)
            init = cls.__init__

            def counting(self, *args, _init=init, **kwargs):
                builds.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        cores(2)
        scheduler = BatchScheduler()
        try:
            engines = [GSWORDEngine(AlleyEstimator(), FUSED),
                       GSWORDEngine(WanderJoinEstimator(), FUSED)]
            tasks = []
            for i, query in enumerate(queries):
                cg = build_candidate_graph(graph, query)
                session = engines[i % 2].session(
                    cg, quicksi_order(query, graph), rng=i
                )
                tasks.append(RoundTask(session, 1024))
            batch = scheduler.execute(tasks)
            assert batch.n_faults == 0
            n_worker = sum(r.host == "worker" for r in batch.round_results)
            assert n_worker > 0
            assert len(builds) <= len(tasks)
            assert scheduler._pool.n_published <= n_worker
        finally:
            scheduler.close()


class TestProcessLifetime:
    def test_close_leaves_no_child(self, graph, queries, cores):
        cores(2)
        service = make_service()
        service.estimate_many(make_wave(graph, queries, "close"))
        pids = worker_pids(service.scheduler._pool)
        assert pids
        service.close()
        assert service.scheduler._pool is None
        assert wait_gone(pids)

    def test_workers_exit_when_their_owner_is_killed(self, tmp_path):
        script = textwrap.dedent(
            """
            import os, signal, sys
            from repro.multidev.executor import ShardedVectorExecutor

            executor = ShardedVectorExecutor(2)
            for shard in range(2):
                executor._live_worker(shard)
            pids = [w.process.pid for w in executor._workers]
            print(*pids, flush=True)
            os.kill(os.getpid(), signal.SIGKILL)
            """
        )
        env = dict(os.environ, PYTHONPATH=os.path.abspath(_REPO_SRC))
        out = tmp_path / "pids.txt"
        # A file, not a pipe: a lingering worker holding a pipe's write
        # end would keep the run waiting for EOF.
        with open(out, "w") as fh:
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, stdout=fh,
                timeout=60,
            )
        assert proc.returncode == -signal.SIGKILL
        pids = [int(p) for p in out.read_text().split()]
        assert len(pids) == 2
        exited = wait_gone(pids)
        for pid in pids:  # never leave an orphan behind, even on failure
            if not gone(pid):
                os.kill(pid, signal.SIGKILL)
        assert exited, pids
