"""The three benchmark workloads, driven through the public ``repro`` API.

Every workload is a closed loop: one client on the synchronous facade of a
default ``EstimationService(ServiceConfig())``, no extra threads.  All
inputs (query templates, request ids) are pure functions of ``--seed``, so
two commits given the same seed do identical simulated work.

A run has two parts.  The *prefix* is a fixed, seed-determined number of
requests; the simulated-clock metrics, the ``sim_digest`` and the exact
q-error are computed over it, so they repeat exactly for a seed.  The run
then keeps issuing requests until ``--seconds`` of wall time have passed;
the wall-clock metrics use every timed request.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import math
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import (
    build_candidate_graph,
    count_embeddings,
    extract_query,
    load_dataset,
    quicksi_order,
)
from repro.candidate.candidate_graph import plan_key
from repro.errors import QueryError
from repro.serve import (
    BudgetPolicy,
    EstimateRequest,
    EstimateResponse,
    EstimationService,
    ServiceConfig,
)

#: Stop reasons the service documents (``EstimateResponse.stop_reason``).
KNOWN_STOP_REASONS = ("converged", "budget", "deadline", "empty", "fallback")

#: A request may collect more than ``max_samples`` only through the
#: continuations its last round inherited; a round launched after the
#: budget ran out would add at least one minimum-size round on top.
BUDGET_SLACK = BudgetPolicy().min_round_samples

#: Node budget of the exact-count oracle (deterministic, unlike a deadline).
EXACT_MAX_NODES = 5_000_000

#: Host-speed probe.  The host's speed drifts by up to 1.7x over minutes,
#: far more than the changes the benchmark must resolve.  A fixed piece of
#: reference work, independent of ``repro``, is timed after every client
#: call; each call's wall time is scaled by ``PROBE_REF_S / probe time``
#: before the wall metrics are computed.  The work is half an interpreter
#: loop and half random gathers from an 8 MiB array: the drift hits
#: memory-bound work hardest, and the service's time is a mix of both.
PROBE_REF_S = 0.001
_PROBE_RNG = np.random.default_rng(0)
_PROBE_TABLE = _PROBE_RNG.random(1 << 20)
_PROBE_INDEX = _PROBE_RNG.integers(0, 1 << 20, 20_000)


def probe() -> float:
    """Seconds the fixed reference work takes right now (~1 ms).

    An untimed first gather re-warms the cache lines the timed gathers
    touch, so the time does not depend on what the preceding request
    left in the cache."""
    total = float(_PROBE_TABLE[_PROBE_INDEX].sum())
    t0 = time.perf_counter()
    for i in range(3000):
        total += i * i % 7
    for _ in range(6):
        total += float(_PROBE_TABLE[_PROBE_INDEX].sum())
    return time.perf_counter() - t0


def host_scale(samples: int = 15) -> float:
    """``PROBE_REF_S / probe time`` now (median of ``samples`` probes)."""
    return PROBE_REF_S / statistics.median(probe() for _ in range(samples))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def derive(seed: int, *keys: object) -> int:
    """A 63-bit integer that is a pure function of ``seed`` and ``keys``."""
    text = ":".join(str(k) for k in (seed, *keys))
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    return float(np.percentile(values, q))


def beyond(values: Sequence[float], threshold: float) -> int:
    return sum(1 for v in values if v > threshold)


@dataclass
class Outcome:
    """One timed request: its wall latency and the service's answer."""

    request_id: str
    template: int
    max_samples: int
    unit: int  # index of the client call (request or wave) that sent it
    wall_ms: float  # wall time of that call
    sim_ms: float  # simulated time the caller waited for this answer
    response: Optional[EstimateResponse] = None
    error: str = ""


@dataclass
class RunResult:
    outcomes: List[Outcome]
    prefix: int  # outcomes[:prefix] is the deterministic prefix
    elapsed_s: float  # wall time of the whole timed loop
    unit_wall_ms: List[float]  # wall time of each client call
    #: Host-speed probe time (s) taken right after each client call.
    probes: List[float]
    #: Simulated time the prefix occupied, as its callers saw it.
    prefix_sim_ms: float
    peak_rss_mb: float  # high-water mark when the prefix completed

    def unit_scale(self) -> List[float]:
        """Per-call factor ``PROBE_REF_S / local probe time``: the median
        probe of the five calls around it, so a brief probe hiccup does
        not move the factor."""
        scale = []
        for u in range(len(self.probes)):
            window = self.probes[max(0, u - 2): u + 3]
            scale.append(PROBE_REF_S / statistics.median(window))
        return scale


def check_response(out: Outcome) -> List[str]:
    """Correctness gate for one answered request (empty list = pass)."""
    if out.response is None:
        return [f"{out.request_id}: raised {out.error}"]
    r = out.response
    problems = []
    if not (math.isfinite(r.estimate) and r.estimate >= 0.0):
        problems.append(f"{out.request_id}: estimate {r.estimate!r}")
    if r.stop_reason not in KNOWN_STOP_REASONS:
        problems.append(f"{out.request_id}: stop_reason {r.stop_reason!r}")
    if r.n_samples > out.max_samples + BUDGET_SLACK:
        problems.append(
            f"{out.request_id}: n_samples {r.n_samples} > max_samples "
            f"{out.max_samples} + {BUDGET_SLACK}"
        )
    return problems


class Workload:
    """Shared set-up and bookkeeping; subclasses define the traffic."""

    name = ""
    datasets: Tuple[str, ...] = ()

    def __init__(self, seed: int, ledger=None) -> None:
        self.seed = seed
        self.ledger = ledger
        self.graphs: Dict[str, object] = {}
        self.generate_s = 0.0
        self.extract_s = 0.0
        self.n_extracted = 0
        self.service: Optional[EstimationService] = None

    # -- set-up helpers -------------------------------------------------
    def _span(self, name: str):
        if self.ledger is None:
            return contextlib.nullcontext()
        return self.ledger.span(name)

    def load_graphs(self) -> None:
        for ds in self.datasets:
            t0 = time.perf_counter()
            with self._span("graph.load"):
                self.graphs[ds] = load_dataset(ds)
            self.generate_s += time.perf_counter() - t0

    def extract(self, ds: str, k: int, rng: int, query_type: str = "dense"):
        t0 = time.perf_counter()
        try:
            with self._span("query.extract"):
                return extract_query(
                    self.graphs[ds], k, rng=rng, query_type=query_type
                )
        finally:
            self.extract_s += time.perf_counter() - t0
            self.n_extracted += 1

    def rid(self, index: object) -> str:
        return f"{self.name}-{self.seed}-{index}"

    def setup(self) -> None:
        raise NotImplementedError

    # -- the timed closed loop ---------------------------------------------
    #: Client calls in the deterministic prefix.
    prefix_units = 0

    def unit(self, u: int) -> List[Tuple[EstimateRequest, int]]:
        """Requests (with their template index) of client call ``u``."""
        return [self.request(u)]

    def send(self, requests: List[EstimateRequest]) -> List[EstimateResponse]:
        return [self.service.estimate(requests[0])]

    def run(self, seconds: float) -> RunResult:
        """Issue client calls until the prefix is done and ``seconds`` of
        wall time have passed."""
        outcomes: List[Outcome] = []
        unit_wall: List[float] = []
        probes: List[float] = []
        prefix_sim_ms = 0.0
        rss = 0.0
        ledger = self.ledger
        gc.collect()
        start = time.perf_counter()
        u = 0
        while u < self.prefix_units or time.perf_counter() - start < seconds:
            batch = self.unit(u)
            if ledger is not None:
                ledger.rid = (
                    batch[0][0].request_id if len(batch) == 1
                    else self.rid(f"wave-{u}")
                )
            error = ""
            t0 = time.perf_counter()
            try:
                responses = self.send([r for r, _ in batch])
            except Exception as exc:  # noqa: BLE001 - counted as failed
                responses = [None] * len(batch)
                error = f"{type(exc).__name__}: {exc}"
            wall_ms = (time.perf_counter() - t0) * 1000.0
            unit_sim = 0.0
            for (request, t), response in zip(batch, responses):
                sim = response.latency_ms if response is not None else 0.0
                unit_sim = max(unit_sim, sim)
                outcomes.append(Outcome(
                    request.request_id, t, request.max_samples, u, wall_ms,
                    sim, response, error,
                ))
            unit_wall.append(wall_ms)
            probes.append(probe())
            u += 1
            if u <= self.prefix_units:
                prefix_sim_ms += unit_sim
            if u == self.prefix_units:
                rss = peak_rss_mb()
                n_prefix = len(outcomes)
        return RunResult(
            outcomes=outcomes,
            prefix=n_prefix,
            elapsed_s=time.perf_counter() - start,
            unit_wall_ms=unit_wall,
            probes=probes,
            prefix_sim_ms=prefix_sim_ms,
            peak_rss_mb=rss,
        )

    def request(self, i: int) -> Tuple[EstimateRequest, int]:
        raise NotImplementedError

    def exact_counts(self) -> Dict[int, int]:
        """Ground truth per template (interactive only); untimed."""
        return {}


class Interactive(Workload):
    """Cardinality requests from a query optimizer against a warm plan
    cache: one-round requests whose per-request and per-round fixed costs
    in ``serve`` and ``core`` dominate."""

    name = "interactive"
    #: Five equal-share template classes (dataset, k, query type): four
    #: k=4 classes (~12 ms, p50 lands mid-body) and one k=8 class (~22 ms).
    #: p90 then falls among the k=8 requests and the two-round k=4 ones,
    #: which take about as long; the rarer two-round k=8 requests stay
    #: above it.
    CLASSES = (
        ("yeast", 4, "dense"),
        ("hprd", 4, "dense"),
        ("yeast", 4, "sparse"),
        ("hprd", 4, "sparse"),
        ("hprd", 8, "dense"),
    )
    PER_CLASS = 48
    PREFIX_PASSES = 2
    TARGET_REL_CI = 0.2
    datasets = ("yeast", "hprd")

    def setup(self) -> None:
        self.load_graphs()
        # Template t = m * len(CLASSES) + c, so request i % T cycles the
        # classes in equal shares.
        self.templates = []
        for m in range(self.PER_CLASS):
            for c, (ds, k, qt) in enumerate(self.CLASSES):
                query = self.extract(ds, k, derive(self.seed, self.name, c, m), qt)
                self.templates.append((ds, query))
        self.prefix_units = self.PREFIX_PASSES * len(self.templates)
        self.service = EstimationService(ServiceConfig())
        for t in range(len(self.templates)):
            self.service.estimate(self._make(t, self.rid(f"warm-{t}")))

    def _make(self, t: int, request_id: str) -> EstimateRequest:
        ds, query = self.templates[t]
        return EstimateRequest(
            self.graphs[ds], query,
            target_rel_ci=self.TARGET_REL_CI, request_id=request_id,
        )

    def request(self, i: int) -> Tuple[EstimateRequest, int]:
        t = i % len(self.templates)
        return self._make(t, self.rid(i)), t

    def exact_counts(self) -> Dict[int, int]:
        counts = {}
        for t, (ds, query) in enumerate(self.templates):
            graph = self.graphs[ds]
            cg = build_candidate_graph(graph, query)
            result = count_embeddings(
                cg, quicksi_order(query, graph), max_nodes=EXACT_MAX_NODES
            )
            if result.complete:
                counts[t] = result.count
        return counts


class Cold(Workload):
    """Never-seen queries: every request misses the plan cache and pays
    ``build_candidate_graph`` + ``quicksi_order``."""

    name = "cold"
    #: Five equal-share classes ordered by cost (orkut k=12 slowest).
    CLASSES = (
        ("dblp", 12),
        ("patents", 12),
        ("dblp", 16),
        ("patents", 16),
        ("orkut", 12),
    )
    prefix_units = 110  # > 100, so ten requests lie beyond p90
    MAX_SAMPLES = 512
    TARGET_REL_CI = 0.2
    datasets = ("dblp", "patents", "orkut")

    def setup(self) -> None:
        self.load_graphs()
        self._seen = set()
        self.pool: List[Tuple[str, object]] = []
        self.service = EstimationService(ServiceConfig())
        for c in range(len(self.CLASSES)):
            ds, query = self._fresh(("warm", c), c)
            self.service.estimate(
                EstimateRequest(
                    self.graphs[ds], query, target_rel_ci=self.TARGET_REL_CI,
                    max_samples=self.MAX_SAMPLES,
                    request_id=self.rid(f"warm-{c}"),
                )
            )
        # Queries for twice the prefix; longer runs extend the pool lazily.
        while len(self.pool) < 2 * self.prefix_units:
            self._grow()

    def _fresh(self, key: object, c: int) -> Tuple[str, object]:
        """A query of class ``c`` whose plan no earlier request built."""
        ds, k = self.CLASSES[c]
        graph = self.graphs[ds]
        for attempt in range(100):
            try:
                query = self.extract(ds, k, derive(self.seed, self.name, key, attempt))
            except QueryError:
                continue
            pk = plan_key(graph, query)
            if pk not in self._seen:
                self._seen.add(pk)
                return ds, query
        raise RuntimeError(f"no fresh {ds} k={k} query for {key}")

    def _grow(self) -> None:
        i = len(self.pool)
        self.pool.append(self._fresh(i, i % len(self.CLASSES)))

    def request(self, i: int) -> Tuple[EstimateRequest, int]:
        while i >= len(self.pool):
            self._grow()
        ds, query = self.pool[i]
        return (
            EstimateRequest(
                self.graphs[ds], query, target_rel_ci=self.TARGET_REL_CI,
                max_samples=self.MAX_SAMPLES, request_id=self.rid(i),
            ),
            i,
        )


class Offline(Workload):
    """Batch analytics: waves of ``estimate_many`` that share device
    batches and run every request to a fixed sample budget."""

    name = "offline"
    K = 8
    PER_DATASET = 30
    #: Every wave holds one request of each (dataset, estimator) pair, so
    #: all waves are alike and their wall times form one latency class.  A
    #: request's latency is its wave's wall time; with four requests per
    #: wave, p90 has ten requests beyond it once a run has 28 waves.
    prefix_units = 30
    MAX_SAMPLES = 6144
    #: Unreachable target: requests stop on the sample budget (or on an
    #: exactly-known count, which reports a zero-width interval).
    TARGET_REL_CI = 1e-6
    datasets = ("dblp", "orkut")

    def setup(self) -> None:
        self.load_graphs()
        self.templates = [
            (ds, self.extract(ds, self.K, derive(self.seed, self.name, ds, m)))
            for ds in self.datasets
            for m in range(self.PER_DATASET)
        ]
        self.service = EstimationService(ServiceConfig())
        self.service.estimate_many([
            EstimateRequest(
                self.graphs[ds], query, target_rel_ci=self.TARGET_REL_CI,
                max_samples=256, request_id=self.rid(f"warm-{t}"),
                estimator="alley" if t % 2 == 0 else "wanderjoin",
            )
            for t, (ds, query) in enumerate(self.templates)
        ])

    def unit(self, w: int) -> List[Tuple[EstimateRequest, int]]:
        per = self.PER_DATASET
        first = (2 * w) % per
        # Alley and WanderJoin alternate within the wave; the pairing flips
        # on each pass over the templates, so every template meets both.
        flip = (2 * w // per) % 2
        picks = [
            (0, first, flip), (0, first + 1, 1 - flip),
            (1, first, 1 - flip), (1, first + 1, flip),
        ]
        wave = []
        for j, (d, m, alley) in enumerate(picks):
            t = d * per + m % per
            ds, query = self.templates[t]
            wave.append((
                EstimateRequest(
                    self.graphs[ds], query, target_rel_ci=self.TARGET_REL_CI,
                    max_samples=self.MAX_SAMPLES,
                    estimator="alley" if alley else "wanderjoin",
                    request_id=self.rid(f"{w}.{j}"),
                ),
                t,
            ))
        return wave

    def send(self, requests: List[EstimateRequest]) -> List[EstimateResponse]:
        return self.service.estimate_many(requests)


WORKLOADS = {cls.name: cls for cls in (Interactive, Cold, Offline)}


def sim_digest(outcomes: Sequence[Outcome]) -> str:
    """Hash of each answer's (estimate, n_samples, simulated latency)."""
    h = hashlib.sha256()
    for o in outcomes:
        r = o.response
        if r is None:
            h.update(f"{o.request_id}:error;".encode())
        else:
            h.update(
                f"{o.request_id}:{r.estimate!r}:{r.n_samples}:"
                f"{r.latency_ms!r};".encode()
            )
    return h.hexdigest()[:16]


def q_errors(outcomes: Sequence[Outcome], counts: Dict[int, int]) -> List[float]:
    errors = []
    for o in outcomes:
        truth = counts.get(o.template)
        if truth is None or truth <= 0 or o.response is None:
            continue
        est = o.response.estimate
        errors.append(max(est / truth, truth / est) if est > 0 else math.inf)
    return errors
