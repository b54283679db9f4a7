"""The estimation service: a concurrent front end over the simulated GPU.

:class:`EstimationService` accepts :class:`EstimateRequest`\\ s from any
thread, queues them, and processes them in dynamically-batched device
rounds.  A request's lifecycle:

1. **submit** — thread-safe; returns a :class:`Ticket` the caller blocks
   on.  Arrival is stamped on the service's simulated clock.
2. **admission** — when first scheduled, the request's plan (candidate
   graph + matching order) is resolved through the LRU
   :class:`~repro.serve.cache.PlanCache`; a miss charges the simulated
   construction + PCIe-transfer cost to this request alone (candidate
   graphs are built host-side, overlapping device batches).
3. **rounds** — the :class:`~repro.serve.controller.AdaptiveBudgetController`
   sizes each round; the :class:`~repro.serve.scheduler.BatchScheduler`
   fuses rounds from many requests into co-resident device batches.
   Unfinished requests re-enter the queue tail (round-robin fairness).
4. **completion** — converged, deadline-hit (``degraded=True``), sample-
   budget-hit (``degraded=True``), or provably-zero-count.

Time is *simulated* throughout: the service clock advances by each batch's
:meth:`DeviceModel.coresident_ms`, so latencies, deadlines, and throughput
all live on the same deterministic clock as the rest of the repository.
The processing loop can run inline (``drain``/``estimate_many``: the
synchronous facade) or on a background worker thread (``start``/``stop``)
with clients blocking on their tickets.
"""

from __future__ import annotations

import itertools
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence

from repro.core.config import EngineConfig
from repro.core.engine import GSWORDEngine, RetryPolicy
from repro.errors import (
    KernelTimeout,
    Overloaded,
    RequestCancelled,
    ServiceClosed,
    ServiceError,
    ServiceTimeout,
)
from repro.estimators.base import RSVEstimator
from repro.estimators.cpu_runner import CPUSamplingRunner
from repro.estimators.ht import HTAccumulator
from repro.faults import FaultInjector, FaultPlan, maybe_injector
from repro.gpu.costmodel import DEFAULT_GPU, GPUSpec
from repro.gpu.device import DeviceModel
from repro.gpu.profiler import KernelProfile
from repro.obs.flight import (
    FlightMonitor,
    FlightPolicy,
    FlightRecorder,
    graph_identity,
    serialize_plan,
    serialize_round,
    write_bundle,
)
from repro.obs.registry import MetricsRegistry, registry_from_service_snapshot
from repro.obs.slo import SLOEngine, SLOPolicy, registry_from_slo_snapshot
from repro.obs.trace import NO_TRACE, TraceRecorder
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    HedgeDelayTracker,
    HedgePolicy,
)
from repro.serve.breaker import BreakerPolicy, CircuitBreaker
from repro.serve.cache import (
    CachedPlan,
    PlanCache,
    build_plan,
    parse_versioned_graph_id,
)
from repro.serve.controller import AdaptiveBudgetController, BudgetPolicy
from repro.serve.metrics import ServiceMetrics
from repro.serve.request import (
    EstimateRequest,
    EstimateResponse,
    estimator_name,
    resolve_estimator,
)
from repro.serve.scheduler import BatchScheduler, FairQueue, RoundTask
from repro.utils.rng import derive_seed


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level configuration.

    Attributes:
        spec: the shared simulated device all requests co-reside on.
        engine_config: engine preset used for every session (gSWORD O2 by
            default).
        cache_bytes: plan-cache budget; 0 disables the cache entirely
            (every request rebuilds its candidate graph).
        max_batch_requests / warp_overcommit: scheduler knobs, see
            :class:`~repro.serve.scheduler.BatchScheduler`.
        policy: adaptive-budget defaults, see :class:`BudgetPolicy`.
        order_method: matching-order heuristic for built plans.
        faults: optional deterministic fault schedule injected into every
            engine launch (chaos testing; ``None`` = healthy device).
        memory_budget_bytes: simulated device memory capacity; candidate
            graphs that do not fit fail admission with ``DeviceOOM``.
        watchdog_ms: per-launch simulated-ms ceiling; overruns abort the
            round with ``KernelTimeout`` instead of hanging the service.
        retry: in-round retry policy for transient device faults (``None``
            disables retries — each fault immediately fails the round).
        breaker: per-estimator circuit-breaker parameters.
        cpu_fallback: degrade failed requests to the scalar
            :class:`CPUSamplingRunner` (``degraded=True`` responses)
            instead of erroring their tickets.
        fallback_threads: simulated CPU worker threads the fallback uses.
        n_shards: worker processes each engine partitions its rounds
            across (``None`` = whatever ``engine_config`` says).  Values
            > 1 also scale the scheduler's warp-admission cap, so batches
            fill all shards' resident-warp slots.
        trace: record spans (:mod:`repro.obs`) for every batch, round, and
            kernel launch on one service-owned recorder shared by all
            engines.  Also enabled when ``engine_config.trace`` asks for
            tracing; off by default (the zero-cost path).
        admission: bounded-admission policy (queue bound, per-tenant token
            buckets, deadline-infeasibility shedding); ``None`` keeps the
            legacy unbounded front door.  With a policy set, ``submit``
            may raise :class:`~repro.errors.Overloaded` with a computed
            ``retry_after_ms`` hint, and queued rounds are drained
            weighted-fair across tenants instead of global FIFO.
        hedge: straggler-hedging policy; ``None`` disables hedging.  When
            set, rounds are hedged onto a rotated shard assignment after a
            p99-based delay — bit-identical estimates, shorter tails.
        propagate_deadline: thread each request's remaining deadline into
            its rounds as a per-launch watchdog ceiling, so a round that
            cannot finish in time aborts (and degrades) instead of burning
            device time past the deadline.  Off by default: it changes
            when deadline-bound requests degrade, so it is opt-in.
        flight: always-on flight recording (:mod:`repro.obs.flight`): a
            bounded ring of recent spans/instants plus the trigger
            monitor that snapshots postmortem bundles on breaker trips,
            watchdog kills, shed spikes, q-error drift, and hedge storms.
            On by default — the ring caps memory and the per-event cost
            lives inside the existing <2% tracing budget.  ``None``
            disables it (full ``trace`` mode also supersedes the ring:
            triggers still fire, with unbounded history behind them).
        slo: declarative SLOs with multi-window burn-rate alerting
            (:mod:`repro.obs.slo`), fed from admission decisions and
            completions on the simulated clock; ``None`` disables.
    """

    spec: GPUSpec = DEFAULT_GPU
    engine_config: EngineConfig = field(default_factory=EngineConfig.gsword)
    n_shards: Optional[int] = None
    cache_bytes: int = 64 << 20
    max_batch_requests: int = 64
    warp_overcommit: float = 1.0
    policy: BudgetPolicy = field(default_factory=BudgetPolicy)
    order_method: str = "quicksi"
    faults: Optional[FaultPlan] = None
    memory_budget_bytes: Optional[int] = None
    watchdog_ms: Optional[float] = None
    retry: Optional[RetryPolicy] = field(default_factory=RetryPolicy)
    breaker: BreakerPolicy = field(default_factory=BreakerPolicy)
    cpu_fallback: bool = True
    fallback_threads: int = 0
    trace: bool = False
    admission: Optional[AdmissionPolicy] = None
    hedge: Optional[HedgePolicy] = None
    propagate_deadline: bool = False
    flight: Optional[FlightPolicy] = field(default_factory=FlightPolicy)
    slo: Optional[SLOPolicy] = None


class Ticket:
    """Handle a submitter blocks on until its response is ready."""

    def __init__(
        self, request_id: str, service: "Optional[EstimationService]" = None
    ) -> None:
        self.request_id = request_id
        self._service = service
        self._event = threading.Event()
        self._response: Optional[EstimateResponse] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> EstimateResponse:
        """Block until the response is ready (raises on processing error).

        Raises :class:`ServiceTimeout` when ``timeout`` (wall-clock seconds)
        elapses first — distinguishable from a processing failure, which
        re-raises the original error.  A caller abandoning the request
        after a timeout should :meth:`cancel` it, or its pending entry
        keeps consuming admission capacity until the service processes it.
        """
        if not self._event.wait(timeout):
            raise ServiceTimeout(
                f"request {self.request_id} not done within {timeout}s"
            )
        if self._error is not None:
            raise self._error
        assert self._response is not None
        return self._response

    def cancel(self) -> bool:
        """Cancel the request if it has not completed (thread-safe).

        Releases the request's admission slot immediately: queued rounds
        are dropped lazily, the pending entry leaves the live count, and
        any later :meth:`result` call raises
        :class:`~repro.errors.RequestCancelled` (the ``"cancelled"``
        terminal state).  Returns ``True`` if this call cancelled the
        request, ``False`` if it was already terminal (completed, failed,
        or previously cancelled) — in-flight rounds are not interrupted,
        but their results are discarded.
        """
        if self._service is None or self._event.is_set():
            return False
        return self._service._cancel_ticket(self)

    # Internal completion hooks (idempotent: first terminal state wins,
    # so a cancel racing a completion never flips an answered ticket) ----
    def _complete(self, response: EstimateResponse) -> None:
        if self._event.is_set():
            return
        self._response = response
        self._event.set()

    def _fail(self, error: BaseException) -> None:
        if self._event.is_set():
            return
        self._error = error
        self._event.set()


@dataclass
class _Pending:
    """Internal state of one in-flight request."""

    request: EstimateRequest
    ticket: Ticket
    estimator: RSVEstimator
    arrival_ms: float
    controller: AdaptiveBudgetController
    session: object = None  # EngineSession once admitted
    build_ms: float = 0.0
    cache_hit: bool = False
    queue_ms: float = 0.0
    first_service_ms: Optional[float] = None
    extra_ms: float = 0.0  # simulated time outside device batches (fallback)
    override_acc: Optional[HTAccumulator] = None  # fallback-combined evidence
    graph_version: Optional[int] = None  # versioned-graph requests only
    extras: Dict[str, object] = field(default_factory=dict)
    tenant: str = "default"
    cancelled: bool = False  # terminal; queued rounds are dropped lazily
    n_hedges_armed: int = 0  # rounds armed with a hedge (per-request cap)


class EstimationService:
    """Synchronous-facade concurrent estimation service (module docstring)."""

    def __init__(self, config: ServiceConfig = ServiceConfig()) -> None:
        self.config = config
        n_shards = (
            config.n_shards
            if config.n_shards is not None
            else config.engine_config.n_shards
        )
        self.engine_config = (
            config.engine_config
            if n_shards == config.engine_config.n_shards
            else config.engine_config.with_shards(n_shards)
        )
        self.n_shards = n_shards
        self.scheduler = BatchScheduler(
            spec=config.spec,
            max_batch_requests=config.max_batch_requests,
            warp_overcommit=config.warp_overcommit,
            n_shards=n_shards,
        )
        self.cache: Optional[PlanCache] = (
            PlanCache(max_bytes=config.cache_bytes) if config.cache_bytes > 0
            else None
        )
        self.metrics = ServiceMetrics()
        self.device = DeviceModel(
            config.spec,
            memory_budget_bytes=config.memory_budget_bytes,
            watchdog_ms=config.watchdog_ms,
        )
        self.injector: Optional[FaultInjector] = maybe_injector(config.faults)
        # Recorder ladder: full tracing wins (unbounded history), else the
        # always-on flight ring, else the zero-cost disabled singleton.
        if config.trace or config.engine_config.trace:
            self.recorder: TraceRecorder = TraceRecorder(
                process_name="repro.serve"
            )
        elif config.flight is not None:
            self.recorder = FlightRecorder(
                capacity=config.flight.capacity,
                process_name="repro.serve",
            )
        else:
            self.recorder = NO_TRACE
        self.flight: Optional[FlightMonitor] = (
            FlightMonitor(config.flight, self.recorder)
            if config.flight is not None
            else None
        )
        self.slo: Optional[SLOEngine] = (
            SLOEngine(config.slo) if config.slo is not None else None
        )
        # Context of the most recent executed launch (graph identity, plan,
        # captured round) — what a triggered postmortem bundle replays.
        # Kept as live object references; serialization happens only when
        # a trigger actually fires (the healthy path must stay cheap).
        self._launch_context: Optional[Dict[str, object]] = None
        # Fallback graph identity for bundles triggered before any launch
        # completes (set via note_graph_identity, e.g. by repro.dyn).
        self._graph_hint: Optional[str] = None
        # Cumulative device-side kernel counters across all rounds (the
        # serve-layer view of the Figure-5 stall summary) and the total
        # multi-device round time, for the unified metrics namespace.
        self._kernel_profile = KernelProfile()
        self._multidev_ms = 0.0
        # Weighted-fair across tenants; exact FIFO with a single tenant
        # (bit-compatible with the plain deque it replaced).
        self._queue: FairQueue = FairQueue()
        self._arrivals: Deque[_Pending] = deque()
        # Re-entrant so queue_depth() can lock both from client threads and
        # from paths that already hold the service lock (submit/admission).
        self._lock = threading.RLock()
        self._wakeup = threading.Condition(self._lock)
        # Serialises scheduling ticks.  A tick executes its batch outside
        # ``_lock``, and after ``stop()`` several ``estimate_many`` callers
        # may drain inline at once: their rounds must not interleave on the
        # shared engines (or their spans on the recorder's tracks).
        self._tick_lock = threading.Lock()
        self._clock_ms = 0.0
        self._ids = itertools.count(1)
        self._engines: Dict[int, GSWORDEngine] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._fallback_runners: Dict[str, CPUSamplingRunner] = {}
        self._inflight: List[RoundTask] = []
        self._worker: Optional[threading.Thread] = None
        self._stopping = False
        self._closed = False
        # Live (non-terminal) requests by id — the admission currency and
        # the cancel/shutdown sweep set.  Entries leave on every terminal
        # transition (complete, fail, cancel, close).
        self._pending_by_id: Dict[str, _Pending] = {}
        self._admission: Optional[AdmissionController] = (
            AdmissionController(config.admission)
            if config.admission is not None
            else None
        )
        self._hedge_tracker: Optional[HedgeDelayTracker] = (
            HedgeDelayTracker(config.hedge)
            if config.hedge is not None
            else None
        )

    # ------------------------------------------------------------------
    # Client API
    # ------------------------------------------------------------------
    @property
    def clock_ms(self) -> float:
        """The service's simulated clock (total device batch time)."""
        return self._clock_ms

    def submit(self, request: EstimateRequest) -> Ticket:
        """Enqueue a request (thread-safe); returns its :class:`Ticket`.

        Raises :class:`~repro.errors.ServiceClosed` once the service is
        stopping or closed — rejected *before* a ticket exists, so a
        shutdown race can never strand a caller on a ticket nothing will
        ever complete.  With an admission policy configured, may raise
        :class:`~repro.errors.Overloaded` (queue bound, tenant quota, or
        deadline infeasibility) carrying a ``retry_after_ms`` hint.
        """
        estimator = resolve_estimator(request.estimator)
        with self._wakeup:
            if self._closed:
                raise ServiceClosed(
                    "service is closed; submission rejected"
                )
            if self._stopping:
                raise ServiceClosed(
                    "service is stopping; not accepting requests"
                )
            if self._admission is not None:
                decision = self._admission.decide(
                    request.tenant,
                    request.deadline_ms,
                    self._live_depth_locked(),
                    self._clock_ms,
                )
                if decision is not None:
                    self.metrics.record_shed(
                        decision.reason, decision.retry_after_ms
                    )
                    if self.recorder.enabled:
                        self.recorder.instant(
                            "overload.shed", track="serve",
                            sim_ms=self._clock_ms,
                            args={
                                "reason": decision.reason,
                                "tenant": decision.tenant,
                                "retry_after_ms": decision.retry_after_ms,
                                "queue_depth": self._live_depth_locked(),
                            },
                        )
                    self._admission.note_outcome(self._clock_ms, shed=True)
                    self._note_shed_signals(decision.reason)
                    raise Overloaded(
                        f"request shed ({decision.reason}); retry after "
                        f"{decision.retry_after_ms:.3f} simulated ms",
                        reason=decision.reason,
                        retry_after_ms=decision.retry_after_ms,
                        tenant=decision.tenant,
                    )
                self._admission.note_outcome(self._clock_ms, shed=False)
                if self.slo is not None:
                    self.slo.record("shed_rate", self._clock_ms, good=True)
                    self._slo_evaluate(self._clock_ms)
            request_id = request.request_id or f"req-{next(self._ids)}"
            ticket = Ticket(request_id, service=self)
            pending = _Pending(
                request=request,
                ticket=ticket,
                estimator=estimator,
                arrival_ms=self._clock_ms,
                controller=AdaptiveBudgetController(request, self.config.policy),
                tenant=request.tenant,
            )
            self._arrivals.append(pending)
            self._pending_by_id[request_id] = pending
            self.metrics.record_submit(self._live_depth_locked())
            if self.recorder.enabled:
                self.recorder.instant(
                    "request.submit", track="serve",
                    sim_ms=self._clock_ms,
                    args={
                        "request_id": request_id,
                        "tenant": request.tenant,
                        "queue_depth": self._live_depth_locked(),
                    },
                )
            self._wakeup.notify()
        return ticket

    def advance_clock(self, now_ms: float) -> None:
        """Advance the simulated clock to ``now_ms`` if it is ahead.

        Open-loop drivers (the overload soak bench) call this between
        arrivals to model idle wall time the device spends waiting for
        traffic — token buckets refill against the advanced clock and
        arrival timestamps land where the arrival plan scheduled them.
        Monotone: a ``now_ms`` at or behind the clock is a no-op, so batch
        time and arrival time compose on one axis.
        """
        with self._wakeup:
            if now_ms > self._clock_ms:
                self._clock_ms = now_ms
                if self.slo is not None:
                    # Idle time counts against burn windows: an alert can
                    # clear because the window emptied, not only because
                    # good events arrived.
                    self._slo_evaluate(now_ms)
                self._wakeup.notify()

    def estimate(self, request: EstimateRequest) -> EstimateResponse:
        """Submit one request and process until its response is ready."""
        ticket = self.submit(request)
        if self._worker is None:
            self.drain()
        return ticket.result()

    def estimate_many(
        self, requests: Sequence[EstimateRequest]
    ) -> List[EstimateResponse]:
        """Submit a wave of requests, then process until all complete.

        This is the closed-loop synchronous facade: all requests are
        admitted to the queue before processing starts, so they batch."""
        tickets = [self.submit(request) for request in requests]
        if self._worker is None:
            self.drain()
        return [ticket.result() for ticket in tickets]

    def queue_depth(self) -> int:
        """Live (non-cancelled) queued rounds + unadmitted arrivals."""
        with self._lock:
            return self._live_depth_locked()

    def _live_depth_locked(self) -> int:
        live = sum(1 for task in self._queue if not task.payload.cancelled)
        live += sum(1 for p in self._arrivals if not p.cancelled)
        return live

    def _cancel_ticket(self, ticket: Ticket) -> bool:
        """Terminal-state transition for :meth:`Ticket.cancel`."""
        with self._wakeup:
            pending = self._pending_by_id.pop(ticket.request_id, None)
            if pending is None or ticket.done():
                return False
            pending.cancelled = True
            self.metrics.record_cancelled()
            if self.recorder.enabled:
                self.recorder.instant(
                    "request.cancelled", track="serve", sim_ms=self._clock_ms,
                    args={
                        "request_id": ticket.request_id,
                        "tenant": pending.tenant,
                    },
                )
            ticket._fail(RequestCancelled(ticket.request_id))
        return True

    def metrics_snapshot(self) -> Dict[str, object]:
        """Service + cache metrics as one plain dict (bench/CLI surface)."""
        snap = self.metrics.snapshot()
        snap["queue_depth"] = self.queue_depth()
        snap["clock_ms"] = self._clock_ms
        snap["cache"] = self.cache.stats() if self.cache else {"enabled": False}
        snap["breakers"] = {
            name: breaker.snapshot(self._clock_ms)
            for name, breaker in self._breakers.items()
        }
        snap["faults_injected"] = (
            self.injector.stats() if self.injector else {"enabled": False}
        )
        snap["admission_state"] = (
            self._admission.snapshot()
            if self._admission is not None
            else {"enabled": False}
        )
        if self._hedge_tracker is not None:
            snap["hedge_delay_ms"] = self._hedge_tracker.hedge_delay_ms()
            snap["hedge_rounds_observed"] = self._hedge_tracker.n_observed
        # Device-side kernel telemetry folded across every committed round:
        # the Figure-5 stall summary and the cumulative multi-device time.
        snap["stall"] = self._kernel_profile.stall_summary()
        snap["multidev_ms"] = self._multidev_ms
        if self.flight is not None:
            snap["flight"] = self.flight.snapshot()
        if self.slo is not None:
            snap["slo"] = self.slo.snapshot(self._clock_ms)
        return snap

    def registry(self) -> MetricsRegistry:
        """The unified :class:`~repro.obs.registry.MetricsRegistry` view of
        :meth:`metrics_snapshot` (JSON snapshot + Prometheus exposition),
        including the ``slo_burn_rate`` family when SLOs are configured."""
        reg = registry_from_service_snapshot(self.metrics_snapshot())
        if self.slo is not None:
            registry_from_slo_snapshot(
                self.slo.snapshot(self._clock_ms), registry=reg
            )
        return reg

    # ------------------------------------------------------------------
    # Flight recording & SLOs (repro.obs.flight / repro.obs.slo)
    # ------------------------------------------------------------------
    def note_graph_identity(
        self,
        graph: object,
        graph_id: Optional[str] = None,
        graph_version: Optional[int] = None,
    ) -> str:
        """Record the versioned graph identity for postmortem bundles.

        Used by layers that know the graph before any round has run (the
        dynamic-graph serving facade calls it on install and per estimate)
        so even a bundle triggered pre-launch names its graph.  Returns
        the canonical ``name@v<version>#<fp>`` string."""
        ident = graph_identity(
            graph, graph_id=graph_id, graph_version=graph_version
        )
        with self._lock:
            self._graph_hint = ident
        return ident

    def report_q_error(
        self, estimate: float, reference: float
    ) -> Optional[Dict[str, object]]:
        """Feed an external accuracy check (bench/canary) into the SLO
        and flight layers.

        ``reference`` is a trusted count (exact enumeration or a
        high-sample baseline).  Records a ``q_error`` SLO event and — when
        the q-error crosses the flight policy bound — fires the
        ``qerror_drift`` trigger, returning its bundle (else ``None``)."""
        with self._lock:
            now = self._clock_ms
            threshold = (
                self.flight.policy.qerror_threshold
                if self.flight is not None
                else 2.0
            )
            if reference <= 0 or estimate <= 0:
                q = float("inf")
            else:
                q = max(estimate / reference, reference / estimate)
            if self.slo is not None:
                self.slo.record("q_error", now, good=q < threshold)
                self._slo_evaluate(now)
            if self.flight is not None:
                return self.flight.check_q_error(
                    now, estimate, reference, self._flight_context
                )
            return None

    def flight_bundles(self) -> List[Dict[str, object]]:
        """The retained postmortem bundles, oldest first (thread-safe)."""
        with self._lock:
            return list(self.flight.bundles) if self.flight else []

    def write_flight_bundle(
        self, path: str, index: int = -1
    ) -> Dict[str, object]:
        """Write one retained bundle (default: the newest) to ``path``.

        Raises :class:`~repro.errors.ServiceError` when flight recording
        is disabled or nothing has triggered yet."""
        with self._lock:
            if self.flight is None or not self.flight.bundles:
                raise ServiceError(
                    "no flight bundles captured (flight recording disabled "
                    "or no trigger has fired)"
                )
            bundle = self.flight.bundles[index]
        write_bundle(bundle, path)
        return bundle

    def _flight_context(self) -> Dict[str, object]:
        """The trigger-time context a bundle snapshots.  Called lazily by
        :class:`FlightMonitor` only when a trigger fires, so the full
        metrics/plan/round serialization never touches the healthy path."""
        ctx: Dict[str, object] = {
            "engine_config": self.engine_config,
            "gpu_spec": self.config.spec,
            "metrics": self.metrics_snapshot(),
        }
        if self.injector is not None:
            ctx["faults"] = self.injector.describe()
        lc = self._launch_context
        if lc is not None:
            ctx["graph_identity"] = graph_identity(
                lc["graph"],
                graph_id=lc["graph_id"],
                graph_version=lc["graph_version"],
            )
            ctx["plan"] = serialize_plan(
                lc["graph"],
                lc["query"],
                lc["order"],
                lc["estimator"],
                self.config.order_method,
            )
            ctx["round"] = serialize_round(
                lc["launch"],
                self.engine_config.tasks_per_warp,
                self.engine_config.rng_mode,
            )
        elif self._graph_hint is not None:
            ctx["graph_identity"] = self._graph_hint
        return ctx

    def _update_launch_context(self, pending: _Pending) -> None:
        """Stash references to the most recent captured launch (cheap —
        no serialization; see :meth:`_flight_context`)."""
        session = pending.session
        launch = getattr(session, "last_launch", None)
        if launch is None:
            return
        request = pending.request
        self._launch_context = {
            "graph": request.graph,
            "query": request.query,
            "order": session.order,
            "estimator": estimator_name(request.estimator),
            "graph_id": request.graph_id,
            "graph_version": pending.graph_version,
            "launch": dict(launch),
        }

    def _note_shed_signals(self, reason: str) -> None:
        """SLO + flight bookkeeping for one shed decision (lock held)."""
        now = self._clock_ms
        if self.slo is not None:
            self.slo.record("shed_rate", now, good=False)
            self._slo_evaluate(now)
        if self.flight is not None and self._admission is not None:
            rate, n = self._admission.recent_shed_rate(
                now, self.flight.policy.shed_window_ms
            )
            self.flight.check_shed(
                now, rate, n, self._flight_context,
                details={"reason": reason},
            )

    def _slo_evaluate(self, now_ms: float) -> None:
        """Advance SLO alert state; annotate transitions on the trace."""
        assert self.slo is not None
        for transition in self.slo.evaluate(now_ms):
            if self.recorder.enabled:
                self.recorder.instant(
                    "slo.alert", track="serve", sim_ms=now_ms,
                    args=dict(transition),
                )

    # ------------------------------------------------------------------
    # Dynamic-graph hooks (repro.dyn serving integration)
    # ------------------------------------------------------------------
    def install_plan(self, plan: CachedPlan) -> bool:
        """Install an externally maintained plan (thread-safe).

        The delta-refresh path builds plans incrementally outside the
        service; installing them here turns subsequent requests for the
        same (graph version, query) into cache hits.  Counted as a plan
        refresh; returns False when the cache is disabled or the plan
        failed budget admission.
        """
        with self._lock:
            if self.cache is None:
                return False
            resident = self.cache.put(plan)
            self.metrics.record_plan_refresh()
            if self.recorder.enabled:
                self.recorder.instant(
                    "plan.refresh", track="serve", sim_ms=self._clock_ms,
                    args={
                        "graph_id": str(plan.key[0]),
                        "resident": resident,
                        "nbytes": plan.nbytes,
                    },
                )
            return resident

    def invalidate_plans(
        self, base_id: str, before_version: Optional[int] = None
    ) -> int:
        """Evict cached plans for stale versions of a mutating graph.

        Thread-safe; see :meth:`PlanCache.invalidate` for the matching
        rule.  Returns the number of entries evicted (0 when the cache is
        disabled).
        """
        with self._lock:
            if self.cache is None:
                return 0
            evicted = self.cache.invalidate(base_id, before_version)
            self.metrics.record_plan_invalidation(evicted)
            if self.recorder.enabled:
                self.recorder.instant(
                    "plan.invalidate", track="serve", sim_ms=self._clock_ms,
                    args={
                        "base_id": base_id,
                        "before_version": before_version,
                        "evicted": evicted,
                    },
                )
            return evicted

    # ------------------------------------------------------------------
    # Processing loop
    # ------------------------------------------------------------------
    def drain(self) -> int:
        """Process inline until the queue is empty; returns batches run."""
        ticks = 0
        while self.process_once():
            ticks += 1
        return ticks

    def process_once(self) -> bool:
        """One scheduling tick; returns False when there was nothing to do.

        Ticks run one at a time, whichever thread calls (the worker or any
        inline drain)."""
        with self._tick_lock:
            return self._tick()

    def _tick(self) -> bool:
        rec = self.recorder
        with self._lock:
            self._admit_arrivals_locked()
            formed = self.scheduler.form_batch(self._queue)
            # Cancelled requests' rounds are dropped here (lazy removal —
            # the queue is never searched, the tick just skips them).
            batch = [t for t in formed if not t.payload.cancelled]
            self._inflight = batch
            clock0 = self._clock_ms
        if not batch:
            # True when the tick did work (dequeued cancelled rounds) even
            # though nothing ran — the drain loop must keep going.
            return bool(formed)
        batch_span = None
        if rec.enabled:
            # The engine track follows the service clock (max semantics:
            # an engine cursor already past clock0 — serialized rounds run
            # longer than their fused batch — is left alone).
            rec.set_clock("engine", clock0)
            batch_span = rec.begin(
                "serve.batch", track="serve", sim_ms=clock0,
                args={"n_requests": len(batch)},
            )
        result = self.scheduler.execute(batch)
        if batch_span is not None:
            rec.end(
                batch_span,
                sim_dur_ms=result.batch_ms,
                args={
                    "n_samples": result.n_samples,
                    "batch_ms": result.batch_ms,
                    "n_faults": result.n_faults,
                    "n_retries": result.n_retries,
                    "fault_ms": result.fault_ms,
                },
            )
        with self._lock:
            self._clock_ms += result.batch_ms
            for r in result.round_results:
                if r is not None:
                    self._kernel_profile.merge(r.profile)
                    self._multidev_ms += r.multidev_ms()
            self.metrics.record_batch(
                n_requests=len(batch),
                n_samples=result.n_samples,
                batch_ms=result.batch_ms,
            )
            self.metrics.record_backends(
                [r.backend_label for r in result.round_results if r is not None]
            )
            self.metrics.record_shards(
                [r.n_shards for r in result.round_results if r is not None]
            )
            if result.n_faults or result.n_retries or result.fault_ms:
                self.metrics.record_round_faults(
                    result.n_faults,
                    result.n_retries,
                    result.fault_ms,
                    result.fault_kinds,
                )
            if result.n_hedges:
                self.metrics.record_hedges(
                    result.n_hedges,
                    result.n_hedge_wins,
                    result.hedge_wasted_ms,
                )
            if self._admission is not None:
                self._admission.observe_batch(len(batch), result.batch_ms)
            if self.flight is not None and self._hedge_tracker is not None:
                # Every round feeds the hedge-storm window (hedged or not)
                # so the rate reflects the true hedged fraction.
                self.flight.check_hedges(
                    self._clock_ms,
                    sum(1 for r in result.round_results if r is not None),
                    result.n_hedges,
                    self._flight_context,
                )
            if self._hedge_tracker is not None:
                for r in result.round_results:
                    if r is not None:
                        self._hedge_tracker.observe(r.simulated_ms())
            for task, round_result, error in zip(
                batch, result.round_results, result.failures
            ):
                pending: _Pending = task.payload
                if pending.cancelled:
                    # Cancelled while its round was in flight: the result
                    # is discarded, the ticket already carries its
                    # RequestCancelled terminal state.
                    continue
                if error is not None:
                    self._on_round_failure(pending, error)
                elif round_result is not None:
                    self._breaker_for_name(
                        estimator_name(pending.request.estimator)
                    ).record_success(self._clock_ms)
                    self._after_round(
                        task, round_result.n_samples, result.batch_ms
                    )
            self._inflight = []
        return True

    def start(self) -> None:
        """Run the processing loop on a background worker thread."""
        with self._wakeup:
            if self._worker is not None:
                raise ServiceError("service already started")
            self._stopping = False
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-serve", daemon=True
            )
            self._worker.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the worker; by default finishes all queued work first."""
        with self._wakeup:
            worker = self._worker
            if worker is None:
                return
            self._stopping = True
            self._wakeup.notify_all()
        worker.join()
        with self._wakeup:
            self._worker = None
            self._stopping = False
        if drain:
            self.drain()

    def close(self) -> None:
        """Terminal teardown: reject new work, finish or fail the rest,
        release engine resources (shard worker pools, shared memory).

        Idempotent.  The sequence closes the stranded-ticket race for
        good: (1) the closed flag flips first, so any ``submit`` racing
        the shutdown is rejected with :class:`~repro.errors.ServiceClosed`
        *before* a ticket exists; (2) the worker stops and queued work
        drains inline; (3) any ticket still pending after the drain (e.g.
        queued behind a ``stop(drain=False)``) is failed with
        ``ServiceClosed`` — every ticket ever issued reaches a terminal
        state.  Submissions after ``close()`` are rejected permanently."""
        with self._wakeup:
            self._closed = True
            self._wakeup.notify_all()
        self.stop()
        with self._lock:
            leftovers = list(self._pending_by_id.values())
            for pending in leftovers:
                self._pending_by_id.pop(pending.ticket.request_id, None)
                if not pending.ticket.done():
                    pending.cancelled = True  # drop any queued rounds
                    self.metrics.record_failure()
                    pending.ticket._fail(
                        ServiceClosed(
                            f"service closed before request "
                            f"{pending.ticket.request_id} completed"
                        )
                    )
            engines = list(self._engines.values())
        for engine in engines:
            engine.close()

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _worker_loop(self) -> None:
        while True:
            try:
                did_work = self.process_once()
            except Exception as error:  # noqa: BLE001 - keep the worker alive
                self._recover_from_crash(error)
                did_work = True  # state changed; re-check the queue at once
            with self._wakeup:
                if self._stopping:
                    return
                if not did_work and self.queue_depth() == 0:
                    self._wakeup.wait(timeout=0.1)

    def _recover_from_crash(self, error: BaseException) -> None:
        """Contain an unexpected ``process_once`` crash to the batch it hit.

        Every in-flight ticket is failed with the crash error (no request
        is ever stranded waiting on a dead round) and the worker resumes
        its loop — one poisoned batch must not take down the service."""
        with self._lock:
            self.metrics.record_worker_crash()
            for task in self._inflight:
                self._fail_pending(task.payload, error)
            self._inflight = []

    # ------------------------------------------------------------------
    # Internals (all called with self._lock held)
    # ------------------------------------------------------------------
    def _engine_for(self, estimator: RSVEstimator) -> GSWORDEngine:
        # One engine per estimator instance; sessions share it so a
        # request's rounds reuse the same config/spec.
        key = id(estimator)
        engine = self._engines.get(key)
        if engine is None:
            engine = GSWORDEngine(
                estimator,
                self.engine_config,
                self.config.spec,
                device=self.device,
                injector=self.injector,
                recorder=self.recorder,
            )
            self._engines[key] = engine
        return engine

    def _breaker_for_name(self, name: str) -> CircuitBreaker:
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(self.config.breaker)
            self._breakers[name] = breaker
        return breaker

    def _fallback_runner_for(self, pending: _Pending) -> CPUSamplingRunner:
        name = estimator_name(pending.request.estimator)
        runner = self._fallback_runners.get(name)
        if runner is None:
            runner = CPUSamplingRunner(
                pending.estimator, threads=self.config.fallback_threads
            )
            self._fallback_runners[name] = runner
        return runner

    def _admit_arrivals_locked(self) -> None:
        while self._arrivals:
            pending = self._arrivals.popleft()
            if pending.cancelled:
                continue
            try:
                self._admit(pending)
            except Exception as error:  # noqa: BLE001 - isolate per request
                self._fail_pending(pending, error)

    def _fail_pending(self, pending: _Pending, error: BaseException) -> None:
        """Terminal failure: deregister the pending entry and fail its
        ticket (idempotent against a racing cancel/completion)."""
        self._pending_by_id.pop(pending.ticket.request_id, None)
        if not pending.ticket.done():
            self.metrics.record_failure()
            pending.ticket._fail(error)

    def _admit(self, pending: _Pending) -> None:
        request = pending.request
        pending.graph_version = request.graph_version
        if pending.graph_version is None and request.graph_id is not None:
            parsed = parse_versioned_graph_id(request.graph_id)
            if parsed is not None:
                pending.graph_version = parsed[1]
        if self.cache is not None:
            plan, hit = self.cache.get_or_build(
                request.graph,
                request.query,
                order_method=self.config.order_method,
                graph_id=request.graph_id,
            )
            pending.cache_hit = hit
            pending.build_ms = 0.0 if hit else plan.build_ms
        else:
            plan = build_plan(
                request.graph,
                request.query,
                order_method=self.config.order_method,
                graph_id=request.graph_id,
            )
            pending.build_ms = plan.build_ms
        cg, order = plan.cg, plan.order

        if cg.is_empty():
            # The filters proved the count is zero: answer without sampling.
            pending.controller.finish_empty()
            self._complete(pending)
            return

        engine = self._engine_for(pending.estimator)
        seed = request.request_id or pending.ticket.request_id
        pending.session = engine.session(
            cg, order, rng=derive_seed(0xC0FFEE, seed, len(order))
        )
        self._enqueue_next_round(pending)

    def _elapsed_ms(self, pending: _Pending) -> float:
        return (
            self._clock_ms
            - pending.arrival_ms
            + pending.build_ms
            + pending.extra_ms
        )

    def _enqueue_next_round(self, pending: _Pending) -> None:
        n = pending.controller.next_round_samples(self._elapsed_ms(pending))
        if n <= 0:
            self._complete(pending)
            return
        breaker = self._breaker_for_name(
            estimator_name(pending.request.estimator)
        )
        if not breaker.allow(self._clock_ms):
            # The device path for this estimator is tripped: don't queue a
            # round that is expected to fail — degrade immediately.
            self.metrics.record_breaker_rejection()
            name = estimator_name(pending.request.estimator)
            if self.recorder.enabled:
                self.recorder.instant(
                    "breaker.reject", track="serve", sim_ms=self._clock_ms,
                    args={
                        "estimator": name,
                        "request_id": pending.ticket.request_id,
                    },
                )
            self._degrade_or_fail(
                pending,
                ServiceError(
                    f"circuit breaker {breaker.state(self._clock_ms).value} "
                    f"for estimator {name!r}; device path unavailable"
                ),
            )
            return
        if pending.first_service_ms is None:
            pending.queue_ms = self._clock_ms - pending.arrival_ms
            pending.first_service_ms = self._clock_ms
        watchdog_ms = (
            pending.controller.round_watchdog_ms(self._elapsed_ms(pending))
            if self.config.propagate_deadline
            else None
        )
        hedge_delay_ms: Optional[float] = None
        if (
            self._hedge_tracker is not None
            and self.config.hedge is not None
            and pending.n_hedges_armed < self.config.hedge.max_hedges_per_request
        ):
            hedge_delay_ms = self._hedge_tracker.hedge_delay_ms()
            if hedge_delay_ms is not None:
                pending.n_hedges_armed += 1
        weight = (
            self._admission.weight_for(pending.tenant)
            if self._admission is not None
            else 1.0
        )
        self._queue.append(
            RoundTask(
                session=pending.session,
                n_samples=n,
                payload=pending,
                retry=self.config.retry,
                tenant=pending.tenant,
                weight=weight,
                watchdog_ms=watchdog_ms,
                hedge_delay_ms=hedge_delay_ms,
            )
        )

    def _after_round(
        self, task: RoundTask, round_samples: int, batch_ms: float
    ) -> None:
        pending: _Pending = task.payload
        cumulative = pending.session.result()
        pending.controller.observe(
            cumulative.accumulator, round_samples, batch_ms
        )
        self._update_launch_context(pending)
        self._enqueue_next_round(pending)

    def _on_round_failure(self, pending: _Pending, error: BaseException) -> None:
        """A round died after its retry budget: update the estimator's
        breaker, then degrade (CPU fallback) or fail the ticket."""
        self.metrics.record_round_failure()
        # A watchdog kill is captured in the session just before the
        # verdict, so the bundle carries the offending launch itself.
        self._update_launch_context(pending)
        breaker = self._breaker_for_name(
            estimator_name(pending.request.estimator)
        )
        if breaker.record_failure(self._clock_ms):
            self.metrics.record_breaker_trip()
            if self.recorder.enabled:
                self.recorder.instant(
                    "breaker.trip", track="serve", sim_ms=self._clock_ms,
                    args={
                        "estimator": estimator_name(pending.request.estimator),
                        "error": type(error).__name__,
                    },
                )
            if self.flight is not None:
                self.flight.consider(
                    "breaker_open", self._clock_ms,
                    {
                        "estimator": estimator_name(
                            pending.request.estimator
                        ),
                        "error": type(error).__name__,
                        "consecutive_failures": (
                            breaker.consecutive_failures
                        ),
                    },
                    self._flight_context,
                )
        if self.flight is not None and isinstance(error, KernelTimeout):
            self.flight.consider(
                "kernel_timeout", self._clock_ms,
                {
                    "error": str(error),
                    "kernel_ms": getattr(error, "kernel_ms", None),
                    "watchdog_ms": getattr(error, "watchdog_ms", None),
                    "request_id": pending.ticket.request_id,
                },
                self._flight_context,
            )
        self._degrade_or_fail(pending, error)

    def _degrade_or_fail(self, pending: _Pending, error: BaseException) -> None:
        if self.config.cpu_fallback and pending.session is not None:
            try:
                self._complete_fallback(pending, error)
                return
            except Exception as fallback_error:  # noqa: BLE001 - last resort
                error = fallback_error
        self._fail_pending(pending, error)

    def _complete_fallback(
        self, pending: _Pending, error: BaseException
    ) -> None:
        """Answer a device-failed request on the scalar CPU baseline.

        The fallback runs one CPU round sized like a device round, merges
        it with whatever rounds the session already *committed* (failed
        rounds were discarded at the checkpoint, so the combined evidence
        is clean), and completes the ticket with ``degraded=True`` and
        ``stop_reason="fallback"``.  The CPU run's simulated time is
        charged to this request alone (``extra_ms``), not to the device
        clock — the fallback runs host-side, off the device's critical
        path."""
        session = pending.session
        policy = self.config.policy
        remaining = max(
            1, pending.request.max_samples - pending.controller.n_samples
        )
        n = max(
            policy.min_round_samples,
            min(remaining, policy.max_round_samples),
        )
        runner = self._fallback_runner_for(pending)
        cpu = runner.run(
            session.cg,
            session.order,
            n,
            rng=derive_seed(0xFA11BAC, pending.ticket.request_id),
        )
        combined = HTAccumulator()
        combined.merge(session.accumulator)
        combined.merge(cpu.accumulator)
        pending.extra_ms += cpu.simulated_ms
        pending.override_acc = combined
        pending.extras = {
            "fallback": True,
            "fallback_samples": cpu.n_samples,
            "device_error": f"{type(error).__name__}: {error}",
        }
        pending.controller.finish_fallback(combined, cpu.n_samples)
        self.metrics.record_fallback()
        if self.recorder.enabled:
            self.recorder.instant(
                "fallback.cpu", track="serve", sim_ms=self._clock_ms,
                args={
                    "request_id": pending.ticket.request_id,
                    "fallback_samples": cpu.n_samples,
                    "device_error": type(error).__name__,
                },
            )
        self._complete(pending)

    def _complete(self, pending: _Pending) -> None:
        self._pending_by_id.pop(pending.ticket.request_id, None)
        controller = pending.controller
        if pending.override_acc is not None:  # CPU-fallback evidence
            acc = pending.override_acc
            estimate = acc.estimate
            n_samples = acc.n
            n_valid = acc.n_valid
        elif pending.session is not None:
            cumulative = pending.session.result()
            estimate = cumulative.estimate
            n_samples = cumulative.n_samples
            n_valid = cumulative.n_valid
        else:  # empty candidate graph: exact zero
            estimate, n_samples, n_valid = 0.0, 0, 0
        latency = self._elapsed_ms(pending)
        service_ms = latency - pending.queue_ms - pending.build_ms
        response = EstimateResponse(
            request_id=pending.ticket.request_id,
            estimate=estimate,
            rel_ci=controller.rel_ci,
            n_samples=n_samples,
            n_valid=n_valid,
            n_rounds=controller.n_rounds,
            degraded=controller.degraded,
            stop_reason=controller.stop_reason,
            latency_ms=latency,
            queue_ms=pending.queue_ms,
            build_ms=pending.build_ms,
            service_ms=max(0.0, service_ms),
            cache_hit=pending.cache_hit,
            estimator=estimator_name(pending.request.estimator),
            graph_version=pending.graph_version,
            extras=pending.extras,
        )
        self.metrics.record_completion(
            latency_ms=latency,
            queue_ms=pending.queue_ms,
            n_valid=n_valid,
            degraded=response.degraded,
        )
        if self.slo is not None:
            objective = self.slo.objective("admitted_latency")
            if objective is not None and objective.threshold_ms is not None:
                self.slo.record(
                    "admitted_latency", self._clock_ms,
                    good=latency <= objective.threshold_ms,
                )
            self.slo.record(
                "degraded", self._clock_ms, good=not response.degraded
            )
            self._slo_evaluate(self._clock_ms)
        if self.recorder.enabled:
            self.recorder.instant(
                "request.done", track="serve", sim_ms=self._clock_ms,
                args={
                    "request_id": pending.ticket.request_id,
                    "latency_ms": latency,
                    "queue_ms": pending.queue_ms,
                    "build_ms": pending.build_ms,
                    "service_ms": response.service_ms,
                    "n_rounds": response.n_rounds,
                    "degraded": response.degraded,
                    "stop_reason": response.stop_reason,
                },
            )
        pending.ticket._complete(response)
