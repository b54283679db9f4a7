"""Exception hierarchy for the gSWORD reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphError(ReproError):
    """Raised for malformed graph inputs (bad edges, label mismatches...)."""


class QueryError(ReproError):
    """Raised for invalid query graphs (disconnected, too large...)."""


class CandidateGraphError(ReproError):
    """Raised when a candidate graph cannot be built or is inconsistent."""


class EnumerationBudgetExceeded(ReproError):
    """Raised when exact enumeration exceeds its count or time budget."""

    def __init__(self, partial_count: int, message: str = "") -> None:
        super().__init__(
            message or f"enumeration budget exceeded at count={partial_count}"
        )
        self.partial_count = partial_count


class SimulationError(ReproError):
    """Raised for inconsistent SIMT simulator state (lane mismatch...)."""


class ConfigError(ReproError):
    """Raised for invalid engine / pipeline configuration values."""


class DeviceFault(ReproError):
    """Raised when the simulated device fails a kernel launch.

    The base of the two failures a running service meets: the deadline
    watchdog killing a launch (:class:`KernelTimeout`) and a shard worker
    dying mid-round (:class:`ShardFailure`).  The serving layer answers
    either with its CPU fallback.
    """


class KernelTimeout(DeviceFault):
    """Raised by the per-launch watchdog when a kernel exceeds its
    simulated-ms ceiling (the serving layer derives the ceiling from the
    request's remaining deadline)."""

    def __init__(self, kernel_ms: float, watchdog_ms: float) -> None:
        super().__init__(
            f"kernel watchdog fired: launch ran {kernel_ms:.3f} simulated ms "
            f"(ceiling {watchdog_ms:.3f} ms)"
        )
        self.kernel_ms = kernel_ms
        self.watchdog_ms = watchdog_ms


class ShardFailure(DeviceFault):
    """Raised when a shard worker process dies (or misbehaves) mid-round.

    The round fails and the pool heals (respawns the dead worker) before
    the next round.
    """

    def __init__(self, message: str = "", shard: Optional[int] = None) -> None:
        super().__init__(message or "shard worker failure")
        self.shard = shard


class ObservabilityError(ReproError):
    """Raised for tracing/metrics misuse — spans ended out of order,
    exporting with open spans, malformed trace payloads, or conflicting
    metric registrations.  Observability must never perturb the experiment,
    so these only fire on API misuse, never on data-dependent paths."""


class ServiceError(ReproError):
    """Raised for estimation-service misuse (bad request, stopped service)."""


class ServiceTimeout(ServiceError):
    """Raised by :meth:`Ticket.result` when the wait timeout elapses before
    the response is ready — distinguishable from misuse ``ServiceError``\\ s
    so callers can retry/poll instead of treating it as a bug."""


class ServiceClosed(ServiceError):
    """Raised by :meth:`EstimationService.submit` once the service is
    shutting down or closed.  Typed so clients can distinguish "resubmit
    elsewhere" from a processing bug — and so a submission racing
    ``stop(drain=False)``/``close()`` is *rejected* instead of queued into
    a service that will never run it (the stranded-ticket race)."""


class Overloaded(ServiceError):
    """Raised at admission when the service sheds a request instead of
    queueing it into unbounded latency.

    ``reason`` says which limit fired (``"queue_full"``, ``"quota"``, or
    ``"deadline"``); ``retry_after_ms`` is the service's simulated-ms hint
    for when a resubmission is likely to be admitted (time for the bounded
    queue to drain below its cap, for the tenant's token bucket to refill,
    or for the backlog to shrink enough that the deadline becomes
    feasible).  Every shed carries a positive hint — open-loop clients
    back off instead of hammering an already saturated service.
    """

    def __init__(
        self, message: str, reason: str, retry_after_ms: float,
        tenant: str = "default",
    ) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_ms = retry_after_ms
        self.tenant = tenant


class RequestCancelled(ServiceError):
    """Raised by :meth:`Ticket.result` after the caller cancelled the
    ticket — the ``"cancelled"`` terminal state.  Cancellation released the
    request's admission slot, so the queue capacity it held is free."""

    def __init__(self, request_id: str) -> None:
        super().__init__(f"request {request_id} was cancelled by the caller")
        self.request_id = request_id
