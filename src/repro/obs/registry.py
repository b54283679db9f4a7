"""Unified metrics registry: counters, gauges, and histograms with labels.

Before this module, the repository's telemetry lived in four unrelated
shapes: ``ServiceMetrics.snapshot()`` plain dicts, ``KernelProfile``
cycle counters with their Figure-5 ``stall_summary``, fault-injection
tallies on :class:`~repro.faults.injector.FaultInjector`, and the
multi-device ``multidev_ms`` makespan.  :class:`MetricsRegistry` gives
them one namespace with two exports:

* :meth:`MetricsRegistry.snapshot` — a JSON-safe nested dict, and
* :meth:`MetricsRegistry.prometheus_text` — the Prometheus text
  exposition format (histograms rendered as summaries with ``quantile``
  labels), so a real deployment can scrape the registry unchanged.

Metric families follow the Prometheus client idiom: a family owns a
name, help string, and label-name tuple; ``family.labels(k=v)`` returns
the child for that label-value combination (creating it on first use),
and a family with no label names acts directly as its single child.
Re-registering an existing name returns the same family if the type and
labels match and raises :class:`ObservabilityError` otherwise — wiring
code in different layers can idempotently declare the metrics it touches.

Histograms sample via the same deterministic reservoir
(:class:`Reservoir`) the serving layer's latency histogram uses, so the
registry's memory is bounded under sustained load while ``count``,
``sum``/``mean``, and ``max`` stay exact.

The registry is thread-safe: family registration takes a registry-level
lock, child creation a per-family lock, and every counter/gauge/histogram
update a per-child lock — the serving layer's worker thread and the
caller's thread both touch the same families, and lost updates there
would silently corrupt the SLO feed.

This module imports nothing from the engine or serving layers (only the
error hierarchy); the ``registry_from_*`` bridges at the bottom are
duck-typed over plain snapshot dicts so ``repro.obs`` sits below every
other package in the import graph.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ObservabilityError


def _quantile(ordered: List[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of pre-sorted data."""
    if not ordered:
        return 0.0
    if len(ordered) == 1:
        return ordered[0]
    rank = q * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


class Reservoir:
    """Deterministic fixed-size uniform sample (Vitter's Algorithm R).

    Keeps at most ``max_samples`` of the values offered; each of the ``n``
    values seen so far has equal probability ``max_samples / n`` of being
    retained.  The exact aggregates — ``count``, ``total`` (hence mean),
    and ``max_value`` — are tracked outside the sample, so only the
    *quantiles* become estimates once ``count`` exceeds the capacity.

    Replacement decisions come from a private seeded ``random.Random``, so
    a given value sequence always yields the same sample: reproducing runs
    report identical percentiles, and the reservoir never touches the
    engine's RNG streams (observability must not perturb the experiment).
    """

    __slots__ = ("max_samples", "count", "total", "max_value", "_sample", "_rng")

    def __init__(self, max_samples: int = 4096, seed: int = 0x5EED) -> None:
        if max_samples < 1:
            raise ObservabilityError("reservoir capacity must be >= 1")
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.max_value = 0.0
        self._sample: List[float] = []
        self._rng = random.Random(seed)

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.count == 1 or value > self.max_value:
            self.max_value = value
        if len(self._sample) < self.max_samples:
            self._sample.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.max_samples:
                self._sample[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def values(self) -> List[float]:
        """The retained sample (ordered arbitrarily)."""
        return list(self._sample)

    def quantile(self, q: float) -> float:
        """Quantile estimate from the retained sample (``q`` in [0, 1])."""
        if not (0.0 <= q <= 1.0):
            raise ValueError("q must be in [0, 1]")
        return _quantile(sorted(self._sample), q)


# ----------------------------------------------------------------------
# Metric children
# ----------------------------------------------------------------------
class Counter:
    """Monotonically increasing count.  ``inc`` is thread-safe."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters can only increase")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (or simply be set).  Thread-safe."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Reservoir-sampled distribution with exact count/sum/max.

    ``observe`` is thread-safe: the reservoir mutates three aggregates
    plus the sample list per add, and interleaved adds would tear them.
    """

    __slots__ = ("reservoir", "_lock")

    DEFAULT_QUANTILES = (0.5, 0.95, 0.99)

    def __init__(self, max_samples: int = 4096, seed: int = 0x5EED) -> None:
        self.reservoir = Reservoir(max_samples=max_samples, seed=seed)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.reservoir.add(value)

    def snapshot(self) -> Dict[str, float]:
        res = self.reservoir
        return {
            "count": res.count,
            "sum": res.total,
            "mean": res.mean,
            "p50": res.quantile(0.50),
            "p95": res.quantile(0.95),
            "p99": res.quantile(0.99),
            "max": res.max_value,
        }


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Inside a quoted label value, backslash, double-quote, and line feed
    must be written as ``\\\\``, ``\\"``, and ``\\n``.  Anything else
    passes through unchanged.
    """
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Inverse of :func:`escape_label_value`."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            if nxt == "\\":
                out.append("\\")
            elif nxt == '"':
                out.append('"')
            elif nxt == "n":
                out.append("\n")
            else:
                raise ObservabilityError(
                    f"invalid escape sequence \\{nxt} in label value"
                )
            i += 2
            continue
        out.append(ch)
        i += 1
    return "".join(out)


class MetricFamily:
    """A named metric with a fixed label-name tuple and per-label children."""

    def __init__(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        label_names: Tuple[str, ...],
        **child_kwargs: Any,
    ) -> None:
        self.name = name
        self.help_text = help_text
        self.metric_type = metric_type
        self.label_names = label_names
        self._child_kwargs = child_kwargs
        self._children: Dict[Tuple[str, ...], Any] = {}
        self._lock = threading.Lock()

    def labels(self, **label_values: Any) -> Any:
        """The child for this label-value combination (created on demand)."""
        if set(label_values) != set(self.label_names):
            raise ObservabilityError(
                f"metric {self.name!r} expects labels {self.label_names}, "
                f"got {tuple(sorted(label_values))}"
            )
        key = tuple(str(label_values[n]) for n in self.label_names)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = _TYPES[self.metric_type](**self._child_kwargs)
                self._children[key] = child
        return child

    def _default_child(self) -> Any:
        if self.label_names:
            raise ObservabilityError(
                f"metric {self.name!r} has labels {self.label_names}; "
                "use .labels(...)"
            )
        return self.labels()

    # Unlabelled convenience passthroughs ------------------------------
    def inc(self, amount: float = 1.0) -> None:
        self._default_child().inc(amount)

    def set(self, value: float) -> None:
        self._default_child().set(value)

    def observe(self, value: float) -> None:
        self._default_child().observe(value)

    def children(self) -> Iterable[Tuple[Tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())


class MetricsRegistry:
    """The namespace: declare families, export snapshots / Prometheus text."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _register(
        self,
        name: str,
        help_text: str,
        metric_type: str,
        labels: Tuple[str, ...],
        **child_kwargs: Any,
    ) -> MetricFamily:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if (
                    existing.metric_type != metric_type
                    or existing.label_names != labels
                ):
                    raise ObservabilityError(
                        f"metric {name!r} already registered as "
                        f"{existing.metric_type} with labels "
                        f"{existing.label_names}; cannot re-register as "
                        f"{metric_type} with labels {labels}"
                    )
                return existing
            family = MetricFamily(name, help_text, metric_type, labels,
                                  **child_kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help_text: str = "", labels: Tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, help_text, "counter", tuple(labels))

    def gauge(
        self, name: str, help_text: str = "", labels: Tuple[str, ...] = ()
    ) -> MetricFamily:
        return self._register(name, help_text, "gauge", tuple(labels))

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Tuple[str, ...] = (),
        max_samples: int = 4096,
        seed: int = 0x5EED,
    ) -> MetricFamily:
        return self._register(
            name, help_text, "histogram", tuple(labels),
            max_samples=max_samples, seed=seed,
        )

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe nested dict: name → {labels → value/summary}."""
        out: Dict[str, Any] = {}
        for family in self.families():
            entries: List[Dict[str, Any]] = []
            for key, child in family.children():
                labels = dict(zip(family.label_names, key))
                if family.metric_type == "histogram":
                    entry: Dict[str, Any] = {"labels": labels,
                                             **child.snapshot()}
                else:
                    entry = {"labels": labels, "value": child.value}
                entries.append(entry)
            out[family.name] = {
                "type": family.metric_type,
                "help": family.help_text,
                "series": entries,
            }
        return out

    @staticmethod
    def _label_str(labels: Mapping[str, str],
                   extra: Optional[Tuple[str, str]] = None) -> str:
        pairs = list(labels.items())
        if extra is not None:
            pairs.append(extra)
        if not pairs:
            return ""
        body = ",".join(
            f'{k}="{escape_label_value(v)}"' for k, v in pairs
        )
        return "{" + body + "}"

    def prometheus_text(self) -> str:
        """Prometheus text exposition (histograms as summaries)."""
        lines: List[str] = []
        for family in self.families():
            full = f"{self.namespace}_{family.name}"
            prom_type = (
                "summary" if family.metric_type == "histogram"
                else family.metric_type
            )
            lines.append(f"# HELP {full} {family.help_text}")
            lines.append(f"# TYPE {full} {prom_type}")
            for key, child in family.children():
                labels = dict(zip(family.label_names, key))
                if family.metric_type == "histogram":
                    res = child.reservoir
                    for q in Histogram.DEFAULT_QUANTILES:
                        label_str = self._label_str(
                            labels, ("quantile", f"{q:g}")
                        )
                        lines.append(
                            f"{full}{label_str} {res.quantile(q):g}"
                        )
                    base = self._label_str(labels)
                    lines.append(f"{full}_sum{base} {res.total:g}")
                    lines.append(f"{full}_count{base} {res.count}")
                else:
                    label_str = self._label_str(labels)
                    lines.append(f"{full}{label_str} {child.value:g}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Text exposition parser (round-trip validation of prometheus_text)
# ----------------------------------------------------------------------
_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_:"
)


def _parse_labels(body: str, line: str) -> Dict[str, str]:
    """Parse the inside of a ``{...}`` label block, honouring escapes."""
    labels: Dict[str, str] = {}
    i = 0
    n = len(body)
    while i < n:
        start = i
        while i < n and body[i] not in "=":
            if body[i] not in _NAME_CHARS:
                raise ObservabilityError(
                    f"bad label name in exposition line: {line!r}"
                )
            i += 1
        name = body[start:i]
        if not name or i >= n or body[i] != "=":
            raise ObservabilityError(
                f"malformed label pair in exposition line: {line!r}"
            )
        i += 1
        if i >= n or body[i] != '"':
            raise ObservabilityError(
                f"label value must be quoted in exposition line: {line!r}"
            )
        i += 1
        raw: List[str] = []
        while i < n and body[i] != '"':
            if body[i] == "\\":
                if i + 1 >= n:
                    raise ObservabilityError(
                        f"dangling escape in exposition line: {line!r}"
                    )
                raw.append(body[i: i + 2])
                i += 2
            else:
                raw.append(body[i])
                i += 1
        if i >= n:
            raise ObservabilityError(
                f"unterminated label value in exposition line: {line!r}"
            )
        i += 1  # closing quote
        labels[name] = unescape_label_value("".join(raw))
        if i < n:
            if body[i] != ",":
                raise ObservabilityError(
                    f"expected ',' between labels in exposition line: "
                    f"{line!r}"
                )
            i += 1
    return labels


def parse_prometheus_text(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse a Prometheus text exposition back into a nested dict.

    Returns ``{family_name: {"type": ..., "help": ..., "samples":
    [{"name": sample_name, "labels": {...}, "value": float}]}}``, where
    ``sample_name`` keeps summary suffixes (``_sum``/``_count``) and
    label values are unescaped.  Samples attach to the longest declared
    family whose name prefixes theirs; undeclared samples raise — the
    round-trip tests use this to prove :meth:`MetricsRegistry.\
prometheus_text` emits only well-formed, declared series.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                continue  # free-form comment
            name = parts[2]
            entry = families.setdefault(
                name, {"type": None, "help": "", "samples": []}
            )
            if parts[1] == "HELP":
                entry["help"] = parts[3] if len(parts) > 3 else ""
            else:
                if len(parts) < 4 or parts[3] not in (
                    "counter", "gauge", "summary", "histogram", "untyped"
                ):
                    raise ObservabilityError(
                        f"bad TYPE line in exposition: {line!r}"
                    )
                entry["type"] = parts[3]
            continue
        # Sample line: name[{labels}] value
        i = 0
        while i < len(line) and line[i] in _NAME_CHARS:
            i += 1
        sample_name = line[:i]
        if not sample_name:
            raise ObservabilityError(
                f"bad sample name in exposition line: {line!r}"
            )
        rest = line[i:]
        labels: Dict[str, str] = {}
        if rest.startswith("{"):
            close = -1
            j = 1
            while j < len(rest):
                if rest[j] == "\\":
                    j += 2
                    continue
                if rest[j] == "}":
                    close = j
                    break
                j += 1
            if close < 0:
                raise ObservabilityError(
                    f"unterminated label block in exposition line: {line!r}"
                )
            labels = _parse_labels(rest[1:close], line)
            rest = rest[close + 1:]
        value_str = rest.strip().split()[0] if rest.strip() else ""
        try:
            value = float(value_str)
        except ValueError:
            raise ObservabilityError(
                f"bad sample value in exposition line: {line!r}"
            ) from None
        candidates = [sample_name]
        for suffix in ("_sum", "_count"):
            if sample_name.endswith(suffix):
                candidates.append(sample_name[: -len(suffix)])
        family = None
        for candidate in candidates:
            if candidate in families:
                family = families[candidate]
                break
        if family is None:
            raise ObservabilityError(
                f"sample {sample_name!r} has no HELP/TYPE declaration"
            )
        family["samples"].append(
            {"name": sample_name, "labels": labels, "value": value}
        )
    return families


# ----------------------------------------------------------------------
# Bridges from the repository's existing telemetry shapes.  All inputs
# are the plain dicts those layers already export, so this module stays
# import-independent of them.
# ----------------------------------------------------------------------
def _fill_histogram(family: MetricFamily, summary: Mapping[str, Any],
                    **labels: Any) -> None:
    """Represent an already-aggregated latency summary as gauges.

    The serving layer aggregates before we see the data, so the registry
    stores the summary statistics it reports (count/mean/p50/p95/p99/max)
    as ``stat``-labelled series rather than re-sampling.
    """
    for stat in ("count", "mean", "p50", "p95", "p99", "max"):
        if stat in summary:
            family.labels(stat=stat, **labels).set(float(summary[stat]))


def registry_from_service_snapshot(
    snap: Mapping[str, Any], registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Absorb an ``EstimationService.metrics_snapshot()`` dict.

    Maps every counter the serving layer tracks into labelled families:
    request states, batches/rounds (with per-backend and per-shard-count
    breakdowns), sample totals, device busy time, latency and queue-wait
    summaries, the resilience block (fault kinds included), plan-cache
    stats, injected-fault tallies, the cumulative kernel stall summary,
    and the multi-device makespan when present.
    """
    reg = registry if registry is not None else MetricsRegistry()

    requests = reg.counter(
        "requests_total", "Requests by terminal state", labels=("state",)
    )
    for state in ("submitted", "completed", "degraded", "failed"):
        requests.labels(state=state).inc(float(snap.get(f"n_{state}", 0)))

    reg.counter("batches_total", "Fused device batches executed").inc(
        float(snap.get("n_batches", 0))
    )
    reg.counter("rounds_total", "Engine rounds executed").inc(
        float(snap.get("n_rounds", 0))
    )
    by_backend = reg.counter(
        "rounds_by_backend_total", "Rounds per warp-execution backend",
        labels=("backend",),
    )
    for backend, count in (snap.get("rounds_by_backend") or {}).items():
        by_backend.labels(backend=backend).inc(float(count))
    by_shards = reg.counter(
        "rounds_by_shard_count_total", "Rounds per shard count used",
        labels=("shards",),
    )
    for shards, count in (snap.get("rounds_by_shard_count") or {}).items():
        by_shards.labels(shards=shards).inc(float(count))
    reg.counter(
        "rerun_warps_total",
        "Warps re-run alone at a smaller true quota (vector backends)",
    ).inc(float(snap.get("n_rerun_warps", 0)))
    reg.counter(
        "discarded_warps_total",
        "Optimistic warps computed but never folded (vector backends)",
    ).inc(float(snap.get("n_discarded_warps", 0)))

    samples = reg.counter(
        "samples_total", "Samples drawn / valid", labels=("kind",)
    )
    samples.labels(kind="drawn").inc(float(snap.get("total_samples", 0)))
    samples.labels(kind="valid").inc(float(snap.get("total_valid", 0)))

    reg.gauge("device_busy_ms", "Simulated device time in batches").set(
        float(snap.get("busy_ms", 0.0))
    )
    reg.gauge(
        "samples_per_second", "Aggregate simulated device throughput"
    ).set(float(snap.get("samples_per_second", 0.0)))
    reg.gauge("mean_batch_size", "Mean requests per fused batch").set(
        float(snap.get("mean_batch_size", 0.0))
    )
    reg.gauge("max_queue_depth", "Peak admission queue depth").set(
        float(snap.get("max_queue_depth", 0))
    )
    if "clock_ms" in snap:
        reg.gauge("service_clock_ms", "Simulated service clock").set(
            float(snap["clock_ms"])
        )

    latency = reg.gauge(
        "latency_ms", "Request latency summary (simulated ms)",
        labels=("stat",),
    )
    _fill_histogram(latency, snap.get("latency_ms") or {})
    queue_wait = reg.gauge(
        "queue_wait_ms", "Queue wait summary (simulated ms)",
        labels=("stat",),
    )
    _fill_histogram(queue_wait, snap.get("queue_wait_ms") or {})

    resilience = snap.get("resilience") or {}
    events = reg.counter(
        "resilience_events_total", "Fault-handling events by type",
        labels=("event",),
    )
    for key in (
        "n_faults", "n_retries", "n_round_failures", "n_fallbacks",
        "n_breaker_trips", "n_breaker_rejections", "n_worker_crashes",
    ):
        events.labels(event=key[2:]).inc(float(resilience.get(key, 0)))
    reg.gauge("fault_ms", "Simulated ms charged to faults").set(
        float(resilience.get("fault_ms", 0.0))
    )
    by_kind = reg.counter(
        "faults_by_kind_total", "Survived-or-fatal faults by kind",
        labels=("kind",),
    )
    for kind, count in (resilience.get("faults_by_kind") or {}).items():
        by_kind.labels(kind=kind).inc(float(count))

    admission = snap.get("admission")
    if isinstance(admission, Mapping):
        shed = reg.counter(
            "admission_shed_total", "Requests shed at admission by reason",
            labels=("reason",),
        )
        for reason, count in (admission.get("shed_by_reason") or {}).items():
            shed.labels(reason=str(reason)).inc(float(count))
        reg.counter(
            "requests_cancelled_total", "Requests cancelled by their caller"
        ).inc(float(admission.get("n_cancelled", 0)))
        retry_after = reg.gauge(
            "retry_after_ms", "Retry-after hints on shed requests "
            "(simulated ms)", labels=("stat",),
        )
        _fill_histogram(retry_after, admission.get("retry_after_ms") or {})
    if "queue_depth" in snap:
        reg.gauge(
            "queue_depth", "Live queued rounds + unadmitted arrivals"
        ).set(float(snap["queue_depth"]))

    hedging = snap.get("hedging")
    if isinstance(hedging, Mapping):
        hedge_events = reg.counter(
            "hedge_events_total", "Straggler-hedging events",
            labels=("event",),
        )
        hedge_events.labels(event="fired").inc(
            float(hedging.get("n_hedges", 0))
        )
        hedge_events.labels(event="won").inc(
            float(hedging.get("n_hedge_wins", 0))
        )
        reg.gauge(
            "hedge_wasted_ms",
            "Overlapped device occupancy of cancelled hedge losers",
        ).set(float(hedging.get("hedge_wasted_ms", 0.0)))

    cache = snap.get("cache")
    if isinstance(cache, Mapping):
        cache_gauge = reg.gauge(
            "plan_cache", "Plan-cache state", labels=("stat",)
        )
        for stat in ("entries", "bytes", "max_bytes", "hit_rate"):
            if stat in cache:
                cache_gauge.labels(stat=stat).set(float(cache[stat]))
        cache_events = reg.counter(
            "plan_cache_events_total", "Plan-cache events",
            labels=("event",),
        )
        for event in ("hits", "misses", "evictions"):
            if event in cache:
                cache_events.labels(event=event).inc(float(cache[event]))
        reasons = cache.get("evictions_by_reason")
        if isinstance(reasons, Mapping):
            cache_evictions = reg.counter(
                "plan_cache_evictions_total",
                "Plan-cache evictions by reason (capacity vs. version "
                "invalidation)",
                labels=("reason",),
            )
            for reason, count in reasons.items():
                cache_evictions.labels(reason=str(reason)).inc(float(count))

    plans = snap.get("plans")
    if isinstance(plans, Mapping):
        plan_events = reg.counter(
            "plan_lifecycle_total",
            "Dynamic-graph plan lifecycle events (delta refreshes installed, "
            "invalidation sweeps, entries evicted as stale)",
            labels=("event",),
        )
        for key, label in (
            ("n_refreshes", "refresh"),
            ("n_invalidations", "invalidation"),
            ("n_invalidated_entries", "invalidated_entry"),
        ):
            if key in plans:
                plan_events.labels(event=label).inc(float(plans[key]))

    injected = snap.get("faults_injected")
    if isinstance(injected, Mapping):
        inj = reg.counter(
            "faults_injected_total", "Faults injected by the fault plan",
            labels=("kind",),
        )
        for kind, count in injected.items():
            if isinstance(count, (int, float)):
                inj.labels(kind=kind).inc(float(count))

    stall = snap.get("stall")
    if isinstance(stall, Mapping):
        add_stall_summary(reg, stall)
    if "multidev_ms" in snap:
        reg.gauge(
            "multidev_ms", "Cumulative multi-device makespan (simulated ms)"
        ).set(float(snap["multidev_ms"]))
    return reg


def add_stall_summary(
    registry: MetricsRegistry, stall: Mapping[str, Any]
) -> None:
    """Record a ``KernelProfile.stall_summary()`` dict (Figure-5 metrics)."""
    family = registry.gauge(
        "kernel_stall", "Kernel stall summary (Figure 5 counters)",
        labels=("metric",),
    )
    for metric, value in stall.items():
        family.labels(metric=metric).set(float(value))


def registry_from_run(
    result: Any, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Absorb a single ``GPURunResult`` (duck-typed: attributes only).

    Used by ``repro estimate`` to offer the same unified namespace for a
    one-shot run that ``registry_from_service_snapshot`` provides for the
    serving layer.
    """
    reg = registry if registry is not None else MetricsRegistry()
    reg.gauge("estimate", "HT estimate of the subgraph count").set(
        float(result.estimate)
    )
    samples = reg.counter(
        "samples_total", "Samples drawn / valid", labels=("kind",)
    )
    samples.labels(kind="drawn").inc(float(result.n_samples))
    samples.labels(kind="valid").inc(float(result.n_valid))
    reg.gauge("simulated_ms", "Single-device simulated kernel time").set(
        float(result.simulated_ms())
    )
    multidev = getattr(result, "multidev_ms", None)
    if callable(multidev):
        reg.gauge(
            "multidev_ms", "Multi-device makespan (simulated ms)"
        ).set(float(multidev()))
    profile = getattr(result, "profile", None)
    if profile is not None:
        add_stall_summary(reg, profile.stall_summary())
        breakdown = getattr(profile, "cycle_breakdown", None)
        if callable(breakdown):
            cycles = reg.gauge(
                "kernel_cycles", "Kernel cycles by category",
                labels=("category",),
            )
            for category, value in breakdown().items():
                cycles.labels(category=category).set(float(value))
    return reg
