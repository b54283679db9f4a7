"""Metrics registry: counters, gauges, and histograms with labels.

:class:`MetricsRegistry` is the repository's one metrics store.  The
serving layer records straight into registry families
(:class:`~repro.serve.metrics.ServiceMetrics` holds the handles, and
``EstimationService.registry()`` returns the live registry).  Two
exports:

* :meth:`MetricsRegistry.snapshot` — a JSON-safe nested dict, and
* :meth:`MetricsRegistry.prometheus_text` — the Prometheus text
  exposition format (histograms rendered as summaries with ``quantile``
  labels plus ``_sum``/``_count``), so a real deployment can scrape the
  registry unchanged.

Metric families follow the Prometheus client idiom: a family owns a
name, help string, and label-name tuple; ``family.labels(k=v)`` returns
the child for that label-value combination (creating it on first use),
and a family with no label names acts directly as its single child.
Re-registering an existing name returns the same family if the type and
labels match and raises :class:`ObservabilityError` otherwise — wiring
code in different layers can idempotently declare the metrics it touches.
A running total kept by another component is exported with
:meth:`Counter.advance_to`, so exporting it twice never double-counts.

Histograms sample via a deterministic reservoir (:class:`Reservoir`), so
the registry's memory is bounded under sustained load while ``count``,
``sum``/``mean``, and ``max`` stay exact.

The registry is thread-safe: family registration takes a registry-level
lock, child creation a per-family lock, and every counter/gauge/histogram
update a per-child lock — the serving layer's worker thread and the
caller's thread both touch the same families, and lost updates there
would silently corrupt the SLO feed.

This module imports nothing from the engine or serving layers (only the
error hierarchy), so ``repro.obs`` sits below every other package in the
import graph.
"""

from __future__ import annotations

import math
import random
import threading
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.errors import ObservabilityError


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``values``.

    Empty input gives 0.0.

    >>> quantile([4.0, 1.0, 3.0, 2.0], 0.5)
    2.5
    """
    if not (0.0 <= q <= 1.0):
        raise ValueError("q must be in [0, 1]")
    ordered = sorted(values)
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
        return quantile(self._sample, q)


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

    def advance_to(self, total: float) -> None:
        """Raise the count to ``total``, a running total kept elsewhere.

        Exporting another component's cumulative tally this way is
        idempotent: advancing to the same total twice counts it once.
        """
        with self._lock:
            if total < self.value:
                raise ObservabilityError("counters can only increase")
            self.value = float(total)


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


def _sample_value(value: float) -> str:
    """A sample value in shortest round-trip form: integral values as
    integers (``2``, ``1234567``), others as ``repr`` (``123.456789``), so
    :func:`parse_prometheus_text` reads back exactly the exported float."""
    v = float(value)
    if not math.isfinite(v):
        return f"{v:g}"
    return str(int(v)) if v.is_integer() else repr(v)


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
                            f"{full}{label_str} "
                            f"{_sample_value(res.quantile(q))}"
                        )
                    base = self._label_str(labels)
                    lines.append(
                        f"{full}_sum{base} {_sample_value(res.total)}"
                    )
                    lines.append(f"{full}_count{base} {res.count}")
                else:
                    label_str = self._label_str(labels)
                    lines.append(
                        f"{full}{label_str} {_sample_value(child.value)}"
                    )
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
# Engine telemetry
# ----------------------------------------------------------------------
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
