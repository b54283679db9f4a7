"""repro.obs — tracing, metrics, flight recording, and SLOs.

Four halves, all importable from here:

* :mod:`repro.obs.trace` — :class:`TraceRecorder` hierarchical two-clock
  spans (simulated device ms primary, wall time in args) with Chrome
  Trace Event JSON export, plus the :data:`NO_TRACE` zero-cost disabled
  singleton every un-traced component points at.
* :mod:`repro.obs.registry` — :class:`MetricsRegistry`
  counters/gauges/histograms with label sets, JSON snapshot and
  Prometheus text exposition (with a parser for round-trip validation).
  It is the one metrics store: the serving layer records straight into
  registry families (`EstimationService.registry()` returns them live).
* :mod:`repro.obs.flight` — the always-on :class:`FlightRecorder` ring,
  the :class:`FlightMonitor` trigger taxonomy, and self-contained
  postmortem bundles that :func:`replay_bundle` re-executes
  bit-identically.
* :mod:`repro.obs.slo` — declarative :class:`SLOObjective` targets with
  Google-SRE multi-window burn-rate alerting on the simulated clock;
  :meth:`SLOEngine.to_registry` writes its families into a registry.

This package sits *below* ``core``/``serve`` in the import graph: its
modules import only the standard library and :mod:`repro.errors`
(:func:`replay_bundle` pulls the engine in lazily), so every other layer
can instrument itself without cycles.
"""

from repro.obs.flight import (
    FLIGHT_SCHEMA,
    TRIGGER_KINDS,
    FlightMonitor,
    FlightRecorder,
    graph_identity,
    load_bundle,
    replay_bundle,
    write_bundle,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Reservoir,
    add_stall_summary,
    escape_label_value,
    parse_prometheus_text,
    quantile,
    unescape_label_value,
)
from repro.obs.report import (
    count_instants,
    load_trace,
    render_report,
    span_breakdown,
    top_spans,
)
from repro.obs.slo import (
    SLOEngine,
    SLOObjective,
    SLOPolicy,
    default_slo_policy,
)
from repro.obs.trace import (
    NO_TRACE,
    SpanHandle,
    TraceRecorder,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Reservoir",
    "add_stall_summary",
    "escape_label_value",
    "parse_prometheus_text",
    "quantile",
    "unescape_label_value",
    "count_instants",
    "load_trace",
    "render_report",
    "span_breakdown",
    "top_spans",
    "NO_TRACE",
    "SpanHandle",
    "TraceRecorder",
    "validate_chrome_trace",
    "FLIGHT_SCHEMA",
    "TRIGGER_KINDS",
    "FlightMonitor",
    "FlightRecorder",
    "graph_identity",
    "load_bundle",
    "replay_bundle",
    "write_bundle",
    "SLOEngine",
    "SLOObjective",
    "SLOPolicy",
    "default_slo_policy",
]
