"""Trace analysis for the ``repro trace-report`` CLI.

Reads a Chrome-trace JSON file produced by
:meth:`~repro.obs.trace.TraceRecorder.write` — or a flight postmortem
bundle produced by :mod:`repro.obs.flight` (its embedded ring is the
same payload shape) — validates it, and renders a per-span-name
breakdown table: count, total/mean simulated ms, total wall ms, and each
name's share of its track's busy time.  Two extra sections make
anomalies inspectable without Perfetto: an **anomaly** tally of the
instant annotations that indicate trouble (faults, retries, breaker and
overload events, flight triggers, SLO alerts) and a **top-N slowest
spans** table of the individual worst offenders.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.errors import ObservabilityError
from repro.obs.flight import FLIGHT_SCHEMA
from repro.obs.trace import MICROS_PER_MS, validate_chrome_trace

#: Instant-name prefixes that indicate something went wrong (rendered in
#: the report's anomaly section, separate from routine annotations).
ANOMALY_PREFIXES = (
    "fault",
    "retry",
    "breaker.",
    "overload.",
    "flight.",
    "slo.",
    "worker.",
)


def load_trace(path: str) -> Dict[str, Any]:
    """Load + validate a Chrome-trace JSON file; returns the payload.

    Flight postmortem bundles are accepted transparently: when the file
    is a :data:`~repro.obs.flight.FLIGHT_SCHEMA` bundle, its embedded ring payload is
    validated and returned, with the bundle's trigger stashed under
    ``otherData.flight_trigger`` so :func:`render_report` can show it.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ObservabilityError(f"cannot read trace {path!r}: {exc}") from exc
    if isinstance(payload, dict) and "traceEvents" not in payload:
        ring = payload.get("ring")
        if payload.get("schema") == FLIGHT_SCHEMA and isinstance(
            ring, dict
        ):
            ring = dict(ring)
            other = dict(ring.get("otherData") or {})
            other["flight_trigger"] = payload.get("trigger")
            other["flight_graph"] = payload.get("graph")
            ring["otherData"] = other
            payload = ring
    validate_chrome_trace(payload)
    return payload


def _track_names(payload: Dict[str, Any]) -> Dict[int, str]:
    names: Dict[int, str] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") == "M" and event.get("name") == "thread_name":
            names[event["tid"]] = event.get("args", {}).get(
                "name", str(event["tid"])
            )
    return names


def span_breakdown(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Aggregate complete spans by (track, name).

    Returns rows sorted by total simulated ms, descending.  ``share`` is
    the name's fraction of its track's total span time — note children are
    counted inside their parents (a kernel launch's ms also live in its
    engine round), so shares express "of the time this track was inside
    *some* span, how much was inside this one".
    """
    spans = validate_chrome_trace(payload)
    tracks = _track_names(payload)
    rows: Dict[tuple, Dict[str, Any]] = {}
    track_totals: Dict[int, float] = {}
    for span in spans:
        tid = span["tid"]
        sim_ms = span["dur"] / MICROS_PER_MS
        wall_ms = span.get("args", {}).get("wall_dur_ms", 0.0)
        key = (tid, span["name"])
        row = rows.setdefault(
            key,
            {
                "track": tracks.get(tid, str(tid)),
                "name": span["name"],
                "count": 0,
                "sim_ms": 0.0,
                "wall_ms": 0.0,
            },
        )
        row["count"] += 1
        row["sim_ms"] += sim_ms
        row["wall_ms"] += wall_ms
        track_totals[tid] = track_totals.get(tid, 0.0) + sim_ms
    out = []
    for (tid, _), row in rows.items():
        total = track_totals.get(tid, 0.0)
        row["mean_sim_ms"] = row["sim_ms"] / row["count"]
        row["share"] = row["sim_ms"] / total if total > 0 else 0.0
        out.append(row)
    out.sort(key=lambda r: (-r["sim_ms"], r["track"], r["name"]))
    return out


def top_spans(payload: Dict[str, Any], n: int = 5) -> List[Dict[str, Any]]:
    """The ``n`` individually slowest complete spans (simulated ms).

    Unlike :func:`span_breakdown` this does not aggregate: it surfaces
    the specific worst launches/batches, with their start time and args
    annotations — the first places to look in a postmortem ring.
    """
    if n < 1:
        raise ObservabilityError("top_spans needs n >= 1")
    spans = validate_chrome_trace(payload)
    tracks = _track_names(payload)
    rows = [
        {
            "track": tracks.get(span["tid"], str(span["tid"])),
            "name": span["name"],
            "sim_t0_ms": span["ts"] / MICROS_PER_MS,
            "sim_ms": span["dur"] / MICROS_PER_MS,
            "args": {
                k: v
                for k, v in (span.get("args") or {}).items()
                if k not in ("wall_ms", "wall_dur_ms")
            },
        }
        for span in spans
    ]
    rows.sort(key=lambda r: (-r["sim_ms"], r["sim_t0_ms"], r["name"]))
    return rows[:n]


def count_instants(payload: Dict[str, Any]) -> Dict[str, int]:
    """Tally instant annotations (faults, retries, breaker events) by name."""
    counts: Dict[str, int] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") in ("i", "I"):
            name = event.get("name", "?")
            counts[name] = counts.get(name, 0) + 1
    return dict(sorted(counts.items()))


def anomaly_instants(payload: Dict[str, Any]) -> Dict[str, int]:
    """The subset of :func:`count_instants` that indicates trouble."""
    return {
        name: count
        for name, count in count_instants(payload).items()
        if any(name.startswith(p) for p in ANOMALY_PREFIXES)
    }


def _fmt_args(args: Dict[str, Any], limit: int = 3) -> str:
    parts = []
    for key, value in list(args.items())[:limit]:
        if isinstance(value, float):
            parts.append(f"{key}={value:.3g}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_report(payload: Dict[str, Any], top_n: int = 5) -> str:
    """The ``repro trace-report`` table as one printable string."""
    rows = span_breakdown(payload)
    lines: List[str] = []
    other = payload.get("otherData") or {}
    trigger: Optional[Dict[str, Any]] = other.get("flight_trigger")
    if isinstance(trigger, dict):
        lines.append(
            f"flight bundle: trigger={trigger.get('kind')} at "
            f"t={float(trigger.get('sim_ms', 0.0)):.3f}ms "
            f"graph={other.get('flight_graph', '?')}"
        )
        lines.append("")
    header = (
        f"{'track':<14} {'span':<22} {'count':>6} {'sim ms':>10} "
        f"{'mean ms':>9} {'wall ms':>9} {'share':>6}"
    )
    lines.extend([header, "-" * len(header)])
    for row in rows:
        lines.append(
            f"{row['track']:<14} {row['name']:<22} {row['count']:>6} "
            f"{row['sim_ms']:>10.3f} {row['mean_sim_ms']:>9.3f} "
            f"{row['wall_ms']:>9.2f} {row['share']:>5.0%}"
        )
    slowest = top_spans(payload, top_n) if rows else []
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} slowest spans:")
        for row in slowest:
            detail = _fmt_args(row["args"])
            lines.append(
                f"  {row['sim_ms']:>9.3f}ms {row['track']}/{row['name']} "
                f"@t={row['sim_t0_ms']:.3f}ms"
                + (f" [{detail}]" if detail else "")
            )
    anomalies = anomaly_instants(payload)
    if anomalies:
        lines.append("")
        lines.append("anomalies: " + ", ".join(
            f"{name}={count}" for name, count in anomalies.items()
        ))
    instants = {
        name: count
        for name, count in count_instants(payload).items()
        if name not in anomalies
    }
    if instants:
        lines.append("")
        lines.append("annotations: " + ", ".join(
            f"{name}={count}" for name, count in instants.items()
        ))
    return "\n".join(lines)
