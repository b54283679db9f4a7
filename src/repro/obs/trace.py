"""Two-clock hierarchical tracing with Chrome Trace Event export.

The repository's five execution layers (device sim → engine rounds →
sharded workers → co-processing pipeline → serving) each keep their own
timing; :class:`TraceRecorder` composes them into one timeline the way the
paper composes nsight counters into Figure 5: every span is stamped on
**both** clocks —

* **simulated device milliseconds** — the primary axis.  The whole
  repository's semantics (latencies, deadlines, makespans) live on the
  deterministic simulated clock, so that is what the trace lays out:
  ``ts``/``dur`` are simulated microseconds and two runs of the same seed
  produce the same span geometry.
* **wall time** — recorded in each span's ``args`` (``wall_ms`` offset from
  the recorder's epoch, ``wall_dur_ms``), so host-side cost (plan builds,
  real thread pools) remains visible next to the simulated timeline.

Spans are grouped into named *tracks* (Chrome-trace threads): ``serve``
carries the service's fused device batches, ``engine`` the per-round kernel
launches, ``shard-N`` the per-shard slices of a multi-device round (their
envelope is the multidev makespan), ``warps`` a sampled subset of warp
executions, and ``pipeline-gpu``/``pipeline-cpu`` the co-processing
overlap.  Within one track spans follow stack discipline (begin/end nest),
so Perfetto / ``chrome://tracing`` renders them as flame-graph bars without
any post-processing.

Each track owns a monotone simulated-time cursor: ``begin`` opens a span at
the cursor (or an explicit later time), ``end`` closes it and advances the
cursor, ``advance`` models charged-but-spanless time (retry backoff).
Cursors never move backwards, so sibling spans on a track can never
partially overlap even when the serving layer's *fused* batch time is
shorter than the serialized sum of its member rounds.

**The disabled path is free.**  ``NO_TRACE`` is a singleton whose methods
are empty and whose ``enabled`` attribute is ``False``; every
instrumentation site guards on ``recorder.enabled`` before building any
argument dict, so tracing off (the default) costs one attribute load and a
branch per *event site* — not per lane iteration; the engine's hot loops
carry no sites at all.  The perf-smoke CI gate enforces this budget
(<2% projected wall overhead) and the bit-identity of estimates and
simulated-ms with tracing on versus off.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError

#: Simulated milliseconds → Chrome-trace timestamp units (microseconds).
MICROS_PER_MS = 1000.0

#: ``pid`` used for every event (one logical process per recorder).
TRACE_PID = 1


class SpanHandle:
    """An open span returned by :meth:`TraceRecorder.begin`.

    Opaque to callers except for ``sim_t0_ms`` (the span's start on the
    simulated clock), which instrumentation uses to place child spans.
    """

    __slots__ = ("name", "cat", "track", "sim_t0_ms", "wall_t0_s", "args")

    def __init__(
        self,
        name: str,
        cat: str,
        track: str,
        sim_t0_ms: float,
        wall_t0_s: float,
        args: Optional[Dict[str, Any]],
    ) -> None:
        self.name = name
        self.cat = cat
        self.track = track
        self.sim_t0_ms = sim_t0_ms
        self.wall_t0_s = wall_t0_s
        self.args = args


class _NullRecorder:
    """The zero-cost disabled recorder (module singleton :data:`NO_TRACE`).

    Every method is a no-op and ``enabled`` is ``False``; instrumentation
    sites check ``enabled`` first so the argument dicts they would record
    are never even constructed.
    """

    __slots__ = ()

    enabled: bool = False

    def begin(self, *args: Any, **kwargs: Any) -> None:
        return None

    def end(self, *args: Any, **kwargs: Any) -> None:
        return None

    def add_span(self, *args: Any, **kwargs: Any) -> None:
        return None

    def instant(self, *args: Any, **kwargs: Any) -> None:
        return None

    def advance(self, *args: Any, **kwargs: Any) -> None:
        return None

    def set_clock(self, *args: Any, **kwargs: Any) -> None:
        return None

    def sim_now(self, *args: Any, **kwargs: Any) -> float:
        return 0.0


#: The shared disabled recorder every un-traced component points at.  Typed
#: as a :class:`TraceRecorder` because instrumentation sites treat the two
#: interchangeably behind the ``enabled`` guard (structural duck typing).
NO_TRACE: "TraceRecorder" = _NullRecorder()  # type: ignore[assignment]


class TraceRecorder:
    """Collects two-clock spans and exports Chrome Trace Event JSON.

    Thread-safe: the serving layer records from client threads (submission
    instants) and its worker thread (batch spans) concurrently.  All
    methods are cheap O(1) appends; nothing is serialised until
    :meth:`chrome_trace` / :meth:`write`.

    Args:
        process_name: label for the trace's single process.
        warp_sample_every: engine instrumentation records every Nth warp's
            span (full per-warp tracing would dwarf the kernel spans it
            annotates); exposed here so tests can set it to 1.
    """

    enabled: bool = True

    def __init__(
        self, process_name: str = "repro", warp_sample_every: int = 8
    ) -> None:
        if warp_sample_every < 1:
            raise ObservabilityError("warp_sample_every must be >= 1")
        self.process_name = process_name
        self.warp_sample_every = warp_sample_every
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._tids: Dict[str, int] = {}
        self._cursors: Dict[str, float] = {}
        self._stacks: Dict[str, List[SpanHandle]] = {}
        self._wall_epoch_s = time.perf_counter()

    # ------------------------------------------------------------------
    # Clock management (per-track monotone simulated cursors)
    # ------------------------------------------------------------------
    def _tid(self, track: str) -> int:
        tid = self._tids.get(track)
        if tid is None:
            tid = len(self._tids) + 1
            self._tids[track] = tid
        return tid

    def sim_now(self, track: str) -> float:
        """The track's simulated-clock cursor (ms)."""
        with self._lock:
            return self._cursors.get(track, 0.0)

    def set_clock(self, track: str, sim_ms: float) -> None:
        """Advance the track cursor to ``sim_ms`` (monotone: never moves
        backwards — an earlier authoritative clock is simply a no-op)."""
        with self._lock:
            if sim_ms > self._cursors.get(track, 0.0):
                self._cursors[track] = sim_ms

    def advance(self, track: str, sim_delta_ms: float) -> None:
        """Charge span-less simulated time to the track (retry backoff)."""
        if sim_delta_ms < 0:
            raise ObservabilityError("cannot advance a clock backwards")
        with self._lock:
            self._cursors[track] = (
                self._cursors.get(track, 0.0) + sim_delta_ms
            )

    def _wall_ms(self, wall_s: float) -> float:
        return (wall_s - self._wall_epoch_s) * 1000.0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        track: str = "engine",
        cat: str = "repro",
        sim_ms: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> SpanHandle:
        """Open a span at ``max(track cursor, sim_ms)``; returns its handle.

        Spans on one track must close in LIFO order (:meth:`end` enforces
        it) — that is what makes the exported timeline a well-formed flame
        graph.
        """
        wall_t0 = time.perf_counter()
        with self._lock:
            t0 = self._cursors.get(track, 0.0)
            if sim_ms is not None and sim_ms > t0:
                t0 = sim_ms
            handle = SpanHandle(name, cat, track, t0, wall_t0, args)
            self._stacks.setdefault(track, []).append(handle)
        return handle

    def end(
        self,
        handle: SpanHandle,
        sim_dur_ms: Optional[float] = None,
        sim_end_ms: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Close ``handle`` and emit its complete ("X") event.

        The span's simulated end is, in priority order: ``sim_end_ms``,
        ``sim_t0 + sim_dur_ms``, or the track cursor (i.e. wherever the
        span's children advanced it).  The end is clamped to the start and
        the track cursor advances to it.  ``args`` merge over the begin-time
        args.
        """
        wall_end = time.perf_counter()
        with self._lock:
            stack = self._stacks.get(handle.track, [])
            if not stack or stack[-1] is not handle:
                raise ObservabilityError(
                    f"span {handle.name!r} on track {handle.track!r} ended "
                    "out of order (spans on one track must nest)"
                )
            stack.pop()
            end = self._cursors.get(handle.track, 0.0)
            if sim_dur_ms is not None:
                end = handle.sim_t0_ms + sim_dur_ms
            if sim_end_ms is not None:
                end = sim_end_ms
            end = max(end, handle.sim_t0_ms)
            merged: Dict[str, Any] = dict(handle.args or {})
            if args:
                merged.update(args)
            merged["wall_ms"] = self._wall_ms(handle.wall_t0_s)
            merged["wall_dur_ms"] = (wall_end - handle.wall_t0_s) * 1000.0
            self._events.append(
                {
                    "name": handle.name,
                    "cat": handle.cat,
                    "ph": "X",
                    "ts": handle.sim_t0_ms * MICROS_PER_MS,
                    "dur": (end - handle.sim_t0_ms) * MICROS_PER_MS,
                    "pid": TRACE_PID,
                    "tid": self._tid(handle.track),
                    "args": merged,
                }
            )
            if end > self._cursors.get(handle.track, 0.0):
                self._cursors[handle.track] = end

    def add_span(
        self,
        name: str,
        track: str,
        sim_t0_ms: float,
        sim_dur_ms: float,
        cat: str = "repro",
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Emit a complete span with an explicitly computed sim interval
        (per-shard slices, sampled warps — intervals the cost model hands
        us after the fact rather than ones we bracket live)."""
        if sim_dur_ms < 0:
            raise ObservabilityError("span duration must be non-negative")
        wall = self._wall_ms(time.perf_counter())
        with self._lock:
            merged = dict(args or {})
            merged["wall_ms"] = wall
            merged["wall_dur_ms"] = 0.0
            self._events.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "X",
                    "ts": sim_t0_ms * MICROS_PER_MS,
                    "dur": sim_dur_ms * MICROS_PER_MS,
                    "pid": TRACE_PID,
                    "tid": self._tid(track),
                    "args": merged,
                }
            )
            end = sim_t0_ms + sim_dur_ms
            if end > self._cursors.get(track, 0.0):
                self._cursors[track] = end

    def instant(
        self,
        name: str,
        track: str = "engine",
        cat: str = "repro",
        sim_ms: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Emit an instant ("i") annotation — fault, retry, breaker, and
        completion events attach to the timeline this way."""
        wall = self._wall_ms(time.perf_counter())
        with self._lock:
            ts = sim_ms if sim_ms is not None else self._cursors.get(track, 0.0)
            merged = dict(args or {})
            merged["wall_ms"] = wall
            self._events.append(
                {
                    "name": name,
                    "cat": cat,
                    "ph": "i",
                    "s": "t",
                    "ts": ts * MICROS_PER_MS,
                    "pid": TRACE_PID,
                    "tid": self._tid(track),
                    "args": merged,
                }
            )

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @property
    def n_events(self) -> int:
        with self._lock:
            return len(self._events)

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Recorded complete ("X") events, optionally filtered by name."""
        with self._lock:
            events = list(self._events)
        return [
            e for e in events
            if e["ph"] == "X" and (name is None or e["name"] == name)
        ]

    def chrome_trace(self) -> Dict[str, Any]:
        """The Chrome Trace Event JSON object (``traceEvents`` container).

        Metadata events name the process and every track; load the file
        directly in Perfetto or ``chrome://tracing``.
        """
        with self._lock:
            open_spans = [
                h.name for stack in self._stacks.values() for h in stack
            ]
            if open_spans:
                raise ObservabilityError(
                    f"cannot export with open spans: {open_spans}"
                )
            meta: List[Dict[str, Any]] = [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": 0,
                    "args": {"name": self.process_name},
                }
            ]
            for track, tid in sorted(self._tids.items(), key=lambda kv: kv[1]):
                meta.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": TRACE_PID,
                        "tid": tid,
                        "args": {"name": track},
                    }
                )
            return {
                "traceEvents": meta + list(self._events),
                "displayTimeUnit": "ms",
                "otherData": {
                    "clock": "simulated device milliseconds "
                             "(wall time in args.wall_ms)",
                    "source": "repro.obs.trace",
                },
            }

    def write(self, path: str) -> None:
        """Serialise :meth:`chrome_trace` to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh, indent=None)
            fh.write("\n")


# ----------------------------------------------------------------------
# Validation (tests + `repro trace-report` both run it)
# ----------------------------------------------------------------------
_REQUIRED_SPAN_KEYS = ("name", "ph", "ts", "dur", "pid", "tid")

#: Slack for float comparisons on span boundaries (µs).
_NEST_EPS_US = 1e-6


def validate_chrome_trace(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Check a Chrome-trace payload's schema and span nesting.

    Returns the list of complete ("X") events on success.  Raises
    :class:`ObservabilityError` when an event is missing required keys, a
    duration is negative, or two spans on the same ``(pid, tid)`` partially
    overlap (children must nest strictly inside their parents).
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        raise ObservabilityError("trace payload has no traceEvents list")
    spans: List[Dict[str, Any]] = []
    for event in events:
        ph = event.get("ph")
        if ph == "M":
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                raise ObservabilityError(
                    f"event missing required key {key!r}: {event!r}"
                )
        if ph == "X":
            if "dur" not in event:
                raise ObservabilityError(
                    f"complete event missing dur: {event!r}"
                )
            if event["dur"] < 0:
                raise ObservabilityError(
                    f"negative span duration: {event!r}"
                )
            spans.append(event)
        elif ph not in ("i", "I", "C"):
            raise ObservabilityError(f"unexpected event phase {ph!r}")
    # Nesting: per (pid, tid), sorted by (ts, -dur) spans must form a
    # stack — each span either nests inside the open parent or begins
    # after it ends.
    by_track: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for span in spans:
        by_track.setdefault((span["pid"], span["tid"]), []).append(span)
    for key, track_spans in by_track.items():
        track_spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[Tuple[float, float]] = []
        for span in track_spans:
            t0, t1 = span["ts"], span["ts"] + span["dur"]
            while stack and t0 >= stack[-1][1] - _NEST_EPS_US:
                stack.pop()
            if stack and t1 > stack[-1][1] + _NEST_EPS_US:
                raise ObservabilityError(
                    f"span {span['name']!r} on track {key} overlaps its "
                    f"parent: [{t0}, {t1}] vs parent ending {stack[-1][1]}"
                )
            stack.append((t0, t1))
    return spans
