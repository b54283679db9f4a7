"""Flight recording: always-on ring tracing and replayable postmortems.

A production estimator cannot afford full tracing, but when something
goes wrong — the watchdog kills a kernel, the admission layer starts
shedding hard, an estimate drifts — the question is always *what were
the last few milliseconds doing?*  :class:`FlightRecorder` answers it the
way an aircraft flight recorder does: it is a :class:`TraceRecorder`
whose event store is a bounded ring, so it can stay on forever at fixed
memory cost and the familiar ``recorder.enabled`` guard discipline keeps
the per-event cost inside the existing <2% perf-smoke budget.

When a trigger fires (see :data:`TRIGGER_KINDS`), :class:`FlightMonitor`
snapshots everything needed to *re-execute* the offending round into a
self-contained JSON **postmortem bundle**: the ring, the metrics
registry, the :class:`EngineConfig` and :class:`GPUSpec`, the graph
identity (``name@v0#<fp>``), the (graph, query, order)
plan, and the round's RNG substream state.  Because every clock in the
repository is simulated and every round's stream is a replayable
``SeedSequence`` child, ``repro flight-replay <bundle>`` reproduces the
original round's estimate and simulated milliseconds **bit-identically**
on any machine — an anomaly report you can run, not just read.

Trigger taxonomy (the ``trigger.kind`` field of every bundle):

* ``kernel_timeout`` — the deadline-derived watchdog killed a launch
  (:class:`~repro.errors.KernelTimeout`); the bundle carries that very
  launch, captured just before the watchdog verdict.
* ``shed_spike`` — the admission layer's recent shed rate crossed
  :data:`SHED_RATE_THRESHOLD` (sliding window on the simulated clock).
* ``qerror_drift`` — a reported estimate drifted beyond the
  :data:`QERROR_THRESHOLD` bound versus its reference (fed by benches /
  canaries).

Per-kind cooldowns (simulated ms) stop a persistent failure from
producing a bundle storm; suppressed triggers are counted.

Layering: building and serialising bundles needs nothing above
``repro.utils``; :func:`replay_bundle` imports the engine and plan
builder lazily so ``repro.obs`` stays importable from below.
"""

from __future__ import annotations

import json
import math
from collections import deque
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.errors import ObservabilityError
from repro.obs.trace import TRACE_PID, TraceRecorder
from repro.utils.rng import (
    GeneratorState,
    clone_state,
    generator_from_state,
)

#: Bundle schema tag; bumped on incompatible layout changes.
FLIGHT_SCHEMA = "repro.flight/2"

#: The trigger taxonomy (every bundle's ``trigger.kind`` is one of these).
TRIGGER_KINDS: Tuple[str, ...] = (
    "kernel_timeout",
    "shed_spike",
    "qerror_drift",
)


#: Ring slots (events) of the serving layer's flight recorder: the most
#: recent ``RING_CAPACITY`` spans/instants survive.
RING_CAPACITY = 512


class _Ring(deque):
    """A deque(maxlen=...) that counts the events it evicts."""

    def __init__(self, maxlen: int) -> None:
        super().__init__(maxlen=maxlen)
        self.n_evicted = 0

    def append(self, item: Any) -> None:
        if self.maxlen is not None and len(self) == self.maxlen:
            self.n_evicted += 1
        super().append(item)


class FlightRecorder(TraceRecorder):
    """A :class:`TraceRecorder` whose event store is a bounded ring.

    Drop-in for every existing instrumentation site (same ``enabled``
    guard, same begin/end/instant/advance API, same Chrome-trace export);
    only retention differs: the most recent ``capacity`` events survive,
    so it can stay on for the life of a service at fixed memory cost.
    """

    def __init__(
        self,
        capacity: int = RING_CAPACITY,
        process_name: str = "repro.flight",
        warp_sample_every: int = 8,
    ) -> None:
        if capacity < 1:
            raise ObservabilityError("flight ring capacity must be >= 1")
        super().__init__(
            process_name=process_name, warp_sample_every=warp_sample_every
        )
        self.capacity = capacity
        self._events = _Ring(capacity)  # type: ignore[assignment]

    @property
    def n_evicted(self) -> int:
        """Events the ring has dropped since construction."""
        with self._lock:
            return self._events.n_evicted  # type: ignore[attr-defined]

    def ring_snapshot(self) -> Dict[str, Any]:
        """A Chrome-trace payload of the ring's current contents.

        Unlike :meth:`TraceRecorder.chrome_trace` this tolerates open
        spans — a postmortem snapshot happens *mid-flight*, typically
        inside an open batch span; their names are listed in
        ``otherData.open_spans`` instead of raising.
        """
        with self._lock:
            meta: List[Dict[str, Any]] = [
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": 0,
                    "args": {"name": self.process_name},
                }
            ]
            for track, tid in sorted(
                self._tids.items(), key=lambda kv: kv[1]
            ):
                meta.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": TRACE_PID,
                        "tid": tid,
                        "args": {"name": track},
                    }
                )
            open_spans = [
                h.name for stack in self._stacks.values() for h in stack
            ]
            return {
                "traceEvents": meta + list(self._events),
                "displayTimeUnit": "ms",
                "otherData": {
                    "clock": "simulated device milliseconds "
                             "(wall time in args.wall_ms)",
                    "source": "repro.obs.flight",
                    "ring_capacity": self.capacity,
                    "n_evicted": self._events.n_evicted,  # type: ignore[attr-defined]
                    "open_spans": open_spans,
                },
            }


# ----------------------------------------------------------------------
# Serialization helpers (bundle building blocks)
# ----------------------------------------------------------------------
def serialize_rng_state(state: GeneratorState) -> Dict[str, Any]:
    """JSON-safe encoding of a spawned child-stream state."""
    if isinstance(state, np.random.SeedSequence):
        entropy = state.entropy
        if isinstance(entropy, (list, tuple)):
            entropy_out: Any = [int(e) for e in entropy]
        elif entropy is None:
            raise ObservabilityError(
                "cannot serialize a SeedSequence without entropy "
                "(unseeded runs are not replayable)"
            )
        else:
            entropy_out = int(entropy)
        return {
            "kind": "seed_sequence",
            "entropy": entropy_out,
            "spawn_key": [int(k) for k in state.spawn_key],
            "pool_size": int(state.pool_size),
        }
    return {"kind": "int", "value": int(state)}


def deserialize_rng_state(payload: Mapping[str, Any]) -> GeneratorState:
    """Inverse of :func:`serialize_rng_state`."""
    kind = payload.get("kind")
    if kind == "seed_sequence":
        entropy = payload["entropy"]
        if isinstance(entropy, list):
            entropy = [int(e) for e in entropy]
        else:
            entropy = int(entropy)
        return np.random.SeedSequence(
            entropy=entropy,
            spawn_key=tuple(int(k) for k in payload["spawn_key"]),
            pool_size=int(payload["pool_size"]),
        )
    if kind == "int":
        return int(payload["value"])
    raise ObservabilityError(f"unknown rng_state kind {kind!r}")


def graph_identity(graph: Any, graph_id: Optional[str] = None) -> str:
    """The canonical graph identity ``name@v0#<fp>``.

    An explicit ``graph_id`` that already carries a fingerprint is kept
    verbatim; otherwise the content fingerprint is appended (or the whole
    identity composed from the graph's name).
    """
    if graph_id and "#" in graph_id:
        return graph_id
    fp = graph.content_fingerprint()
    if graph_id:
        return f"{graph_id}#{fp}"
    return f"{graph.name}@v0#{fp}"


def serialize_plan(
    graph: Any,
    query: Any,
    order: Any,
    estimator: str,
    order_method: str,
) -> Dict[str, Any]:
    """JSON-safe (graph, query, order) plan — enough to rebuild the
    candidate graph from scratch on any machine."""
    return {
        "graph": {
            "name": graph.name,
            "n_vertices": int(graph.n_vertices),
            "labels": [int(x) for x in graph.labels],
            "edges": [[int(u), int(v)] for u, v in graph.edges()],
        },
        "query": {
            "name": query.name,
            "labels": [int(x) for x in query.labels],
            "edges": sorted([int(a), int(b)] for a, b in query.edge_set),
        },
        "order": {
            "permutation": [int(v) for v in order.order],
            "method": order.method,
        },
        "estimator": estimator,
        "order_method": order_method,
    }


def serialize_round(launch: Mapping[str, Any]) -> Dict[str, Any]:
    """Encode a :attr:`RoundReport.launch` capture for a bundle."""
    return {
        "rng_state": serialize_rng_state(launch["rng_state"]),
        "n_samples": int(launch["n_samples"]),
        "expected": {
            "estimate": float(launch["estimate"]),
            "simulated_ms": float(launch["simulated_ms"]),
        },
        "backend": launch.get("backend", ""),
        "n_warps": int(launch.get("n_warps", 0)),
        "round": int(launch.get("round", 0)),
    }


def serialize_engine_config(config: Any) -> Dict[str, Any]:
    """JSON-safe :class:`EngineConfig` (env-independent on the way back)."""
    return {
        "sync_mode": config.sync_mode.value,
        "inheritance": bool(config.inheritance),
        "streaming": bool(config.streaming),
        "tasks_per_warp": int(config.tasks_per_warp),
        "max_depth": config.max_depth,
        "streaming_threshold": int(config.streaming_threshold),
        "backend": config.backend,
        "n_shards": int(config.n_shards),
        "trace": bool(config.trace),
    }


def serialize_gpu_spec(spec: Any) -> Dict[str, Any]:
    return {
        "warp_size": int(spec.warp_size),
        "sm_count": int(spec.sm_count),
        "resident_warps_per_sm": int(spec.resident_warps_per_sm),
        "clock_ghz": float(spec.clock_ghz),
        "segment_elements": int(spec.segment_elements),
        "mem_latency_cycles": int(spec.mem_latency_cycles),
        "issue_cycles": int(spec.issue_cycles),
        "region_miss_cycles": int(spec.region_miss_cycles),
        "op_cycles": int(spec.op_cycles),
        "sync_cycles": int(spec.sync_cycles),
        "launch_overhead_ms": float(spec.launch_overhead_ms),
    }


def build_bundle(
    *,
    kind: str,
    sim_ms: float,
    details: Mapping[str, Any],
    ring: Mapping[str, Any],
    metrics: Mapping[str, Any],
    engine_config: Mapping[str, Any],
    gpu_spec: Mapping[str, Any],
    graph: str,
    plan: Optional[Mapping[str, Any]],
    round_capture: Optional[Mapping[str, Any]],
) -> Dict[str, Any]:
    """Assemble a postmortem bundle dict (already-serialized sections)."""
    if kind not in TRIGGER_KINDS:
        raise ObservabilityError(
            f"unknown trigger kind {kind!r}; known: {TRIGGER_KINDS}"
        )
    return {
        "schema": FLIGHT_SCHEMA,
        "trigger": {
            "kind": kind,
            "sim_ms": float(sim_ms),
            "details": dict(details),
        },
        "graph": graph,
        "engine_config": dict(engine_config),
        "gpu_spec": dict(gpu_spec),
        "ring": dict(ring),
        "metrics": dict(metrics),
        "plan": dict(plan) if plan is not None else None,
        "round": dict(round_capture) if round_capture is not None else None,
    }


def write_bundle(bundle: Mapping[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, indent=None)
        fh.write("\n")


def load_bundle(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            bundle = json.load(fh)
    except (OSError, json.JSONDecodeError) as error:
        raise ObservabilityError(
            f"cannot load flight bundle {path!r}: {error}"
        ) from error
    if not isinstance(bundle, dict) or bundle.get("schema") != FLIGHT_SCHEMA:
        raise ObservabilityError(
            f"{path!r} is not a {FLIGHT_SCHEMA} bundle "
            f"(schema={bundle.get('schema') if isinstance(bundle, dict) else None!r})"
        )
    return bundle


# ----------------------------------------------------------------------
# The trigger monitor
# ----------------------------------------------------------------------
#: Per-trigger-kind minimum simulated ms between bundles (suppressed
#: firings are counted, not recorded).
TRIGGER_COOLDOWN_MS = 50.0
#: Bundles a monitor retains in memory (oldest dropped first).
MAX_BUNDLES = 4
#: ``shed_spike``: the sliding window on the simulated clock, the shed
#: fraction in it that fires, and the admission decisions it must hold
#: before the rate is meaningful.
SHED_WINDOW_MS = 50.0
SHED_RATE_THRESHOLD = 0.5
SHED_MIN_EVENTS = 8
#: q-error bound of ``qerror_drift`` (and of the serving layer's
#: ``q_error`` SLO events).
QERROR_THRESHOLD = 2.0


class FlightMonitor:
    """Evaluates triggers, applies cooldowns, and snapshots bundles.

    The serving layer owns one monitor next to its :class:`FlightRecorder`
    and calls the ``check_*`` / :meth:`consider` methods from its trigger
    sites with a *context* dict (see :meth:`consider`) describing what was
    in flight.  Everything is clocked on simulated milliseconds, so the
    same run produces the same bundles every time.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        self.recorder = recorder
        self.bundles: List[Dict[str, Any]] = []
        self.n_triggers = 0
        self.n_suppressed = 0
        self._last_fire_ms: Dict[str, float] = {}

    # -- trigger-specific evaluators -----------------------------------
    def check_shed(
        self,
        now_ms: float,
        shed_rate: float,
        n_events: int,
        context: Any,
        details: Optional[Mapping[str, Any]] = None,
    ) -> Optional[Dict[str, Any]]:
        if (
            n_events < SHED_MIN_EVENTS
            or shed_rate < SHED_RATE_THRESHOLD
        ):
            return None
        merged = {"shed_rate": shed_rate, "n_events": n_events,
                  "window_ms": SHED_WINDOW_MS}
        merged.update(details or {})
        return self.consider("shed_spike", now_ms, merged, context)

    def check_q_error(
        self,
        now_ms: float,
        estimate: float,
        reference: float,
        context: Any,
    ) -> Optional[Dict[str, Any]]:
        if reference <= 0 or estimate <= 0:
            q = math.inf
        else:
            q = max(estimate / reference, reference / estimate)
        if q < QERROR_THRESHOLD:
            return None
        return self.consider(
            "qerror_drift", now_ms,
            {"q_error": q, "estimate": estimate, "reference": reference},
            context,
        )

    # -- the common path -----------------------------------------------
    def consider(
        self,
        kind: str,
        now_ms: float,
        details: Mapping[str, Any],
        context: Any,
    ) -> Optional[Dict[str, Any]]:
        """Fire ``kind`` at ``now_ms`` unless its cooldown suppresses it.

        ``context`` is a mapping — or a zero-argument callable returning
        one, evaluated only when the trigger actually fires, so the
        serving layer's per-event checks never pay for serialization on
        the healthy path.  Keys (all optional except config/spec):

        * ``engine_config`` / ``gpu_spec`` — live objects, serialized here;
        * ``graph_identity`` — the ``name@v0#<fp>`` string;
        * ``plan`` — pre-serialized plan section (:func:`serialize_plan`);
        * ``round`` — pre-serialized round (:func:`serialize_round`);
        * ``metrics`` — a metrics-registry snapshot dict.

        Returns the bundle on fire, ``None`` when suppressed.
        """
        if kind not in TRIGGER_KINDS:
            raise ObservabilityError(
                f"unknown trigger kind {kind!r}; known: {TRIGGER_KINDS}"
            )
        last = self._last_fire_ms.get(kind)
        if last is not None and now_ms - last < TRIGGER_COOLDOWN_MS:
            self.n_suppressed += 1
            return None
        self._last_fire_ms[kind] = now_ms
        self.n_triggers += 1
        if callable(context):
            context = context()
        rec = self.recorder
        if rec.enabled:
            rec.instant(
                "flight.trigger", track="engine",
                args={"kind": kind, **dict(details)},
            )
        ring = (
            rec.ring_snapshot()
            if isinstance(rec, FlightRecorder)
            else {"traceEvents": [], "otherData": {"source": "none"}}
        )
        bundle = build_bundle(
            kind=kind,
            sim_ms=now_ms,
            details=details,
            ring=ring,
            metrics=dict(context.get("metrics") or {}),
            engine_config=serialize_engine_config(context["engine_config"]),
            gpu_spec=serialize_gpu_spec(context["gpu_spec"]),
            graph=str(context.get("graph_identity", "")),
            plan=context.get("plan"),
            round_capture=context.get("round"),
        )
        self.bundles.append(bundle)
        if len(self.bundles) > MAX_BUNDLES:
            del self.bundles[0]
        return bundle

    def snapshot(self) -> Dict[str, Any]:
        """Telemetry for ``metrics_snapshot`` integration."""
        return {
            "n_triggers": self.n_triggers,
            "n_suppressed": self.n_suppressed,
            "n_bundles": len(self.bundles),
            "bundle_kinds": [b["trigger"]["kind"] for b in self.bundles],
        }


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
def replay_bundle(bundle: Mapping[str, Any]) -> Dict[str, Any]:
    """Re-execute a bundle's captured round; compare bit-for-bit.

    Rebuilds the data graph, query, candidate graph, and matching order
    from the bundle's plan section; forces ``n_shards=1`` (estimates and
    single-device simulated ms are bit-identical across shard counts, so
    replay never needs worker processes); materialises the round's RNG
    substream from its serialized state; runs one round; and compares
    estimate and simulated ms with exact ``==``.

    Returns a report dict with ``match`` (overall), the expected and
    replayed values, and the rebuilt configuration labels.
    """
    # Lazy imports: repro.obs must stay importable from below the engine.
    from repro.core.config import EngineConfig, SyncMode
    from repro.core.engine import GSWORDEngine
    from repro.gpu.costmodel import GPUSpec
    from repro.graph.builder import from_edge_list
    from repro.query.matching_order import MatchingOrder
    from repro.query.query_graph import QueryGraph
    from repro.serve.cache import build_plan
    from repro.serve.request import resolve_estimator

    plan = bundle.get("plan")
    round_capture = bundle.get("round")
    if not plan or not round_capture:
        raise ObservabilityError(
            "bundle has no captured plan/round to replay (the trigger "
            "fired before any launch completed)"
        )

    gspec = plan["graph"]
    graph = from_edge_list(
        [(int(u), int(v)) for u, v in gspec["edges"]],
        labels=[int(x) for x in gspec["labels"]],
        n_vertices=int(gspec["n_vertices"]),
        name=gspec.get("name", "graph"),
    )
    qspec = plan["query"]
    query = QueryGraph.from_edges(
        tuple(int(x) for x in qspec["labels"]),
        [(int(a), int(b)) for a, b in qspec["edges"]],
        name=qspec.get("name", "q"),
    )
    cached = build_plan(
        graph, query, order_method=plan.get("order_method", "quicksi")
    )
    ospec = plan.get("order") or {}
    permutation = ospec.get("permutation")
    if permutation is not None:
        order = MatchingOrder.from_permutation(
            query,
            tuple(int(v) for v in permutation),
            method=ospec.get("method", "custom"),
        )
    else:
        order = cached.order

    cfg_dict = dict(bundle["engine_config"])
    sync_mode = SyncMode(cfg_dict.pop("sync_mode"))
    config = EngineConfig(sync_mode=sync_mode, **cfg_dict).with_shards(1)
    spec = GPUSpec(**bundle["gpu_spec"])

    state = deserialize_rng_state(round_capture["rng_state"])
    n_samples = int(round_capture["n_samples"])

    engine = GSWORDEngine(
        resolve_estimator(plan.get("estimator", "alley")), config, spec=spec
    )
    try:
        result = engine.run(
            cached.cg, order, n_samples,
            rng=generator_from_state(clone_state(state)),
        )
    finally:
        engine.close()

    expected = round_capture["expected"]
    replayed_estimate = float(result.estimate)
    replayed_ms = float(result.simulated_ms())
    estimate_match = replayed_estimate == float(expected["estimate"])
    ms_match = replayed_ms == float(expected["simulated_ms"])

    return {
        "match": bool(estimate_match and ms_match),
        "estimate_match": estimate_match,
        "simulated_ms_match": ms_match,
        "expected": {
            "estimate": float(expected["estimate"]),
            "simulated_ms": float(expected["simulated_ms"]),
        },
        "replayed": {
            "estimate": replayed_estimate,
            "simulated_ms": replayed_ms,
        },
        "trigger": dict(bundle.get("trigger") or {}),
        "graph": bundle.get("graph", ""),
        "backend": result.backend_label,
        "n_samples": n_samples,
    }


__all__ = (
    "FLIGHT_SCHEMA",
    "TRIGGER_KINDS",
    "FlightRecorder",
    "FlightMonitor",
    "build_bundle",
    "write_bundle",
    "load_bundle",
    "replay_bundle",
    "graph_identity",
    "serialize_engine_config",
    "serialize_gpu_spec",
    "serialize_plan",
    "serialize_round",
    "serialize_rng_state",
    "deserialize_rng_state",
)
