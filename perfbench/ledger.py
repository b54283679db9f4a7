"""Outside-in layer ledger: wall-clock spans around public ``repro`` calls.

The traced run wraps the public functions at each layer boundary (by
patching the class or module attribute the caller looks up) and records an
in-memory span per call: name, wall start and end, parent span, and the id
of the request being served.  Nothing inside ``repro`` changes; the
untraced run installs no wrapper at all, and setting ``active = False``
turns the wrappers into pass-throughs once the timed phase is over.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Layer of a span: the text before the first dot of its name.
LAYERS = ("graph", "query", "candidate", "serve", "core", "gpu", "obs")

#: Spans opened by a client call into the service: one per request (closed
#: loop) or per ``estimate_many`` wave.
ROOTS = ("serve.request", "serve.wave")

_NAME, _T0, _T1, _PARENT, _RID, _ARGS = range(6)


class Ledger:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.rid = "setup"
        self.active = True
        self.timed_from = 0  # index of the first span of the timed phase

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter_ns(), 0, parent, self.rid, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[_T1] = time.perf_counter_ns()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        """Context manager recording one span (for the benchmark's own
        call sites, e.g. graph generation and query extraction)."""
        return _Span(self, name)

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        describe: Optional[Callable[[Any], Dict[str, float]]] = None,
        item: bool = False,
    ) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` with ``item``) by a
        wrapper that records a ``name`` span around every call.
        ``describe(result)`` may attach numeric args to the span."""
        fn = owner[attr] if item else getattr(owner, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not self.active:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if describe is not None:
                self.active = False  # describe() may call wrapped code
                try:
                    rec[_ARGS] = describe(out)
                finally:
                    self.active = True
            return out

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        if item:
            owner[attr] = wrapper
        else:
            # Bound on the class itself even when the method is inherited.
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap the layer boundaries the workloads cross."""
        import repro.serve.cache as cache_mod
        from repro.core.engine import EngineSession, GSWORDEngine
        from repro.core.fused import FusedRunner
        from repro.core.vectorized import WaveRunner
        from repro.gpu.device import DeviceModel
        from repro.obs.flight import FlightRecorder
        from repro.serve import (
            AdaptiveBudgetController,
            BatchScheduler,
            EstimationService,
            PlanCache,
        )

        def round_args(out: Any) -> Dict[str, float]:
            result = getattr(out, "result", out)  # attempt reports wrap it
            return {
                "n_samples": result.n_samples,
                "n_valid": result.n_valid,
                "sim_ms": result.simulated_ms(),
            }

        self.wrap(EstimationService, "estimate", "serve.request")
        self.wrap(EstimationService, "estimate_many", "serve.wave")
        self.wrap(PlanCache, "get_or_build", "serve.cache.get")
        self.wrap(
            cache_mod, "build_candidate_graph", "candidate.build",
            describe=lambda cg: {"nbytes": cg.nbytes},
        )
        # build_plan looks the order heuristic up in this table, so the
        # table entry is the call site to wrap.
        self.wrap(cache_mod._ORDER_BUILDERS, "quicksi", "query.order", item=True)
        self.wrap(BatchScheduler, "form_batch", "serve.scheduler.form")
        self.wrap(
            BatchScheduler, "execute", "serve.scheduler.execute",
            describe=lambda batch: {"n_requests": len(batch.tasks)},
        )
        for method in ("next_round_samples", "observe"):
            self.wrap(AdaptiveBudgetController, method, "serve.controller")
        for method in ("run_round", "run_round_resilient", "run_round_hedged"):
            self.wrap(EngineSession, method, "core.engine.round",
                      describe=round_args)
        self.wrap(GSWORDEngine, "run", "core.engine.run")
        self.wrap(WaveRunner, "run_warps", "core.runner.vectorized")
        self.wrap(FusedRunner, "run_warps", "core.runner.fused")
        for method in ("kernel_ms", "coresident_ms"):
            self.wrap(DeviceModel, method, "gpu.cost")
        for method in ("begin", "end", "instant", "add_span", "advance",
                       "set_clock"):
            self.wrap(FlightRecorder, method, "obs.flight")

    def mark_timed(self) -> None:
        self.timed_from = len(self.spans)
        self.rid = "timed"

    # -- analysis --------------------------------------------------------
    def self_times(self) -> List[float]:
        """Per-span self time in ns: duration minus child durations."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_T1] - rec[_T0]
        return [
            (rec[_T1] - rec[_T0]) - child[i] for i, rec in enumerate(self.spans)
        ]

    def table(self) -> Dict[str, Dict[str, float]]:
        """``name -> {calls, total_ms, self_ms}`` over the timed phase.

        ``total_ms`` sums only outermost calls of a name (a recursive or
        re-entrant call inside a same-named span is not counted twice)."""
        selfs = self.self_times()
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0}
        )
        for i in range(self.timed_from, len(self.spans)):
            rec = self.spans[i]
            row = out[rec[_NAME]]
            row["calls"] += 1
            row["self_ms"] += selfs[i] / 1e6
            parent = rec[_PARENT]
            nested = False
            while parent >= 0:
                if self.spans[parent][_NAME] == rec[_NAME]:
                    nested = True
                    break
                parent = self.spans[parent][_PARENT]
            if not nested:
                row["total_ms"] += (rec[_T1] - rec[_T0]) / 1e6
        return dict(out)

    def layer_self_ms(self) -> Dict[str, float]:
        selfs = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for i in range(self.timed_from, len(self.spans)):
            layer = self.spans[i][_NAME].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + selfs[i] / 1e6
        return out

    def args_sum(self, name: str, key: str) -> float:
        return sum(
            rec[_ARGS][key]
            for rec in self.spans[self.timed_from:]
            if rec[_NAME] == name and rec[_ARGS] is not None
        )

    def roots(self) -> List[int]:
        """Indices of the timed phase's request (or wave) spans."""
        return [
            i for i in range(self.timed_from, len(self.spans))
            if self.spans[i][_NAME] in ROOTS
        ]

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome Trace Event JSON (wall clock, microseconds)."""
        base = self.spans[0][_T0] if self.spans else 0
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "perfbench"}},
        ]
        for rec in self.spans:
            args: Dict[str, Any] = {"request_id": rec[_RID]}
            if rec[_PARENT] >= 0:
                args["parent"] = self.spans[rec[_PARENT]][_NAME]
            if rec[_ARGS]:
                args.update(rec[_ARGS])
            events.append({
                "name": rec[_NAME],
                "ph": "X",
                "ts": (rec[_T0] - base) / 1000.0,
                "dur": (rec[_T1] - rec[_T0]) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> int:
        """Write and validate the trace; returns the number of spans."""
        from repro.obs.trace import validate_chrome_trace

        payload = self.chrome_trace()
        n = len(validate_chrome_trace(payload))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return n


class _Span:
    def __init__(self, ledger: Ledger, name: str) -> None:
        self.ledger = ledger
        self.name = name
        self.rec: Optional[list] = None

    def __enter__(self) -> "_Span":
        if self.ledger.active:
            self.rec = self.ledger._open(self.name)
        return self

    def __exit__(self, *exc: object) -> None:
        if self.rec is not None:
            self.ledger._close(self.rec)
