"""One measuring process: set up a workload, time it, check its answers.

Started by ``run.py`` in a fresh interpreter with the environment already
pinned (single-threaded BLAS, dataset disk cache off).  ``--t0`` is the
parent's ``time.monotonic()`` just before the spawn, so ``setup_s`` runs
from process start, through ``import repro``, to the first timed request.

Modes:
  setup   set up, report ``setup_s``, exit.
  run     set up, run the timed loop for ``--seconds``, check, report.
  prefix  as ``run`` but only the deterministic prefix (untraced baseline
          of the traced run).
  trace   as ``prefix`` with the layer ledger installed.

The result is one JSON object on the last line of standard output.
"""

import argparse
import json
import math
import statistics
import sys
import time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "prefix", "trace"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args()

    import workloads as wl_mod  # imports repro: part of set-up

    ledger = None
    if args.mode == "trace":
        from ledger import Ledger

        ledger = Ledger()
        ledger.install()
    workload = wl_mod.WORKLOADS[args.workload](args.seed, ledger)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    report = {
        "setup_s": setup_s,
        # Set-up time at the reference host speed (see workloads.probe).
        "setup_scaled_s": setup_s * wl_mod.host_scale(),
    }
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    before = workload.service.metrics_snapshot()
    if ledger is not None:
        ledger.mark_timed()
    seconds = args.seconds if args.mode == "run" else 0.0
    result = workload.run(seconds)
    if ledger is not None:
        ledger.active = False

    outcomes = result.outcomes
    prefix = outcomes[: result.prefix]
    problems = [wl_mod.check_response(o) for o in outcomes]
    failures = [msg for found in problems for msg in found]
    answered = [o for o in outcomes if o.response is not None]
    overshoot = [
        o.response.n_samples - o.max_samples
        for o in answered
        if o.response.n_samples > o.max_samples
    ]
    report.update({
        "attempted": len(outcomes),
        "failed": sum(1 for found in problems if found),
        "failures": failures[:10],
        "budget_overshoot_requests": len(overshoot),
        "budget_overshoot_max": max(overshoot, default=0),
        "elapsed_s": result.elapsed_s,
        "probe_ms": 1000.0 * statistics.median(result.probes),
        "sim_digest": wl_mod.sim_digest(prefix),
    })
    report["metrics"] = end_to_end(wl_mod, result)
    report["raw"] = wall_metrics(wl_mod, result, [1.0] * len(result.probes))

    counts = workload.exact_counts()  # untimed ground truth
    errors = wl_mod.q_errors(prefix, counts)
    if errors:
        bound = 1.0 / (1.0 - workload.TARGET_REL_CI)
        report["qerror_p50"] = statistics.median(errors)
        report["qerror_bound"] = bound
        report["qerror_n"] = len(errors)
        if not report["qerror_p50"] <= bound:
            report["failures"].append(
                f"median q-error {report['qerror_p50']:.4f} > {bound:.4f}"
            )
            report["qerror_failed"] = True

    if ledger is not None:
        report["layers"] = ledger.table()
        report["layer_self_ms"] = ledger.layer_self_ms()
        report["layer_metrics"] = layer_metrics(
            wl_mod, ledger, workload, result, before
        )
        if args.trace_out:
            report["trace_spans"] = ledger.write_chrome_trace(args.trace_out)
    print(json.dumps(report))
    return 0


def wall_metrics(wl_mod, result, scale) -> dict:
    """Wall-clock metrics with each client call's time multiplied by
    ``scale[call]`` (the host-speed factor, or 1 for raw numbers)."""
    outcomes = result.outcomes
    latencies = [o.wall_ms * scale[o.unit] for o in outcomes]
    busy_s = sum(w * f for w, f in zip(result.unit_wall_ms, scale)) / 1000.0
    samples = sum(o.response.n_samples for o in outcomes if o.response)
    p90 = wl_mod.percentile(latencies, 90)
    return {
        "throughput_rps": len(outcomes) / busy_s,
        "latency_p50_ms": wl_mod.percentile(latencies, 50),
        "latency_p90_ms": p90,
        "latency_p90_beyond": wl_mod.beyond(latencies, p90),
        "samples_per_s": samples / busy_s,
        "busy_s": busy_s,
    }


def end_to_end(wl_mod, result) -> dict:
    prefix = result.outcomes[: result.prefix]
    metrics = wall_metrics(wl_mod, result, result.unit_scale())
    metrics.update({
        "sim_latency_p50_ms": wl_mod.percentile([o.sim_ms for o in prefix], 50),
        "sim_samples_per_s": sum(
            o.response.n_samples for o in prefix if o.response is not None
        ) / result.prefix_sim_ms * 1000.0,
        "peak_rss_mb": result.peak_rss_mb,
    })
    return metrics


def layer_metrics(wl_mod, ledger, workload, result, before: dict) -> dict:
    """Per-layer numbers of the traced prefix (see BENCHMARK.json)."""
    table = ledger.table()

    def row(name: str) -> dict:
        return table.get(name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})

    def per_call(name: str, key: str = "total_ms") -> float:
        r = row(name)
        return r[key] / r["calls"] if r["calls"] else 0.0

    roots = ledger.roots()
    spans = ledger.spans
    request_ms = sum((spans[i][2] - spans[i][1]) / 1e6 for i in roots)
    n_requests = len(result.outcomes)
    timed_ms = sum(result.unit_wall_ms)
    # Timed-phase durations are scaled to the reference host speed, like
    # the end-to-end wall metrics; shares and counts need no scaling.
    k = statistics.median(result.unit_scale())
    selfs = ledger.self_times()
    root_self_ms = sum(selfs[i] / 1e6 for i in roots)
    answered = [o.response for o in result.outcomes if o.response is not None]
    service = workload.service
    snap = service.metrics_snapshot()

    def delta(section: str, key: str) -> float:
        return snap[section].get(key, 0) - before[section].get(key, 0)

    hits = delta("cache", "hits")
    misses = delta("cache", "misses")
    evictions = delta("cache", "evictions")
    round_samples = ledger.args_sum("core.engine.round", "n_samples")
    round_valid = ledger.args_sum("core.engine.round", "n_valid")
    round_sim_ms = ledger.args_sum("core.engine.round", "sim_ms")
    engine = row("core.engine.round")
    candidate = row("candidate.build")
    backends = {"fused": 0, "vectorized": 0, "scalar": 0}
    for label in snap["rounds_by_backend"]:
        executed = label.rsplit("_fallback_", 1)[-1]
        backends[executed] = backends.get(executed, 0) + delta(
            "rounds_by_backend", label
        )
    stall = snap["stall"]  # service lifetime, warm-up included
    metrics = {
        "graph.generate_s": workload.generate_s,
        "query.extract_ms": 1000.0 * workload.extract_s
        / max(1, workload.n_extracted),
        "query.order_ms_per_call": k * per_call("query.order"),
        "candidate.build_ms_per_call": k * per_call("candidate.build"),
        "candidate.share": candidate["total_ms"] / request_ms,
        "candidate.bytes_per_ms": (
            ledger.args_sum("candidate.build", "nbytes")
            / (k * candidate["total_ms"])
            if candidate["total_ms"] else 0.0
        ),
        "serve.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.cache.misses": misses,
        "serve.cache.evictions": evictions,
        "serve.cache.get_ms": k * per_call("serve.cache.get", "self_ms"),
        "serve.scheduler.requests_per_batch": (
            ledger.args_sum("serve.scheduler.execute", "n_requests")
            / row("serve.scheduler.execute")["calls"]
            if row("serve.scheduler.execute")["calls"] else 0.0
        ),
        "serve.scheduler.form_ms": k * per_call("serve.scheduler.form"),
        "serve.self_ms_per_request": k * root_self_ms / max(1, n_requests),
        "serve.controller.rounds_per_request": sum(r.n_rounds for r in answered)
        / max(1, len(answered)),
        "serve.controller.samples_per_request": sum(r.n_samples for r in answered)
        / max(1, len(answered)),
    }
    for reason in wl_mod.KNOWN_STOP_REASONS:
        metrics[f"serve.controller.stop_reason.{reason}"] = sum(
            1 for r in answered if r.stop_reason == reason
        )
    metrics.update({
        "core.engine.round_ms": k * per_call("core.engine.round"),
        "core.engine.us_per_sample": (
            1000.0 * k * engine["total_ms"] / round_samples
            if round_samples else 0.0
        ),
        "core.engine.share": engine["total_ms"] / request_ms,
        "core.engine.sim_ms_per_sample": (
            round_sim_ms / round_samples if round_samples else 0.0
        ),
        "core.engine.valid_ratio": (
            round_valid / round_samples if round_samples else 0.0
        ),
    })
    for name, n in sorted(backends.items()):
        metrics[f"core.engine.rounds_by_backend.{name}"] = n
    metrics.update({
        "gpu.warp_efficiency": stall.get("warp_efficiency", 0.0),
        "gpu.stall_long_per_iter": stall.get("stall_long_per_iter", 0.0),
        "obs.flight.calls_per_request": row("obs.flight")["calls"]
        / max(1, n_requests),
        "obs.flight.share": row("obs.flight")["total_ms"] / request_ms,
        "trace.coverage": request_ms / timed_ms,
    })
    for key, value in metrics.items():
        if isinstance(value, float) and not math.isfinite(value):
            metrics[key] = 0.0
    return metrics


if __name__ == "__main__":
    sys.exit(main())
