"""``repro`` command-line interface.

These subcommands make the system runnable without writing scripts:

* ``repro estimate`` — one estimation through the serving stack (plan
  build, adaptive sampling, CI/deadline stopping) on a named dataset
  analog with an extracted query;
* ``repro serve-bench`` — the serving throughput benchmark: mixed
  concurrent queries through :class:`~repro.serve.EstimationService`,
  sweeping concurrency with the plan cache on/off, against the serial
  (one-request-per-batch) baseline;
* ``repro chaos-bench`` — the fault-injection resilience benchmark:
  the same service under seeded device-fault storms (corruption, stalls,
  OOM, lane desync), verifying that retries, the watchdog, the circuit
  breaker, and the CPU fallback keep every request answered with bounded
  accuracy loss;
* ``repro soak-bench`` — the open-loop overload soak: seeded OVERLOAD
  arrivals at a multiple of calibrated capacity through the admission
  stack (bounded queue, per-tenant quotas, deadline shedding)
  vs the unbounded baseline, gating zero stranded tickets, bounded
  admitted p99, and goodput at least the baseline's;
* ``repro trace-report`` — per-span time breakdown of a Chrome-trace JSON
  produced by ``repro estimate --trace-out`` (the same file loads in
  Perfetto / ``chrome://tracing``), with anomaly-instant and top-N
  slowest-span sections; flight postmortem bundles are accepted too;
* ``repro flight-replay`` — re-execute the round captured in a flight
  postmortem bundle (``repro chaos-bench --flight-bundle-out``, or any
  triggered service via ``EstimationService.write_flight_bundle``) and
  verify the estimate and simulated ms reproduce bit-identically;
* ``repro slo-report`` — run the quick overload soak with the default
  SLOs and print the burn-rate table plus the deterministic alert log
  (fire/clear transitions on the simulated clock).

Run ``python -m repro <cmd> --help`` (or ``repro <cmd> --help`` once
installed) for options.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.bench.chaos import CHAOS_SEED, run_chaos_benchmark
from repro.bench.overload import OVERLOAD_ROOT_SEED, run_overload_soak
from repro.bench.reporting import render_table, save_results
from repro.bench.serving import (
    DEFAULT_DATASETS,
    build_request_pool,
    run_serving_benchmark,
)
from repro.core.config import EngineConfig
from repro.errors import ReproError
from repro.graph.datasets import DATASET_ORDER, load_dataset
from repro.obs import (
    load_bundle,
    load_trace,
    render_report,
    replay_bundle,
)
from repro.query.extract import extract_query
from repro.serve.request import EstimateRequest
from repro.serve.service import EstimationService, ServiceConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="gSWORD reproduction: GPU-accelerated subgraph counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser(
        "estimate", help="estimate one query's embedding count via the service"
    )
    est.add_argument(
        "--dataset", default="yeast", choices=DATASET_ORDER,
        help="dataset analog to count on",
    )
    est.add_argument("--k", type=int, default=8, help="query vertices (4-16)")
    est.add_argument(
        "--query-type", default="dense", choices=("dense", "sparse"),
    )
    est.add_argument(
        "--seed", type=int, default=0, help="query-extraction seed"
    )
    est.add_argument(
        "--estimator", default="alley", choices=("alley", "wanderjoin"),
    )
    est.add_argument(
        "--target-ci", type=float, default=0.1,
        help="stop at this relative CI half-width (0.1 = ±10%%)",
    )
    est.add_argument(
        "--deadline-ms", type=float, default=None,
        help="simulated-ms latency budget (degrades instead of failing)",
    )
    est.add_argument("--max-samples", type=int, default=131_072)
    est.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="partition every round across N worker processes "
             "(bit-identical estimates; default: REPRO_SHARDS or 1)",
    )
    est.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record spans and write a Chrome-trace JSON (open in "
             "Perfetto or chrome://tracing; see also 'repro trace-report')",
    )

    bench = sub.add_parser(
        "serve-bench", help="serving throughput benchmark (batching + cache)"
    )
    bench.add_argument(
        "--requests", type=int, default=64, help="total requests per config"
    )
    bench.add_argument(
        "--clients", default="1,8,32",
        help="comma-separated concurrent-client counts to sweep",
    )
    bench.add_argument(
        "--distinct", type=int, default=8, help="distinct queries in the pool"
    )
    bench.add_argument(
        "--datasets", default=",".join(DEFAULT_DATASETS),
        help="comma-separated dataset analogs for the query pool",
    )
    bench.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-request deadline (simulated ms)",
    )
    bench.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="run every config with N shard workers per engine",
    )
    bench.add_argument(
        "--no-cache", action="store_true", help="skip the cache-on configs"
    )
    bench.add_argument(
        "--no-save", action="store_true", help="do not write results/ JSON"
    )
    bench.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write every configuration's unified metrics registry "
             "(JSON snapshot per config) to PATH",
    )

    chaos = sub.add_parser(
        "chaos-bench",
        help="fault-injection resilience benchmark (retries, breaker, fallback)",
    )
    chaos.add_argument(
        "--requests", type=int, default=48, help="total requests per fault rate"
    )
    chaos.add_argument(
        "--clients", type=int, default=8, help="concurrent clients per wave"
    )
    chaos.add_argument(
        "--rates", default="0.0,0.10,0.25",
        help="comma-separated launch-fault rates to sweep (0.0 = control)",
    )
    chaos.add_argument(
        "--distinct", type=int, default=6, help="distinct queries in the pool"
    )
    chaos.add_argument(
        "--seed", type=int, default=CHAOS_SEED, help="root chaos seed"
    )
    chaos.add_argument(
        "--watchdog-ms", type=float, default=5.0,
        help="per-launch simulated-ms watchdog ceiling",
    )
    chaos.add_argument(
        "--no-save", action="store_true", help="do not write results/ JSON"
    )
    chaos.add_argument(
        "--flight-bundle-out", default=None, metavar="PATH",
        help="write the captured flight postmortem bundle as JSON "
             "(replayable via 'repro flight-replay PATH')",
    )

    soak = sub.add_parser(
        "soak-bench",
        help="open-loop overload soak (admission, shedding)",
    )
    soak.add_argument(
        "--requests", type=int, default=2000,
        help="open-loop arrivals per configuration",
    )
    soak.add_argument(
        "--overload-factor", type=float, default=2.0,
        help="arrival rate as a multiple of calibrated capacity",
    )
    soak.add_argument(
        "--seed", type=int, default=OVERLOAD_ROOT_SEED,
        help="root seed (arrivals, tenants)",
    )
    soak.add_argument(
        "--quick", action="store_true",
        help="CI scale: 400 arrivals",
    )
    soak.add_argument(
        "--no-save", action="store_true", help="do not write results/ JSON"
    )

    report = sub.add_parser(
        "trace-report",
        help="per-span time breakdown of a recorded Chrome-trace JSON "
             "or flight bundle",
    )
    report.add_argument(
        "trace", help="trace file written by 'repro estimate --trace-out' "
                      "or a flight postmortem bundle",
    )

    replay = sub.add_parser(
        "flight-replay",
        help="re-execute a flight postmortem bundle and verify bit-identity",
    )
    replay.add_argument(
        "bundle", help="flight bundle JSON (chaos-bench --flight-bundle-out)"
    )

    slo = sub.add_parser(
        "slo-report",
        help="quick overload soak with SLO burn-rate alerting report",
    )
    slo.add_argument(
        "--requests", type=int, default=400, help="open-loop arrivals"
    )
    slo.add_argument(
        "--overload-factor", type=float, default=2.0,
        help="arrival rate as a multiple of calibrated capacity",
    )
    slo.add_argument(
        "--seed", type=int, default=OVERLOAD_ROOT_SEED, help="root seed"
    )
    return parser


def _cmd_estimate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset)
    query = extract_query(
        graph, args.k, rng=args.seed, query_type=args.query_type,
        name=f"{args.dataset}-q{args.k}-{args.query_type}-{args.seed}",
    )
    engine_config = EngineConfig.gsword()
    if args.shards is not None:
        engine_config = engine_config.with_shards(args.shards)
    if args.trace_out is not None:
        engine_config = engine_config.with_trace()
    service = EstimationService(ServiceConfig(engine_config=engine_config))
    try:
        response = service.estimate(
            EstimateRequest(
                graph=graph,
                query=query,
                target_rel_ci=args.target_ci,
                deadline_ms=args.deadline_ms,
                max_samples=args.max_samples,
                estimator=args.estimator,
            )
        )
        stall = service.metrics_snapshot()["stall"]
    finally:
        service.close()
    print(f"dataset:    {args.dataset}  ({graph.n_vertices} vertices)")
    print(f"query:      {query.name}  ({query.n_vertices} vertices, "
          f"{query.n_edges} edges)")
    print(f"estimate:   {response.estimate:,.1f}")
    ci = "n/a" if response.rel_ci == float("inf") else f"±{response.rel_ci:.1%}"
    print(f"rel. CI:    {ci}  (target ±{args.target_ci:.1%})")
    print(f"samples:    {response.n_samples}  ({response.n_valid} valid, "
          f"{response.n_rounds} rounds)")
    print(f"latency:    {response.latency_ms:.3f} simulated ms "
          f"(build {response.build_ms:.3f}, service {response.service_ms:.3f})")
    if service.n_shards > 1:
        print(f"shards:     {service.n_shards} worker processes")
    # The Figure-5 nsight analog: where the kernel's cycles stalled.
    print(f"stall:      StallLong {stall['stall_long_per_iter']:.1f} cyc/iter, "
          f"StallWait {stall['stall_wait_per_iter']:.1f} cyc/iter, "
          f"warp efficiency {stall['warp_efficiency']:.1%}")
    print(f"stopped:    {response.stop_reason}"
          + ("  [DEGRADED: best-effort estimate]" if response.degraded else ""))
    if args.trace_out is not None:
        service.recorder.write(args.trace_out)
        print(f"trace:      {service.recorder.n_events} events written to "
              f"{args.trace_out} (open in Perfetto, or run "
              f"'repro trace-report {args.trace_out}')")
    return 0


def _parse_clients(spec: str) -> List[int]:
    try:
        clients = [int(c) for c in spec.split(",") if c.strip()]
    except ValueError:
        raise ReproError(
            f"--clients expects comma-separated integers, got {spec!r}"
        ) from None
    if not clients or any(c <= 0 for c in clients):
        raise ReproError(
            f"--clients expects positive integers, got {spec!r}"
        )
    return clients


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    clients = _parse_clients(args.clients)
    datasets = tuple(d.strip() for d in args.datasets.split(",") if d.strip())
    pool = build_request_pool(
        datasets=datasets, distinct=args.distinct, deadline_ms=args.deadline_ms,
    )
    configs = [("serial", dict(serial=True, cache=False))]
    configs.append(("batched", dict(serial=False, cache=False)))
    if not args.no_cache:
        configs.append(("batched+cache", dict(serial=False, cache=True)))

    rows = []
    records = []
    for n_clients in clients:
        for label, kwargs in configs:
            record = run_serving_benchmark(
                clients=n_clients, n_requests=args.requests, pool=pool,
                shards=args.shards or 1,
                collect_metrics=args.metrics_out is not None,
                **kwargs,
            )
            record["config"] = label
            records.append(record)
            rows.append([
                n_clients, label,
                record["samples_per_second"],
                record["requests_per_second"],
                record["p50_ms"], record["p95_ms"],
                record["cache_hit_rate"], record["n_degraded"],
            ])
    print(render_table(
        ["clients", "config", "samples/s", "req/s", "p50 ms", "p95 ms",
         "hit rate", "degraded"],
        rows,
        title=f"Serving throughput ({args.requests} requests, "
              f"{args.distinct} distinct queries)",
    ))
    if args.metrics_out is not None:
        # One live-registry snapshot per configuration, keyed by
        # "<clients>x<config>"; they are dropped from the records
        # afterwards so results/ JSON stays flat.
        registries = {
            f"{record['clients']}x{record['config']}":
                record.pop("registry")
            for record in records
        }
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(registries, fh, indent=2)
            fh.write("\n")
        print(f"\nmetrics registry written to {args.metrics_out}")
    if not args.no_save:
        path = save_results("serving_throughput", {
            "requests": args.requests,
            "distinct": args.distinct,
            "clients": clients,
            "shards": args.shards or 1,
            "records": records,
        })
        if path is not None:
            print(f"\nresults written to {path}")
    return 0


def _parse_rates(spec: str) -> List[float]:
    try:
        rates = [float(r) for r in spec.split(",") if r.strip()]
    except ValueError:
        raise ReproError(
            f"--rates expects comma-separated floats, got {spec!r}"
        ) from None
    if not rates or any(not 0.0 <= r < 1.0 for r in rates):
        raise ReproError(f"--rates expects values in [0, 1), got {spec!r}")
    return rates


def _cmd_chaos_bench(args: argparse.Namespace) -> int:
    payload = run_chaos_benchmark(
        fault_rates=tuple(_parse_rates(args.rates)),
        n_requests=args.requests,
        clients=args.clients,
        distinct=args.distinct,
        seed=args.seed,
        watchdog_ms=args.watchdog_ms,
    )
    rows = []
    for run in payload["runs"]:
        res = run["resilience"]
        rows.append([
            run["fault_rate"],
            f'{run["n_answered"]}/{run["n_requests"]}',
            run["n_stranded"],
            res["n_faults"],
            res["n_retries"],
            res["n_fallbacks"],
            res["n_breaker_trips"],
            run["n_degraded"],
            run["mean_q_error"],
            run["p95_latency_ms"],
        ])
    print(render_table(
        ["fault rate", "answered", "stranded", "faults", "retries",
         "fallbacks", "trips", "degraded", "mean q-err", "p95 ms"],
        rows,
        title=f"Chaos resilience ({args.requests} requests/rate, "
              f"seed {args.seed})",
    ))
    acceptance = payload["acceptance"]
    verdict = "PASS" if acceptance.get("passed") else "FAIL"
    print(f"\nacceptance @ rate {acceptance.get('evaluated_rate')}: {verdict}")
    for key in ("zero_stranded", "all_answered", "q_error_within_2x",
                "flight_bundle_captured", "flight_replay_bit_identical"):
        if key in acceptance:
            print(f"  {key}: {acceptance[key]}")
    replay = payload.get("flight_replay")
    if replay is not None:
        print(
            f"\nflight postmortem: trigger={replay['trigger'].get('kind')} "
            f"graph={replay['graph']}\n"
            f"  replayed estimate {replay['replayed']['estimate']} "
            f"(expected {replay['expected']['estimate']}), "
            f"simulated_ms match={replay['simulated_ms_match']}"
        )
    if args.flight_bundle_out:
        bundle = payload.get("flight_bundle")
        if bundle is None:
            print("no flight bundle captured; nothing written",
                  file=sys.stderr)
            return 1
        with open(args.flight_bundle_out, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh)
        print(f"flight bundle written to {args.flight_bundle_out}")
    if not args.no_save:
        payload = dict(payload)
        payload.pop("flight_bundle", None)  # bulky; exported via the flag
        path = save_results("chaos_resilience", payload)
        if path is not None:
            print(f"\nresults written to {path}")
    return 0 if acceptance.get("passed") else 1


def _cmd_soak_bench(args: argparse.Namespace) -> int:
    payload = run_overload_soak(
        n_requests=args.requests,
        overload_factor=args.overload_factor,
        seed=args.seed,
        quick=args.quick,
    )
    soak = payload["soak"]
    rows = []
    for label in ("shed", "baseline"):
        run = soak[label]
        rows.append([
            label,
            run["n_admitted"],
            run["n_shed"],
            f'{run["shed_rate"]:.2%}',
            run["n_stranded"],
            run["deadline_met"],
            run["goodput_per_s"],
            run["p99_admitted_ms"],
        ])
    print(render_table(
        ["config", "admitted", "shed", "shed rate", "stranded",
         "deadline met", "goodput/s", "p99 ms"],
        rows,
        title=(
            f"Overload soak ({payload['n_requests']} arrivals at "
            f"{soak['overload_factor']:.1f}x capacity, seed {payload['seed']})"
        ),
    ))
    acceptance = payload["acceptance"]
    verdict = "PASS" if acceptance.get("passed") else "FAIL"
    print(f"\nacceptance: {verdict}")
    for key, value in acceptance.items():
        if isinstance(value, bool) and key != "passed":
            print(f"  {key}: {value}")
    if not args.no_save:
        path = save_results("overload_soak", payload)
        if path is not None:
            print(f"\nresults written to {path}")
    return 0 if acceptance.get("passed") else 1


def _cmd_trace_report(args: argparse.Namespace) -> int:
    payload = load_trace(args.trace)
    print(render_report(payload))
    return 0


def _cmd_flight_replay(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.bundle)
    report = replay_bundle(bundle)
    trigger = report.get("trigger") or {}
    print(f"bundle: trigger={trigger.get('kind')} "
          f"at t={float(trigger.get('sim_ms', 0.0)):.3f}ms "
          f"graph={report['graph']}")
    print(f"round: {report['n_samples']} samples on {report['backend']}, "
          f"stall_factor={report['stall_factor']}")
    print(f"expected: estimate={report['expected']['estimate']!r} "
          f"simulated_ms={report['expected']['simulated_ms']!r}")
    print(f"replayed: estimate={report['replayed']['estimate']!r} "
          f"simulated_ms={report['replayed']['simulated_ms']!r}")
    verdict = "BIT-IDENTICAL" if report["match"] else "MISMATCH"
    print(f"replay: {verdict}")
    return 0 if report["match"] else 1


def _cmd_slo_report(args: argparse.Namespace) -> int:
    payload = run_overload_soak(
        n_requests=args.requests,
        overload_factor=args.overload_factor,
        seed=args.seed,
        quick=True,
    )
    shed = payload["soak"]["shed"] or {}
    slo = shed.get("slo")
    if not slo:
        print("repro: error: the soak produced no SLO snapshot",
              file=sys.stderr)
        return 2
    print(f"SLO report (quick soak, {payload['n_requests']} arrivals at "
          f"{payload['soak']['overload_factor']:.1f}x capacity, "
          f"seed {payload['seed']})\n")
    burn = slo.get("burn_rates", {})
    alerts = slo.get("alerts", {})
    header = (f"{'objective':<18} {'short':>8} {'long':>8} "
              f"{'fired':>6} {'cleared':>8} {'active':>7}")
    print(header)
    print("-" * len(header))
    for name in sorted(burn):
        rates = burn[name]
        totals = alerts.get(name, {})
        print(f"{name:<18} {rates.get('short', 0.0):>8.2f} "
              f"{rates.get('long', 0.0):>8.2f} "
              f"{int(totals.get('n_fired', 0)):>6d} "
              f"{int(totals.get('n_cleared', 0)):>8d} "
              f"{'yes' if totals.get('active') else 'no':>7}")
    log = slo.get("alert_log", [])
    if log:
        print("\nalert log:")
        for entry in log:
            print(f"  t={entry['sim_ms']:.3f}ms {entry['slo']} "
                  f"{entry['state'].upper()} "
                  f"(short={entry['short_burn']:.2f}, "
                  f"long={entry['long_burn']:.2f})")
    else:
        print("\nalert log: (empty)")
    print("\nslo_burn_rate exposition:")
    for line in shed["slo_exposition"].splitlines():
        if "_slo_burn_rate{" in line:
            print(f"  {line}")
    fired = any(e["state"] == "fire" for e in log)
    cleared = any(e["state"] == "clear" for e in log)
    verdict = "PASS" if (fired and cleared) else "FAIL"
    print(f"\nburn-rate alert fired and cleared: {verdict}")
    return 0 if (fired and cleared) else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            return _cmd_estimate(args)
        if args.command == "serve-bench":
            return _cmd_serve_bench(args)
        if args.command == "chaos-bench":
            return _cmd_chaos_bench(args)
        if args.command == "soak-bench":
            return _cmd_soak_bench(args)
        if args.command == "trace-report":
            return _cmd_trace_report(args)
        if args.command == "flight-replay":
            return _cmd_flight_replay(args)
        if args.command == "slo-report":
            return _cmd_slo_report(args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
