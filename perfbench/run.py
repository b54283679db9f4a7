"""End-to-end benchmark of the estimation service (see BENCHMARK.json).

Usage, from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 20 --trace 0

Each measurement runs in a fresh ``child.py`` process with a pinned
environment.  ``--trace 0`` prints the end-to-end metrics: ``setup_s`` is
the median of three set-ups (two set-up-only processes plus the measuring
one), the rest come from the measuring process.  ``--trace 1`` runs the
deterministic prefix twice, untraced and under the layer ledger, and
prints the per-layer metrics, the layer table, the tracing overhead and
the path of the Chrome-trace file.  The last line of standard output is
the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("interactive", "cold", "offline")
SETUP_PROBES = 2
#: Whole-invocation budget: a run must end within 180 s.
DEADLINE_S = 170.0
TRACE_DIR = ".perfbench-out"

#: Environment variables that would change what the default service runs.
_SCRUBBED = (
    "REPRO_BACKEND", "REPRO_RNG_MODE", "REPRO_SHARDS", "REPRO_TRACE",
    "REPRO_DATASET_CACHE_DIR",
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.update({
        # Set-up must not depend on what an earlier run left on disk.
        "REPRO_DATASET_CACHE": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
    })
    return env


class BenchError(RuntimeError):
    pass


def spawn(args, mode: str, deadline: float, trace_out: str = "") -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError(f"no time left for the {mode} process")
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded {remaining:.0f}s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} process printed no result")
    return json.loads(lines[-1])


def emit(spec: list, values: dict) -> dict:
    out = {}
    for entry in spec:
        name = entry["name"]
        if name not in values:
            raise BenchError(f"metric {name!r} was not measured")
        out[name] = {"value": values[name], "unit": entry["unit"]}
        print(f"  {name:<44} {values[name]:>14.6g} {entry['unit']}")
    return out


def run_untraced(args, spec: dict, deadline: float) -> dict:
    reports = [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES)]
    report = spawn(args, "run", deadline)
    reports.append(report)
    setups = [r["setup_s"] for r in reports]
    values = dict(report["metrics"])
    values["setup_s"] = statistics.median(r["setup_scaled_s"] for r in reports)
    if values["latency_p90_beyond"] < 10:
        raise BenchError(
            f"only {values['latency_p90_beyond']} requests beyond p90; "
            "run longer"
        )
    print(f"workload {args.workload} seed {args.seed}: "
          f"{report['attempted']} requests in {report['elapsed_s']:.2f} s")
    print("  set-up times as measured: "
          + ", ".join(f"{s:.3f}" for s in setups) + " s")
    raw = report["raw"]
    print(f"  host probe median {report['probe_ms']:.4f} ms (reference "
          f"1 ms); as measured before scaling: "
          f"throughput {raw['throughput_rps']:.4g} req/s, "
          f"p50 {raw['latency_p50_ms']:.4g} ms, "
          f"p90 {raw['latency_p90_ms']:.4g} ms, "
          f"samples {raw['samples_per_s']:.4g} 1/s")
    metrics = emit(spec["end_to_end"], values)
    if "qerror_p50" in report:
        print(f"  {'qerror_p50':<44} {report['qerror_p50']:>14.6g} ratio "
              f"(bound {report['qerror_bound']:.4f}, "
              f"{report['qerror_n']} requests)")
    print_checks(report)
    return {"reports": [report], "metrics": metrics}


def run_traced(args, spec: dict, deadline: float) -> dict:
    out_dir = ROOT / TRACE_DIR
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    base = spawn(args, "prefix", deadline)
    traced = spawn(args, "trace", deadline, trace_out=str(trace_path))
    values = dict(traced["layer_metrics"])
    values["trace.overhead"] = (
        traced["metrics"]["busy_s"] / base["metrics"]["busy_s"] - 1.0
    )
    if traced["sim_digest"] != base["sim_digest"]:
        raise BenchError("tracing changed the simulated results")
    print(f"workload {args.workload} seed {args.seed} (traced prefix): "
          f"{traced['attempted']} requests, host-normalised busy time "
          f"untraced {base['metrics']['busy_s']:.3f} s, "
          f"traced {traced['metrics']['busy_s']:.3f} s")
    print(f"  chrome trace: {trace_path.relative_to(ROOT)} "
          f"({traced['trace_spans']} spans, validated)")
    print_layers(traced)
    layer_checks(args.workload, values)
    metrics = emit(spec["per_layer"], values)
    print("  untraced prefix:")
    print_checks(base)
    print("  traced prefix:")
    print_checks(traced)
    return {"reports": [base, traced], "metrics": metrics}


def print_layers(report: dict) -> None:
    rows = report["layers"]
    wall = sum(
        rows[r]["total_ms"] for r in ("serve.request", "serve.wave") if r in rows
    )
    print(f"  {'span':<28} {'calls':>8} {'total ms':>11} {'self ms':>11} "
          f"{'self %':>7}")
    for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {name:<28} {r['calls']:>8} {r['total_ms']:>11.2f} "
              f"{r['self_ms']:>11.2f} {100 * r['self_ms'] / wall:>6.1f}%")
    print("  self time by layer: " + ", ".join(
        f"{layer} {100 * ms / wall:.1f}%"
        for layer, ms in report["layer_self_ms"].items()
    ))


def layer_checks(workload: str, values: dict) -> None:
    """Does the workload stress the layer it was chosen for?"""
    checks = [("trace.coverage >= 0.90", values["trace.coverage"] >= 0.90)]
    cand, core = values["candidate.share"], values["core.engine.share"]
    if workload == "cold":
        checks.append(("candidate.share > core.engine.share", cand > core))
    else:
        checks.append(("candidate.share < 0.05", cand < 0.05))
    if workload == "offline":
        checks.append(("core.engine.share >= 0.90", core >= 0.90))
    for text, ok in checks:
        print(f"  layer check {text}: {'PASS' if ok else 'FAIL'}")


def print_checks(report: dict) -> None:
    attempted, failed = report["attempted"], report["failed"]
    print(f"  requests attempted {attempted}, succeeded {attempted - failed}, "
          f"failed {failed}; sim_digest {report['sim_digest']}")
    print(f"  requests over max_samples (inherited continuations of the "
          f"last round): {report['budget_overshoot_requests']}, "
          f"by at most {report['budget_overshoot_max']} samples")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: src/repro not found; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    try:
        if args.trace:
            result = run_traced(args, spec, deadline)
        else:
            result = run_untraced(args, spec, deadline)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    reports = result["reports"]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = failed == 0 and not any(r.get("qerror_failed") for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
