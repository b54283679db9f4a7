"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root::

    python3 perfbench/steadiness.py --workload cold --seeds 1-10 [--trace 0]

For every metric it prints the median over the runs and the interquartile
range (``statistics.quantiles(values, n=4)``) as a share of that median,
next to the metric's bound from BENCHMARK.json.  The raw results go to
``.perfbench-out/steadiness-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["sim_digest"] = [
            line.split("sim_digest ")[-1] for line in lines
            if "sim_digest " in line
        ]
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"sim_digest={','.join(result['sim_digest'])}", flush=True)

    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steadiness-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(runs, indent=1))
    print(f"{'metric':<44} {'median':>12} {'IQR/median':>11} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "ok" if spread < bound / 3 else (
                "WIDE" if spread > bound else "over 1/3")
        print(f"{name:<44} {med:>12.6g} {spread:>11.4f} "
              f"{bound if bound is not None else '':>6} {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
