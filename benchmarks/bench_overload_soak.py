"""Overload soak gate (the ``soak-smoke`` CI job).

Drives the open-loop overload soak (:mod:`repro.bench.overload`): seeded
OVERLOAD-mode arrivals at 2x the calibrated service capacity through the
admission stack and through the legacy unbounded front door.  Fails
(exit 1) when any acceptance gate is violated:

* zero stranded tickets in both configurations (every ticket reaches a
  terminal state);
* every shed carries a positive ``retry_after_ms`` hint;
* the *admitted* p99 under shedding stays bounded (within
  ``P99_DEADLINE_SLACK`` x the request deadline);
* goodput (deadline-met completions per simulated second) with shedding
  is at least the no-shedding baseline's;
* replaying the shed run's newest flight postmortem bundle reproduces
  its captured round's estimate and simulated ms bit-identically;
* the shed *rate* lands inside the band pinned in
  ``benchmarks/baselines.json`` (``"overload"`` section, one band per
  mode) — the whole soak is simulated-clock deterministic, so drift means
  admission semantics changed.  A mode with no pinned band fails: a gate
  with nothing to compare against checks nothing.

Refresh the band after an intentional admission change with::

    PYTHONPATH=src python benchmarks/bench_overload_soak.py --quick --update-baselines
    PYTHONPATH=src python benchmarks/bench_overload_soak.py --update-baselines
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.overload import OVERLOAD_ROOT_SEED, run_overload_soak
from repro.bench.reporting import render_table, save_results

BASELINE_PATH = Path(__file__).resolve().parent / "baselines.json"

#: Half-width of the pinned shed-rate band.  The soak is deterministic,
#: but the band leaves room for intentional small re-tunings of pool or
#: policy constants without a baseline refresh ritual.
SHED_RATE_TOLERANCE = 0.06


def _load_baselines() -> dict:
    with open(BASELINE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _check_shed_band(payload: dict, baselines: dict) -> dict:
    mode = "quick" if payload["quick"] else "full"
    band = baselines.get("overload", {}).get(mode)
    observed = payload["soak"]["shed"]["shed_rate"]
    if band is None:
        return {
            "mode": mode, "observed": observed, "band": None,
            "within_band": None,
        }
    within = band["shed_rate_min"] <= observed <= band["shed_rate_max"]
    return {
        "mode": mode, "observed": observed, "band": band,
        "within_band": within,
    }


def _update_baselines(payload: dict) -> None:
    baselines = _load_baselines()
    mode = "quick" if payload["quick"] else "full"
    observed = payload["soak"]["shed"]["shed_rate"]
    section = baselines.setdefault("overload", {})
    section[mode] = {
        "seed": payload["seed"],
        "n_requests": payload["n_requests"],
        "shed_rate_observed": observed,
        "shed_rate_min": round(max(0.0, observed - SHED_RATE_TOLERANCE), 4),
        "shed_rate_max": round(min(1.0, observed + SHED_RATE_TOLERANCE), 4),
    }
    with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
        json.dump(baselines, fh, indent=2)
        fh.write("\n")
    print(f"baselines updated: overload.{mode} shed_rate={observed:.4f}")


def _print_report(payload: dict) -> None:
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
    tenant_rows = []
    for tenant, stats in soak["shed"]["by_tenant"].items():
        tenant_rows.append([
            tenant, stats["arrivals"], stats["admitted"], stats["shed"],
            stats["deadline_met"],
        ])
    print()
    print(render_table(
        ["tenant", "arrivals", "admitted", "shed", "deadline met"],
        tenant_rows,
        title="Per-tenant admission (shed config)",
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI scale: 400 arrivals",
    )
    parser.add_argument("--requests", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=OVERLOAD_ROOT_SEED)
    parser.add_argument(
        "--update-baselines", action="store_true",
        help="re-pin the shed-rate band from this run",
    )
    parser.add_argument(
        "--no-save", action="store_true", help="do not write results/ JSON"
    )
    args = parser.parse_args(argv)

    payload = run_overload_soak(
        n_requests=args.requests, seed=args.seed, quick=args.quick
    )
    _print_report(payload)

    if args.update_baselines:
        _update_baselines(payload)

    band_check = _check_shed_band(payload, _load_baselines())
    payload["shed_rate_band"] = band_check

    acceptance = payload["acceptance"]
    print("\nacceptance gates:")
    for key, value in acceptance.items():
        if isinstance(value, bool) and key != "passed":
            print(f"  {key}: {value}")
    if band_check["band"] is None:
        print("  shed_rate_within_band: FAIL (no pinned "
              f"overload.{band_check['mode']} band; observed "
              f"{band_check['observed']:.4f}; pin it with "
              "--update-baselines)")
        band_ok = False
    else:
        band = band_check["band"]
        print(f"  shed_rate_within_band: {band_check['within_band']} "
              f"(observed {band_check['observed']:.4f}, band "
              f"[{band['shed_rate_min']}, {band['shed_rate_max']}])")
        band_ok = bool(band_check["within_band"])

    passed = bool(acceptance["passed"]) and band_ok
    print(f"\nverdict: {'PASS' if passed else 'FAIL'}")
    payload.pop("flight_bundle")  # bulky; `repro soak-bench` can write it
    if not args.no_save:
        path = save_results("overload_soak", payload)
        if path is not None:
            print(f"results written to {path}")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
