"""Benchmark harness: workload registry, method runners, and reporting."""

from repro.bench.arrivals import OVERLOAD, POISSON, ArrivalPlan
from repro.bench.harness import (
    METHOD_NAMES,
    MethodResult,
    TARGET_SAMPLES,
    run_method,
)
from repro.bench.overload import (
    run_open_loop,
    run_overload_comparison,
    run_overload_soak,
)
from repro.bench.reporting import render_series, render_table, save_results
from repro.bench.serving import (
    build_request_pool,
    request_stream,
    run_serving_benchmark,
)
from repro.bench.workloads import (
    LIGHT_FILTER,
    TIGHT_FILTER,
    Workload,
    build_workload,
    default_workloads,
)

__all__ = [
    "Workload",
    "build_workload",
    "default_workloads",
    "LIGHT_FILTER",
    "TIGHT_FILTER",
    "run_method",
    "MethodResult",
    "METHOD_NAMES",
    "TARGET_SAMPLES",
    "render_table",
    "render_series",
    "save_results",
    "build_request_pool",
    "request_stream",
    "run_serving_benchmark",
    "ArrivalPlan",
    "POISSON",
    "OVERLOAD",
    "run_overload_soak",
    "run_overload_comparison",
    "run_open_loop",
]
