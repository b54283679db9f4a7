"""gSWORD reproduction: GPU-accelerated sampling for subgraph counting.

A from-scratch Python implementation of *gSWORD* (SIGMOD 2024): the
Refine–Sample–Validate abstraction over WanderJoin and Alley, the triple-CSR
candidate graph, sample inheritance, warp streaming, the trawling strategy
and the CPU–GPU co-processing pipeline — executed on a deterministic SIMT
GPU simulator (see DESIGN.md for the hardware substitution rationale).

Quickstart::

    from repro import (
        load_dataset, extract_query, build_candidate_graph, quicksi_order,
        GSWORDEngine, EngineConfig, AlleyEstimator,
    )

    graph = load_dataset("yeast")
    query = extract_query(graph, 8, rng=0)
    cg = build_candidate_graph(graph, query)
    order = quicksi_order(query, graph)
    engine = GSWORDEngine(AlleyEstimator(), EngineConfig.gsword())
    result = engine.run(cg, order, n_samples=4096, rng=0)
    print(result.estimate, result.simulated_ms())
"""

from repro.candidate import CandidateGraph, build_candidate_graph
from repro.core import (
    CoProcessingPipeline,
    EngineConfig,
    EngineSession,
    GPURunResult,
    GSWORDEngine,
    PipelineConfig,
    PipelineResult,
    SyncMode,
    TrawlingEstimator,
    TrawlingResult,
)
from repro.enumeration import count_embeddings, count_extensions
from repro.estimators import (
    AlleyEstimator,
    CPUSamplingRunner,
    HTAccumulator,
    WanderJoinEstimator,
)
from repro.graph import CSRGraph, from_edge_list, load_dataset
from repro.gpu import CPUSpec, GPUSpec
from repro.metrics import q_error
from repro.query import (
    QueryGraph,
    extract_queries,
    extract_query,
    gcare_order,
    quicksi_order,
)
from repro.serve import (
    EstimateRequest,
    EstimateResponse,
    EstimationService,
    PlanCache,
    ServiceConfig,
)

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "from_edge_list",
    "load_dataset",
    "QueryGraph",
    "extract_query",
    "extract_queries",
    "quicksi_order",
    "gcare_order",
    "CandidateGraph",
    "build_candidate_graph",
    "count_embeddings",
    "count_extensions",
    "WanderJoinEstimator",
    "AlleyEstimator",
    "HTAccumulator",
    "CPUSamplingRunner",
    "GSWORDEngine",
    "GPURunResult",
    "EngineSession",
    "EngineConfig",
    "SyncMode",
    "TrawlingEstimator",
    "TrawlingResult",
    "CoProcessingPipeline",
    "PipelineConfig",
    "PipelineResult",
    "GPUSpec",
    "CPUSpec",
    "q_error",
    "EstimateRequest",
    "EstimateResponse",
    "EstimationService",
    "ServiceConfig",
    "PlanCache",
    "__version__",
]
