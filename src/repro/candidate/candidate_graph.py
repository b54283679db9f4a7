"""The candidate graph (Definition 5) in the paper's triple-CSR format.

Figure 4 of the paper lays the candidate graph out as three chained CSRs:

1. a CSR over *query* vertices whose edge list enumerates directed query
   edges ``e = (u -> u')``;
2. per directed edge, the sorted global candidates of the source ``u``;
3. per (edge, candidate) pair, the sorted *local candidate set*
   ``C(u, u', v) = N(v) ∩ C(u')``.

This layout gives ``O(log |C(u)|)`` lookup of any local candidate set and is
exactly what the GPU kernels index — the SIMT simulator charges memory
traffic against these arrays, so the layout here *is* the memory layout the
cost model sees.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.candidate.filters import (
    flat_ranges,
    gather_adjacency,
    label_degree_filter,
    membership_mask,
    nlf_filter,
    refine_global_candidates,
)
from repro.errors import CandidateGraphError
from repro.graph.csr import CSRGraph
from repro.query.query_graph import QueryGraph

#: Simulated PCIe 3.0 x16 effective bandwidth used for Table-3-style
#: host-to-device transfer estimates (bytes per millisecond).
PCIE_BYTES_PER_MS = 12.0e9 / 1000.0

#: Fixed per-transfer latency (driver + DMA setup), milliseconds.
PCIE_LATENCY_MS = 0.02


@dataclass
class CandidateGraph:
    """Immutable candidate graph for one (query, data graph) pair.

    Array attributes follow Fig. 4; see module docstring.  ``array ids`` used
    by the memory cost model: 0 = query CSR, 1 = edge-candidate CSR,
    2 = local-candidate CSR.
    """

    query: QueryGraph
    graph: CSRGraph
    # CSR 1: query adjacency. q_offsets[u]..q_offsets[u+1] index q_targets,
    # and the position *is* the directed edge id.
    q_offsets: np.ndarray
    q_targets: np.ndarray
    # CSR 2: per directed edge, sorted candidates of the source vertex.
    ecand_offsets: np.ndarray  # int64[n_directed_edges + 1]
    ecand_vertices: np.ndarray  # int64[sum |C(u)| over directed edges]
    # CSR 3: per (edge, candidate) slot, the local candidate list.
    local_offsets: np.ndarray  # int64[len(ecand_vertices) + 1]
    local_vertices: np.ndarray  # int64[total local entries]
    # Global candidate sets (sorted), per query vertex.
    global_candidates: List[np.ndarray]
    construction_ms: float = 0.0
    #: False when built without the label filter (direct-on-data-graph
    #: mode): estimators must then check labels on the fly.
    label_filtered: bool = True
    _edge_id: Dict[Tuple[int, int], int] = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------
    # Lookup API (the operations Alg. 1's GetMinCandidate/Refine use)
    # ------------------------------------------------------------------
    @property
    def n_directed_edges(self) -> int:
        return len(self.q_targets)

    def edge_id(self, u: int, u_prime: int) -> int:
        """Directed edge id of query edge ``u -> u'``."""
        eid = self._edge_id.get((u, u_prime))
        if eid is None:
            raise CandidateGraphError(f"no query edge ({u}, {u_prime})")
        return eid

    def directed_edges(self) -> List[Tuple[int, int, int]]:
        """All ``(edge_id, u, u')`` triples."""
        out = []
        for u in range(self.query.n_vertices):
            for pos in range(int(self.q_offsets[u]), int(self.q_offsets[u + 1])):
                out.append((pos, u, int(self.q_targets[pos])))
        return out

    def candidates_of_edge(self, edge_id: int) -> np.ndarray:
        """Sorted candidates of the edge's source vertex (CSR 2 slice)."""
        return self.ecand_vertices[
            self.ecand_offsets[edge_id] : self.ecand_offsets[edge_id + 1]
        ]

    def candidate_slot(self, edge_id: int, v: int) -> int:
        """Global slot index of candidate ``v`` under ``edge_id``, or -1."""
        lo = int(self.ecand_offsets[edge_id])
        hi = int(self.ecand_offsets[edge_id + 1])
        pos = lo + int(np.searchsorted(self.ecand_vertices[lo:hi], v))
        if pos < hi and int(self.ecand_vertices[pos]) == v:
            return pos
        return -1

    def local_candidates(self, edge_id: int, v: int) -> np.ndarray:
        """Local candidate set ``C(u, u', v)`` (CSR 3 slice); empty if ``v``
        is not a candidate of the edge's source."""
        slot = self.candidate_slot(edge_id, v)
        if slot < 0:
            return self.local_vertices[:0]
        return self.local_vertices[
            self.local_offsets[slot] : self.local_offsets[slot + 1]
        ]

    def local_slice(self, edge_id: int, v: int) -> Tuple[int, int]:
        """(start, end) offsets of the local set in ``local_vertices``;
        ``(0, 0)`` when absent.  Used by the memory cost model to charge
        segment traffic at real array offsets."""
        slot = self.candidate_slot(edge_id, v)
        if slot < 0:
            return (0, 0)
        return (int(self.local_offsets[slot]), int(self.local_offsets[slot + 1]))

    def has_local_candidate(self, edge_id: int, v: int, w: int) -> bool:
        """Is ``w`` in ``C(u, u', v)``? (binary search in CSR 3)."""
        local = self.local_candidates(edge_id, v)
        pos = int(np.searchsorted(local, w))
        return pos < len(local) and int(local[pos]) == w

    # ------------------------------------------------------------------
    # Size accounting (Table 3 & transfer model)
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Device-resident footprint in bytes (8-byte ints, as stored)."""
        arrays = (
            self.q_offsets, self.q_targets,
            self.ecand_offsets, self.ecand_vertices,
            self.local_offsets, self.local_vertices,
        )
        total = sum(a.nbytes for a in arrays)
        total += sum(c.nbytes for c in self.global_candidates)
        return int(total)

    @property
    def nbytes(self) -> int:
        """Resident size in bytes, numpy-style; what memory-budgeted caches
        (``repro.serve.PlanCache``) charge against their budget.  Identical
        to :meth:`memory_bytes` — the edge-id dict is host-side metadata an
        order of magnitude smaller than the CSR payload."""
        return self.memory_bytes()

    def transfer_ms(self) -> float:
        """Simulated host-to-device PCIe transfer time (Table 3 analog)."""
        return PCIE_LATENCY_MS + self.memory_bytes() / PCIE_BYTES_PER_MS

    def simulated_construction_ms(
        self, threads: int = 12, clock_ghz: float = 3.6,
        cycles_per_entry: float = 18.0,
    ) -> float:
        """Simulated CPU construction cost, on the same clock as the other
        simulated timings.

        ``construction_ms`` measures *Python* wall time, which is orders of
        magnitude slower than the C++ builder the paper times; comparisons
        against simulated sampling times (appendix Figs. 26-28) must use
        this model instead: the builder's work is dominated by the adjacency
        intersections that emit candidate/local entries, charged at
        ``cycles_per_entry`` amortised cycles each.
        """
        entries = len(self.ecand_vertices) + len(self.local_vertices)
        entries += sum(len(c) for c in self.global_candidates)
        cycles = entries * cycles_per_entry
        return cycles / max(1, threads) / (clock_ghz * 1e6)

    def total_local_entries(self) -> int:
        return int(len(self.local_vertices))

    def is_empty(self) -> bool:
        """True when some query vertex has no candidates (count is zero)."""
        return any(len(c) == 0 for c in self.global_candidates)

    def validate(self) -> None:
        """Structural audit: sortedness + soundness checks.

        This is the tests' audit helper; nothing at runtime calls it.  The
        fused kernels' membership search relies on the strict per-list
        sort it checks: their ``(slot << shift) | vertex`` keys are sorted
        only if every local list is.

        Every check runs as a whole-array pass, yet the first violation is
        reported exactly as an entry-by-entry scan would meet it: query
        vertices, then directed edges in id order; within an edge, candidate
        by candidate, a local set's order before its entries' edges.
        """
        labels = self.graph.labels
        for u in range(self.query.n_vertices):
            cand = self.global_candidates[u]
            if len(cand) > 1 and np.any(np.diff(cand) <= 0):
                raise CandidateGraphError(f"C({u}) not strictly sorted")
            if self.label_filtered:
                wrong = np.flatnonzero(labels[cand] != self.query.label(u))
                if len(wrong):
                    raise CandidateGraphError(
                        f"candidate {cand[wrong[0]]} of {u} has wrong label"
                    )
        n_local = len(self.local_vertices)
        for eid, _, _ in self.directed_edges():
            cands = self.candidates_of_edge(eid)
            if len(cands) > 1 and np.any(np.diff(cands) <= 0):
                raise CandidateGraphError(f"edge {eid} candidates not sorted")
            if len(cands) == 0:
                continue
            # Strictly sorted, so candidate i sits in slot lo + i; clip the
            # extents the way slicing ``local_vertices`` would.
            slots = int(self.ecand_offsets[eid]) + np.arange(len(cands) + 1)
            bounds = np.clip(self.local_offsets[slots], 0, n_local)
            starts = bounds[:-1]
            counts = np.maximum(bounds[1:] - starts, 0)
            local = self.local_vertices[flat_ranges(starts, counts)]
            owner = np.repeat(np.arange(len(cands), dtype=np.int64), counts)
            same_row = owner[1:] == owner[:-1]
            unsorted = owner[1:][same_row & (local[1:] <= local[:-1])]
            first_unsorted = unsorted[0] if len(unsorted) else len(cands)
            non_edge = np.flatnonzero(~self.graph.has_edges(cands[owner], local))
            if len(non_edge) and owner[non_edge[0]] < first_unsorted:
                j = non_edge[0]
                raise CandidateGraphError(
                    f"local candidate ({cands[owner[j]]}, {local[j]}) "
                    "is not a data edge"
                )
            if first_unsorted < len(cands):
                raise CandidateGraphError(
                    f"local set of edge {eid}, v={cands[first_unsorted]} "
                    "not sorted"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = "/".join(str(len(c)) for c in self.global_candidates)
        return (
            f"CandidateGraph(query={self.query.name!r}, |C|={sizes}, "
            f"local={self.total_local_entries()})"
        )


def query_fingerprint(query: QueryGraph) -> int:
    """Stable 63-bit fingerprint of a query's *structure* (labels + edges).

    Two queries with the same labelled topology hash identically regardless
    of their ``name``, and the FNV-1a mix avoids ``PYTHONHASHSEED``-dependent
    ``hash()``, so fingerprints are reproducible across processes — the
    property a cross-request plan cache needs.
    """
    acc = 0x362B60EB5A1D9CF3
    tokens: List[object] = [query.labels, tuple(sorted(query.edge_set))]
    for token in tokens:
        for ch in repr(token).encode("utf-8"):
            acc ^= ch
            acc = (acc * 0x100000001B3) & 0x7FFFFFFFFFFFFFFF
    return acc


def plan_key(
    graph: CSRGraph,
    query: QueryGraph,
    order_method: str = "quicksi",
    graph_id: Optional[str] = None,
    **filter_kwargs: object,
) -> Tuple[str, int, Tuple[Tuple[str, object], ...]]:
    """Cache key for a built plan: ``(graph_id, query_hash, build params)``.

    ``graph_id`` defaults to the graph's name plus its size signature *and*
    a content fingerprint: two distinct graphs that share the default
    ``name="graph"`` (and even the same vertex/edge counts) must not collide
    in a cross-request plan cache.  Pass an explicit id to override it.
    """
    if graph_id is None:
        graph_id = (
            f"{graph.name}#{graph.n_vertices}v{graph.n_edges}e"
            f":{graph.content_fingerprint()[:12]}"
        )
    params = tuple(sorted(filter_kwargs.items())) + (("order", order_method),)
    return (graph_id, query_fingerprint(query), params)


def build_candidate_graph(
    graph: CSRGraph,
    query: QueryGraph,
    use_nlf: bool = True,
    refine_passes: int = 2,
    use_degree: bool = True,
    use_label: bool = True,
) -> CandidateGraph:
    """Build the triple-CSR candidate graph for ``query`` on ``graph``.

    Applies the label/degree filter, optionally NLF, then ``refine_passes``
    edge-consistency sweeps before materialising local candidate lists.
    Construction wall time is recorded in ``construction_ms`` (Table 3).
    ``use_degree=False`` (with the other filters off) yields the
    label-adjacency view used to model sampling directly on the data graph.
    """
    start = time.perf_counter()
    # Even in direct-on-data-graph mode seeds come from a label index (any
    # implementation keeps one), so global candidate sets stay
    # label-filtered; only the *local* expansion walks raw adjacency.
    candidates = label_degree_filter(graph, query, use_degree=use_degree)
    if use_nlf:
        candidates = nlf_filter(graph, query, candidates)
    candidates = refine_global_candidates(
        graph, query, candidates, passes=refine_passes
    )

    n_q = query.n_vertices
    q_offsets = np.zeros(n_q + 1, dtype=np.int64)
    q_targets: List[int] = []
    edge_index: Dict[Tuple[int, int], int] = {}
    for u in range(n_q):
        for u_prime in query.neighbors(u):
            edge_index[(u, u_prime)] = len(q_targets)
            q_targets.append(u_prime)
        q_offsets[u + 1] = len(q_targets)

    n_edges = len(q_targets)
    if use_label:
        membership = [membership_mask(graph.n_vertices, c) for c in candidates]
    else:
        membership = [np.ones(graph.n_vertices, dtype=bool)] * n_q

    ecand_offsets = np.zeros(n_edges + 1, dtype=np.int64)
    ecand_chunks: List[np.ndarray] = []
    length_chunks: List[np.ndarray] = []
    local_chunks: List[np.ndarray] = []
    for u in range(n_q):
        lo, hi = int(q_offsets[u]), int(q_offsets[u + 1])
        if lo == hi:
            continue
        source_cands = candidates[u]
        # One flat gather of every source candidate's adjacency, shared by
        # all directed edges out of ``u``: each edge filters it against its
        # target's membership mask and recovers per-candidate local-set
        # lengths by counting kept entries per owner.
        nbrs, owner = gather_adjacency(graph, source_cands)
        for pos in range(lo, hi):
            ecand_chunks.append(source_cands)
            ecand_offsets[pos + 1] = ecand_offsets[pos] + len(source_cands)
            keep = membership[q_targets[pos]][nbrs]
            local_chunks.append(nbrs[keep].astype(np.int64))
            length_chunks.append(
                np.bincount(owner[keep], minlength=len(source_cands))
            )

    ecand_vertices = (
        np.concatenate(ecand_chunks) if ecand_chunks else np.zeros(0, dtype=np.int64)
    ).astype(np.int64)
    local_offsets = np.zeros(len(ecand_vertices) + 1, dtype=np.int64)
    if length_chunks:
        np.cumsum(
            np.concatenate(length_chunks).astype(np.int64),
            out=local_offsets[1:],
        )
    local_vertices = (
        np.concatenate(local_chunks) if local_chunks else np.zeros(0, dtype=np.int64)
    ).astype(np.int64)

    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return CandidateGraph(
        query=query,
        graph=graph,
        q_offsets=q_offsets,
        q_targets=np.asarray(q_targets, dtype=np.int64),
        ecand_offsets=ecand_offsets,
        ecand_vertices=ecand_vertices,
        local_offsets=local_offsets,
        local_vertices=local_vertices,
        global_candidates=candidates,
        construction_ms=elapsed_ms,
        label_filtered=use_label,
        _edge_id=edge_index,
    )
