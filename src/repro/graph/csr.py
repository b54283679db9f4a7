"""Immutable CSR (compressed sparse row) data graph.

The data graph is the substrate every other component builds on: candidate
graph construction intersects CSR adjacency lists, the RW estimators walk
them, and exact enumeration probes edges.  Adjacency lists are stored sorted
so edge lookups are ``O(log deg)`` binary searches and set intersections are
linear merges — the same layout CUDA implementations use for coalesced
neighbour scans.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from repro.errors import GraphError

VertexId = int
Label = int


@dataclass(frozen=True)
class CSRGraph:
    """An undirected, vertex-labelled graph in CSR form.

    Attributes:
        offsets: ``int64[n_vertices + 1]`` — adjacency list boundaries.
        neighbors: ``int32[2 * n_edges]`` — concatenated sorted adjacency.
        labels: ``int32[n_vertices]`` — vertex labels in ``[0, n_labels)``.
        name: optional human-readable dataset name.
    """

    offsets: np.ndarray
    neighbors: np.ndarray
    labels: np.ndarray
    name: str = "graph"
    _label_index: Dict[int, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )
    _fingerprint_cache: Dict[str, str] = field(
        default_factory=dict, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        if self.offsets.ndim != 1 or self.neighbors.ndim != 1 or self.labels.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if len(self.offsets) != len(self.labels) + 1:
            raise GraphError(
                f"offsets length {len(self.offsets)} != n_vertices+1 "
                f"({len(self.labels) + 1})"
            )
        if self.offsets[0] != 0 or self.offsets[-1] != len(self.neighbors):
            raise GraphError("offsets must start at 0 and end at len(neighbors)")
        if np.any(np.diff(self.offsets) < 0):
            raise GraphError("offsets must be non-decreasing")

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges."""
        return len(self.neighbors) // 2

    @property
    def n_labels(self) -> int:
        if len(self.labels) == 0:
            return 0
        return int(self.labels.max()) + 1

    def degree(self, v: VertexId) -> int:
        return int(self.offsets[v + 1] - self.offsets[v])

    @property
    def degrees(self) -> np.ndarray:
        """``int64[n_vertices]`` vector of vertex degrees."""
        return np.diff(self.offsets)

    @property
    def avg_degree(self) -> float:
        if self.n_vertices == 0:
            return 0.0
        return len(self.neighbors) / self.n_vertices

    @property
    def max_degree(self) -> int:
        if self.n_vertices == 0:
            return 0
        return int(self.degrees.max())

    def neighbors_of(self, v: VertexId) -> np.ndarray:
        """Sorted neighbour array of ``v`` (a zero-copy CSR slice)."""
        return self.neighbors[self.offsets[v] : self.offsets[v + 1]]

    def label(self, v: VertexId) -> Label:
        return int(self.labels[v])

    def has_edge(self, u: VertexId, v: VertexId) -> bool:
        """Edge membership via binary search over the shorter adjacency list."""
        if self.degree(u) > self.degree(v):
            u, v = v, u
        adj = self.neighbors_of(u)
        pos = int(np.searchsorted(adj, v))
        return pos < len(adj) and int(adj[pos]) == v

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched :meth:`has_edge`: ``bool`` array, one verdict per pair.

        Each pair probes the shorter of its two adjacency lists, as the
        scalar method does, with one ``searchsorted`` over the sorted
        ``row * n + neighbour`` key of every adjacency entry.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        degrees = self.degrees
        swap = degrees[us] > degrees[vs]
        rows = np.where(swap, vs, us)
        probes = np.where(swap, us, vs)
        if len(self.neighbors) == 0:
            return np.zeros(len(rows), dtype=bool)
        n = self.n_vertices
        keys = np.repeat(np.arange(n, dtype=np.int64), degrees) * n
        keys += self.neighbors
        wanted = rows * n + probes
        pos = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
        return keys[pos] == wanted

    def vertices_with_label(self, label: Label) -> np.ndarray:
        """All vertices carrying ``label`` (cached per label)."""
        cached = self._label_index.get(label)
        if cached is None:
            cached = np.flatnonzero(self.labels == label).astype(np.int64)
            self._label_index[label] = cached
        return cached

    def content_fingerprint(self) -> str:
        """Stable hex digest of the graph's *content* (structure + labels).

        Two graphs hash identically iff their CSR arrays and labels are
        byte-identical, regardless of ``name`` — the identity a cross-request
        plan cache needs when callers reuse the default graph name.  The
        digest is memoized per instance (the arrays are immutable by
        contract), so repeated cache-key construction is O(1) after the
        first call.
        """
        cached = self._fingerprint_cache.get("content")
        if cached is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(b"csr-v1")
            digest.update(self.n_vertices.to_bytes(8, "little"))
            for array in (self.offsets, self.neighbors, self.labels):
                digest.update(np.ascontiguousarray(array).tobytes())
            cached = digest.hexdigest()
            self._fingerprint_cache["content"] = cached
        return cached

    def edges(self) -> Iterator[Tuple[VertexId, VertexId]]:
        """Iterate each undirected edge once as ``(u, v)`` with ``u < v``."""
        for u in range(self.n_vertices):
            for v in self.neighbors_of(u):
                if u < int(v):
                    yield u, int(v)

    # ------------------------------------------------------------------
    # Derived metrics used by dataset profiling & tests
    # ------------------------------------------------------------------
    def label_histogram(self) -> np.ndarray:
        """Counts of each label value, length ``n_labels``."""
        if self.n_vertices == 0:
            return np.zeros(0, dtype=np.int64)
        return np.bincount(self.labels, minlength=self.n_labels).astype(np.int64)

    def subgraph_induced(self, vertex_ids: Sequence[VertexId]) -> "CSRGraph":
        """Induced subgraph on ``vertex_ids`` with vertices renumbered 0..k-1."""
        idmap = {int(v): i for i, v in enumerate(vertex_ids)}
        if len(idmap) != len(vertex_ids):
            raise GraphError("duplicate vertices in induced subgraph request")
        adjacency = [[] for _ in range(len(vertex_ids))]
        for old, new in idmap.items():
            for w in self.neighbors_of(old):
                mapped = idmap.get(int(w))
                if mapped is not None:
                    adjacency[new].append(mapped)
        offsets = np.zeros(len(vertex_ids) + 1, dtype=np.int64)
        flat = []
        for i, adj in enumerate(adjacency):
            adj.sort()
            flat.extend(adj)
            offsets[i + 1] = len(flat)
        labels = np.array([self.labels[v] for v in vertex_ids], dtype=np.int32)
        return CSRGraph(
            offsets=offsets,
            neighbors=np.array(flat, dtype=np.int32),
            labels=labels,
            name=f"{self.name}.induced",
        )

    def is_connected(self) -> bool:
        """BFS connectivity check (used to validate extracted queries)."""
        n = self.n_vertices
        if n <= 1:
            return True
        seen = np.zeros(n, dtype=bool)
        stack = [0]
        seen[0] = True
        visited = 1
        while stack:
            v = stack.pop()
            for w in self.neighbors_of(v):
                w = int(w)
                if not seen[w]:
                    seen[w] = True
                    visited += 1
                    stack.append(w)
        return visited == n

    def validate(self) -> None:
        """Full structural audit: sortedness, symmetry, no loops or dupes.

        O(m log m); intended for tests and after deserialisation, not on the
        hot path.
        """
        for v in range(self.n_vertices):
            adj = self.neighbors_of(v)
            if len(adj) == 0:
                continue
            if np.any(np.diff(adj) <= 0):
                raise GraphError(f"adjacency of vertex {v} not strictly sorted")
            if np.any(adj == v):
                raise GraphError(f"self-loop at vertex {v}")
            if adj.min() < 0 or adj.max() >= self.n_vertices:
                raise GraphError(f"neighbour of vertex {v} out of range")
        for u, v in self.edges():
            if not self.has_edge(v, u):
                raise GraphError(f"asymmetric edge ({u}, {v})")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.n_vertices}, "
            f"|E|={self.n_edges}, d={self.avg_degree:.2f}, L={self.n_labels})"
        )


def empty_graph(n_vertices: int = 0, n_labels: int = 1) -> CSRGraph:
    """An edgeless graph, mainly for tests and degenerate cases."""
    labels = np.zeros(n_vertices, dtype=np.int32)
    if n_labels > 1 and n_vertices:
        labels = (np.arange(n_vertices) % n_labels).astype(np.int32)
    return CSRGraph(
        offsets=np.zeros(n_vertices + 1, dtype=np.int64),
        neighbors=np.zeros(0, dtype=np.int32),
        labels=labels,
        name="empty",
    )
