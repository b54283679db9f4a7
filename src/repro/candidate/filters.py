"""Global candidate-set filters (Definition 4).

Candidate graphs start from per-query-vertex global candidate sets.  We
implement the standard filter stack used by CPU subgraph-matching systems
(and by G-CARE / the paper's candidate-graph preparation):

1. label + degree filter (``C(u) = {v : L(v)=L(u), deg(v) >= deg(u)}``),
2. the NLF (neighbourhood label frequency) filter, and
3. iterative edge-consistency refinement: drop ``v`` from ``C(u)`` when some
   query edge ``(u, u')`` leaves ``v`` with no neighbour in ``C(u')``.

All three are *sound*: they never remove a vertex that participates in an
embedding, which the property tests assert.

Filters 2 and 3 run as whole-candidate-set passes in the style of GSI's
prealloc-combine join: one flat gather of ``C(u)``'s adjacency
(:func:`gather_adjacency`) yields every neighbour plus an *owner* index
naming the candidate it belongs to, and each predicate is then a
``bincount`` over the owners of the neighbours that satisfy it — no
per-candidate Python loop.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.query.query_graph import QueryGraph


def flat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat indices covering the runs ``[starts[i], starts[i]+counts[i])``,
    concatenated in order."""
    bases = np.cumsum(counts) - counts
    return np.arange(int(counts.sum()), dtype=np.int64) + np.repeat(
        starts - bases, counts
    )


def gather_adjacency(
    graph: CSRGraph, vertices: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One flat gather of the adjacency lists of ``vertices``.

    Returns ``(nbrs, owner)``: ``nbrs`` concatenates ``N(vertices[i])`` in
    order (the graph's neighbour dtype) and ``owner[j]`` is the position
    ``i`` whose list ``nbrs[j]`` came from (int64).
    """
    starts = graph.offsets[vertices]
    counts = graph.offsets[vertices + 1] - starts
    owner = np.repeat(np.arange(len(vertices), dtype=np.int64), counts)
    return graph.neighbors[flat_ranges(starts, counts)], owner


def nlf_requirements(query: QueryGraph, u: int) -> Dict[int, int]:
    """Label multiset of ``u``'s query neighbours (what NLF demands)."""
    return dict(Counter(query.label(w) for w in query.neighbors(u)))


def nlf_mask(
    graph: CSRGraph, vertices: np.ndarray, required: Mapping[int, int]
) -> np.ndarray:
    """Batched NLF predicate: ``True`` where the vertex has, for every label
    ``l`` in ``required``, at least ``required[l]`` neighbours labelled ``l``."""
    keep = np.ones(len(vertices), dtype=bool)
    if not required or len(vertices) == 0:
        return keep
    nbrs, owner = gather_adjacency(graph, vertices)
    nbr_labels = graph.labels[nbrs]
    for label, count in required.items():
        hits = np.bincount(owner[nbr_labels == label], minlength=len(vertices))
        keep &= hits >= count
    return keep


def edge_consistent_mask(
    graph: CSRGraph, vertices: np.ndarray, targets: Sequence[np.ndarray]
) -> np.ndarray:
    """Batched edge-consistency predicate: ``True`` where the vertex has at
    least one neighbour inside every membership mask in ``targets``."""
    keep = np.ones(len(vertices), dtype=bool)
    if not targets or len(vertices) == 0:
        return keep
    nbrs, owner = gather_adjacency(graph, vertices)
    for target in targets:
        keep &= np.bincount(owner[target[nbrs]], minlength=len(vertices)) > 0
    return keep


def membership_mask(n: int, members: np.ndarray) -> np.ndarray:
    """Dense boolean membership vector of ``members`` over ``n`` vertices."""
    mask = np.zeros(n, dtype=bool)
    mask[members] = True
    return mask


def label_degree_filter(
    graph: CSRGraph,
    query: QueryGraph,
    use_degree: bool = True,
    use_label: bool = True,
) -> List[np.ndarray]:
    """Per-query-vertex candidates by label equality and degree dominance.

    ``use_degree=False`` skips the degree filter; ``use_label=False`` skips
    even the label filter, yielding raw-adjacency candidate sets — the view
    of sampling *directly on the data graph* (appendix Figs. 26-28), where
    labels must be checked on the fly by the estimator instead.
    """
    degrees = graph.degrees
    candidates: List[np.ndarray] = []
    for u in range(query.n_vertices):
        if use_label:
            pool = graph.vertices_with_label(query.label(u))
        else:
            pool = np.arange(graph.n_vertices, dtype=np.int64)
        if len(pool) == 0:
            candidates.append(np.zeros(0, dtype=np.int64))
            continue
        if use_degree:
            pool = pool[degrees[pool] >= query.degree(u)]
        candidates.append(np.sort(pool).astype(np.int64))
    return candidates


def nlf_filter(
    graph: CSRGraph, query: QueryGraph, candidates: List[np.ndarray]
) -> List[np.ndarray]:
    """Neighbourhood-label-frequency filter.

    ``v`` survives in ``C(u)`` only if, for every label ``l`` appearing among
    ``u``'s query neighbours, ``v`` has at least as many data neighbours with
    label ``l``.
    """
    refined: List[np.ndarray] = []
    for u in range(query.n_vertices):
        required = nlf_requirements(query, u)
        if not required:
            refined.append(candidates[u].copy())
            continue
        cand = candidates[u]
        keep = nlf_mask(graph, cand, required)
        refined.append(np.asarray(cand[keep], dtype=np.int64))
    return refined


def refine_sweep(
    graph: CSRGraph, query: QueryGraph, current: List[np.ndarray]
) -> List[np.ndarray]:
    """One edge-consistency sweep as a pure function of ``current``.

    Membership masks are frozen at sweep start, so removals made during the
    sweep never feed back into the sweep's own predicates.
    """
    masks = [membership_mask(graph.n_vertices, c) for c in current]
    swept = []
    for u, cand in enumerate(current):
        targets = [masks[w] for w in query.neighbors(u)]
        swept.append(cand[edge_consistent_mask(graph, cand, targets)])
    return swept


def refine_global_candidates(
    graph: CSRGraph,
    query: QueryGraph,
    candidates: List[np.ndarray],
    passes: int = 2,
) -> List[np.ndarray]:
    """Iterative edge-consistency pruning (semi-join reduction).

    Repeats up to ``passes`` sweeps or until a fixpoint: for every query edge
    ``(u, u')``, a candidate ``v`` of ``u`` must have at least one data
    neighbour inside ``C(u')``.
    """
    current = [c.copy() for c in candidates]
    for _ in range(max(0, passes)):
        swept = refine_sweep(graph, query, current)
        changed = any(len(a) != len(b) for a, b in zip(swept, current))
        current = swept
        if not changed:
            break
    return current
