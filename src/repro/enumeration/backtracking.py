"""Exact subgraph enumeration by candidate-graph backtracking.

This is the CPU-side enumeration substrate the paper relies on twice:

* computing ground-truth counts for q-error evaluation (§6.4), and
* extending trawled partial instances during CPU–GPU co-processing (§5),
  where it is invoked with a partial instance and returns the number of full
  embeddings extending it (the ``Enumeration(cg, s)`` call of Alg. 4).

The algorithm is QuickSI-style backtracking over the candidate graph: at
depth ``i`` it scans the smallest backward local candidate set and verifies
remaining backward edges directly against the data graph.  Budgets (node
visits, wall-clock deadline, count cap) make it safe to call from the
co-processing pipeline where enumeration must be interruptible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph
from repro.query.matching_order import MatchingOrder

#: How often (in visited nodes) the deadline is polled.
_DEADLINE_POLL = 256


@dataclass(frozen=True)
class EnumerationResult:
    """Outcome of an enumeration call.

    Attributes:
        count: embeddings found (complete iff ``complete``).
        complete: False when a budget stopped the search early.
        nodes_visited: size of the explored search tree (work measure; the
            co-processing pipeline uses it as the CPU cost of the task).
        elapsed_ms: wall-clock time spent.
    """

    count: int
    complete: bool
    nodes_visited: int
    elapsed_ms: float


def _smallest_backward_local(
    cg: CandidateGraph,
    order: MatchingOrder,
    instance: Sequence[int],
    depth: int,
) -> Tuple[np.ndarray, List[int]]:
    """Pick the backward edge with the smallest local candidate set.

    Returns ``(candidates, other_backward_positions)`` where the remaining
    positions still need explicit edge verification.
    """
    u = order.order[depth]
    backs = order.backward[depth]
    best: Optional[np.ndarray] = None
    best_pos = -1
    for j in backs:
        u_b = order.order[j]
        eid = cg.edge_id(u_b, u)
        local = cg.local_candidates(eid, instance[j])
        if best is None or len(local) < len(best):
            best, best_pos = local, j
            if len(local) == 0:
                break
    others = [j for j in backs if j != best_pos]
    assert best is not None
    return best, others


def count_embeddings(
    cg: CandidateGraph,
    order: MatchingOrder,
    partial: Optional[Sequence[int]] = None,
    max_count: Optional[int] = None,
    max_nodes: Optional[int] = None,
    deadline_s: Optional[float] = None,
) -> EnumerationResult:
    """Count embeddings of the query, optionally extending ``partial``.

    ``partial`` maps order positions ``0..len(partial)-1`` to data vertices
    (a partial instance per Definition 3).  Budgets:

    * ``max_count`` — stop after this many embeddings (``complete=False``);
    * ``max_nodes`` — stop after visiting this many search nodes;
    * ``deadline_s`` — wall-clock budget in seconds.
    """
    start = time.perf_counter()
    n = len(order)
    prefix = list(partial) if partial is not None else []
    if len(prefix) > n:
        raise ValueError("partial instance longer than the matching order")
    graph = cg.graph
    count = 0
    nodes = 0
    complete = True

    if len(prefix) == n:
        elapsed = (time.perf_counter() - start) * 1000.0
        return EnumerationResult(1, True, 0, elapsed)

    instance: List[int] = prefix + [-1] * (n - len(prefix))
    used = set(prefix)
    if len(used) != len(prefix):
        # A partial instance with repeated vertices extends to nothing.
        elapsed = (time.perf_counter() - start) * 1000.0
        return EnumerationResult(0, True, 0, elapsed)

    # Iterative DFS with explicit candidate cursors per depth.
    depth = len(prefix)
    if depth == 0:
        root_candidates = cg.global_candidates[order.order[0]]
        frames: List[Tuple[np.ndarray, List[int], int]] = [
            (root_candidates, [], 0)
        ]
    else:
        cand, others = _smallest_backward_local(cg, order, instance, depth)
        frames = [(cand, others, 0)]

    deadline_check = _DEADLINE_POLL
    while frames:
        cand, others, cursor = frames[-1]
        current_depth = len(prefix) + len(frames) - 1
        advanced = False
        while cursor < len(cand):
            v = int(cand[cursor])
            cursor += 1
            nodes += 1
            deadline_check -= 1
            if deadline_check <= 0:
                deadline_check = _DEADLINE_POLL
                if deadline_s is not None and time.perf_counter() - start > deadline_s:
                    complete = False
                    frames.clear()
                    break
            if max_nodes is not None and nodes > max_nodes:
                complete = False
                frames.clear()
                break
            if v in used:
                continue
            ok = True
            for j in others:
                if not graph.has_edge(instance[j], v):
                    ok = False
                    break
            if not ok:
                continue
            instance[current_depth] = v
            if current_depth == n - 1:
                count += 1
                if max_count is not None and count >= max_count:
                    complete = False
                    frames.clear()
                    break
                continue
            # Descend.
            frames[-1] = (cand, others, cursor)
            used.add(v)
            nxt_cand, nxt_others = _smallest_backward_local(
                cg, order, instance, current_depth + 1
            )
            frames.append((nxt_cand, nxt_others, 0))
            advanced = True
            break
        if not frames:
            break
        if not advanced:
            if cursor >= len(cand):
                frames.pop()
                if frames:
                    done_depth = len(prefix) + len(frames) - 1
                    used.discard(instance[done_depth])
            else:
                frames[-1] = (cand, others, cursor)

    elapsed = (time.perf_counter() - start) * 1000.0
    return EnumerationResult(count, complete, nodes, elapsed)


def count_extensions(
    cg: CandidateGraph,
    order: MatchingOrder,
    partial: Sequence[int],
    max_nodes: Optional[int] = None,
) -> EnumerationResult:
    """Alg. 4's ``Enumeration(cg, s)``: full embeddings extending ``partial``."""
    return count_embeddings(cg, order, partial=partial, max_nodes=max_nodes)


def enumerate_embeddings(
    cg: CandidateGraph,
    order: MatchingOrder,
    limit: Optional[int] = None,
) -> Iterator[Tuple[int, ...]]:
    """Yield embeddings as tuples indexed by *query vertex* (not order
    position).  Primarily for tests and small examples — counting should use
    :func:`count_embeddings`, which avoids materialising instances.
    """
    n = len(order)
    graph = cg.graph
    instance: List[int] = [-1] * n
    used = set()
    yielded = 0

    def dfs(depth: int) -> Iterator[Tuple[int, ...]]:
        nonlocal yielded
        if depth == n:
            by_query_vertex = [0] * n
            for pos, u in enumerate(order.order):
                by_query_vertex[u] = instance[pos]
            yield tuple(by_query_vertex)
            yielded += 1
            return
        if depth == 0:
            cand = cg.global_candidates[order.order[0]]
            others: List[int] = []
        else:
            cand, others = _smallest_backward_local(cg, order, instance, depth)
        for v in cand:
            v = int(v)
            if v in used:
                continue
            if any(not graph.has_edge(instance[j], v) for j in others):
                continue
            instance[depth] = v
            used.add(v)
            yield from dfs(depth + 1)
            used.discard(v)
            if limit is not None and yielded >= limit:
                return

    yield from dfs(0)
