"""Incremental candidate-graph maintenance over graph deltas.

:func:`~repro.candidate.candidate_graph.build_candidate_graph` is a pipeline
of four stages, and every stage is a *pure per-pass function* of its input
candidate sets and the data graph:

1. label/degree filter — membership of ``v`` depends only on ``label(v)`` and
   ``deg(v)``, so an edge delta can change it only at the delta's endpoints;
2. NLF filter — the predicate reads only ``v``'s own adjacency labels, so
   again only endpoints (plus vertices newly admitted by stage 1) can flip;
3. edge-consistency refinement — each sweep computes membership masks *once*
   at sweep start (see ``refine_sweep``), making the sweep a pure
   function ``F``; its early fixpoint break is equivalent to running all
   ``passes`` sweeps because ``F`` is idempotent at a fixpoint.  A sweep's
   verdict for ``v`` can change only if ``v``'s adjacency changed, ``v``'s
   input membership changed, or the input set of some query-neighbour changed
   at a data-vertex adjacent to ``v`` — the *dirty frontier*;
4. CSR materialisation — the local list of slot ``(e=(u→u'), v)`` is
   ``N(v) ∩ C(u')``; it is byte-stable unless ``v`` is an endpoint, ``v`` is
   new under ``e``, or ``C(u')`` changed at a neighbour of ``v``.

:class:`DeltaPlanMaintainer` exploits this: it caches every stage's output,
re-evaluates predicates only on each stage's dirty frontier, copies all clean
CSR rows from the previous plan with vectorised gathers, and therefore
produces a candidate graph **bit-identical** to a full rebuild on the new
snapshot (asserted by ``tests/test_dyn_equivalence.py`` and the perf-smoke
gate) at a cost proportional to the delta's neighbourhood, not the graph.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.candidate.candidate_graph import CandidateGraph, build_candidate_graph
from repro.candidate.filters import (
    edge_consistent_mask,
    flat_ranges,
    gather_adjacency,
    label_degree_filter,
    membership_mask,
    nlf_filter,
    nlf_mask,
    nlf_requirements,
    refine_sweep,
)
from repro.dyn.mutable import MutableGraph
from repro.errors import CandidateGraphError
from repro.graph.csr import CSRGraph
from repro.query.query_graph import QueryGraph


@dataclass(frozen=True)
class RefreshStats:
    """Accounting for one :meth:`DeltaPlanMaintainer.refresh` call."""

    from_version: int
    to_version: int
    n_added: int
    n_removed: int
    rows_total: int  # (edge, candidate) slots in the refreshed CSR 3
    rows_touched: int  # slots recomputed (the rest were copied)
    refresh_ms: float
    validated: bool

    @property
    def touched_fraction(self) -> float:
        if self.rows_total == 0:
            return 0.0
        return self.rows_touched / self.rows_total

    @property
    def is_noop(self) -> bool:
        return self.from_version == self.to_version


def candidate_graphs_equal(a: CandidateGraph, b: CandidateGraph) -> bool:
    """Array-level equality of two candidate graphs (the bit-identity check).

    Compares every CSR array and every global candidate set; ignores
    timings and the host-side edge-id dict (derived data).
    """
    pairs = (
        (a.q_offsets, b.q_offsets),
        (a.q_targets, b.q_targets),
        (a.ecand_offsets, b.ecand_offsets),
        (a.ecand_vertices, b.ecand_vertices),
        (a.local_offsets, b.local_offsets),
        (a.local_vertices, b.local_vertices),
    )
    for x, y in pairs:
        if x.dtype != y.dtype or not np.array_equal(x, y):
            return False
    if len(a.global_candidates) != len(b.global_candidates):
        return False
    for x, y in zip(a.global_candidates, b.global_candidates):
        if not np.array_equal(x, y):
            return False
    return True


class DeltaPlanMaintainer:
    """Keeps a :class:`CandidateGraph` in sync with a :class:`MutableGraph`.

    Construction performs one full build (and snapshots every filter stage's
    output); each :meth:`refresh` replays the deltas applied since the last
    sync through the stage pipeline, touching only dirty rows.
    """

    def __init__(
        self,
        graph: MutableGraph,
        query: QueryGraph,
        *,
        use_nlf: bool = True,
        refine_passes: int = 2,
        use_degree: bool = True,
        use_label: bool = True,
        validate_after_refresh: bool = True,
    ) -> None:
        self.graph = graph
        self.query = query
        self.use_nlf = use_nlf
        self.refine_passes = max(0, refine_passes)
        self.use_degree = use_degree
        self.use_label = use_label
        self.validate_after_refresh = validate_after_refresh
        self.version = graph.version
        self.last_stats: Optional[RefreshStats] = None

        # Per-query-vertex NLF requirements are static (query never mutates).
        self._nlf_required = [
            nlf_requirements(query, u) for u in range(query.n_vertices)
        ]

        snap = graph.snapshot()
        self.cg = build_candidate_graph(
            snap,
            query,
            use_nlf=use_nlf,
            refine_passes=refine_passes,
            use_degree=use_degree,
            use_label=use_label,
        )
        self._states = self._full_states(snap)

    # ------------------------------------------------------------------
    # Full-pipeline state capture (init / resync)
    # ------------------------------------------------------------------
    def _full_states(self, snap: CSRGraph) -> List[List[np.ndarray]]:
        states: List[List[np.ndarray]] = []
        current = label_degree_filter(snap, self.query, use_degree=self.use_degree)
        states.append(current)
        if self.use_nlf:
            current = nlf_filter(snap, self.query, current)
            states.append(current)
        for _ in range(self.refine_passes):
            current = refine_sweep(snap, self.query, current)
            states.append(current)
        return states

    # ------------------------------------------------------------------
    # Incremental stage updates
    # ------------------------------------------------------------------
    def _update_label_degree(
        self, snap: CSRGraph, old0: List[np.ndarray], endpoints: np.ndarray
    ) -> List[np.ndarray]:
        if not self.use_degree:
            # Labels are immutable, so without the degree predicate the
            # stage-1 sets can never change.
            return [c.copy() for c in old0]
        degrees = np.diff(snap.offsets)
        out: List[np.ndarray] = []
        for u in range(self.query.n_vertices):
            qdeg = self.query.degree(u)
            eps = endpoints[snap.labels[endpoints] == self.query.label(u)]
            arr = old0[u]
            if len(eps) == 0:
                out.append(arr.copy())
                continue
            present = np.isin(eps, arr)
            should = degrees[eps] >= qdeg
            to_add = eps[should & ~present]
            to_del = eps[~should & present]
            if len(to_del):
                arr = arr[~np.isin(arr, to_del)]
            if len(to_add):
                arr = np.sort(np.concatenate([arr, to_add.astype(np.int64)]))
            out.append(np.ascontiguousarray(arr, dtype=np.int64))
        return out

    def _update_nlf(
        self,
        snap: CSRGraph,
        old_in: List[np.ndarray],
        new_in: List[np.ndarray],
        old_out: List[np.ndarray],
        ep_mask: np.ndarray,
    ) -> List[np.ndarray]:
        n = snap.n_vertices
        out: List[np.ndarray] = []
        for u in range(self.query.n_vertices):
            base = new_in[u]
            if not self._nlf_required[u]:
                out.append(base.copy())
                continue
            if len(base) == 0:
                out.append(base.copy())
                continue
            in_old = membership_mask(n, old_in[u])
            was_kept = membership_mask(n, old_out[u])
            clean = in_old[base] & ~ep_mask[base]
            keep = np.empty(len(base), dtype=bool)
            keep[clean] = was_kept[base[clean]]
            keep[~clean] = nlf_mask(snap, base[~clean], self._nlf_required[u])
            out.append(base[keep])
        return out

    def _update_refine_pass(
        self,
        snap: CSRGraph,
        old_in: List[np.ndarray],
        new_in: List[np.ndarray],
        old_out: List[np.ndarray],
        ep_mask: np.ndarray,
    ) -> List[np.ndarray]:
        """Incremental sweep: evaluate only the dirty frontier.

        A vertex is dirty when its adjacency changed (endpoint), its own
        input membership changed anywhere, or it neighbours a vertex whose
        input membership changed — a sound superset of everything whose
        sweep verdict can differ from last time.
        """
        n = snap.n_vertices
        nq = self.query.n_vertices
        masks = [membership_mask(n, new_in[u]) for u in range(nq)]
        old_masks = [membership_mask(n, old_in[u]) for u in range(nq)]
        # Input-membership changes, found by mask XOR (no sorting needed).
        delta_any = np.zeros(n, dtype=bool)
        for u in range(nq):
            delta_any |= masks[u] ^ old_masks[u]
        dirty = ep_mask.copy()
        delta_all = np.flatnonzero(delta_any)
        dirty[delta_all] = True
        dirty[gather_adjacency(snap, delta_all)[0]] = True
        out: List[np.ndarray] = []
        for u in range(nq):
            base = new_in[u]
            if len(base) == 0:
                out.append(base.copy())
                continue
            was_kept = membership_mask(n, old_out[u])
            clean = old_masks[u][base] & ~dirty[base]
            keep = np.empty(len(base), dtype=bool)
            keep[clean] = was_kept[base[clean]]
            keep[~clean] = edge_consistent_mask(
                snap, base[~clean], [masks[w] for w in self.query.neighbors(u)]
            )
            out.append(base[keep])
        return out

    # ------------------------------------------------------------------
    # CSR materialisation (copy clean rows, rebuild dirty rows)
    # ------------------------------------------------------------------
    def _materialize(
        self,
        snap: CSRGraph,
        old_cg: CandidateGraph,
        old_final: List[np.ndarray],
        new_final: List[np.ndarray],
        ep_mask: np.ndarray,
    ) -> Tuple[CandidateGraph, int, int]:
        query = self.query
        n = snap.n_vertices
        nq = query.n_vertices

        q_offsets = np.zeros(nq + 1, dtype=np.int64)
        q_targets: List[int] = []
        edge_index: Dict[Tuple[int, int], int] = {}
        for u in range(nq):
            for u_prime in query.neighbors(u):
                edge_index[(u, u_prime)] = len(q_targets)
                q_targets.append(u_prime)
            q_offsets[u + 1] = len(q_targets)
        n_edges = len(q_targets)

        if self.use_label:
            membership = [membership_mask(n, new_final[u]) for u in range(nq)]
            affected: List[np.ndarray] = []
            for u in range(nq):
                delta = np.flatnonzero(
                    membership[u] ^ membership_mask(n, old_final[u])
                )
                mask = np.zeros(n, dtype=bool)
                mask[gather_adjacency(snap, delta)[0]] = True
                affected.append(mask)
        else:
            membership = [np.ones(n, dtype=bool) for _ in range(nq)]
            affected = [np.zeros(n, dtype=bool) for _ in range(nq)]

        ecand_offsets = np.zeros(n_edges + 1, dtype=np.int64)
        ecand_chunks: List[np.ndarray] = []
        length_chunks: List[np.ndarray] = []
        local_chunks: List[np.ndarray] = []
        rows_total = 0
        rows_touched = 0
        for u in range(nq):
            for pos in range(int(q_offsets[u]), int(q_offsets[u + 1])):
                u_prime = q_targets[pos]
                src_new = new_final[u]
                src_old = old_final[u]
                ecand_chunks.append(src_new)
                ecand_offsets[pos + 1] = ecand_offsets[pos] + len(src_new)
                rows_total += len(src_new)
                if len(src_new) == 0:
                    length_chunks.append(np.zeros(0, dtype=np.int64))
                    local_chunks.append(np.zeros(0, dtype=np.int64))
                    continue
                in_old_src = membership_mask(n, src_old)
                dirty = (
                    ep_mask[src_new]
                    | affected[u_prime][src_new]
                    | ~in_old_src[src_new]
                )
                rows_touched += int(dirty.sum())
                clean_pos = np.flatnonzero(~dirty)
                dirty_pos = np.flatnonzero(dirty)

                # Clean rows: locate the old CSR slot and lift its extent.
                clean_cands = src_new[clean_pos]
                old_slots = int(old_cg.ecand_offsets[pos]) + np.searchsorted(
                    src_old, clean_cands
                )
                old_starts = old_cg.local_offsets[old_slots]
                old_counts = old_cg.local_offsets[old_slots + 1] - old_starts

                # Dirty rows: same flat gather as the full builder.
                nbrs, owner = gather_adjacency(snap, src_new[dirty_pos])
                keep = membership[u_prime][nbrs]
                dirty_vals = nbrs[keep].astype(np.int64)
                dirty_counts = np.bincount(owner[keep], minlength=len(dirty_pos))

                lengths = np.zeros(len(src_new), dtype=np.int64)
                lengths[clean_pos] = old_counts
                lengths[dirty_pos] = dirty_counts
                dst = np.zeros(len(src_new) + 1, dtype=np.int64)
                np.cumsum(lengths, out=dst[1:])
                edge_local = np.empty(int(dst[-1]), dtype=np.int64)
                if len(clean_pos):
                    src_idx = flat_ranges(old_starts, old_counts)
                    dst_idx = flat_ranges(dst[clean_pos], old_counts)
                    edge_local[dst_idx] = old_cg.local_vertices[src_idx]
                if len(dirty_pos):
                    dst_idx = flat_ranges(dst[dirty_pos], dirty_counts)
                    edge_local[dst_idx] = dirty_vals
                length_chunks.append(lengths)
                local_chunks.append(edge_local)

        ecand_vertices = (
            np.concatenate(ecand_chunks)
            if ecand_chunks
            else np.zeros(0, dtype=np.int64)
        ).astype(np.int64)
        local_offsets = np.zeros(len(ecand_vertices) + 1, dtype=np.int64)
        if length_chunks:
            np.cumsum(
                np.concatenate(length_chunks).astype(np.int64),
                out=local_offsets[1:],
            )
        local_vertices = (
            np.concatenate(local_chunks)
            if local_chunks
            else np.zeros(0, dtype=np.int64)
        ).astype(np.int64)

        cg = CandidateGraph(
            query=query,
            graph=snap,
            q_offsets=q_offsets,
            q_targets=np.asarray(q_targets, dtype=np.int64),
            ecand_offsets=ecand_offsets,
            ecand_vertices=ecand_vertices,
            local_offsets=local_offsets,
            local_vertices=local_vertices,
            global_candidates=new_final,
            construction_ms=0.0,
            label_filtered=self.use_label,
            _edge_id=edge_index,
        )
        return cg, rows_total, rows_touched

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def refresh(self) -> RefreshStats:
        """Catch up with every delta applied since the last sync.

        Returns accounting (and stores it in ``last_stats``).  When
        ``validate_after_refresh`` is set, runs the refreshed graph through
        :meth:`CandidateGraph.validate` — a structural audit that raises
        :class:`CandidateGraphError` on any inconsistency.
        """
        start = time.perf_counter()
        target = self.graph.version
        from_version = self.version
        if target == self.version:
            stats = RefreshStats(
                from_version=self.version,
                to_version=self.version,
                n_added=0,
                n_removed=0,
                rows_total=int(len(self.cg.ecand_vertices)),
                rows_touched=0,
                refresh_ms=0.0,
                validated=False,
            )
            self.last_stats = stats
            return stats
        deltas = self.graph.deltas_since(self.version)
        snap = self.graph.snapshot()
        n_added = sum(len(d.added) for d in deltas)
        n_removed = sum(len(d.removed) for d in deltas)
        ep_chunks = [d.endpoints() for d in deltas if not d.is_empty]
        endpoints = (
            np.unique(np.concatenate(ep_chunks))
            if ep_chunks
            else np.zeros(0, dtype=np.int64)
        )
        ep_mask = membership_mask(snap.n_vertices, endpoints)

        old_states = self._states
        new_states: List[List[np.ndarray]] = []
        idx = 0
        current = self._update_label_degree(snap, old_states[idx], endpoints)
        new_states.append(current)
        if self.use_nlf:
            idx += 1
            current = self._update_nlf(
                snap, old_states[idx - 1], current, old_states[idx], ep_mask
            )
            new_states.append(current)
        for _ in range(self.refine_passes):
            idx += 1
            current = self._update_refine_pass(
                snap, old_states[idx - 1], current, old_states[idx], ep_mask
            )
            new_states.append(current)

        new_cg, rows_total, rows_touched = self._materialize(
            snap, self.cg, old_states[-1], current, ep_mask
        )
        self.cg = new_cg
        self._states = new_states
        self.version = target

        validated = False
        if self.validate_after_refresh:
            self.cg.validate()
            validated = True
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self.cg.construction_ms = elapsed_ms
        stats = RefreshStats(
            from_version=from_version,
            to_version=target,
            n_added=n_added,
            n_removed=n_removed,
            rows_total=rows_total,
            rows_touched=rows_touched,
            refresh_ms=elapsed_ms,
            validated=validated,
        )
        self.last_stats = stats
        return stats

    def rebuild(self) -> CandidateGraph:
        """Full from-scratch rebuild on the current snapshot (reference path).

        Used by equivalence tests and the benchmark's speedup baseline; also
        resynchronises the maintainer's cached stage states.
        """
        snap = self.graph.snapshot()
        self.cg = build_candidate_graph(
            snap,
            self.query,
            use_nlf=self.use_nlf,
            refine_passes=self.refine_passes,
            use_degree=self.use_degree,
            use_label=self.use_label,
        )
        self._states = self._full_states(snap)
        self.version = self.graph.version
        return self.cg

    def check_against_rebuild(self) -> bool:
        """Bit-identity probe: does the maintained plan equal a fresh build?"""
        reference = build_candidate_graph(
            self.graph.snapshot(),
            self.query,
            use_nlf=self.use_nlf,
            refine_passes=self.refine_passes,
            use_degree=self.use_degree,
            use_label=self.use_label,
        )
        return candidate_graphs_equal(self.cg, reference)

    def assert_synced(self) -> None:
        if self.version != self.graph.version:
            raise CandidateGraphError(
                f"maintainer at v{self.version} behind graph "
                f"v{self.graph.version}; call refresh()"
            )
