"""Batched candidate build ≡ the per-vertex scalar reference.

``nlf_filter``, ``refine_global_candidates`` and the CSR materialisation
in ``build_candidate_graph`` run as whole-candidate-set passes over one
flat adjacency gather per query vertex, and ``CandidateGraph.validate``
audits whole arrays at once.  This module keeps the per-vertex loops they
replaced as oracles and requires the batched code to agree exactly: every
candidate-graph array equal with its dtype, and ``validate`` raising the
same first violation with the same message.
"""

import dataclasses
import itertools
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.candidate.candidate_graph import CandidateGraph, build_candidate_graph
from repro.candidate.filters import (
    label_degree_filter,
    nlf_filter,
    refine_global_candidates,
)
from repro.dyn.delta import candidate_graphs_equal
from repro.errors import CandidateGraphError
from repro.graph.builder import from_edge_list
from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi_graph, random_labels
from repro.query.extract import extract_query
from repro.query.query_graph import QueryGraph

FLAG_GRID = list(
    itertools.product((True, False), (True, False), (True, False), (0, 1, 2, 5))
)


# ---------------------------------------------------------------------------
# Scalar oracles: one candidate (or one entry) at a time
# ---------------------------------------------------------------------------
def scalar_nlf_filter(graph, query, candidates):
    refined = []
    for u in range(query.n_vertices):
        required = Counter(query.label(w) for w in query.neighbors(u))
        if not required:
            refined.append(candidates[u].copy())
            continue
        min_length = max(required) + 1
        survivors = []
        for v in candidates[u]:
            nbr_labels = graph.labels[graph.neighbors_of(int(v))]
            counts = np.bincount(nbr_labels, minlength=min_length)
            if all(counts[l] >= c for l, c in required.items()):
                survivors.append(int(v))
        refined.append(np.asarray(survivors, dtype=np.int64))
    return refined


def scalar_refine(graph, query, candidates, passes=2):
    n_data = graph.n_vertices
    current = [c.copy() for c in candidates]
    for _ in range(max(0, passes)):
        changed = False
        masks: Dict[int, np.ndarray] = {}
        for u in range(query.n_vertices):
            mask = np.zeros(n_data, dtype=bool)
            mask[current[u]] = True
            masks[u] = mask
        for u in range(query.n_vertices):
            if len(current[u]) == 0:
                continue
            keep = np.ones(len(current[u]), dtype=bool)
            for idx, v in enumerate(current[u]):
                nbrs = graph.neighbors_of(int(v))
                for w in query.neighbors(u):
                    if not masks[w][nbrs].any():
                        keep[idx] = False
                        break
            if not keep.all():
                current[u] = current[u][keep]
                changed = True
        if not changed:
            break
    return current


def scalar_build(
    graph, query, use_nlf=True, refine_passes=2, use_degree=True,
    use_label=True,
) -> CandidateGraph:
    candidates = label_degree_filter(graph, query, use_degree=use_degree)
    if use_nlf:
        candidates = scalar_nlf_filter(graph, query, candidates)
    candidates = scalar_refine(graph, query, candidates, passes=refine_passes)

    q_offsets = np.zeros(query.n_vertices + 1, dtype=np.int64)
    q_targets: List[int] = []
    edge_index: Dict[Tuple[int, int], int] = {}
    for u in range(query.n_vertices):
        for u_prime in query.neighbors(u):
            edge_index[(u, u_prime)] = len(q_targets)
            q_targets.append(u_prime)
        q_offsets[u + 1] = len(q_targets)

    ecand_offsets = [0]
    ecand_vertices: List[int] = []
    local_offsets = [0]
    local_vertices: List[int] = []
    for u in range(query.n_vertices):
        for u_prime in query.neighbors(u):
            target = set(int(x) for x in candidates[u_prime])
            for v in candidates[u]:
                ecand_vertices.append(int(v))
                for w in graph.neighbors_of(int(v)):
                    if not use_label or int(w) in target:
                        local_vertices.append(int(w))
                local_offsets.append(len(local_vertices))
            ecand_offsets.append(len(ecand_vertices))
    return CandidateGraph(
        query=query,
        graph=graph,
        q_offsets=q_offsets,
        q_targets=np.asarray(q_targets, dtype=np.int64),
        ecand_offsets=np.asarray(ecand_offsets, dtype=np.int64),
        ecand_vertices=np.asarray(ecand_vertices, dtype=np.int64),
        local_offsets=np.asarray(local_offsets, dtype=np.int64),
        local_vertices=np.asarray(local_vertices, dtype=np.int64),
        global_candidates=candidates,
        label_filtered=use_label,
        _edge_id=edge_index,
    )


def scalar_validate(cg: CandidateGraph) -> None:
    for u in range(cg.query.n_vertices):
        cand = cg.global_candidates[u]
        if len(cand) > 1 and np.any(np.diff(cand) <= 0):
            raise CandidateGraphError(f"C({u}) not strictly sorted")
        for v in cand:
            if cg.label_filtered and (
                cg.graph.label(int(v)) != cg.query.label(u)
            ):
                raise CandidateGraphError(f"candidate {v} of {u} has wrong label")
    for eid, u, u_prime in cg.directed_edges():
        cands = cg.candidates_of_edge(eid)
        if len(cands) > 1 and np.any(np.diff(cands) <= 0):
            raise CandidateGraphError(f"edge {eid} candidates not sorted")
        for v in cands:
            local = cg.local_candidates(eid, int(v))
            if len(local) > 1 and np.any(np.diff(local) <= 0):
                raise CandidateGraphError(
                    f"local set of edge {eid}, v={v} not sorted"
                )
            for w in local:
                if not cg.graph.has_edge(int(v), int(w)):
                    raise CandidateGraphError(
                        f"local candidate ({v}, {w}) is not a data edge"
                    )


def validate_error(validate, cg) -> Optional[str]:
    try:
        validate(cg)
    except CandidateGraphError as error:
        return str(error)
    return None


def assert_same_build(batched, reference, context=""):
    __tracebackhide__ = True
    if not candidate_graphs_equal(batched, reference):
        pytest.fail(f"batched build diverged from the scalar oracle {context}")
    for a, b in zip(batched.global_candidates, reference.global_candidates):
        if a.dtype != b.dtype:
            pytest.fail(f"global candidate dtype {a.dtype} != {b.dtype} {context}")


# ---------------------------------------------------------------------------
# Random labelled graphs and connected queries
# ---------------------------------------------------------------------------
@st.composite
def labelled_graphs(draw) -> CSRGraph:
    n = draw(st.integers(min_value=1, max_value=36))
    n_labels = draw(st.integers(min_value=1, max_value=4))
    labels = draw(st.lists(
        st.integers(0, n_labels - 1), min_size=n, max_size=n
    ))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=110
    ))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    return from_edge_list(edges, labels=labels, n_vertices=n)


@st.composite
def connected_queries(draw, n_labels: int) -> QueryGraph:
    k = draw(st.integers(min_value=1, max_value=6))
    # One label beyond the graph's range: a query vertex with no candidates.
    labels = draw(st.lists(st.integers(0, n_labels), min_size=k, max_size=k))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, k)}
    if k > 2:
        extra = draw(st.lists(
            st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
            max_size=4,
        ))
        edges |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    return QueryGraph.from_edges(labels, sorted(edges))


@st.composite
def workloads(draw) -> Tuple[CSRGraph, QueryGraph]:
    graph = draw(labelled_graphs())
    return graph, draw(connected_queries(graph.n_labels))


def assert_grid_matches(graph, query):
    for use_nlf, use_degree, use_label, passes in FLAG_GRID:
        flags = dict(
            use_nlf=use_nlf, use_degree=use_degree, use_label=use_label,
            refine_passes=passes,
        )
        assert_same_build(
            build_candidate_graph(graph, query, **flags),
            scalar_build(graph, query, **flags),
            str(flags),
        )


# ---------------------------------------------------------------------------
# Build equivalence
# ---------------------------------------------------------------------------
class TestBatchedBuildMatchesScalar:
    @given(workloads())
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_every_flag_combination(self, workload):
        assert_grid_matches(*workload)

    @given(workloads(), st.sampled_from([0, 1, 2, 5]))
    @settings(max_examples=40, deadline=None)
    def test_filters_match_scalar_filters(self, workload, passes):
        graph, query = workload
        base = label_degree_filter(graph, query, use_degree=False)
        nlf = nlf_filter(graph, query, base)
        expected = scalar_nlf_filter(graph, query, base)
        for a, b in zip(nlf, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        refined = refine_global_candidates(graph, query, nlf, passes=passes)
        expected = scalar_refine(graph, query, expected, passes=passes)
        for a, b in zip(refined, expected):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_empty_candidate_sets(self):
        graph = from_edge_list([(0, 1), (1, 2), (2, 0)], labels=[0, 0, 1])
        # Label 7 exists nowhere: C(u2) is empty from the first filter on.
        query = QueryGraph.from_edges([0, 1, 7], [(0, 1), (1, 2)])
        cg = build_candidate_graph(graph, query, refine_passes=0)
        assert len(cg.global_candidates[2]) == 0
        assert cg.is_empty()
        assert_grid_matches(graph, query)

    def test_zero_degree_candidates_without_degree_filter(self):
        # Vertices 3..5 are isolated; only use_degree=False admits them.
        graph = from_edge_list(
            [(0, 1), (1, 2)], labels=[0, 1, 0, 0, 1, 0], n_vertices=6
        )
        query = QueryGraph.from_edges([0, 1], [(0, 1)])
        cg = build_candidate_graph(
            graph, query, use_nlf=False, refine_passes=0, use_degree=False
        )
        assert {3, 5} <= set(int(v) for v in cg.global_candidates[0])
        assert_grid_matches(graph, query)

    def test_single_vertex_query(self):
        graph = from_edge_list([(0, 1), (1, 2)], labels=[0, 1, 0])
        query = QueryGraph.from_edges([0], [])
        cg = build_candidate_graph(graph, query)
        assert cg.n_directed_edges == 0
        assert list(cg.global_candidates[0]) == [0, 2]
        assert_grid_matches(graph, query)

    def test_edgeless_graph(self):
        graph = from_edge_list([], labels=[0, 1, 0], n_vertices=3)
        query = QueryGraph.from_edges([0, 1], [(0, 1)])
        assert_grid_matches(graph, query)


# ---------------------------------------------------------------------------
# validate(): same first violation, same message
# ---------------------------------------------------------------------------
CORRUPTIBLE = ("global_candidates", "ecand_vertices", "local_vertices")


def corrupt(cg, field, rng):
    """Swap two entries or overwrite one with a random vertex id."""
    n = cg.graph.n_vertices
    if field == "global_candidates":
        arrays = [c.copy() for c in cg.global_candidates]
        nonempty = [i for i, a in enumerate(arrays) if len(a)]
        if not nonempty:
            return None
        target = arrays[nonempty[rng.integers(len(nonempty))]]
    else:
        arrays = getattr(cg, field).copy()
        if len(arrays) == 0:
            return None
        target = arrays
    i = int(rng.integers(len(target)))
    if rng.random() < 0.5 and len(target) > 1:
        j = int(rng.integers(len(target)))
        target[i], target[j] = target[j], target[i]
    else:
        target[i] = rng.integers(n)
    return dataclasses.replace(cg, **{field: arrays})


class TestBatchedValidateMatchesScalar:
    @given(
        workloads(),
        st.sampled_from(CORRUPTIBLE),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )
    @settings(max_examples=120, deadline=None)
    def test_first_violation_and_message_match(
        self, workload, field, seed, use_label
    ):
        graph, query = workload
        cg = build_candidate_graph(
            graph, query, use_nlf=False, refine_passes=0, use_degree=False,
            use_label=use_label,
        )
        assert validate_error(CandidateGraph.validate, cg) is None
        bad = corrupt(cg, field, np.random.default_rng(seed))
        if bad is None:
            return
        assert validate_error(CandidateGraph.validate, bad) == validate_error(
            scalar_validate, bad
        )

    def test_many_corruptions_of_one_dense_build(self):
        # Wide local sets, so one overwrite often breaks a set's order and
        # its edge soundness at once: the order check must win.
        graph = erdos_renyi_graph(
            60, 420, rng=4, labels=random_labels(60, 2, rng=5)
        )
        query = extract_query(graph, 4, rng=2)
        cg = build_candidate_graph(graph, query, use_nlf=False, refine_passes=0)
        rng = np.random.default_rng(9)
        messages = set()
        for i in range(300):
            bad = corrupt(cg, CORRUPTIBLE[i % len(CORRUPTIBLE)], rng)
            expected = validate_error(scalar_validate, bad)
            assert validate_error(CandidateGraph.validate, bad) == expected
            messages.add(expected.split()[-1] if expected else None)
        assert {"sorted", "edge"} <= messages

    @given(labelled_graphs(), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_has_edges_matches_has_edge(self, graph, seed):
        rng = np.random.default_rng(seed)
        us = rng.integers(graph.n_vertices, size=50)
        vs = rng.integers(graph.n_vertices, size=50)
        expected = [graph.has_edge(int(u), int(v)) for u, v in zip(us, vs)]
        assert graph.has_edges(us, vs).tolist() == expected
