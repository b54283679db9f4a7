"""Shared fixtures: small, hand-checkable graphs and the paper's Figure 2
example, plus medium synthetic workloads for integration tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.candidate.candidate_graph import build_candidate_graph
from repro.graph.builder import from_edge_list
from repro.query.matching_order import MatchingOrder, quicksi_order
from repro.query.query_graph import QueryGraph

#: Progress characters per line in quiet runs.  ``pytest -q`` on top of the
#: ``-q`` in ``addopts`` prints no summary line, so the progress characters
#: are the run's only record of its results; at the default 80 columns the
#: suite spans 13+ lines and a log tail loses the first ones.  One long line
#: per ~1000 tests keeps the whole record in a short tail.
QUIET_PROGRESS_WIDTH = 1000


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    reporter = config.pluginmanager.get_plugin("terminalreporter")
    if reporter is not None and config.get_verbosity() < 0:
        reporter._screen_width = max(reporter._screen_width, QUIET_PROGRESS_WIDTH)


@pytest.fixture
def triangle_graph():
    """Two triangles sharing an edge; all labels 0."""
    return from_edge_list(
        [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)],
        labels=[0, 0, 0, 0],
        name="tri2",
    )


@pytest.fixture
def paper_graph():
    """The data graph of the paper's Figure 2.

    Vertices: v1..v9 -> ids 0..8.  Labels: A=0, B=1, C=2, D=3.
    v1,v2 have label A; v3..v6 label B; v7 label C (connected to v3, v4);
    v8 label D; v9 label C.  Edges follow the figure: v1-{v3,v4,v5},
    v2-{v5,v6}, v3-v4, v3-v7, v4-v7, v7-v8, v3-v9, v8-v4 ... (a faithful
    small variant: the exact figure is partially occluded in text, so this
    fixture fixes ONE concrete graph with the property the paper states:
    exactly one instance (v1, v3, v4, v7, v8) of the query).
    """
    labels = [0, 0, 1, 1, 1, 1, 2, 3, 2]
    edges = [
        (0, 2), (0, 3), (0, 4),      # v1-v3, v1-v4, v1-v5
        (1, 4), (1, 5),              # v2-v5, v2-v6
        (2, 3),                      # v3-v4
        (2, 6), (3, 6),              # v3-v7, v4-v7
        (6, 7),                      # v7-v8
        (2, 8),                      # v3-v9
        (3, 7),                      # v4-v8
    ]
    return from_edge_list(edges, labels=labels, name="fig2")


@pytest.fixture
def paper_query():
    """The query graph of Figure 2: u1(A)-u2(B), u2-u3(B), u2-u4(C),
    u3-u4, u4-u5(D) — 5 vertices."""
    labels = [0, 1, 1, 2, 3]
    edges = [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4)]
    return QueryGraph.from_edges(labels, edges, name="fig2-q")


@pytest.fixture
def paper_workload(paper_graph, paper_query):
    cg = build_candidate_graph(paper_graph, paper_query)
    order = quicksi_order(paper_query, paper_graph)
    return paper_graph, paper_query, cg, order


@pytest.fixture
def triangle_query():
    return QueryGraph.from_edges([0, 0, 0], [(0, 1), (1, 2), (0, 2)], name="tri")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_order(query: QueryGraph, order) -> MatchingOrder:
    """Helper used across test modules."""
    return MatchingOrder.from_permutation(query, order)
