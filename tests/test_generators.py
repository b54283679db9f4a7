"""Tests for the synthetic graph generators and dataset analogs."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.datasets import (
    DATASET_ORDER,
    DATASET_PROFILES,
    dataset_scale_factor,
    dataset_summary,
    load_dataset,
)
from repro.graph.generators import (
    erdos_renyi_graph,
    hub_sparse_graph,
    power_law_cluster_graph,
    preferential_attachment_graph,
    random_labels,
    ring_lattice_graph,
)


class TestLabels:
    def test_uniform_when_exponent_zero(self):
        labels = random_labels(20000, 4, rng=0, zipf_exponent=0.0)
        counts = np.bincount(labels, minlength=4)
        assert counts.min() > 0.8 * counts.max()

    def test_skew_orders_frequencies(self):
        labels = random_labels(20000, 5, rng=0, zipf_exponent=1.2)
        counts = np.bincount(labels, minlength=5)
        assert counts[0] > counts[4] * 2

    def test_range(self):
        labels = random_labels(100, 7, rng=1)
        assert labels.min() >= 0 and labels.max() < 7

    def test_bad_label_count(self):
        with pytest.raises(GraphError):
            random_labels(10, 0)


class TestPreferentialAttachment:
    def test_basic_shape(self):
        g = preferential_attachment_graph(500, 3, rng=0)
        g.validate()
        assert g.n_vertices == 500
        assert 2.0 <= g.avg_degree <= 6.5

    def test_heavy_tail(self):
        g = preferential_attachment_graph(2000, 4, rng=0)
        assert g.max_degree > 5 * g.avg_degree

    def test_hub_bias_thickens_tail(self):
        plain = preferential_attachment_graph(2000, 4, rng=0, hub_bias=0.0)
        biased = preferential_attachment_graph(2000, 4, rng=0, hub_bias=0.9)
        assert biased.max_degree > plain.max_degree

    def test_connected(self):
        assert preferential_attachment_graph(300, 2, rng=1).is_connected()

    def test_deterministic(self):
        a = preferential_attachment_graph(200, 3, rng=42)
        b = preferential_attachment_graph(200, 3, rng=42)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_bad_params(self):
        with pytest.raises(GraphError):
            preferential_attachment_graph(5, 5)
        with pytest.raises(GraphError):
            preferential_attachment_graph(10, 0)
        with pytest.raises(GraphError):
            preferential_attachment_graph(10, 2, hub_bias=1.5)


class TestPowerLawCluster:
    def test_clustering_produces_triangles(self):
        g = power_law_cluster_graph(800, 3, 0.6, rng=0)
        g.validate()
        triangles = 0
        for u, v in g.edges():
            nu = set(int(x) for x in g.neighbors_of(u))
            nv = set(int(x) for x in g.neighbors_of(v))
            triangles += len(nu & nv)
        assert triangles > 100

    def test_bad_triangle_prob(self):
        with pytest.raises(GraphError):
            power_law_cluster_graph(100, 2, 1.5)


class TestErdosRenyi:
    def test_exact_edge_count(self):
        g = erdos_renyi_graph(100, 250, rng=0)
        assert g.n_edges == 250
        g.validate()

    def test_too_many_edges_rejected(self):
        with pytest.raises(GraphError):
            erdos_renyi_graph(4, 10)


class TestRingLattice:
    def test_regular_degrees(self):
        g = ring_lattice_graph(50, 4, rewire_prob=0.0, rng=0)
        assert all(g.degree(v) == 4 for v in range(50))

    def test_rewiring_keeps_edge_count_close(self):
        g = ring_lattice_graph(100, 4, rewire_prob=0.3, rng=0)
        assert abs(g.n_edges - 200) <= 10

    def test_odd_k_rejected(self):
        with pytest.raises(GraphError):
            ring_lattice_graph(10, 3)


class TestHubSparse:
    def test_sparse_with_hubs(self):
        g = hub_sparse_graph(2000, 1200, rng=0)
        g.validate()
        assert 2.0 <= g.avg_degree <= 4.5
        assert g.max_degree > 20 * g.avg_degree


class TestDatasets:
    def test_all_profiles_load(self):
        for name in DATASET_ORDER:
            g = load_dataset(name)
            assert g.n_vertices == DATASET_PROFILES[name].n_vertices
            assert g.n_edges > 0

    def test_cache_returns_same_object(self):
        assert load_dataset("yeast") is load_dataset("YEAST")

    def test_unknown_dataset(self):
        with pytest.raises(GraphError):
            load_dataset("nonexistent")

    def test_degree_profiles_close_to_paper(self):
        # The analogs preserve average degree within a factor ~1.6.
        for name in ("yeast", "wordnet", "orkut", "eu2005"):
            g = load_dataset(name)
            paper_d = DATASET_PROFILES[name].paper_degree
            assert 0.6 * paper_d <= g.avg_degree <= 1.6 * paper_d

    def test_wordnet_is_sparse_and_hubby(self):
        g = load_dataset("wordnet")
        assert g.avg_degree < 4
        assert g.max_degree > 100

    def test_scale_factor_positive(self):
        assert dataset_scale_factor("yeast") > 0.5

    def test_summary_has_all_rows(self):
        text = dataset_summary()
        for name in DATASET_ORDER:
            assert name in text


class TestSeedDeterminism:
    """Same seed => identical graph, across processes and hash seeds.

    Mirrors test_sharding_equivalence.py's property style: determinism is
    what lets a (seed, dataset) pair name the same graph anywhere.
    """

    _SNIPPET = (
        "from repro.graph.generators import erdos_renyi_graph, random_labels\n"
        "g = erdos_renyi_graph(300, 450, rng=7,"
        " labels=random_labels(300, 3, rng=8))\n"
        "print(g.content_fingerprint())\n"
    )

    def _fingerprint_in_subprocess(self, hash_seed):
        import os
        import subprocess
        import sys
        from pathlib import Path

        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = hash_seed
        out = subprocess.run(
            [sys.executable, "-c", self._SNIPPET],
            capture_output=True, text=True, env=env, check=True,
        )
        return out.stdout.strip()

    def test_same_seed_identical_across_processes(self):
        a = self._fingerprint_in_subprocess("0")
        b = self._fingerprint_in_subprocess("424242")
        assert a == b
        # ... and identical to this process's build.
        g = erdos_renyi_graph(
            300, 450, rng=7, labels=random_labels(300, 3, rng=8)
        )
        assert g.content_fingerprint() == a

    @pytest.mark.parametrize("seed", [0, 1, 9999])
    def test_same_seed_same_graph_in_process(self, seed):
        a = erdos_renyi_graph(200, 300, rng=seed)
        b = erdos_renyi_graph(200, 300, rng=seed)
        assert np.array_equal(a.offsets, b.offsets)
        assert np.array_equal(a.neighbors, b.neighbors)


class TestSubstreamIndependence:
    def test_spawned_substreams_are_distinct_and_reproducible(self):
        from repro.utils.rng import as_generator, spawn_generators

        children = spawn_generators(as_generator(123), 3)
        draws = [g.integers(0, 1 << 30, size=200) for g in children]
        # Distinct spawned substreams => distinct streams...
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.array_equal(draws[i], draws[j])
        # ...yet the spawn itself is a pure function of the root seed.
        again = spawn_generators(as_generator(123), 3)
        for g, expected in zip(again, draws):
            assert np.array_equal(g.integers(0, 1 << 30, size=200), expected)

    def test_consuming_one_substream_leaves_siblings_untouched(self):
        from repro.utils.rng import as_generator, spawn_generators

        a1, b1 = spawn_generators(as_generator(7), 2)
        a1.integers(0, 1 << 30, size=1000)  # burn stream a
        burned = b1.integers(0, 1 << 30, size=100)
        _, b2 = spawn_generators(as_generator(7), 2)
        assert np.array_equal(burned, b2.integers(0, 1 << 30, size=100))

    def test_uncorrelated_generator_outputs(self):
        from repro.utils.rng import as_generator, spawn_generators

        a, b = spawn_generators(as_generator(55), 2)
        xa = a.standard_normal(4000)
        xb = b.standard_normal(4000)
        corr = float(np.corrcoef(xa, xb)[0, 1])
        assert abs(corr) < 0.06
