"""Tests for the baseline constructions: DiskANN (slow preprocessing),
HNSW, NSW, and the trivial anchors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import (
    HNSWIndex,
    NSWIndex,
    alpha_for_epsilon,
    build_complete_graph,
    build_diskann_slow,
    build_knn_digraph,
)
from repro.graphs import find_violations, greedy_batch
from tests.conftest import mixed_queries


class TestDiskANN:
    def test_alpha_mapping(self):
        # (alpha+1)/(alpha-1) = 1+eps at alpha = (2+eps)/eps.
        for eps in [1.0, 0.5, 0.25]:
            alpha = alpha_for_epsilon(eps)
            assert (alpha + 1) / (alpha - 1) == pytest.approx(1 + eps)

    def test_pruning_property(self, uniform2d):
        """For every point p and every non-neighbor v, some kept u has
        alpha * D(u, v) <= D(p, v) — the invariant the navigability proof
        consumes."""
        alpha = 2.0
        res = build_diskann_slow(uniform2d, alpha=alpha)
        n = uniform2d.n
        for p in range(0, n, 7):
            kept = res.graph.out_neighbors(p)
            kept_set = set(map(int, kept))
            row = uniform2d.distances_from_index_to_all(p)
            for v in range(n):
                if v == p or v in kept_set:
                    continue
                d_uv = uniform2d.distances_from_index(v, kept)
                assert (alpha * d_uv <= row[v] + 1e-9).any()

    def test_navigable_at_guaranteed_epsilon(self, uniform2d, rng):
        eps = 0.5
        res = build_diskann_slow(uniform2d, epsilon=eps)
        queries = mixed_queries(uniform2d, rng, m=30)
        assert find_violations(res.graph, uniform2d, queries, eps, stop_at=None) == []

    def test_guarantee_value(self, uniform2d):
        res = build_diskann_slow(uniform2d, alpha=3.0)
        assert res.guarantee == pytest.approx(2.0)

    def test_nearest_neighbor_always_kept(self, uniform2d):
        """The first scanned candidate is never pruned."""
        res = build_diskann_slow(uniform2d, alpha=2.0)
        for p in range(uniform2d.n):
            row = uniform2d.distances_from_index_to_all(p)
            row[p] = np.inf
            assert int(np.argmin(row)) in set(map(int, res.graph.out_neighbors(p)))

    def test_larger_alpha_more_edges(self, uniform2d):
        small = build_diskann_slow(uniform2d, alpha=1.5).graph.num_edges
        large = build_diskann_slow(uniform2d, alpha=4.0).graph.num_edges
        assert large >= small

    def test_max_degree_truncation(self, uniform2d):
        res = build_diskann_slow(uniform2d, alpha=4.0, max_degree=5)
        assert res.graph.max_out_degree() <= 5

    def test_parameter_validation(self, uniform2d):
        with pytest.raises(ValueError):
            build_diskann_slow(uniform2d)
        with pytest.raises(ValueError):
            build_diskann_slow(uniform2d, alpha=2.0, epsilon=0.5)
        with pytest.raises(ValueError):
            build_diskann_slow(uniform2d, alpha=1.0)


class TestHNSW:
    def test_search_recall_on_clustered_data(self, clustered2d, rng):
        index = HNSWIndex(clustered2d, rng, m=8, ef_construction=64)
        hits = 0
        for _ in range(30):
            q = rng.uniform(0, 30, size=2)
            got = index.search(q, k=1, ef=32)[0][0]
            want = clustered2d.nearest_neighbor(q)[0]
            hits += got == want
        assert hits >= 27  # >= 90% recall on an easy workload

    def test_search_k_sorted(self, uniform2d, rng):
        index = HNSWIndex(uniform2d, rng, m=6)
        out = index.search(rng.uniform(0, 30, size=2), k=5, ef=40)
        dists = [d for _, d in out]
        assert dists == sorted(dists)
        assert len(out) == 5

    def test_base_layer_graph_extraction(self, uniform2d, rng):
        index = HNSWIndex(uniform2d, rng, m=6)
        g = index.base_layer_graph()
        assert g.n == uniform2d.n
        assert g.num_edges > 0
        # level 0 contains every point
        assert all(len(g.out_neighbors(u)) > 0 for u in range(g.n))

    def test_level_distribution_geometric(self, uniform2d, rng):
        index = HNSWIndex(uniform2d, rng, m=4)
        levels = np.array([index._node_level[p] for p in range(uniform2d.n)])
        assert (levels == 0).mean() > 0.5  # most points at the bottom
        assert index.max_level >= 1

    def test_degree_cap_respected(self, uniform2d, rng):
        index = HNSWIndex(uniform2d, rng, m=5, ef_construction=40)
        g = index.base_layer_graph()
        assert g.max_out_degree() <= 2 * 5 + 1  # m_max0 with slack for the cap step

    def test_validation(self, uniform2d, rng):
        with pytest.raises(ValueError):
            HNSWIndex(uniform2d, rng, m=1)


class TestNSW:
    def test_search_quality(self, clustered2d, rng):
        index = NSWIndex(clustered2d, rng, m=6, ef_construction=32)
        hits = 0
        for _ in range(30):
            q = rng.uniform(0, 30, size=2)
            got = index.search(q, k=1, ef=32)[0][0]
            want = clustered2d.nearest_neighbor(q)[0]
            hits += got == want
        assert hits >= 24

    def test_graph_is_symmetric(self, uniform2d, rng):
        index = NSWIndex(uniform2d, rng, m=4)
        g = index.graph()
        for u in range(g.n):
            for v in g.out_neighbors(u):
                assert g.has_edge(int(v), u)

    def test_validation(self, uniform2d, rng):
        with pytest.raises(ValueError):
            NSWIndex(uniform2d, rng, m=0)


class TestTrivial:
    def test_complete_graph_edge_count(self, uniform2d):
        g = build_complete_graph(uniform2d)
        n = uniform2d.n
        assert g.num_edges == n * (n - 1)

    def test_complete_graph_navigable_tiny_epsilon(self, uniform2d, rng):
        g = build_complete_graph(uniform2d)
        queries = mixed_queries(uniform2d, rng, m=12)
        assert find_violations(g, uniform2d, queries, 1e-6, stop_at=None) == []

    def test_knn_digraph_edges(self, uniform2d):
        g = build_knn_digraph(uniform2d, k=7)
        assert g.num_edges == uniform2d.n * 7
        assert g.max_out_degree() == 7

    def test_knn_digraph_targets_are_nearest(self, uniform2d):
        g = build_knn_digraph(uniform2d, k=4)
        for p in [0, 11, 37]:
            row = uniform2d.distances_from_index_to_all(p)
            row[p] = np.inf
            want = set(np.argsort(row)[:4].tolist())
            assert set(map(int, g.out_neighbors(p))) == want

    def test_knn_k_capped(self, uniform2d):
        g = build_knn_digraph(uniform2d, k=uniform2d.n + 50)
        assert g.max_out_degree() == uniform2d.n - 1

    def test_greedy_on_complete_graph_exact(self, uniform2d, rng):
        g = build_complete_graph(uniform2d)
        q = rng.uniform(0, 30, size=2)
        result = greedy_batch(g, uniform2d, [0], [q])[0]
        assert result.point == uniform2d.nearest_neighbor(q)[0]
