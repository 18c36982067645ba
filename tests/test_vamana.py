"""Tests for the Vamana (practical DiskANN) baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import VamanaIndex
from repro.core import build
from repro.metrics import Dataset, EuclideanMetric
from repro.workloads import gaussian_clusters


class TestConstruction:
    def test_degree_cap_respected(self, uniform2d, rng):
        index = VamanaIndex(uniform2d, rng, max_degree=10)
        assert index.graph().max_out_degree() <= 10

    def test_every_vertex_connected(self, uniform2d, rng):
        index = VamanaIndex(uniform2d, rng, max_degree=8)
        g = index.graph()
        assert g.min_out_degree() >= 1

    def test_robust_prune_keeps_nearest(self, uniform2d, rng):
        """The closest candidate always survives pruning."""
        index = VamanaIndex(uniform2d, rng, max_degree=6)
        for p in range(0, uniform2d.n, 13):
            row = uniform2d.distances_from_index_to_all(p)
            row[p] = np.inf
            nn = int(np.argmin(row))
            nbrs = set(map(int, index.graph().out_neighbors(p)))
            # nn is kept if it was ever a candidate; with two passes over
            # all points via beam search it practically always is.
            assert nn in nbrs

    def test_validation(self, uniform2d, rng):
        with pytest.raises(ValueError):
            VamanaIndex(uniform2d, rng, max_degree=1)


class TestSearch:
    def test_recall_on_clustered(self, rng):
        pts = gaussian_clusters(300, 2, rng, clusters=5)
        ds = Dataset(EuclideanMetric(), pts)
        index = VamanaIndex(ds, rng, max_degree=12, beam_width=48)
        hits = 0
        for _ in range(40):
            q = rng.uniform(0, 1, size=2)
            got = index.search(q, k=1)[0][0]
            hits += got == ds.nearest_neighbor(q)[0]
        assert hits >= 36  # >= 90%

    def test_search_k(self, uniform2d, rng):
        index = VamanaIndex(uniform2d, rng, max_degree=8)
        out = index.search(rng.uniform(0, 30, size=2), k=4)
        assert len(out) == 4
        dists = [d for _, d in out]
        assert dists == sorted(dists)


class TestBuilderIntegration:
    def test_registry(self, uniform2d, rng):
        built = build("vamana", uniform2d, 1.0, rng, max_degree=8)
        assert built.name == "vamana"
        assert not built.guaranteed
        assert built.meta["max_degree"] == 8

    def test_smaller_than_guaranteed_graphs(self, uniform2d, rng):
        vamana = build("vamana", uniform2d, 1.0, rng, max_degree=8)
        gnet = build("gnet", uniform2d, 1.0, rng)
        assert vamana.graph.num_edges < gnet.graph.num_edges

    def test_deterministic_under_seed(self, uniform2d):
        a = build("vamana", uniform2d, 1.0, np.random.default_rng(3))
        b = build("vamana", uniform2d, 1.0, np.random.default_rng(3))
        assert a.graph == b.graph
