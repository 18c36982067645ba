"""Tests for the merged Euclidean graph of Theorem 1.3 (Section 5.2-5.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import (
    build_gnet,
    build_merged_graph,
    build_theta_graph,
    find_violations,
    greedy_batch,
    jackpot_rate,
)
from tests.conftest import mixed_queries

# A generous cone angle for tests: Lemma 5.1's eps/32 needs ~200 cones at
# eps=1, which is exact but slow to exercise repeatedly; correctness tests
# that rely on the guarantee use the exact angle once in test_theta.py.
TEST_THETA = 0.35


class TestJackpotRate:
    def test_formula(self):
        assert jackpot_rate(3.0, aspect_ratio=256.0) == pytest.approx(3.0 / 8.0)

    def test_caps_at_one(self):
        assert jackpot_rate(10.0, aspect_ratio=4.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            jackpot_rate(0.0, 16.0)
        with pytest.raises(ValueError):
            jackpot_rate(1.0, 0.5)


class TestMergedStructure:
    def test_theta_edges_always_present(self, uniform2d, rng):
        res = build_merged_graph(uniform2d, epsilon=1.0, rng=rng, theta=TEST_THETA)
        for u in range(uniform2d.n):
            theta_nbrs = set(map(int, res.geo.graph.out_neighbors(u)))
            merged_nbrs = set(map(int, res.graph.out_neighbors(u)))
            assert theta_nbrs <= merged_nbrs

    def test_jackpot_vertices_keep_gnet_edges(self, uniform2d, rng):
        res = build_merged_graph(uniform2d, epsilon=1.0, rng=rng, theta=TEST_THETA)
        for u in np.flatnonzero(res.jackpot):
            gnet_nbrs = set(map(int, res.gnet.graph.out_neighbors(int(u))))
            merged_nbrs = set(map(int, res.graph.out_neighbors(int(u))))
            assert gnet_nbrs <= merged_nbrs

    def test_non_jackpot_vertices_have_only_theta_edges(self, uniform2d, rng):
        res = build_merged_graph(uniform2d, epsilon=1.0, rng=rng, theta=TEST_THETA)
        for u in np.flatnonzero(~res.jackpot):
            merged = set(map(int, res.graph.out_neighbors(int(u))))
            theta = set(map(int, res.geo.graph.out_neighbors(int(u))))
            assert merged == theta

    def test_smaller_than_gnet(self, uniform2d, rng):
        res = build_merged_graph(uniform2d, epsilon=1.0, rng=rng, theta=TEST_THETA)
        if res.tau < 1.0:
            assert res.graph.num_edges < res.gnet.graph.num_edges

    def test_multiple_runs_keep_smallest(self, uniform2d, rng):
        res = build_merged_graph(
            uniform2d, epsilon=1.0, rng=rng, runs=6, theta=TEST_THETA
        )
        assert len(res.runs_edge_counts) == 6
        assert res.graph.num_edges == min(res.runs_edge_counts)

    def test_reuses_prebuilt_parts(self, uniform2d, rng):
        gnet = build_gnet(uniform2d, epsilon=1.0)
        geo = build_theta_graph(uniform2d, TEST_THETA)
        res = build_merged_graph(uniform2d, 1.0, rng, gnet=gnet, geo=geo)
        assert res.gnet is gnet
        assert res.geo is geo


class TestMergedNavigability:
    def test_navigable_via_inherited_theta_guarantee(self, uniform2d, rng):
        """Section 5.2: the merge is (1+eps)-navigable because G_geo's
        out-edges survive — with the *exact* Lemma 5.1 angle."""
        eps = 1.0
        res = build_merged_graph(uniform2d, epsilon=eps, rng=rng)  # theta=eps/32
        queries = mixed_queries(uniform2d, rng, m=24)
        assert find_violations(res.graph, uniform2d, queries, eps, stop_at=None) == []

    def test_greedy_finds_ann_from_any_start(self, uniform2d, rng):
        eps = 1.0
        res = build_merged_graph(uniform2d, epsilon=eps, rng=rng, theta=TEST_THETA)
        for _ in range(10):
            q = rng.uniform(-5, 30, size=2)
            nn = uniform2d.distances_to_query_all(q).min()
            start = int(rng.integers(uniform2d.n))
            result = greedy_batch(res.graph, uniform2d, [start], [q])[0]
            assert result.distance <= (1 + eps) * nn + 1e-9

    def test_query_budget_positive(self, uniform2d, rng):
        res = build_merged_graph(uniform2d, epsilon=1.0, rng=rng, theta=TEST_THETA)
        assert res.query_budget(doubling_dimension=2.0) > 0


class TestSamplingBehavior:
    def test_tau_one_keeps_everything(self, uniform2d, rng):
        res = build_merged_graph(
            uniform2d, epsilon=1.0, rng=rng, z=1e9, theta=TEST_THETA
        )
        assert res.tau == 1.0
        assert res.jackpot.all()
        merged_expected = res.gnet.graph.merge(res.geo.graph)
        assert res.graph == merged_expected

    def test_jackpot_fraction_near_tau(self, uniform2d):
        rng = np.random.default_rng(99)
        res = build_merged_graph(
            uniform2d, epsilon=1.0, rng=rng, z=2.0, runs=1, theta=TEST_THETA
        )
        frac = res.jackpot.mean()
        assert abs(frac - res.tau) < 0.2

    def test_deterministic_given_rng_state(self, uniform2d):
        a = build_merged_graph(
            uniform2d, 1.0, np.random.default_rng(5), theta=TEST_THETA
        )
        b = build_merged_graph(
            uniform2d, 1.0, np.random.default_rng(5), theta=TEST_THETA
        )
        assert a.graph == b.graph
        assert np.array_equal(a.jackpot, b.jackpot)
