"""Tests for the navigability oracle and Fact 2.1's two directions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import build_complete_graph, build_knn_digraph
from repro.graphs import (
    assert_navigable,
    check_navigability_for_query,
    exhaustive_greedy_check,
    find_violations,
    greedy_batch,
)
from repro.metrics import Dataset, EuclideanMetric


@pytest.fixture
def two_clusters(rng):
    """Two tight, well-separated clusters — the classic trap for k-NN
    digraphs: all of a point's k nearest neighbors stay in its own
    cluster, so greedy can never cross."""
    a = rng.normal(0.0, 0.05, size=(20, 2))
    b = rng.normal(0.0, 0.05, size=(20, 2)) + np.array([10.0, 0.0])
    return Dataset(EuclideanMetric(), np.vstack([a, b]))


class TestCompleteGraphIsNavigable:
    def test_no_violations_any_epsilon(self, two_clusters, rng):
        g = build_complete_graph(two_clusters)
        queries = [rng.uniform(-2, 12, size=2) for _ in range(25)]
        for eps in [0.01, 0.5, 1.0]:
            assert find_violations(g, two_clusters, queries, eps, stop_at=None) == []

    def test_assert_navigable_passes(self, two_clusters, rng):
        g = build_complete_graph(two_clusters)
        assert_navigable(g, two_clusters, [rng.uniform(size=2)], 0.5)


class TestKnnDigraphFails:
    def test_violation_found(self, two_clusters):
        g = build_knn_digraph(two_clusters, k=5)
        # Query at the second cluster; vertices of the first are stuck.
        q = np.array([10.0, 0.0])
        violations = check_navigability_for_query(g, two_clusters, q, epsilon=1.0)
        assert violations
        stuck = violations[0]
        assert stuck.vertex < 20  # a first-cluster vertex
        assert stuck.best_out_distance >= stuck.vertex_distance

    def test_fact_2_1_violation_implies_greedy_failure(self, two_clusters):
        """The only-if direction: a navigability violation at (p, q) means
        greedy from p returns a non-(1+eps)-ANN."""
        g = build_knn_digraph(two_clusters, k=5)
        q = np.array([10.0, 0.0])
        v = check_navigability_for_query(g, two_clusters, q, epsilon=1.0)[0]
        result = greedy_batch(g, two_clusters, [v.vertex], [q])[0]
        nn_dist = two_clusters.distances_to_query_all(q).min()
        assert result.distance > 2.0 * nn_dist

    def test_assert_navigable_raises_with_witness(self, two_clusters):
        g = build_knn_digraph(two_clusters, k=5)
        with pytest.raises(AssertionError, match="not .*navigable"):
            assert_navigable(g, two_clusters, [np.array([10.0, 0.0])], 1.0)


class TestFactTwoOneIfDirection:
    def test_navigable_implies_greedy_succeeds_everywhere(self, two_clusters, rng):
        """If no query violates navigability, greedy from every start
        returns a (1+eps)-ANN — checked on the complete graph."""
        g = build_complete_graph(two_clusters)
        for _ in range(5):
            q = rng.uniform(-2, 12, size=2)
            assert not exhaustive_greedy_check(g, two_clusters, [q], 0.25, stop_at=1)


class TestOracleMechanics:
    def test_stop_at_limits_collection(self, two_clusters):
        g = build_knn_digraph(two_clusters, k=3)
        queries = [np.array([10.0, float(i) * 0.01]) for i in range(5)]
        few = find_violations(g, two_clusters, queries, 1.0, stop_at=2)
        all_of_them = find_violations(g, two_clusters, queries, 1.0, stop_at=None)
        assert 2 <= len(few) <= len(all_of_them)

    def test_epsilon_monotonicity(self, two_clusters, rng):
        """Larger eps can only remove violations (weaker requirement)."""
        g = build_knn_digraph(two_clusters, k=5)
        queries = [rng.uniform(-2, 12, size=2) for _ in range(10)]
        tight = len(find_violations(g, two_clusters, queries, 0.05, stop_at=None))
        loose = len(find_violations(g, two_clusters, queries, 1.0, stop_at=None))
        assert loose <= tight

    def test_data_point_queries(self, two_clusters):
        """Data points as queries: the vertex itself is a 0-distance NN,
        so only *other* stuck vertices can violate."""
        g = build_complete_graph(two_clusters)
        for i in [0, 25]:
            assert (
                check_navigability_for_query(
                    g, two_clusters, two_clusters.points[i], 0.5
                )
                == []
            )
