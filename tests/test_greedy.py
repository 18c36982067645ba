"""Tests for the greedy routing procedure (Section 1.1 pseudocode), run one
query at a time through the batch engines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import build_complete_graph
from repro.graphs import ProximityGraph, beam_search_batch, greedy_batch
from repro.metrics import CountingMetric, Dataset, EuclideanMetric


@pytest.fixture
def line_dataset():
    """Points 0, 2, 4, ..., 18 on a line."""
    pts = np.arange(10, dtype=np.float64)[:, None] * 2.0
    return Dataset(EuclideanMetric(), np.hstack([pts, np.zeros((10, 1))]))


@pytest.fixture
def path_graph():
    """Bidirectional path 0 - 1 - ... - 9."""
    edges = [(i, i + 1) for i in range(9)] + [(i + 1, i) for i in range(9)]
    return ProximityGraph.from_edge_list(10, edges)


class TestGreedy:
    def test_walks_path_to_nn(self, line_dataset, path_graph):
        q = np.array([17.9, 0.0])  # NN is point 9 (x=18)
        result = greedy_batch(path_graph, line_dataset, [0], [q])[0]
        assert result.point == 9
        assert result.self_terminated
        assert result.hops == list(range(10))

    def test_descent_is_strict(self, line_dataset, path_graph, rng):
        q = rng.uniform(0, 18, size=2) * np.array([1.0, 0.0])
        result = greedy_batch(path_graph, line_dataset, [0], [q])[0]
        dists = [line_dataset.distance_to_query(q, p) for p in result.hops]
        assert all(a > b for a, b in zip(dists, dists[1:]))

    def test_stops_at_local_minimum(self, line_dataset):
        # Graph with no useful edges: start is returned immediately.
        g = ProximityGraph(10)
        result = greedy_batch(g, line_dataset, [4], [np.array([18.0, 0.0])])[0]
        assert result.point == 4
        assert result.self_terminated
        assert result.distance_evals == 1

    def test_start_already_nn(self, line_dataset, path_graph):
        q = np.array([8.1, 0.0])
        result = greedy_batch(path_graph, line_dataset, [4], [q])[0]
        assert result.point == 4

    def test_distance_accounting_matches_counting_metric(self, rng):
        pts = rng.uniform(size=(30, 2))
        counting = CountingMetric(EuclideanMetric())
        ds = Dataset(counting, pts)
        g = build_complete_graph(ds)
        counting.reset()
        result = greedy_batch(g, ds, [0], [rng.uniform(size=2)])[0]
        assert result.distance_evals == counting.count

    def test_invalid_start_rejected(self, line_dataset, path_graph):
        with pytest.raises(ValueError):
            greedy_batch(path_graph, line_dataset, [99], [np.zeros(2)])

    def test_tie_break_smallest_id(self):
        # Both out-neighbors strictly improve and are equidistant from q:
        # the smaller id must win (deterministic argmin).
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, -1.0], [2.0, 0.0]])
        ds = Dataset(EuclideanMetric(), pts)
        g = ProximityGraph.from_edge_list(4, [(0, 2), (0, 1), (1, 3), (2, 3)])
        result = greedy_batch(g, ds, [0], [np.array([2.0, 0.0])])[0]
        assert result.hops[1] == 1

    def test_equal_distance_neighbor_does_not_move(self):
        # Descent is strict: an equally-close neighbor terminates greedy.
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        ds = Dataset(EuclideanMetric(), pts)
        g = ProximityGraph.from_edge_list(2, [(0, 1), (1, 0)])
        result = greedy_batch(g, ds, [0], [np.array([1.0, 0.0])])[0]
        assert result.point == 0
        assert result.hops == [0]


class TestBudgetedQuery:
    def test_budget_stops_early(self, line_dataset, path_graph):
        q = np.array([18.0, 0.0])
        result = greedy_batch(path_graph, line_dataset, [0], [q], budget=5)[0]
        assert not result.self_terminated
        assert result.distance_evals <= 5
        assert result.point < 9  # did not reach the NN

    def test_budget_large_enough_self_terminates(self, line_dataset, path_graph):
        q = np.array([18.0, 0.0])
        result = greedy_batch(path_graph, line_dataset, [0], [q], budget=1000)[0]
        assert result.self_terminated
        assert result.point == 9

    def test_returns_last_hop_vertex(self, line_dataset, path_graph):
        q = np.array([18.0, 0.0])
        result = greedy_batch(path_graph, line_dataset, [0], [q], budget=7)[0]
        assert result.point == result.hops[-1]

    def test_budget_validation(self, line_dataset, path_graph):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            greedy_batch(path_graph, line_dataset, [0], [np.zeros(2)], budget=0)

    def test_monotone_in_budget(self, line_dataset, path_graph):
        """More budget never yields a farther answer (hops only descend)."""
        q = np.array([18.0, 0.0])
        dists = []
        for budget in [2, 4, 8, 16, 32]:
            r = greedy_batch(path_graph, line_dataset, [0], [q], budget=budget)[0]
            dists.append(r.distance)
        assert all(a >= b for a, b in zip(dists, dists[1:]))


class TestBeamSearch:
    def test_finds_exact_on_complete_graph(self, rng):
        pts = rng.uniform(size=(40, 2))
        ds = Dataset(EuclideanMetric(), pts)
        g = build_complete_graph(ds)
        q = rng.uniform(size=2)
        found = beam_search_batch(g, ds, [0], [q], beam_width=5, k=3)
        want = np.argsort(np.linalg.norm(pts - q, axis=1))[:3]
        assert found.ids[0].tolist() == list(want)

    def test_wider_beam_not_worse(self, line_dataset, path_graph, rng):
        q = np.array([13.0, 0.0])
        d_narrow = beam_search_batch(path_graph, line_dataset, [0], [q], 1).dists[0, 0]
        d_wide = beam_search_batch(path_graph, line_dataset, [0], [q], 8).dists[0, 0]
        assert d_wide <= d_narrow + 1e-12

    def test_k_results_sorted(self, rng):
        pts = rng.uniform(size=(25, 2))
        ds = Dataset(EuclideanMetric(), pts)
        g = build_complete_graph(ds)
        found = beam_search_batch(g, ds, [0], [rng.uniform(size=2)], 10, k=5)
        ds_list = found.dists[0].tolist()
        assert ds_list == sorted(ds_list)

    def test_validation(self, line_dataset, path_graph):
        with pytest.raises(ValueError):
            beam_search_batch(path_graph, line_dataset, [0], [np.zeros(2)], 0)
