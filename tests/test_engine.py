"""Reference/batch engine equivalence and CSR persistence.

The batch engine's contract is *bit-identical* replay of the
one-query-at-a-time loops in ``tests/reference.py``: same returned
vertex, same float distance, same hop sequence, same distance-eval
accounting, same termination flag — across random graphs, budgets,
metrics, and tie-heavy inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import build, compute_ground_truth, measure_queries
from repro.graphs import ProximityGraph, beam_search_batch, greedy_batch
from repro.metrics import (
    CountingMetric,
    Dataset,
    EuclideanMetric,
    ExplicitMatrixMetric,
)
from repro.workloads import uniform_cube, uniform_queries
from tests.conftest import mixed_queries, saved_graphs
from tests.reference import beam_search, greedy


def random_graph(n: int, rng: np.random.Generator, mean_degree: float = 6.0):
    """A random digraph including isolated (empty-adjacency) vertices."""
    edges = [
        (int(rng.integers(n)), int(rng.integers(n)))
        for _ in range(int(n * mean_degree))
    ]
    return ProximityGraph.from_edge_list(n, edges)


def assert_results_equal(scalar, batch):
    assert len(scalar) == len(batch)
    for a, b in zip(scalar, batch):
        assert a.point == b.point
        assert a.distance == b.distance  # bitwise, no tolerance
        assert a.hops == b.hops
        assert a.distance_evals == b.distance_evals
        assert a.self_terminated == b.self_terminated


class TestGreedyEquivalence:
    @pytest.mark.parametrize("budget", [None, 1, 2, 5, 23, 1000])
    def test_random_graphs_euclidean(self, rng, budget):
        for trial in range(3):
            n = int(rng.integers(20, 120))
            points = uniform_cube(n, 2, rng)
            ds = Dataset(EuclideanMetric(), points)
            graph = random_graph(n, rng)
            queries = list(uniform_queries(25, points, rng))
            starts = rng.integers(n, size=len(queries))
            scalar = [
                greedy(graph, ds, int(s), q, budget=budget)
                for q, s in zip(queries, starts)
            ]
            batch = greedy_batch(graph, ds, starts, queries, budget=budget)
            assert_results_equal(scalar, batch)

    def test_built_graphs_normalized_metric(self, uniform2d, rng):
        """The index path: gnet on a ScaledMetric-wrapped dataset."""
        built = build("gnet", uniform2d, 1.0, rng)
        queries = mixed_queries(uniform2d, rng, m=24)
        starts = rng.integers(uniform2d.n, size=len(queries))
        for budget in [None, 7]:
            scalar = [
                greedy(built.graph, uniform2d, int(s), q, budget=budget)
                for q, s in zip(queries, starts)
            ]
            batch = greedy_batch(
                built.graph, uniform2d, starts, queries, budget=budget
            )
            assert_results_equal(scalar, batch)

    def test_tie_heavy_integer_grid(self, rng):
        """Integer grid points produce many exactly-equal distances; the
        smallest-id tie-break must match the scalar argmin."""
        side = 7
        xs, ys = np.meshgrid(np.arange(side), np.arange(side))
        points = np.column_stack([xs.ravel(), ys.ravel()]).astype(np.float64)
        n = len(points)
        ds = Dataset(EuclideanMetric(), points)
        graph = random_graph(n, rng, mean_degree=8.0)
        # Queries on grid points and half-integer midpoints: max ties.
        queries = [points[i] for i in rng.integers(n, size=10)]
        queries += [points[i] + 0.5 for i in rng.integers(n, size=10)]
        starts = rng.integers(n, size=len(queries))
        scalar = [
            greedy(graph, ds, int(s), q) for q, s in zip(queries, starts)
        ]
        batch = greedy_batch(graph, ds, starts, queries)
        assert_results_equal(scalar, batch)

    def test_matrix_metric_id_queries(self, rng):
        """Abstract metric (ids as points) through the default
        distances_many fallback."""
        n = 40
        coords = uniform_cube(n, 3, rng)
        mat = EuclideanMetric().pairwise(coords)
        metric = ExplicitMatrixMetric(mat)
        ds = Dataset(metric, np.arange(n))
        graph = random_graph(n, rng)
        queries = [int(i) for i in rng.integers(n, size=20)]
        starts = rng.integers(n, size=len(queries))
        for budget in [None, 4]:
            scalar = [
                greedy(graph, ds, int(s), q, budget=budget)
                for q, s in zip(queries, starts)
            ]
            batch = greedy_batch(graph, ds, starts, queries, budget=budget)
            assert_results_equal(scalar, batch)

    def test_eval_accounting_matches_counting_metric(self, rng):
        """The engine's per-query eval counts sum to exactly the number
        of metric evaluations a CountingMetric observes."""
        n = 60
        points = uniform_cube(n, 2, rng)
        counting = CountingMetric(EuclideanMetric())
        ds = Dataset(counting, points)
        graph = random_graph(n, rng)
        queries = list(uniform_queries(15, points, rng))
        starts = rng.integers(n, size=len(queries))
        counting.reset()
        results = greedy_batch(graph, ds, starts, queries)
        assert counting.count == sum(r.distance_evals for r in results)

    def test_start_vertex_out_of_range(self, rng):
        points = uniform_cube(10, 2, rng)
        ds = Dataset(EuclideanMetric(), points)
        graph = random_graph(10, rng)
        with pytest.raises(ValueError):
            greedy_batch(graph, ds, [0, 10], list(points[:2]))

    def test_empty_batch(self, rng):
        points = uniform_cube(10, 2, rng)
        ds = Dataset(EuclideanMetric(), points)
        graph = random_graph(10, rng)
        assert greedy_batch(graph, ds, [], []) == []


class TestBeamEquivalence:
    @pytest.mark.parametrize("width,k,budget", [(1, 1, None), (4, 3, None), (8, 2, 37)])
    def test_beam_lockstep_matches_scalar(self, rng, width, k, budget):
        n = 80
        points = uniform_cube(n, 2, rng)
        ds = Dataset(EuclideanMetric(), points)
        graph = random_graph(n, rng)
        queries = list(uniform_queries(20, points, rng))
        starts = rng.integers(n, size=len(queries))
        scalar = [
            beam_search(graph, ds, int(s), q, beam_width=width, k=k, budget=budget)
            for q, s in zip(queries, starts)
        ]
        batch = beam_search_batch(
            graph, ds, starts, queries, beam_width=width, k=k, budget=budget
        )
        for i, (sf, se) in enumerate(scalar):
            count = len(sf)
            assert batch.ids[i, :count].tolist() == [v for v, _ in sf]
            assert batch.dists[i, :count].tolist() == [d for _, d in sf]
            assert (batch.ids[i, count:] == -1).all()
            assert batch.evals[i] == se


class TestMeasureQueriesParity:
    def test_engines_and_ground_truth_agree(self, uniform2d, rng):
        built = build("gnet", uniform2d, 1.0, rng)
        queries = mixed_queries(uniform2d, rng, m=20)
        starts = rng.integers(uniform2d.n, size=len(queries))
        scanned = measure_queries(
            built.graph, uniform2d, queries, epsilon=1.0, starts=starts,
        )
        gt = compute_ground_truth(uniform2d, queries)
        given = measure_queries(
            built.graph, uniform2d, queries, epsilon=1.0, starts=starts,
            ground_truth=gt,
        )
        assert given.mean_distance_evals == scanned.mean_distance_evals
        assert given.recall_at_1 == pytest.approx(scanned.recall_at_1)
        assert given.epsilon_satisfied_fraction == pytest.approx(
            scanned.epsilon_satisfied_fraction
        )

    def test_ground_truth_matches_linear_scan(self, uniform2d, rng):
        # Includes exact data points as queries (true NN distance 0), the
        # worst case for the Gram-expansion fast path.
        queries = mixed_queries(uniform2d, rng, m=16)
        ids, dists = compute_ground_truth(uniform2d, queries)
        for q, i, d in zip(queries, ids, dists):
            nn_id, nn_dist = uniform2d.nearest_neighbor(q)
            assert int(i) == nn_id
            assert d == nn_dist  # bitwise: the band refine is exact


class TestIndexBatchAPI:
    def test_query_batch_matches_query(self, rng):
        from repro import ProximityGraphIndex, SearchParams

        points = np.random.default_rng(5).uniform(size=(150, 2))
        index = ProximityGraphIndex.build(points, epsilon=1.0, method="gnet")
        queries = rng.uniform(size=(12, 2))
        starts = rng.integers(index.n, size=len(queries))
        singles = [
            index.search(q, params=SearchParams(mode="greedy", starts=[s])).top1()
            for q, s in zip(queries, starts)
        ]
        batched = index.search(
            queries, params=SearchParams(mode="greedy", starts=starts)
        )
        assert singles == [batched.pairs(i)[0] for i in range(len(queries))]

    def test_query_k_batch_matches_query_k(self, rng):
        from repro import ProximityGraphIndex, SearchParams

        points = np.random.default_rng(5).uniform(size=(150, 2))
        index = ProximityGraphIndex.build(points, epsilon=1.0, method="gnet")
        queries = rng.uniform(size=(8, 2))
        starts = rng.integers(index.n, size=len(queries))
        singles = [
            index.search(q, k=3, params=SearchParams(mode="beam", starts=[s])).pairs(0)
            for q, s in zip(queries, starts)
        ]
        batched = index.search(queries, k=3, params=SearchParams(mode="beam", starts=starts))
        assert singles == [batched.pairs(i) for i in range(len(queries))]


class TestCSRPersistence:
    """A saved index stores its CSR verbatim in both formats; empty rows
    and a graph without a single edge (a zero-length ``csr_targets``,
    which v5 cannot memory-map) must survive."""

    def test_roundtrip_with_empty_rows(self, tmp_path, rng):
        n = 30
        # Leave vertices 0, 7, and n-1 isolated on purpose.
        rows = [
            [] if u in (0, 7, n - 1) else rng.integers(n, size=3) for u in range(n)
        ]
        g = ProximityGraph(n, rows)
        for loaded in saved_graphs(g, tmp_path):
            assert loaded == g
            assert len(loaded.out_neighbors(7)) == 0
            assert len(loaded.out_neighbors(n - 1)) == 0

    def test_roundtrip_fully_empty(self, tmp_path):
        g = ProximityGraph(5)
        for loaded in saved_graphs(g, tmp_path):
            assert loaded == g and loaded.num_edges == 0
