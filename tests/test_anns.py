"""Tests for the dynamic ANN substrates: brute force (oracle), cover tree,
and hash grid — including cross-validation among them."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anns import BruteForceANN, CoverTree, GridANN
from repro.metrics import (
    ChebyshevMetric,
    Dataset,
    EuclideanMetric,
    ExplicitMatrixMetric,
    TreeMetric,
)


def _random_dataset(rng, n=60, dim=2):
    pts = rng.uniform(0, 100, size=(n, dim))
    return Dataset(EuclideanMetric(), pts)


class TestBruteForce:
    def test_nearest_matches_scan(self, rng):
        ds = _random_dataset(rng)
        ann = BruteForceANN(ds, point_ids=range(ds.n))
        q = rng.uniform(0, 100, size=2)
        got = ann.nearest(q)
        want = ds.nearest_neighbor(q)
        assert got == (want[0], pytest.approx(want[1]))

    def test_knn_sorted_and_correct(self, rng):
        ds = _random_dataset(rng)
        ann = BruteForceANN(ds, point_ids=range(ds.n))
        q = rng.uniform(0, 100, size=2)
        got = ann.knn(q, 5)
        dists = ds.distances_to_query_all(q)
        want_ids = set(np.argsort(dists)[:5].tolist())
        assert [round(d, 9) for _, d in got] == sorted(round(d, 9) for _, d in got)
        assert {i for i, _ in got} == want_ids

    def test_range_search(self, rng):
        ds = _random_dataset(rng)
        ann = BruteForceANN(ds, point_ids=range(ds.n))
        q = rng.uniform(0, 100, size=2)
        got = {i for i, _ in ann.range_search(q, 20.0)}
        want = set(np.flatnonzero(ds.distances_to_query_all(q) <= 20.0).tolist())
        assert got == want

    def test_delete_and_reinsert(self, rng):
        ds = _random_dataset(rng)
        ann = BruteForceANN(ds, point_ids=range(ds.n))
        q = ds.points[3]
        assert ann.nearest(q)[0] == 3
        ann.delete(3)
        assert ann.nearest(q)[0] != 3
        ann.insert(3)
        assert ann.nearest(q)[0] == 3

    def test_empty_structure(self, rng):
        ds = _random_dataset(rng)
        ann = BruteForceANN(ds)
        assert ann.nearest(ds.points[0]) is None
        assert ann.knn(ds.points[0], 3) == []
        assert len(ann) == 0

    def test_second_nearest_to_id(self, rng):
        ds = _random_dataset(rng)
        ann = BruteForceANN(ds, point_ids=range(ds.n))
        sid, sd = ann.second_nearest_to_id(7)
        row = ds.distances_from_index_to_all(7)
        row[7] = np.inf
        assert sid == int(np.argmin(row))
        assert sd == pytest.approx(row.min())


class TestCoverTree:
    def test_matches_bruteforce_nearest(self, rng):
        ds = _random_dataset(rng, n=100)
        tree = CoverTree(ds, point_ids=range(ds.n))
        brute = BruteForceANN(ds, point_ids=range(ds.n))
        for _ in range(30):
            q = rng.uniform(-20, 120, size=2)
            got, want = tree.nearest(q), brute.nearest(q)
            assert got[1] == pytest.approx(want[1])

    def test_matches_bruteforce_knn(self, rng):
        ds = _random_dataset(rng, n=80)
        tree = CoverTree(ds, point_ids=range(ds.n))
        brute = BruteForceANN(ds, point_ids=range(ds.n))
        for _ in range(15):
            q = rng.uniform(0, 100, size=2)
            got = [round(d, 9) for _, d in tree.knn(q, 7)]
            want = [round(d, 9) for _, d in brute.knn(q, 7)]
            assert got == want

    def test_matches_bruteforce_range(self, rng):
        ds = _random_dataset(rng, n=80)
        tree = CoverTree(ds, point_ids=range(ds.n))
        brute = BruteForceANN(ds, point_ids=range(ds.n))
        for radius in [5.0, 25.0, 80.0]:
            q = rng.uniform(0, 100, size=2)
            got = {i for i, _ in tree.range_search(q, radius)}
            want = {i for i, _ in brute.range_search(q, radius)}
            assert got == want

    def test_invariants_after_random_build(self, rng):
        ds = _random_dataset(rng, n=70)
        tree = CoverTree(ds, point_ids=rng.permutation(ds.n))
        tree.check_invariants()

    def test_deletions_respected(self, rng):
        ds = _random_dataset(rng, n=50)
        tree = CoverTree(ds, point_ids=range(ds.n))
        brute = BruteForceANN(ds, point_ids=range(ds.n))
        victims = rng.choice(ds.n, size=20, replace=False)
        for v in victims:
            tree.delete(int(v))
            brute.delete(int(v))
        for _ in range(20):
            q = rng.uniform(0, 100, size=2)
            assert tree.nearest(q)[1] == pytest.approx(brute.nearest(q)[1])

    def test_delete_reinsert_cycle(self, rng):
        """The Section 2.4 usage pattern: delete a batch, re-insert it."""
        ds = _random_dataset(rng, n=40)
        tree = CoverTree(ds, point_ids=range(ds.n))
        for _ in range(5):
            batch = rng.choice(ds.n, size=10, replace=False)
            for v in batch:
                tree.delete(int(v))
            for v in batch:
                tree.insert(int(v))
        assert len(tree) == ds.n
        brute = BruteForceANN(ds, point_ids=range(ds.n))
        q = rng.uniform(0, 100, size=2)
        assert tree.nearest(q)[1] == pytest.approx(brute.nearest(q)[1])

    def test_rebuild_drops_tombstones(self, rng):
        ds = _random_dataset(rng, n=30)
        tree = CoverTree(ds, point_ids=range(ds.n))
        for v in range(16):  # more than half triggers rebuild
            tree.delete(v)
        assert len(tree._dead) == 0  # rebuild happened
        assert len(tree) == 14
        tree.check_invariants()

    def test_duplicate_insert_rejected(self, rng):
        ds = _random_dataset(rng, n=10)
        tree = CoverTree(ds, point_ids=range(ds.n))
        with pytest.raises(ValueError, match="already stored"):
            tree.insert(0)

    def test_duplicate_point_rejected(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
        ds = Dataset(EuclideanMetric(), pts)
        tree = CoverTree(ds)
        tree.insert(0)
        tree.insert(1)
        with pytest.raises(ValueError, match="duplicates"):
            tree.insert(2)

    def test_works_on_tree_metric(self, rng):
        metric = TreeMetric(height=8)
        leaves = rng.choice(metric.num_leaves, size=50, replace=False).astype(np.int64)
        ds = Dataset(metric, leaves)
        tree = CoverTree(ds, point_ids=range(ds.n))
        tree.check_invariants()
        brute = BruteForceANN(ds, point_ids=range(ds.n))
        for q in rng.integers(0, metric.num_leaves, size=20):
            assert tree.nearest(int(q))[1] == brute.nearest(int(q))[1]

    def test_empty_and_single(self, rng):
        ds = _random_dataset(rng, n=5)
        tree = CoverTree(ds)
        assert tree.nearest(ds.points[0]) is None
        tree.insert(2)
        assert tree.nearest(ds.points[2]) == (2, 0.0)


class TestGridANN:
    def test_range_matches_bruteforce_l2(self, rng):
        ds = _random_dataset(rng, n=90)
        grid = GridANN(ds, cell_size=10.0, point_ids=range(ds.n))
        brute = BruteForceANN(ds, point_ids=range(ds.n))
        for radius in [3.0, 15.0, 60.0]:
            q = rng.uniform(0, 100, size=2)
            got = {i for i, _ in grid.range_search(q, radius)}
            want = {i for i, _ in brute.range_search(q, radius)}
            assert got == want

    def test_range_matches_bruteforce_linf(self, rng):
        pts = rng.uniform(0, 50, size=(60, 3))
        ds = Dataset(ChebyshevMetric(), pts)
        grid = GridANN(ds, cell_size=7.0, point_ids=range(ds.n))
        brute = BruteForceANN(ds, point_ids=range(ds.n))
        q = rng.uniform(0, 50, size=3)
        got = {i for i, _ in grid.range_search(q, 12.0)}
        want = {i for i, _ in brute.range_search(q, 12.0)}
        assert got == want

    def test_nearest_exact(self, rng):
        ds = _random_dataset(rng, n=70)
        grid = GridANN(ds, cell_size=5.0, point_ids=range(ds.n))
        for _ in range(25):
            q = rng.uniform(-50, 150, size=2)
            got = grid.nearest(q)
            want = ds.nearest_neighbor(q)
            assert got[1] == pytest.approx(want[1])

    def test_knn_exact(self, rng):
        ds = _random_dataset(rng, n=70)
        grid = GridANN(ds, cell_size=8.0, point_ids=range(ds.n))
        brute = BruteForceANN(ds, point_ids=range(ds.n))
        q = rng.uniform(0, 100, size=2)
        got = [round(d, 9) for _, d in grid.knn(q, 6)]
        want = [round(d, 9) for _, d in brute.knn(q, 6)]
        assert got == want

    def test_insert_delete(self, rng):
        ds = _random_dataset(rng, n=30)
        grid = GridANN(ds, cell_size=10.0, point_ids=range(ds.n))
        grid.delete(5)
        assert len(grid) == 29
        assert 5 not in {i for i, _ in grid.range_search(ds.points[5], 1e9)}
        grid.insert(5)
        assert grid.nearest(ds.points[5]) == (5, pytest.approx(0.0))

    def test_buckets_in_metric_units_under_a_scaled_metric(self, uniform2d):
        """Radii and the cell width arrive in the *metric's* units; a
        normalized dataset's metric is a ScaledMetric, and bucketing its
        raw coordinates by those numbers left one occupied cell."""
        level0_radius = 9.0  # phi * 2^0 at eps = 1
        grid = GridANN(uniform2d, cell_size=level0_radius, point_ids=range(uniform2d.n))
        brute = BruteForceANN(uniform2d, point_ids=range(uniform2d.n))
        assert len(grid._cells) > 1
        low, high = uniform2d.points.min(axis=0), uniform2d.points.max(axis=0)
        for q in np.random.default_rng(3).uniform(low, high, size=(12, 2)):
            for radius in (level0_radius, 4 * level0_radius):
                assert grid.range_search(q, radius) == brute.range_search(q, radius)
            assert grid.nearest(q) == brute.nearest(q)
            assert grid.knn(q, 5) == brute.knn(q, 5)
        far = high + 50.0 * (high - low)
        assert grid.nearest(far) == brute.nearest(far)

    def test_rejects_non_coordinate_metric(self, rng):
        ds = Dataset(ExplicitMatrixMetric(np.zeros((6, 6))), rng.uniform(size=(6, 2)))
        with pytest.raises(ValueError, match="L_p coordinate metric"):
            GridANN(ds, cell_size=1.0)

    def test_rejects_bad_cell_size(self, rng):
        ds = _random_dataset(rng, n=5)
        with pytest.raises(ValueError):
            GridANN(ds, cell_size=0.0)

    def test_requires_coordinates(self):
        metric = TreeMetric(height=4)
        ds = Dataset(metric, np.arange(16, dtype=np.int64))
        with pytest.raises(ValueError, match="coordinate"):
            GridANN(ds, cell_size=1.0)
