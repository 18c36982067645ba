"""Tests for the dynamic ANN substrates: brute force (oracle) and cover
tree — including cross-validation between them."""

from __future__ import annotations

import numpy as np
import pytest

from repro.anns import BruteForceANN, CoverTree
from repro.metrics import Dataset, EuclideanMetric, TreeMetric


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
