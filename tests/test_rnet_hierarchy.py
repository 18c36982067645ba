"""Tests for r-nets and the farthest-point net hierarchy (Section 2.1)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.metrics import Dataset, EuclideanMetric, TreeMetric
from repro.nets import (
    NetHierarchy,
    RNetViolation,
    farthest_point_order,
    greedy_rnet,
    verify_rnet,
)


class TestGreedyRNet:
    def test_separation_and_covering(self, uniform2d):
        for r in [0.5, 2.0, 8.0, 32.0]:
            net = greedy_rnet(uniform2d, r)
            verify_rnet(uniform2d, net, r)

    def test_tiny_radius_keeps_everything(self, uniform2d):
        net = greedy_rnet(uniform2d, 1e-9)
        assert len(net) == uniform2d.n

    def test_huge_radius_keeps_one(self, uniform2d):
        net = greedy_rnet(uniform2d, 1e9)
        assert len(net) == 1

    def test_deterministic(self, uniform2d):
        assert np.array_equal(greedy_rnet(uniform2d, 3.0), greedy_rnet(uniform2d, 3.0))

    def test_candidate_subset(self, uniform2d, rng):
        subset = rng.choice(uniform2d.n, size=30, replace=False).astype(np.intp)
        net = greedy_rnet(uniform2d, 4.0, candidate_ids=subset)
        verify_rnet(uniform2d, net, 4.0, covered_ids=subset)

    def test_rejects_nonpositive_radius(self, uniform2d):
        with pytest.raises(ValueError):
            greedy_rnet(uniform2d, 0.0)

    @given(
        arrays(
            np.float64,
            (12, 2),
            elements=st.floats(0, 100, allow_nan=False, allow_infinity=False),
            unique=True,
        ),
        st.floats(0.1, 50.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_rnet_invariants_property(self, pts, r):
        ds = Dataset(EuclideanMetric(), pts)
        verify_rnet(ds, greedy_rnet(ds, r), r)


class TestVerifyRNet:
    def test_catches_separation_violation(self, uniform2d):
        net = greedy_rnet(uniform2d, 8.0)
        # Add a point too close to an existing center.
        row = uniform2d.distances_from_index(int(net[0]), np.arange(uniform2d.n))
        close = int(np.argsort(row)[1])
        if close not in set(map(int, net)):
            bad = np.append(net, close)
            with pytest.raises(RNetViolation, match="separation"):
                verify_rnet(uniform2d, bad, 8.0)

    def test_catches_covering_violation(self, uniform2d):
        net = greedy_rnet(uniform2d, 4.0)
        if len(net) > 1:
            with pytest.raises(RNetViolation, match="covering|separation"):
                verify_rnet(uniform2d, net[:1], 0.5)

    def test_catches_duplicates(self, uniform2d):
        with pytest.raises(RNetViolation, match="duplicate"):
            verify_rnet(uniform2d, np.array([0, 0]), 1.0)

    def test_catches_foreign_centers(self, uniform2d, rng):
        subset = np.arange(10, dtype=np.intp)
        with pytest.raises(RNetViolation, match="covered set"):
            verify_rnet(uniform2d, np.array([50]), 1.0, covered_ids=subset)

    def test_empty_net_empty_cover(self, uniform2d):
        verify_rnet(
            uniform2d, np.array([], dtype=np.intp), 1.0,
            covered_ids=np.array([], dtype=np.intp),
        )


class TestFarthestPointOrder:
    def test_is_permutation(self, uniform2d):
        order, _ = farthest_point_order(uniform2d)
        assert sorted(order) == list(range(uniform2d.n))

    def test_insertion_distances_non_increasing(self, uniform2d):
        _, ins = farthest_point_order(uniform2d)
        assert np.isinf(ins[0])
        assert np.all(np.diff(ins[1:]) <= 1e-12)

    def test_insertion_distance_definition(self, uniform2d):
        order, ins = farthest_point_order(uniform2d)
        for k in [1, 5, 20, uniform2d.n - 1]:
            prefix = order[:k]
            want = uniform2d.distances_from_index(int(order[k]), prefix).min()
            assert ins[k] == pytest.approx(want)

    def test_min_insertion_at_least_min_distance(self, uniform2d):
        _, ins = farthest_point_order(uniform2d)
        assert ins[1:].min() >= uniform2d.min_interpoint_distance() - 1e-12

    def test_start_parameter(self, uniform2d):
        order, _ = farthest_point_order(uniform2d, start=17)
        assert order[0] == 17


class TestNetHierarchy:
    def test_every_level_is_a_net(self, uniform2d):
        hier = NetHierarchy(uniform2d)
        for i in range(hier.height + 1):
            verify_rnet(uniform2d, hier.level(i), float(2**i))

    def test_levels_nested(self, uniform2d):
        hier = NetHierarchy(uniform2d)
        for i in range(hier.height):
            assert set(map(int, hier.level(i + 1))) <= set(map(int, hier.level(i)))

    def test_level_zero_is_everything_when_normalized(self, uniform2d):
        # Normalized min distance 2 makes both Y_0 and Y_1 equal P.
        hier = NetHierarchy(uniform2d)
        assert hier.level_size(0) == uniform2d.n
        assert hier.level_size(1) == uniform2d.n

    def test_top_level_singleton(self, uniform2d):
        hier = NetHierarchy(uniform2d)
        # Derived height covers the diameter, so the top net is one point.
        assert hier.level_size(hier.height) == 1

    def test_net_for_arbitrary_radius(self, uniform2d):
        hier = NetHierarchy(uniform2d)
        for r in [3.0, 7.5, 40.0]:
            verify_rnet(uniform2d, hier.net_for_radius(r), r)

    def test_explicit_height_extends(self, uniform2d):
        hier = NetHierarchy(uniform2d, height=20)
        assert hier.height == 20
        assert hier.level_size(20) == 1

    def test_level_bounds_checked(self, uniform2d):
        hier = NetHierarchy(uniform2d)
        with pytest.raises(ValueError):
            hier.level(-1)
        with pytest.raises(ValueError):
            hier.level(hier.height + 1)

    def test_works_on_tree_metric(self):
        metric = TreeMetric(height=6)
        ds = Dataset(metric, np.arange(0, 64, 3, dtype=np.int64))
        hier = NetHierarchy(ds)
        for i in range(hier.height + 1):
            verify_rnet(ds, hier.level(i), float(2**i))

    def test_top_level_per_point(self, uniform2d):
        hier = NetHierarchy(uniform2d)
        for i in range(hier.height + 1):
            members = set(map(int, hier.level(i)))
            assert all((hier.top_level[p] >= i) == (p in members) for p in range(uniform2d.n))

    def test_recorded_in_edges_match_definition(self, rng):
        """With phi, the traversal keeps every (p, y), p != y, with
        D(p, y) <= phi * 2^top(y), and nothing else; a point in no level
        (the raw input's close pair) gets no in-edge."""
        pts = rng.uniform(0, 60, size=(90, 2))
        pts[1] = pts[0] + 0.3
        ds = Dataset(EuclideanMetric(), pts)
        hier = NetHierarchy(ds, phi=9.0)
        assert hier.level_size(0) < ds.n
        sources, targets, dists = hier.take_in_edges()
        got = set(zip(sources.tolist(), targets.tolist()))
        assert len(got) == len(sources)
        want = set()
        for y in hier.level(0):
            y = int(y)
            row = ds.distances_from_index_to_all(y)
            radius = 9.0 * 2.0 ** int(hier.top_level[y])
            want.update((p, y) for p in np.flatnonzero(row <= radius).tolist() if p != y)
        assert got == want
        rows = np.array([ds.distances_from_index_to_all(i) for i in range(ds.n)])
        assert np.array_equal(dists, rows[targets, sources])
        with pytest.raises(ValueError, match="no in-edges recorded"):
            hier.take_in_edges()

    def test_no_in_edges_without_phi(self, uniform2d):
        with pytest.raises(ValueError, match="no in-edges recorded"):
            NetHierarchy(uniform2d).take_in_edges()
