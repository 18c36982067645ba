"""Deeper property-based tests: stateful cover-tree fuzzing, randomized
builder-equivalence, randomized adversarial-metric axioms, and graph
round-trips through a saved index under hypothesis control."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.anns import BruteForceANN, CoverTree
from repro.graphs import ProximityGraph, build_gnet, build_theta_graph
from repro.metrics import (
    BlockAdversarialMetric,
    ChebyshevMetric,
    Dataset,
    EuclideanMetric,
    MinkowskiMetric,
    normalize_min_distance,
)
from tests.conftest import saved_graphs
from tests.reference import build_gnet_vectorized


# ----------------------------------------------------------------------
# Stateful fuzzing: the cover tree must agree with brute force under any
# interleaving of inserts, deletes, and queries.
# ----------------------------------------------------------------------

_POOL_RNG = np.random.default_rng(424242)
_POOL = _POOL_RNG.uniform(0, 100, size=(64, 2))
_DATASET = Dataset(EuclideanMetric(), _POOL)


class CoverTreeMachine(RuleBasedStateMachine):
    """Drive a CoverTree and a BruteForceANN with the same operations and
    compare every query answer."""

    def __init__(self):
        super().__init__()
        self.tree = CoverTree(_DATASET)
        self.oracle = BruteForceANN(_DATASET)
        self.stored: set[int] = set()

    @rule(pid=st.integers(0, 63))
    def insert(self, pid):
        if pid in self.stored:
            with pytest.raises(ValueError):
                self.tree.insert(pid)
            return
        self.tree.insert(pid)
        self.oracle.insert(pid)
        self.stored.add(pid)

    @precondition(lambda self: self.stored)
    @rule(data=st.data())
    def delete(self, data):
        pid = data.draw(st.sampled_from(sorted(self.stored)))
        self.tree.delete(pid)
        self.oracle.delete(pid)
        self.stored.remove(pid)

    @rule(x=st.floats(-20, 120), y=st.floats(-20, 120))
    def query_nearest(self, x, y):
        q = np.array([x, y])
        got, want = self.tree.nearest(q), self.oracle.nearest(q)
        if want is None:
            assert got is None
        else:
            assert got is not None
            assert got[1] == pytest.approx(want[1])

    @rule(x=st.floats(0, 100), y=st.floats(0, 100), k=st.integers(1, 6))
    def query_knn(self, x, y, k):
        q = np.array([x, y])
        got = [round(d, 9) for _, d in self.tree.knn(q, k)]
        want = [round(d, 9) for _, d in self.oracle.knn(q, k)]
        assert got == want

    @rule(x=st.floats(0, 100), y=st.floats(0, 100), r=st.floats(1, 60))
    def query_range(self, x, y, r):
        q = np.array([x, y])
        got = {i for i, _ in self.tree.range_search(q, r)}
        want = {i for i, _ in self.oracle.range_search(q, r)}
        assert got == want

    @invariant()
    def sizes_agree(self):
        assert len(self.tree) == len(self.oracle) == len(self.stored)


CoverTreeMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)
TestCoverTreeStateful = CoverTreeMachine.TestCase


# ----------------------------------------------------------------------
# Randomized builder equivalence and metric axioms
# ----------------------------------------------------------------------


class TestThetaBuilderEquivalence:
    @given(
        st.integers(0, 10_000),
        st.integers(15, 45),
        st.sampled_from([0.2, 0.45, 0.8]),
    )
    @settings(max_examples=15, deadline=None)
    def test_sweep_equals_vectorized(self, seed, n, theta):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 50, size=(n, 2))
        ds = Dataset(EuclideanMetric(), pts)
        a = build_theta_graph(ds, theta, method="sweep")
        b = build_theta_graph(ds, theta, method="vectorized", cones=a.cones)
        assert a.graph == b.graph


class TestGNetJoinEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(5, 40),
        dim=st.integers(1, 4),
        metric=st.sampled_from(
            [EuclideanMetric(), ChebyshevMetric(), MinkowskiMetric(1.0), MinkowskiMetric(3.0)]
        ),
        normalized=st.booleans(),
        epsilon=st.sampled_from([1.0, 0.5, 0.2]),
    )
    @settings(max_examples=40, deadline=None)
    def test_grid_join_equals_vectorized(self, seed, n, dim, metric, normalized, epsilon):
        """The default build (edges read off the net traversal) against
        the level-by-level reference: same CSR arrays, same per-level
        bookkeeping."""
        rng = np.random.default_rng(seed)
        ds = Dataset(metric, rng.uniform(0, 50, size=(n, dim)))
        if normalized:
            ds, _ = normalize_min_distance(ds)
        a = build_gnet(ds, epsilon)
        b = build_gnet_vectorized(ds, epsilon)
        for got, want in zip(a.graph.csr(), b.graph.csr()):
            assert np.array_equal(got, want)
        assert a.level_edge_counts == b.level_edge_counts
        assert a.level_sizes == b.level_sizes


class TestAdversarialMetricRandomized:
    @given(
        st.integers(2, 4),
        st.integers(1, 3),
        st.integers(1, 2),
        st.integers(0, 10_000),
    )
    @settings(max_examples=20, deadline=None)
    def test_committed_metric_axioms(self, s, t, d, seed):
        rng = np.random.default_rng(seed)
        base = BlockAdversarialMetric(s, t, d)
        p_star = int(rng.integers(base.n))
        metric = BlockAdversarialMetric(s, t, d, p_star=p_star)
        sample = rng.choice(base.n + 1, size=min(base.n + 1, 12), replace=False)
        metric.check_axioms(sample.astype(np.int64))

    @given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 2))
    @settings(max_examples=15, deadline=None)
    def test_nn_of_q_is_always_p_star(self, s, t, d):
        base = BlockAdversarialMetric(s, t, d)
        for p_star in range(0, base.n, max(base.n // 5, 1)):
            metric = BlockAdversarialMetric(s, t, d, p_star=p_star)
            dist = metric.distances(metric.query_id, metric.point_ids())
            assert int(np.argmin(dist)) == p_star


class TestGraphPersistenceRandomized:
    @given(
        n=st.integers(2, 40),
        m=st.integers(0, 300),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=25, deadline=None)
    def test_save_load_roundtrip(self, tmp_path_factory, n, m, seed):
        """Random graphs — empty rows, and no edges at all when m = 0 —
        through an index saved as v4 and as v5."""
        rng = np.random.default_rng(seed)
        edges = [
            (int(rng.integers(n)), int(rng.integers(n))) for _ in range(m)
        ]
        g = ProximityGraph.from_edge_list(n, edges)
        for loaded in saved_graphs(g, tmp_path_factory.mktemp("roundtrip")):
            assert loaded == g
            assert loaded.num_edges == g.num_edges


class TestGreedyDescentRandomGraphs:
    @given(st.integers(5, 30), st.integers(0, 10_000), st.floats(0.05, 0.6))
    @settings(max_examples=25, deadline=None)
    def test_hop_distances_strictly_decrease(self, n, seed, density):
        """On arbitrary random digraphs (no navigability whatsoever),
        greedy's hop sequence still descends strictly — a structural
        invariant of the procedure itself."""
        from repro.graphs import greedy_batch

        rng = np.random.default_rng(seed)
        pts = rng.uniform(size=(n, 2))
        pts = np.unique(pts, axis=0)
        if len(pts) < 2:
            return
        ds = Dataset(EuclideanMetric(), pts)
        adj = [
            np.flatnonzero(rng.random(len(pts)) < density) for _ in range(len(pts))
        ]
        g = ProximityGraph(len(pts), adj)
        q = rng.uniform(size=2)
        result = greedy_batch(g, ds, [rng.integers(len(pts))], [q])[0]
        dists = [ds.distance_to_query(q, p) for p in result.hops]
        assert all(a > b for a, b in zip(dists, dists[1:]))
        assert result.self_terminated
