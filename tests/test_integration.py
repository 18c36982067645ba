"""Cross-module integration tests: full pipelines over multiple metrics,
builders, and query regimes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ProximityGraphIndex, build
from repro.graphs import build_gnet, find_violations, greedy_batch
from repro.metrics import (
    Dataset,
    EuclideanMetric,
    MinkowskiMetric,
    normalize_min_distance,
)
from repro.workloads import (
    gaussian_clusters,
    geometric_clusters,
    low_doubling_curve,
    make_dataset,
    uniform_cube,
)
from tests.conftest import mixed_queries, saved_graphs
from tests.reference import build_gnet_vectorized

GUARANTEED = ["gnet", "theta", "merged", "diskann", "complete"]


class TestAllGuaranteedBuildersSatisfyEpsilon:
    @pytest.mark.parametrize("name", GUARANTEED)
    def test_epsilon_satisfied_from_every_start(self, name, rng):
        eps = 1.0
        ds = make_dataset(gaussian_clusters(60, 2, rng, clusters=3))
        options = {"theta": 0.35} if name in ("theta", "merged") else {}
        if name == "theta":
            # a generous angle is NOT covered by Lemma 5.1's guarantee;
            # use the prescribed one for the guarantee test
            options = {}
        built = build(name, ds, eps, rng, **options)
        for _ in range(8):
            q = rng.uniform(-2, 35, size=2)
            nn = ds.distances_to_query_all(q).min()
            for start in rng.integers(ds.n, size=4):
                result = greedy_batch(built.graph, ds, [start], [q])[0]
                assert result.distance <= (1 + eps) * nn + 1e-9, (
                    f"{name} violated (1+eps) from start {start}"
                )


class TestAcrossMetrics:
    def test_gnet_on_l4_metric(self, rng):
        pts = uniform_cube(60, 2, rng)
        ds = Dataset(MinkowskiMetric(4.0), pts)
        ds, _ = normalize_min_distance(ds)
        res = build_gnet_vectorized(ds, 1.0)
        queries = [rng.uniform(-1, 35, size=2) for _ in range(15)]
        assert find_violations(res.graph, ds, queries, 1.0, stop_at=None) == []

    def test_gnet_on_high_ambient_low_doubling(self, rng):
        """A curve in R^6: the ambient dimension is irrelevant, the graph
        stays navigable and reasonably sparse."""
        ds = make_dataset(low_doubling_curve(80, 6, rng))
        res = build_gnet(ds, epsilon=1.0)
        queries = [np.asarray(ds.points)[i] * 1.01 for i in range(0, 80, 10)]
        assert find_violations(res.graph, ds, queries, 1.0, stop_at=None) == []
        assert res.graph.num_edges < ds.n**2 / 2

    def test_high_aspect_ratio_workload(self, rng):
        """Fractal clusters with Delta ~ 8^5: all levels of the hierarchy
        are exercised."""
        ds = make_dataset(geometric_clusters(70, 2, rng, levels=5))
        res = build_gnet(ds, epsilon=1.0)
        assert res.params.height >= 10
        queries = mixed_queries(ds, rng, m=16)
        assert find_violations(res.graph, ds, queries, 1.0, stop_at=None) == []


class TestEndToEndPersistence:
    def test_graph_roundtrip_preserves_navigability(self, tmp_path, rng):
        ds = make_dataset(uniform_cube(60, 2, rng))
        res = build_gnet(ds, epsilon=0.5)
        queries = mixed_queries(ds, rng, m=12)
        for loaded in saved_graphs(res.graph, tmp_path):
            assert find_violations(loaded, ds, queries, 0.5, stop_at=None) == []


class TestFacadeAcrossBuilders:
    @pytest.mark.parametrize(
        "method,opts",
        [
            ("gnet", {}),
            ("merged", {"theta": 0.4}),
            ("diskann", {}),
            ("hnsw", {}),
            ("nsw", {}),
        ],
    )
    def test_build_query_measure(self, method, opts, rng):
        pts = uniform_cube(70, 2, rng)
        index = ProximityGraphIndex.build(
            pts, epsilon=1.0, method=method, seed=1, **opts
        )
        stats = index.measure([rng.uniform(size=2) for _ in range(8)])
        assert stats.num_queries == 8
        if index.built.guaranteed:
            assert stats.epsilon_satisfied_fraction == 1.0


class TestGNetPropertyBased:
    @given(
        st.integers(10, 26),
        st.sampled_from([1.0, 0.5]),
        st.integers(0, 10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_random_instances_navigable(self, n, eps, seed):
        """Hypothesis: arbitrary small Euclidean instances produce
        navigable G_nets — the library's central invariant."""
        rng = np.random.default_rng(seed)
        pts = rng.uniform(0, 50, size=(n, 2))
        ds = Dataset(EuclideanMetric(), np.unique(pts, axis=0))
        if ds.n < 2:
            return
        ds, _ = normalize_min_distance(ds)
        res = build_gnet_vectorized(ds, eps)
        queries = [rng.uniform(-10, 150, size=2) for _ in range(6)]
        queries += [np.asarray(ds.points)[int(rng.integers(ds.n))]]
        assert find_violations(res.graph, ds, queries, eps, stop_at=None) == []

    @given(st.integers(8, 20), st.integers(0, 10_000))
    @settings(max_examples=10, deadline=None)
    def test_random_instances_min_degree(self, n, seed):
        """Proposition 2.1 under hypothesis."""
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(n, 3)) * 10
        ds = Dataset(EuclideanMetric(), np.unique(pts, axis=0))
        if ds.n < 2:
            return
        ds, _ = normalize_min_distance(ds)
        res = build_gnet_vectorized(ds, 1.0)
        assert res.graph.min_out_degree() >= 1
