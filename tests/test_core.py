"""Tests for the public API: the index facade, builder registry, and
measurement helpers."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    BuiltGraph,
    IdMap,
    ProximityGraphIndex,
    SearchParams,
    ShardedIndex,
    available_builders,
    build,
    measure_queries,
    register_builder,
    timed,
)
from repro.baselines import build_complete_graph
from repro.cli import main
from repro.graphs import ProximityGraph
from repro.metrics import Dataset, EuclideanMetric, TreeMetric
from repro.workloads import uniform_cube


class TestBuilderRegistry:
    def test_expected_builders_present(self):
        names = available_builders()
        for expected in ["gnet", "theta", "merged", "diskann", "hnsw", "nsw",
                         "knn", "complete"]:
            assert expected in names

    def test_unknown_builder_rejected(self, uniform2d, rng):
        with pytest.raises(ValueError, match="unknown builder"):
            build("does-not-exist", uniform2d, 0.5, rng)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_builder("gnet")
            def clash(**kwargs):  # pragma: no cover
                raise AssertionError

    def test_guaranteed_flags(self, uniform2d, rng):
        assert build("gnet", uniform2d, 1.0, rng).guaranteed
        assert build("complete", uniform2d, 1.0, rng).guaranteed
        assert not build("knn", uniform2d, 1.0, rng).guaranteed
        assert not build("hnsw", uniform2d, 1.0, rng).guaranteed

    def test_meta_contents(self, uniform2d, rng):
        g = build("gnet", uniform2d, 1.0, rng)
        assert "params" in g.meta and "hierarchy" in g.meta
        d = build("diskann", uniform2d, 1.0, rng)
        assert d.meta["alpha"] == pytest.approx(3.0)


class TestIndexFacade:
    def test_build_and_query_roundtrip(self, rng):
        pts = uniform_cube(150, 2, rng)
        index = ProximityGraphIndex.build(pts, epsilon=0.5, method="gnet", seed=3)
        ds = Dataset(EuclideanMetric(), pts)
        for _ in range(15):
            q = rng.uniform(size=2)
            pid, dist = index.search(q, params=SearchParams(mode="greedy")).top1()
            nn_id, nn_dist = ds.nearest_neighbor(q)
            assert dist <= (1 + 0.5) * nn_dist + 1e-9
            # reported distance is in original units
            assert dist == pytest.approx(
                float(np.linalg.norm(pts[pid] - q)), rel=1e-9
            )

    def test_query_k_contains_exact_nn_with_wide_beam(self, rng):
        pts = uniform_cube(100, 2, rng)
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="gnet")
        ds = Dataset(EuclideanMetric(), pts)
        q = rng.uniform(size=2)
        got = index.search(q, k=5, params=SearchParams(mode="beam", beam_width=40)).ids[0]
        assert ds.nearest_neighbor(q)[0] in got

    def test_stats_fields(self, rng):
        pts = uniform_cube(80, 2, rng)
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="gnet")
        s = index.stats()
        for key in ["n", "edges", "builder", "epsilon", "guaranteed", "h", "phi"]:
            assert key in s
        assert s["n"] == 80

    def test_validate_clean_on_guaranteed_builder(self, rng):
        pts = uniform_cube(80, 2, rng)
        index = ProximityGraphIndex.build(pts, epsilon=0.5, method="gnet")
        queries = [rng.uniform(size=2) for _ in range(20)]
        assert index.validate(queries, stop_at=None) == []

    def test_validate_finds_knn_failure(self, rng):
        a = rng.normal(0, 0.01, size=(15, 2))
        b = rng.normal(0, 0.01, size=(15, 2)) + 5.0
        pts = np.vstack([a, b])
        index = ProximityGraphIndex.build(pts, epsilon=0.5, method="knn", k=4)
        assert index.validate([pts[20] + 1e-4]) != []

    def test_seed_determinism(self, rng):
        pts = uniform_cube(60, 2, rng)
        a = ProximityGraphIndex.build(pts, method="merged", seed=9, theta=0.4)
        b = ProximityGraphIndex.build(pts, method="merged", seed=9, theta=0.4)
        assert a.graph == b.graph

    def test_custom_metric(self, rng):
        leaves = np.sort(rng.choice(256, size=40, replace=False)).astype(np.int64)
        index = ProximityGraphIndex.build(
            leaves, epsilon=1.0, method="gnet", metric=TreeMetric(8),
            normalize=False,
        )
        q = int(rng.integers(256))
        pid, dist = index.search(q, params=SearchParams(mode="greedy")).top1()
        ds = Dataset(TreeMetric(8), leaves)
        assert dist <= 2 * ds.nearest_neighbor(q)[1] + 1e-9

    def test_normalize_false_keeps_scale(self, rng):
        pts = uniform_cube(50, 2, rng) * 100
        index = ProximityGraphIndex.build(pts, method="gnet", normalize=False)
        assert index.scale == 1.0

    def test_measure_returns_stats(self, rng):
        pts = uniform_cube(60, 2, rng)
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="gnet")
        stats = index.measure([rng.uniform(size=2) for _ in range(10)])
        assert stats.num_queries == 10
        assert stats.epsilon_satisfied_fraction == 1.0
        assert stats.mean_distance_evals > 0

    def test_budget_query(self, rng):
        pts = uniform_cube(60, 2, rng)
        index = ProximityGraphIndex.build(pts, epsilon=1.0, method="gnet")
        r = index.search(
            rng.uniform(size=2), params=SearchParams(mode="greedy", budget=10)
        )
        assert 0 <= r.top1()[0] < 60
        assert int(r.evals[0]) <= 10


class TestMeasureQueries:
    def test_complete_graph_perfect(self, uniform2d, rng):
        g = build_complete_graph(uniform2d)
        queries = [rng.uniform(0, 30, size=2) for _ in range(10)]
        stats = measure_queries(g, uniform2d, queries, epsilon=0.1)
        assert stats.recall_at_1 == 1.0
        assert stats.mean_approximation == pytest.approx(1.0)
        assert stats.max_hops <= uniform2d.n

    def test_budget_limits_evals(self, uniform2d, rng):
        g = build_complete_graph(uniform2d)
        queries = [rng.uniform(0, 30, size=2) for _ in range(5)]
        stats = measure_queries(g, uniform2d, queries, epsilon=0.1, budget=50)
        assert stats.max_distance_evals <= 50

    def test_per_query_records(self, uniform2d, rng):
        g = build_complete_graph(uniform2d)
        stats = measure_queries(
            g, uniform2d, [rng.uniform(size=2)], epsilon=1.0, keep_per_query=True
        )
        assert len(stats.per_query) == 1
        assert {"start", "evals", "hops", "ratio", "returned", "nn"} <= set(
            stats.per_query[0]
        )

    def test_explicit_starts(self, uniform2d, rng):
        g = build_complete_graph(uniform2d)
        queries = [rng.uniform(size=2) for _ in range(3)]
        stats = measure_queries(
            g, uniform2d, queries, epsilon=1.0, starts=[0, 1, 2],
            keep_per_query=True,
        )
        assert [r["start"] for r in stats.per_query] == [0, 1, 2]

    def test_table_row_shape(self, uniform2d, rng):
        g = build_complete_graph(uniform2d)
        stats = measure_queries(g, uniform2d, [rng.uniform(size=2)], epsilon=1.0)
        row = stats.table_row()
        assert "evals_mean" in row and "recall@1" in row

    def test_timed(self):
        out, seconds = timed(lambda: 41 + 1)
        assert out == 42
        assert seconds >= 0.0


class TestUnreachable:
    """``unreachable``: live points with no in-edge, the points a search
    returns only when it starts there."""

    # 0 <-> 1 <-> 2 is the core; 3 -> 0 has no in-edge (an orphan);
    # 4 -> 5 is 5's only in-edge and 4 is tombstoned: 5 stays reachable
    # through it, and 4 itself is not live.
    ROWS = [[1], [0, 2], [1], [0], [5], []]

    @classmethod
    def _index(cls, first_id=0, graph=None):
        pts = np.random.default_rng(0).standard_normal((6, 2))
        graph = ProximityGraph(6, cls.ROWS) if graph is None else graph
        return ProximityGraphIndex(
            Dataset(EuclideanMetric(), pts),
            BuiltGraph("hand", graph, 1.0, False),
            scale=1.0,
            id_map=IdMap(np.arange(first_id, first_id + 6)),
            tombstones=np.array([False, False, False, False, True, False]),
        )

    def test_flat_index(self):
        index = self._index()
        assert index.unreachable_count == 1
        assert index.stats()["unreachable"] == 1

    def test_a_corrupt_target_reaches_nothing(self):
        # A file whose ids leave [0, n) still gets a count (``index info``
        # prints it before --validate names the violation).  1 -> 2 now
        # points at -1 and 3 -> 0 at 6 and 9: ids out of range reach
        # nothing, so 2 joins 3 as unreachable, and 0 keeps 1 -> 0.
        offsets = np.array([0, 1, 3, 4, 6, 7, 7])
        targets = np.array([1, 0, -1, 1, 6, 9, 5], dtype=np.int32)
        graph = ProximityGraph.from_csr(6, offsets, targets, validate=False)
        assert self._index(graph=graph).unreachable_count == 2

    def test_sharded_index_sums_its_shards(self):
        sharded = ShardedIndex([self._index(0), self._index(6)])
        stats = sharded.stats()
        assert sharded.unreachable_count == stats["unreachable"] == 2
        assert [s["unreachable"] for s in stats["per_shard"]] == [1, 1]

    def test_index_info(self, tmp_path, capsys):
        path = self._index().save(tmp_path / "hand.npz")
        assert main(["index", "info", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["unreachable"] == 1
