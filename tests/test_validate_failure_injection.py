"""Tests for the exhaustive validator and failure-injection machinery —
including the Fact 2.1 cross-check that ties the local and behavioral
definitions together on both healthy and corrupted graphs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import build_knn_digraph
from repro.graphs import build_gnet
from repro.graphs.validate import (
    GreedyFailure,
    corrupt_graph,
    exhaustive_greedy_check,
    validate_proximity_graph,
)
from repro.lowerbounds import build_block_instance, build_tree_instance
from repro.metrics import Dataset, EuclideanMetric
from repro.workloads import make_dataset, uniform_cube
from tests.reference import greedy


def reference_check(graph, dataset, queries, epsilon, stop_at):
    """The exhaustive check as one reference greedy walk per (query,
    start), in that order."""
    failures = []
    for q in queries:
        nn_dist = float(dataset.distances_to_query_all(q).min())
        threshold = (1.0 + epsilon) * nn_dist * (1.0 + 1e-12)
        for s in range(graph.n):
            result = greedy(graph, dataset, s, q)
            if result.distance > threshold:
                failures.append(
                    GreedyFailure(q, s, result.point, result.distance, nn_dist)
                )
                if stop_at is not None and len(failures) >= stop_at:
                    return failures
    return failures


class TestExhaustiveGreedyCheck:
    def test_clean_gnet_passes_all_starts(self, rng):
        ds = make_dataset(uniform_cube(50, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        queries = [rng.uniform(0, 20, size=2) for _ in range(5)]
        assert exhaustive_greedy_check(
            res.graph, ds, queries, 1.0, stop_at=None
        ) == []

    def test_two_cluster_knn_fails_with_witness(self, rng):
        a = rng.normal(0, 0.02, size=(15, 2))
        b = rng.normal(0, 0.02, size=(15, 2)) + np.array([8.0, 0.0])
        ds = Dataset(EuclideanMetric(), np.vstack([a, b]))
        g = build_knn_digraph(ds, k=4)
        failures = exhaustive_greedy_check(
            g, ds, [np.array([8.0, 0.0])], 0.5, stop_at=None
        )
        assert failures
        f = failures[0]
        assert f.returned_distance > 1.5 * f.nn_distance
        assert f.start < 15  # stranded in the far cluster

    def test_custom_starts(self, rng):
        ds = make_dataset(uniform_cube(30, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        out = exhaustive_greedy_check(
            res.graph, ds, [rng.uniform(size=2)], 1.0, starts=[0, 5], stop_at=None
        )
        assert out == []

    def test_stop_at_short_circuits(self, rng):
        a = rng.normal(0, 0.02, size=(10, 2))
        b = rng.normal(0, 0.02, size=(10, 2)) + np.array([8.0, 0.0])
        ds = Dataset(EuclideanMetric(), np.vstack([a, b]))
        g = build_knn_digraph(ds, k=3)
        failures = exhaustive_greedy_check(
            g, ds, [np.array([8.0, 0.0])], 0.5, stop_at=2
        )
        assert len(failures) == 2


class TestBatchedCheckMatchesReference:
    """One batch per query over all starts returns the failures the
    per-(query, start) reference loop finds, in the same order and cut at
    the same ``stop_at``."""

    @pytest.mark.parametrize("stop_at", [1, 3, None])
    def test_block_instance_committed_metric(self, stop_at):
        inst = build_block_instance(side=3, copies=2, dim=2)
        res = build_gnet(inst.normalized_dataset(), epsilon=inst.epsilon)
        bad = corrupt_graph(res.graph, np.random.default_rng(5), 0.7, victims=12)
        for p_star in (0, 4, 11):
            ds, qid = inst.committed_dataset(p_star)
            queries = list(range(inst.n)) + [qid]
            want = reference_check(bad, ds, queries, inst.epsilon, stop_at)
            got = exhaustive_greedy_check(
                bad, ds, queries, inst.epsilon, stop_at=stop_at
            )
            assert len(want) == stop_at if stop_at else len(want) > 100
            assert got == want

    @pytest.mark.parametrize("stop_at", [1, 3, None])
    def test_tree_instance(self, stop_at):
        inst = build_tree_instance(16, 128)
        res = build_gnet(inst.dataset, epsilon=1.0)
        bad = corrupt_graph(res.graph, np.random.default_rng(5), 0.7, victims=8)
        queries = list(inst.all_metric_points())
        want = reference_check(bad, inst.dataset, queries, 1.0, stop_at)
        got = exhaustive_greedy_check(bad, inst.dataset, queries, 1.0, stop_at=stop_at)
        assert len(want) == stop_at if stop_at else len(want) > 100
        assert got == want


class TestCrossCheck:
    def test_report_on_clean_graph(self, rng):
        ds = make_dataset(uniform_cube(40, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        report = validate_proximity_graph(
            res.graph, ds, [rng.uniform(0, 20, size=2) for _ in range(4)], 1.0
        )
        assert report["is_proximity_graph_on_sample"]
        assert report["local_violations"] == 0
        assert report["greedy_failures"] == 0

    def test_report_on_broken_graph(self, rng):
        a = rng.normal(0, 0.02, size=(12, 2))
        b = rng.normal(0, 0.02, size=(12, 2)) + np.array([8.0, 0.0])
        ds = Dataset(EuclideanMetric(), np.vstack([a, b]))
        g = build_knn_digraph(ds, k=4)
        report = validate_proximity_graph(g, ds, [np.array([8.0, 0.0])], 0.5)
        assert not report["is_proximity_graph_on_sample"]
        assert report["local_violations"] > 0
        assert report["greedy_failures"] > 0

    def test_fact_2_1_equivalence_on_finite_universe(self):
        """On the tree instance, where every metric point can be
        enumerated, both views must agree exactly — the complete decision
        procedure for 'is G a 2-PG'."""
        inst = build_tree_instance(4, 16, strict=False)
        res = build_gnet(inst.dataset, epsilon=1.0)
        report = validate_proximity_graph(
            res.graph,
            inst.dataset,
            list(inst.all_metric_points()),
            epsilon=1.0,
        )
        assert report["is_proximity_graph_on_sample"]


class TestFailureInjection:
    def test_corrupt_graph_reduces_edges(self, rng):
        ds = make_dataset(uniform_cube(60, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        bad = corrupt_graph(res.graph, rng, drop_fraction=0.9, victims=30)
        assert bad.num_edges < res.graph.num_edges
        assert res.graph.num_edges == build_gnet(ds, epsilon=1.0).graph.num_edges

    def test_detectors_fire_on_heavy_corruption(self):
        """Heavy corruption of a G_net should be caught by the validator
        (near-data queries make the (1+eps) contract demanding)."""
        rng = np.random.default_rng(77)
        ds = make_dataset(uniform_cube(60, 2, rng))
        res = build_gnet(ds, epsilon=0.25)
        bad = corrupt_graph(res.graph, rng, drop_fraction=1.0, victims=55)
        pts = np.asarray(ds.points)
        queries = [pts[i] + rng.normal(size=2) * 1e-6 for i in range(0, 60, 2)]
        report = validate_proximity_graph(bad, ds, queries, 0.25)
        assert not report["is_proximity_graph_on_sample"]

    def test_validation_parameters(self, rng):
        ds = make_dataset(uniform_cube(10, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        with pytest.raises(ValueError):
            corrupt_graph(res.graph, rng, drop_fraction=0.0)

    def test_light_corruption_may_survive_but_is_consistent(self, rng):
        """Whatever the verdict after light corruption, the local and
        behavioral views must agree (the cross-check's raison d'etre)."""
        ds = make_dataset(uniform_cube(50, 2, rng))
        res = build_gnet(ds, epsilon=1.0)
        bad = corrupt_graph(res.graph, rng, drop_fraction=0.2, victims=5)
        queries = [rng.uniform(0, 20, size=2) for _ in range(6)]
        report = validate_proximity_graph(bad, ds, queries, 1.0)
        assert (report["local_violations"] == 0) == (
            report["greedy_failures"] == 0
        )
