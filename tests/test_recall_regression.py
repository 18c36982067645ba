"""Recall regression floors — the accuracy ratchet for perf PRs.

One pinned-seed 1k-point Euclidean workload, five builders (the paper's
three constructions plus the two practical baselines), and hard floors
on recall@1 (the paper's greedy routine) and recall@10 (beam search).
Future performance work — batched construction, engine rewrites, metric
kernel changes — must keep every number at or above its floor, so speed
can never silently buy back accuracy.

Floors sit ~2-3 points below the values measured at introduction
(ISSUE 2), leaving room for last-ulp arithmetic drift across BLAS
builds but none for real regressions:

    builder   recall@1   recall@10   (measured)
    gnet      0.9900     1.0000
    theta     1.0000     1.0000
    merged    0.9900     1.0000
    hnsw      0.7650     0.9890
    vamana    0.6350     0.9935

The low greedy recall@1 of hnsw/vamana is expected: single-path greedy
on degree-capped graphs parks in local optima, which is why those
systems route with beams in practice (and why the paper's guaranteed
constructions hold ~0.99 under the *same* greedy).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    build,
    compute_ground_truth,
    compute_ground_truth_k,
    measure_queries,
)
from repro.graphs import beam_search_batch
from repro.metrics import Dataset, EuclideanMetric
from repro.metrics.scaling import normalize_min_distance
from repro.workloads import gaussian_clusters, near_data_queries, uniform_queries

EPS = 1.0

CONFIGS = {
    "gnet": {},
    "theta": {"theta": 0.25, "method": "sweep"},
    "merged": {"theta": 0.25, "theta_method": "sweep"},
    "hnsw": {"m": 8, "ef_construction": 64},
    "vamana": {"max_degree": 16},
}

# (recall@1 floor, recall@10 floor) per builder — see module docstring.
FLOORS = {
    "gnet": (0.96, 0.995),
    "theta": (0.97, 0.995),
    "merged": (0.96, 0.995),
    "hnsw": (0.74, 0.96),
    "vamana": (0.61, 0.96),
}


@pytest.fixture(scope="module")
def workload():
    pts = gaussian_clusters(1000, 2, np.random.default_rng(2025), clusters=10)
    ds, _ = normalize_min_distance(Dataset(EuclideanMetric(), pts))
    rng = np.random.default_rng(7)
    queries = np.concatenate(
        [uniform_queries(100, pts, rng), near_data_queries(100, pts, rng)]
    )
    starts = rng.integers(ds.n, size=len(queries))
    gt1 = compute_ground_truth(ds, queries)
    gt10, _ = compute_ground_truth_k(ds, queries, k=10)
    return ds, queries, starts, gt1, gt10


@pytest.fixture(scope="module")
def graphs(workload):
    ds = workload[0]
    return {
        name: build(name, ds, EPS, np.random.default_rng(42), **opts).graph
        for name, opts in CONFIGS.items()
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_recall_at_1_floor(name, workload, graphs):
    ds, queries, starts, gt1, _gt10 = workload
    stats = measure_queries(
        graphs[name], ds, queries, epsilon=EPS, ground_truth=gt1, starts=starts
    )
    floor = FLOORS[name][0]
    assert stats.recall_at_1 >= floor, (
        f"{name}: greedy recall@1 {stats.recall_at_1:.4f} fell below the "
        f"regression floor {floor}"
    )


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_recall_at_10_floor(name, workload, graphs):
    ds, queries, starts, _gt1, gt10 = workload
    found = beam_search_batch(
        graphs[name], ds, starts, queries, beam_width=32, k=10
    )
    hits = sum(
        len(set(row[row >= 0].tolist()) & set(gt10[i].tolist()))
        for i, row in enumerate(found.ids)
    )
    recall = hits / (len(queries) * 10)
    floor = FLOORS[name][1]
    assert recall >= floor, (
        f"{name}: beam recall@10 {recall:.4f} fell below the regression "
        f"floor {floor}"
    )


@pytest.mark.parametrize("name", ["gnet", "theta", "merged"])
def test_guaranteed_builders_satisfy_epsilon(name, workload, graphs):
    """The paper's constructions must also keep their (1+eps) promise on
    this workload — recall floors are necessary, not sufficient."""
    ds, queries, starts, gt1, _gt10 = workload
    stats = measure_queries(
        graphs[name], ds, queries, epsilon=EPS, ground_truth=gt1, starts=starts
    )
    assert stats.epsilon_satisfied_fraction == 1.0, (
        f"{name}: {1 - stats.epsilon_satisfied_fraction:.2%} of queries "
        f"exceeded the (1+eps) guarantee"
    )


def test_batched_builds_meet_the_same_floors(workload):
    """Satellite tie-in: wave-built hnsw/vamana clear the identical
    floors, so the batched engine cannot trade recall for build speed."""
    ds, queries, starts, gt1, gt10 = workload
    for name in ("hnsw", "vamana"):
        graph = build(
            name, ds, EPS, np.random.default_rng(42),
            batch_size=100, **CONFIGS[name],
        ).graph
        stats = measure_queries(
            graph, ds, queries, epsilon=EPS, ground_truth=gt1, starts=starts
        )
        assert stats.recall_at_1 >= FLOORS[name][0], f"{name} batched recall@1"
        found = beam_search_batch(graph, ds, starts, queries, beam_width=32, k=10)
        hits = sum(
            len(set(row[row >= 0].tolist()) & set(gt10[i].tolist()))
            for i, row in enumerate(found.ids)
        )
        recall = hits / (len(queries) * 10)
        assert recall >= FLOORS[name][1], f"{name} batched recall@10"
