"""Shared fixtures: deterministic workloads sized for fast unit tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics import Dataset, EuclideanMetric
from repro.metrics.scaling import normalize_min_distance
from repro.workloads import gaussian_clusters, uniform_cube


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def uniform2d(rng) -> Dataset:
    """120 uniform points in the plane, normalized to min distance 2."""
    points = uniform_cube(120, 2, rng)
    dataset = Dataset(EuclideanMetric(), points)
    dataset, _ = normalize_min_distance(dataset)
    return dataset


@pytest.fixture
def clustered2d(rng) -> Dataset:
    """100 clustered points in the plane (4 clusters), normalized."""
    points = gaussian_clusters(100, 2, rng, clusters=4, spread=0.02)
    dataset = Dataset(EuclideanMetric(), points)
    dataset, _ = normalize_min_distance(dataset)
    return dataset


@pytest.fixture
def uniform3d(rng) -> Dataset:
    """80 uniform points in R^3, normalized."""
    points = uniform_cube(80, 3, rng)
    dataset = Dataset(EuclideanMetric(), points)
    dataset, _ = normalize_min_distance(dataset)
    return dataset


def mixed_queries(dataset: Dataset, rng: np.random.Generator, m: int = 30):
    """Queries from all regimes: near data, uniform, far, and exact data
    points — what a (1+eps)-PG must serve."""
    from repro.workloads import (
        data_queries,
        far_queries,
        near_data_queries,
        uniform_queries,
    )

    points = np.asarray(dataset.points)
    per = max(m // 4, 2)
    return list(
        np.concatenate(
            [
                near_data_queries(per, points, rng),
                uniform_queries(per, points, rng),
                far_queries(per, points, rng),
                data_queries(per, points, rng),
            ]
        )
    )


def saved_graphs(graph, directory) -> list:
    """``graph`` as a saved index stores it: wrapped in a flat index over
    random points, saved as a v4 ``.npz`` and as a v5 directory, and
    read back — one reloaded graph per format."""
    from repro.core import BuiltGraph, ProximityGraphIndex
    from repro.core.persistence import load_index

    points = np.random.default_rng(0).uniform(size=(graph.n, 2))
    index = ProximityGraphIndex(
        Dataset(EuclideanMetric(), points),
        BuiltGraph(name="knn", graph=graph, epsilon=1.0, guaranteed=False),
        scale=1.0,
    )
    return [
        load_index(index.save(directory / "v4.npz")).graph,
        load_index(index.save(directory / "v5", format="disk")).graph,
    ]
