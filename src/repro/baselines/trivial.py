"""Trivial baselines: the complete graph and the k-NN digraph.

* The **complete graph** is a (1+eps)-PG for every ``eps`` (Section 1.1)
  with ``Theta(n^2)`` edges and ``Omega(n)`` query time — the upper
  anchor of every size/quality trade-off table.
* The **k-NN digraph** (edge to each of the k nearest neighbors) is the
  classic *negative control*: it is generally **not** navigable — greedy
  gets stuck in local minima between clusters — which the tests assert on
  a two-cluster workload.  Its failures motivate the long-range edges all
  real proximity graphs add.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.metrics.base import Dataset

__all__ = ["build_complete_graph", "build_knn_digraph"]


def build_complete_graph(dataset: Dataset) -> ProximityGraph:
    """All ``n * (n-1)`` directed edges (the constructor drops the self-loops)."""
    n = dataset.n
    return ProximityGraph(n, [np.arange(n)] * n)


def build_knn_digraph(dataset: Dataset, k: int) -> ProximityGraph:
    """Directed edges to each point's ``k`` nearest neighbors."""
    if k < 1:
        raise ValueError("k must be at least 1")
    n = dataset.n
    k = min(k, n - 1)
    adjacency = []
    for p in range(n):
        row = dataset.distances_from_index_to_all(p)
        row[p] = np.inf
        nearest = np.argpartition(row, k - 1)[:k]
        adjacency.append(nearest.astype(np.intp))
    return ProximityGraph(n, adjacency)
