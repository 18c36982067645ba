"""(1+eps)-navigability — the local characterization of proximity graphs.

Fact 2.1: ``G`` is a (1+eps)-PG of ``P`` **iff** for every data point
``p`` and every query ``q``, either ``p`` is a (1+eps)-ANN of ``q`` or
some out-neighbor of ``p`` is strictly closer to ``q``.

This turns global correctness of greedy routing into a condition that can
be checked exhaustively per query in ``O(n + |E|)`` batched distance
evaluations, which is the backbone of this library's test strategy: we
*prove* graphs navigable on finite query universes (the lower-bound
instances) and spot-check them on large random query batches elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.metrics.base import Dataset

__all__ = [
    "NavigabilityViolation",
    "check_navigability_for_query",
    "find_violations",
    "assert_navigable",
]


@dataclass
class NavigabilityViolation:
    """A witness that ``G`` is not (1+eps)-navigable.

    Vertex ``vertex`` is not a (1+eps)-ANN of ``query`` yet no out-neighbor
    is strictly closer — so ``greedy(vertex, query)`` terminates at a
    non-(1+eps)-ANN and ``G`` is not a (1+eps)-PG (Fact 2.1).
    """

    query: Any
    vertex: int
    vertex_distance: float
    nn_distance: float
    best_out_distance: float

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"vertex {self.vertex} at distance {self.vertex_distance} "
            f"(NN distance {self.nn_distance}) has best out-neighbor at "
            f"{self.best_out_distance} — greedy is stuck"
        )


def check_navigability_for_query(
    graph: ProximityGraph,
    dataset: Dataset,
    q: Any,
    epsilon: float,
    rtol: float = 1e-12,
) -> list[NavigabilityViolation]:
    """All navigability violations of ``graph`` at the single query ``q``."""
    dists = dataset.distances_to_query_all(q)
    nn_dist = float(dists.min())
    threshold = (1.0 + epsilon) * nn_dist * (1.0 + rtol)
    violations: list[NavigabilityViolation] = []
    for p in np.flatnonzero(dists > threshold):
        nbrs = graph.out_neighbors(int(p))
        best = float(dists[nbrs].min()) if len(nbrs) else np.inf
        if best >= float(dists[p]):
            violations.append(
                NavigabilityViolation(
                    query=q,
                    vertex=int(p),
                    vertex_distance=float(dists[p]),
                    nn_distance=nn_dist,
                    best_out_distance=best,
                )
            )
    return violations


def find_violations(
    graph: ProximityGraph,
    dataset: Dataset,
    queries: Iterable[Any],
    epsilon: float,
    stop_at: int | None = 1,
) -> list[NavigabilityViolation]:
    """Scan a query collection for navigability violations.

    ``stop_at`` bounds how many violations to collect before returning
    early (``None`` collects all).
    """
    out: list[NavigabilityViolation] = []
    for q in queries:
        out.extend(check_navigability_for_query(graph, dataset, q, epsilon))
        if stop_at is not None and len(out) >= stop_at:
            break
    return out


def assert_navigable(
    graph: ProximityGraph,
    dataset: Dataset,
    queries: Sequence[Any],
    epsilon: float,
) -> None:
    """Raise ``AssertionError`` with a witness if any query violates
    (1+eps)-navigability."""
    violations = find_violations(graph, dataset, queries, epsilon, stop_at=1)
    if violations:
        raise AssertionError(f"graph is not (1+{epsilon})-navigable: {violations[0]}")
