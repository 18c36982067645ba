"""End-to-end proximity-graph validation.

:mod:`repro.graphs.navigability` checks Fact 2.1's *local* condition.
This module provides the complementary *behavioral* check — actually run
``greedy`` from every start vertex — and the machinery to certify the
two views against each other.  On finite query universes (the
lower-bound instances) the combination is a complete decision procedure
for "is G a (1+eps)-PG?".

Also here: :func:`corrupt_graph`, a failure-injection helper used by
tests and benches to confirm the validators *detect* broken graphs (a
validator that never fires is worse than none).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.engine import greedy_batch
from repro.graphs.navigability import find_violations
from repro.metrics.base import Dataset

__all__ = [
    "GreedyFailure",
    "exhaustive_greedy_check",
    "validate_proximity_graph",
    "corrupt_graph",
]


@dataclass
class GreedyFailure:
    """A (start, query) pair on which greedy returned a non-(1+eps)-ANN."""

    query: Any
    start: int
    returned: int
    returned_distance: float
    nn_distance: float

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"greedy({self.start}, q) -> {self.returned} at "
            f"{self.returned_distance} vs NN {self.nn_distance}"
        )


def exhaustive_greedy_check(
    graph: ProximityGraph,
    dataset: Dataset,
    queries: Iterable[Any],
    epsilon: float,
    starts: Sequence[int] | None = None,
    stop_at: int | None = 1,
) -> list[GreedyFailure]:
    """Run the Section 1.1 definition literally: greedy from every start
    (default: all vertices) for every query must return a (1+eps)-ANN.

    Complete but expensive — ``O(|starts| * |queries|)`` greedy runs,
    one :func:`~repro.graphs.engine.greedy_batch` call per query.
    Failures come in (query, start) order, cut at ``stop_at``.
    """
    starts = np.arange(graph.n) if starts is None else np.asarray(starts, np.intp)
    failures: list[GreedyFailure] = []
    for q in queries:
        nn_dist = float(dataset.distances_to_query_all(q).min())
        threshold = (1.0 + epsilon) * nn_dist * (1.0 + 1e-12)
        results = greedy_batch(graph, dataset, starts, [q] * len(starts))
        for s, result in zip(starts, results):
            if result.distance > threshold:
                failures.append(
                    GreedyFailure(
                        query=q,
                        start=int(s),
                        returned=result.point,
                        returned_distance=result.distance,
                        nn_distance=nn_dist,
                    )
                )
                if stop_at is not None and len(failures) >= stop_at:
                    return failures
    return failures


def validate_proximity_graph(
    graph: ProximityGraph,
    dataset: Dataset,
    queries: Sequence[Any],
    epsilon: float,
    starts: Sequence[int] | None = None,
) -> dict:
    """Run both views of Fact 2.1 and cross-check them.

    Returns a report dict with the violation/failure counts.  The two
    checks must agree on emptiness: local navigability holds on a query
    iff greedy succeeds from every start (the content of Fact 2.1) —
    a mismatch indicates a bug in this library, and is asserted against.
    """
    local = find_violations(graph, dataset, queries, epsilon, stop_at=None)
    behavioral = exhaustive_greedy_check(
        graph, dataset, queries, epsilon, starts=starts, stop_at=None
    )
    # Fact 2.1, only-if: a local violation at (p, q) means greedy started
    # at p is stuck at a non-ANN, so behavioral failures must appear too
    # (when starts include the stuck vertex — with default starts it does).
    if starts is None:
        local_empty, behavioral_empty = not local, not behavioral
        if local_empty != behavioral_empty:
            raise AssertionError(
                "Fact 2.1 cross-check failed: local and behavioral checks "
                f"disagree (local={len(local)}, behavioral={len(behavioral)})"
            )
    return {
        "queries": len(queries),
        "epsilon": epsilon,
        "local_violations": len(local),
        "greedy_failures": len(behavioral),
        "is_proximity_graph_on_sample": not local and not behavioral,
    }


def corrupt_graph(
    graph: ProximityGraph,
    rng: np.random.Generator,
    drop_fraction: float = 0.5,
    victims: int | None = None,
) -> ProximityGraph:
    """Failure injection: drop a random fraction of out-edges from a few
    random vertices.  Returns a corrupted graph (input untouched)."""
    if not 0 < drop_fraction <= 1:
        raise ValueError("drop_fraction must be in (0, 1]")
    if victims is None:
        victims = max(1, graph.n // 10)
    offsets = graph.csr()[0]
    drop = np.zeros(graph.num_edges, dtype=bool)
    for v in rng.choice(graph.n, size=min(victims, graph.n), replace=False):
        lo, hi = offsets[v], offsets[v + 1]
        if hi > lo:
            drop[lo:hi] = rng.random(hi - lo) <= drop_fraction
    return graph.without_edges(drop)
