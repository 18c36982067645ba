"""Executable adversary arguments for Theorem 1.2.

The paper's lower bounds are proofs by counterexample: *any* graph below
the edge bound misses a required edge, and a concrete (metric, query,
start-vertex) triple then defeats greedy.  This module runs that script
literally — given a graph, it either

* finds a missing required edge, stages the adversarial query, executes
  greedy, and returns a :class:`AdversaryCertificate` *proving* the graph
  is not a (1+eps)-PG; or
* certifies that every required edge is present, so the graph carries at
  least the theorem's edge count.

Benches and tests use the certificates both ways: the paper's
constructions must survive the attack, and any pruned graph must fall.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.graphs.base import ProximityGraph
from repro.graphs.engine import greedy_batch
from repro.lowerbounds.block_instance import BlockHardInstance
from repro.lowerbounds.tree_instance import TreeHardInstance

__all__ = [
    "AdversaryCertificate",
    "attack_tree_graph",
    "attack_block_graph",
]


@dataclass
class AdversaryCertificate:
    """Proof that a graph fails to be a (1+eps)-PG.

    ``greedy(p_start, query)`` returned ``returned_point`` at distance
    ``returned_distance`` while the true NN sits at ``nn_distance``;
    since ``returned_distance > (1 + epsilon) * nn_distance``, Fact 2.1
    is violated.
    """

    missing_edge: tuple[int, int]
    p_start: int
    query: Any
    epsilon: float
    returned_point: int
    returned_distance: float
    nn_distance: float

    @property
    def approximation_achieved(self) -> float:
        if self.nn_distance == 0.0:
            return float("inf")
        return self.returned_distance / self.nn_distance

    def is_valid(self) -> bool:
        """The defining inequality of a failed (1+eps)-ANN."""
        return self.returned_distance > (1.0 + self.epsilon) * self.nn_distance

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"missing edge {self.missing_edge}: greedy from {self.p_start} "
            f"returned point {self.returned_point} at {self.returned_distance} "
            f"vs NN distance {self.nn_distance} "
            f"(needs <= {(1 + self.epsilon) * self.nn_distance})"
        )


def attack_tree_graph(
    graph: ProximityGraph,
    instance: TreeHardInstance,
    epsilon: float = 1.0,
) -> AdversaryCertificate | None:
    """Run the Section 3 adversary against ``graph``.

    Returns a certificate if some ``P1 x P2`` edge is missing (the query
    is the missing edge's ``v2`` itself, whose NN distance is 0, so *no*
    approximation factor can rescue greedy), else ``None``.
    """
    missing = instance.missing_required_edges(graph)
    if not missing:
        return None
    v1, v2 = missing[0]
    q = instance.dataset.points[v2]  # the leaf itself is the query
    result = greedy_batch(graph, instance.dataset, [v1], [q])[0]
    nn_dist = 0.0  # q = v2 is a data point
    cert = AdversaryCertificate(
        missing_edge=(v1, v2),
        p_start=v1,
        query=q,
        epsilon=epsilon,
        returned_point=result.point,
        returned_distance=result.distance,
        nn_distance=nn_dist,
    )
    return cert if cert.is_valid() else None


def attack_block_graph(
    graph: ProximityGraph,
    instance: BlockHardInstance,
) -> AdversaryCertificate | None:
    """Run the Section 4 adversary (Alice) against ``graph``.

    Alice looks for a missing intra-block edge ``(p1, p2)``, commits
    ``p* = p2`` (legal: the committed metric agrees with everything the
    builder observed), and queries the phantom point.  Returns a
    certificate when greedy from ``p1`` fails, else ``None``.
    """
    missing = instance.missing_required_edges(graph)
    if not missing:
        return None
    p1, p2 = missing[0]
    committed, query_id = instance.committed_dataset(p_star=p2)
    result = greedy_batch(graph, committed, [p1], [query_id])[0]
    nn_dist = float(instance.side - 1)  # D(q, p*) = s - 1 by construction
    cert = AdversaryCertificate(
        missing_edge=(p1, p2),
        p_start=p1,
        query=query_id,
        epsilon=instance.epsilon,
        returned_point=result.point,
        returned_distance=result.distance,
        nn_distance=nn_dist,
    )
    return cert if cert.is_valid() else None
