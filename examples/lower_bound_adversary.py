"""The Theorem 1.2 lower bounds as an interactive story.

Run:  python examples/lower_bound_adversary.py

Act 1 (Section 3, Figure 1): the tree-metric instance.  Any 2-PG must
keep all |P1| x |P2| = Omega(n log Delta) edges; we prune one and watch
greedy strand itself.

Act 2 (Section 4, Figure 2): the block instance.  An index builder only
ever sees distances inside P; Alice picks the metric D_{p*} *after*
seeing the graph.  We play both sides and watch her win against any
graph that skimped on intra-block edges.

Act 3: our own G_net survives both attacks — as it must, being a
certified (1+eps)-PG.
"""

from __future__ import annotations

import numpy as np

from repro.baselines import build_complete_graph
from repro.graphs import build_gnet, greedy_batch
from repro.lowerbounds import (
    attack_block_graph,
    attack_tree_graph,
    build_block_instance,
    build_tree_instance,
)


def act_one() -> None:
    print("=" * 72)
    print("Act 1: the tree metric (Fig. 1) — why n log Delta edges are needed")
    print("=" * 72)
    inst = build_tree_instance(n=16, delta=128)
    print(f"Instance: n={inst.n_param}, Delta={inst.delta}, h={inst.height}")
    print(f"|P| = {inst.dataset.n}  (cluster P1: {len(inst.p1)}, spread P2: {len(inst.p2)})")
    print(f"Required edges: {inst.lower_bound_formula()}")

    g = build_complete_graph(inst.dataset)
    v1, v2 = next(inst.required_edges())
    print(f"\nPruning the single edge ({v1} -> {v2}) from a complete graph...")
    sources = np.repeat(np.arange(g.n), g.out_degrees())
    g = g.without_edges((sources == v1) & (g.csr()[1] == v2))

    cert = attack_tree_graph(g, inst)
    assert cert is not None
    print(f"Adversary's query: leaf {cert.query} (the NN is the query itself)")
    result = greedy_batch(g, inst.dataset, [cert.p_start], [cert.query])[0]
    print(
        f"greedy({cert.p_start}, q) returned point {result.point} at distance "
        f"{result.distance} — the true NN distance is {cert.nn_distance}."
    )
    print("One missing edge, and the guarantee is gone. All n*log(Delta) are needed.")


def act_two() -> None:
    print()
    print("=" * 72)
    print("Act 2: the block instance (Fig. 2) — why (1/eps)^lambda is needed")
    print("=" * 72)
    inst = build_block_instance(side=3, copies=2, dim=2)
    print(
        f"Instance: s={inst.side}, t={inst.copies}, d={inst.dim} -> n={inst.n}, "
        f"eps=1/(2s)={inst.epsilon:.4f}"
    )
    print(f"Required edges: {inst.lower_bound_formula()}")
    print(
        "\nThe builder sees only L_inf distances inside P.  The phantom point q\n"
        "exists in the metric space, but its distances stay undefined until\n"
        "Alice commits to p* — after inspecting the graph."
    )

    g = build_complete_graph(inst.dataset)
    p1, p2 = next(inst.required_edges())
    print(f"\nPruning intra-block edge ({p1} -> {p2})...")
    sources = np.repeat(np.arange(g.n), g.out_degrees())
    g = g.without_edges((sources == p1) & (g.csr()[1] == p2))

    cert = attack_block_graph(g, inst)
    assert cert is not None
    print(
        f"Alice commits p* = {p2}: now D(q, p*) = s-1 = {cert.nn_distance}, every "
        f"other point is at distance >= s = {inst.side}."
    )
    print(
        f"greedy({p1}, q) returns point {cert.returned_point} at distance "
        f"{cert.returned_distance} > (1+eps)*{cert.nn_distance} = "
        f"{(1 + cert.epsilon) * cert.nn_distance:.3f}.  Alice wins."
    )


def act_three() -> None:
    print()
    print("=" * 72)
    print("Act 3: G_net survives both attacks")
    print("=" * 72)
    tree_inst = build_tree_instance(n=16, delta=128)
    tree_gnet = build_gnet(tree_inst.dataset, epsilon=1.0)
    tree_cert = attack_tree_graph(tree_gnet.graph, tree_inst)
    print(
        f"Tree instance: G_net has {tree_gnet.graph.num_edges} edges "
        f"(required: {tree_inst.required_edge_count}); adversary: "
        f"{'DEFEATED US' if tree_cert else 'no missing edge found — survived'}"
    )

    block_inst = build_block_instance(side=3, copies=2, dim=2)
    block_gnet = build_gnet(block_inst.normalized_dataset(), epsilon=block_inst.epsilon)
    block_cert = attack_block_graph(block_gnet.graph, block_inst)
    print(
        f"Block instance: G_net has {block_gnet.graph.num_edges} edges "
        f"(required: {block_inst.required_edge_count}); Alice: "
        f"{'DEFEATED US' if block_cert else 'no missing edge found — survived'}"
    )
    print(
        "\nThe upper bound (Theorem 1.1) and the lower bounds (Theorem 1.2) "
        "meet: the\nedges the adversaries demand are exactly the edges G_net pays for."
    )


if __name__ == "__main__":
    act_one()
    act_two()
    act_three()
