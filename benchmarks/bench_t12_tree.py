"""E4 — Theorem 1.2(1) / Figure 1: the tree-metric instance forces
Omega(n log Delta) edges on any 2-PG, regardless of query time.

The bench (i) tabulates the required-edge count ``|P1| * |P2|`` across
the (n, Delta) grid, (ii) verifies our own G_net carries every required
edge (the bound is tight against the Theorem 1.1 construction), and
(iii) runs the executable adversary against pruned graphs — every single
removed required edge must yield a valid failure certificate."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_table
from repro.baselines import build_complete_graph
from repro.graphs import build_gnet
from repro.lowerbounds import attack_tree_graph, build_tree_instance


def test_required_edges_grid(benchmark):
    rows = []
    for n, delta in [(16, 128), (16, 512), (16, 2048), (32, 1024), (64, 2048)]:
        inst = build_tree_instance(n, delta)
        rows.append(
            [
                n,
                delta,
                inst.height,
                inst.dataset.n,
                len(inst.p1),
                len(inst.p2),
                inst.required_edge_count,
                round(inst.required_edge_count / (n * (inst.height - 1)), 3),
            ]
        )
    write_table(
        "t12_tree_required",
        "E4a: tree instance — edges every 2-PG must contain (Fig. 1)",
        ["n", "Delta", "h", "|P|", "|P1|", "|P2|", "required",
         "required/(n log Delta)"],
        rows,
        notes=(
            "required = |P1|*|P2| = n * ~h/2: linear in log Delta at fixed n "
            "— the Omega(n log Delta) bound (Theorem 1.2(1))"
        ),
    )
    benchmark.pedantic(
        lambda: build_tree_instance(64, 2048), rounds=3, iterations=1
    )


def test_gnet_meets_the_bound(benchmark):
    """G_net at eps=1 is a 2-PG, so it must contain all required edges —
    and its total edge count shows the bound is within a constant of
    optimal on this instance."""
    rows = []
    for n, delta in [(16, 128), (16, 1024), (32, 1024)]:
        inst = build_tree_instance(n, delta)
        res = build_gnet(inst.dataset, epsilon=1.0)
        missing = inst.missing_required_edges(res.graph)
        rows.append(
            [
                n,
                delta,
                inst.required_edge_count,
                res.graph.num_edges,
                len(missing),
                round(res.graph.num_edges / inst.required_edge_count, 2),
            ]
        )
        assert missing == [], "a 2-PG missed a required edge — impossible"
    write_table(
        "t12_tree_gnet",
        "E4b: G_net (eps=1) against the tree lower bound",
        ["n", "Delta", "required", "gnet_edges", "missing", "gnet/required"],
        rows,
        notes=(
            "missing must be 0 everywhere; gnet/required is the constant-"
            "factor gap between Theorem 1.1's upper bound and Theorem 1.2(1)"
        ),
    )
    inst = build_tree_instance(32, 1024)
    benchmark.pedantic(
        lambda: build_gnet(inst.dataset, epsilon=1.0),
        rounds=1,
        iterations=1,
    )


def test_adversary_defeats_every_pruned_edge(benchmark):
    """Remove each required edge in turn from a complete graph: the
    Section 3 adversary must produce a valid certificate every time."""
    inst = build_tree_instance(8, 64, strict=False)
    base = build_complete_graph(inst.dataset)
    defeated = 0
    total = 0
    sources = np.repeat(np.arange(base.n), base.out_degrees())
    for v1, v2 in inst.required_edges():
        g = base.without_edges((sources == v1) & (base.csr()[1] == v2))
        cert = attack_tree_graph(g, inst)
        total += 1
        if cert is not None and cert.is_valid():
            defeated += 1
    write_table(
        "t12_tree_adversary",
        "E4c: adversary success rate over all single-edge prunings",
        [
            "n", "Delta", "required edges tried", "defeated",
        ],
        [[8, 64, total, defeated]],
        notes="defeated must equal tried: every required edge is truly required",
    )
    assert defeated == total == inst.required_edge_count

    v1, v2 = next(inst.required_edges())
    g = base.without_edges((sources == v1) & (base.csr()[1] == v2))
    benchmark.pedantic(lambda: attack_tree_graph(g, inst), rounds=3, iterations=1)
