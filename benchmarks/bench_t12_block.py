"""E5 — Theorem 1.2(2) / Figure 2: the block instance plus the
non-Euclidean adversary point forces Omega(s^d * n) = Omega((1/eps)^lambda n)
edges for eps = 1/(2s), regardless of query time."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_table
from repro.baselines import build_complete_graph
from repro.graphs import build_gnet
from repro.lowerbounds import attack_block_graph, build_block_instance


def test_required_edges_grid(benchmark):
    rows = []
    for s, t, d in [(2, 1, 1), (2, 4, 1), (3, 2, 1), (2, 2, 2), (3, 2, 2),
                    (4, 2, 2), (2, 2, 3)]:
        inst = build_block_instance(s, t, d)
        rows.append(
            [
                s,
                t,
                d,
                inst.n,
                round(inst.epsilon, 4),
                round(inst.metric.doubling_dimension_bound(), 2),
                inst.required_edge_count,
                round(inst.required_edge_count / inst.n, 1),
            ]
        )
    write_table(
        "t12_block_required",
        "E5a: block instance — edges every (1+1/(2s))-PG must contain (Fig. 2)",
        ["s", "t", "d", "n", "eps", "lambda<=", "required", "required/n"],
        rows,
        notes=(
            "required/n = s^d - 1 ~ (1/(2 eps))^d: the (1/eps)^lambda factor "
            "in graph size is unavoidable (Theorem 1.2(2))"
        ),
    )
    benchmark.pedantic(
        lambda: build_block_instance(4, 2, 2), rounds=3, iterations=1
    )


def test_gnet_meets_the_bound(benchmark):
    """G_net at the instance's own eps must survive Alice, hence carry
    every intra-block edge."""
    rows = []
    for s, t, d in [(2, 2, 1), (2, 2, 2), (3, 2, 2)]:
        inst = build_block_instance(s, t, d)
        res = build_gnet(inst.normalized_dataset(), epsilon=inst.epsilon)
        missing = inst.missing_required_edges(res.graph)
        cert = attack_block_graph(res.graph, inst)
        rows.append(
            [
                s, t, d,
                inst.required_edge_count,
                res.graph.num_edges,
                len(missing),
                "survived" if cert is None else "DEFEATED",
            ]
        )
        assert missing == [] and cert is None
    write_table(
        "t12_block_gnet",
        "E5b: G_net (eps=1/(2s)) against the block lower bound",
        ["s", "t", "d", "required", "gnet_edges", "missing", "adversary"],
        rows,
        notes="G_net must survive the adversary on every configuration",
    )
    inst = build_block_instance(3, 2, 2)
    benchmark.pedantic(
        lambda: build_gnet(inst.normalized_dataset(), epsilon=inst.epsilon),
        rounds=1,
        iterations=1,
    )


def test_adversary_defeats_every_pruned_edge(benchmark):
    inst = build_block_instance(2, 2, 2)
    base = build_complete_graph(inst.dataset)
    defeated = total = 0
    sources = np.repeat(np.arange(base.n), base.out_degrees())
    for p1, p2 in inst.required_edges():
        g = base.without_edges((sources == p1) & (base.csr()[1] == p2))
        cert = attack_block_graph(g, inst)
        total += 1
        if cert is not None and cert.is_valid():
            defeated += 1
    write_table(
        "t12_block_adversary",
        "E5c: Alice's success rate over all single-edge prunings (s=2,t=2,d=2)",
        ["required edges tried", "defeated"],
        [[total, defeated]],
        notes="defeated must equal tried — Alice's commit always works",
    )
    assert defeated == total == inst.required_edge_count

    p1, p2 = next(inst.required_edges())
    g = base.without_edges((sources == p1) & (base.csr()[1] == p2))
    benchmark.pedantic(lambda: attack_block_graph(g, inst), rounds=3, iterations=1)


def test_epsilon_range_via_t(benchmark):
    """The paper's remark: the parameter t lets the bound cover a wide
    range of eps at any given n — tabulated."""
    rows = []
    n_target = 64
    for s in [2, 4, 8]:
        d = 1
        t = max(1, n_target // s)
        inst = build_block_instance(s, t, d)
        rows.append(
            [s, t, inst.n, round(inst.epsilon, 4), inst.required_edge_count]
        )
    write_table(
        "t12_block_eps_range",
        "E5d: sweeping eps at ~fixed n via the block count t (d=1)",
        ["s", "t", "n", "eps", "required"],
        rows,
        notes="t decouples n from s, extending the bound across eps regimes",
    )
    benchmark.pedantic(
        lambda: build_block_instance(8, 8, 1), rounds=3, iterations=1
    )
