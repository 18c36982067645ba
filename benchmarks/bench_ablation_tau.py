"""A2 — ablation of the jackpot rate tau = z/log2(Delta) (equation (17)).

Sweeping z trades edges against greedy speed: z -> 0 degenerates to the
bare theta-graph (small, slow), z -> infinity to the full merge with all
of G_net (big, fast).  The sweet spot the paper proves is z = Theta(1):
O((1/eps)^lambda n) edges and polylog query time simultaneously."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_table
from repro.core import measure_queries
from repro.graphs import build_gnet, build_merged_graph, build_theta_graph
from repro.workloads import exponential_cluster_chain, make_dataset, uniform_queries

EPS = 1.0
THETA = 0.25


def test_tau_sweep(benchmark, bench_rng):
    pts = exponential_cluster_chain(12, 25, np.random.default_rng(13), base=2.5)
    ds = make_dataset(pts)
    gnet = build_gnet(ds, EPS)
    geo = build_theta_graph(ds, THETA, method="sweep")
    queries = list(uniform_queries(60, np.asarray(ds.points), bench_rng))
    starts = list(bench_rng.integers(ds.n, size=len(queries)))

    rows = []
    evals_by_z = {}
    edges_by_z = {}
    for z in [0.25, 1.0, 3.0, 10.0, 1e9]:
        merged = build_merged_graph(
            ds, EPS, np.random.default_rng(21), gnet=gnet, geo=geo, z=z, runs=3
        )
        stats = measure_queries(
            merged.graph, ds, queries, epsilon=EPS, starts=starts
        )
        evals_by_z[z] = stats.mean_distance_evals
        edges_by_z[z] = merged.graph.num_edges
        rows.append(
            [
                "inf" if z > 1e6 else z,
                round(merged.tau, 3),
                merged.graph.num_edges,
                round(stats.mean_distance_evals, 1),
                round(stats.mean_hops, 1),
                round(stats.epsilon_satisfied_fraction, 3),
            ]
        )
        assert stats.epsilon_satisfied_fraction == 1.0  # guarantee is tau-free
    write_table(
        "ablation_tau",
        f"A2: jackpot-rate sweep on the merged graph (eps={EPS})",
        ["z", "tau", "edges", "evals/query", "hops/query", "eps_ok"],
        rows,
        notes=(
            "Correctness never depends on tau (G_geo's edges stay); edges "
            "grow with z while hops shrink — z = Theta(1) is the proven "
            "sweet spot (equation (17))."
        ),
    )
    assert edges_by_z[0.25] <= edges_by_z[1e9]
    assert evals_by_z[1e9] <= evals_by_z[0.25] * 1.5  # speed not worse with all edges

    benchmark.pedantic(
        lambda: build_merged_graph(
            ds, EPS, np.random.default_rng(21), gnet=gnet, geo=geo, z=3.0, runs=3
        ),
        rounds=1,
        iterations=1,
    )


def test_hops_shrink_with_tau(benchmark, bench_rng):
    """The speed mechanism isolated: on a worst-path query, hop counts
    fall as jackpot density rises."""
    pts = exponential_cluster_chain(20, 6, np.random.default_rng(17), base=2.5)
    ds = make_dataset(pts)
    gnet = build_gnet(ds, EPS)
    geo = build_theta_graph(ds, THETA, method="sweep")
    coords = np.asarray(ds.points)
    q = coords[np.argmax(coords[:, 0])] + np.array([5.0, 0.0])
    start = int(np.argmin(coords[:, 0]))

    rows = []
    hops_by_z = {}
    for z in [0.25, 2.0, 1e9]:
        merged = build_merged_graph(
            ds, EPS, np.random.default_rng(29), gnet=gnet, geo=geo, z=z, runs=1
        )
        stats = measure_queries(
            merged.graph, ds, [q], epsilon=EPS, starts=[start]
        )
        hops_by_z[z] = stats.max_hops
        rows.append(["inf" if z > 1e6 else z, round(merged.tau, 3), stats.max_hops])
    write_table(
        "ablation_tau_hops",
        "A2b: worst-path hops vs jackpot density",
        ["z", "tau", "hops"],
        rows,
        notes="denser jackpots = more expressways = fewer hops",
    )
    assert hops_by_z[1e9] <= hops_by_z[0.25]

    benchmark.pedantic(
        lambda: build_merged_graph(
            ds, EPS, np.random.default_rng(29), gnet=gnet, geo=geo, z=2.0, runs=1
        ),
        rounds=1,
        iterations=1,
    )
