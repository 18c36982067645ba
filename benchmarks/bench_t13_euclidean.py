"""E6 — Theorem 1.3: the Euclidean separation.

On the exponential-cluster-chain family (where Theorem 1.1's
``n log Delta`` size is *tight* — bench E1b), sweep ``log Delta`` at
fixed local geometry and compare:

* G_net edges           — grow linearly in ``log Delta`` (Theorem 1.1);
* merged-graph edges    — stay ~flat at ``O((1/eps)^lambda n)`` (Theorem 1.3);
* theta-graph edges     — the flat ``O(n)`` core the merge inherits;

while the merged graph keeps polylog greedy cost and the (1+eps)
guarantee.  This is the paper's headline "Euclidean separation" made
measurable: in general metric spaces the flat line is *impossible*
(Theorem 1.2(1)), in Euclidean space we draw it."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_table
from repro.core import measure_queries
from repro.graphs import build_gnet, build_merged_graph, build_theta_graph
from repro.workloads import exponential_cluster_chain, make_dataset, uniform_queries

EPS = 1.0
THETA = 0.25  # generous demo angle: full eps/32 cones are exercised in tests


def test_separation_edges_vs_log_delta(benchmark, bench_rng):
    cluster_size = 40
    rows = []
    gnet_pp, merged_pp = [], []
    log_deltas = []
    for clusters in [2, 4, 8, 16]:
        pts = exponential_cluster_chain(clusters, cluster_size, np.random.default_rng(5))
        ds = make_dataset(pts)
        gnet = build_gnet(ds, EPS)
        geo = build_theta_graph(ds, THETA, method="sweep")
        merged = build_merged_graph(
            ds, EPS, np.random.default_rng(11), gnet=gnet, geo=geo
        )
        log_delta = max(gnet.params.height - 1, 1)
        log_deltas.append(log_delta)
        gnet_pp.append(gnet.graph.num_edges / ds.n)
        merged_pp.append(merged.graph.num_edges / ds.n)
        rows.append(
            [
                clusters,
                ds.n,
                log_delta,
                round(gnet.graph.num_edges / ds.n, 1),
                round(merged.graph.num_edges / ds.n, 1),
                round(geo.graph.num_edges / ds.n, 1),
                round(merged.tau, 3),
            ]
        )
    gnet_growth = gnet_pp[-1] - gnet_pp[0]
    merged_growth = merged_pp[-1] - merged_pp[0]
    write_table(
        "t13_separation",
        "E6a: the Euclidean separation — edges/point vs log Delta "
        f"(eps={EPS}, cluster chain)",
        ["clusters", "n", "log2(Delta)", "gnet e/n", "merged e/n",
         "theta e/n", "tau"],
        rows,
        notes=(
            f"edges/point growth across the sweep: gnet +{gnet_growth:.1f}, "
            f"merged +{merged_growth:.1f}.  Theorem 1.3: the merged curve is "
            "~flat while G_net pays log Delta (impossible to avoid in general "
            "metrics by Theorem 1.2(1))."
        ),
    )
    assert gnet_growth > 0
    assert merged_growth < 0.5 * gnet_growth, (
        "merged graph should grow much slower than G_net with log Delta"
    )

    pts = exponential_cluster_chain(16, cluster_size, np.random.default_rng(5))
    ds = make_dataset(pts)
    benchmark.pedantic(
        lambda: build_merged_graph(
            ds, EPS, np.random.default_rng(11), theta=THETA, theta_method="sweep",
        ),
        rounds=1,
        iterations=1,
    )


def test_merged_query_quality_and_cost(benchmark, bench_rng):
    """The merged graph must keep the (1+eps) guarantee and reasonable
    greedy cost across the same sweep."""
    rows = []
    for clusters in [4, 8, 16]:
        pts = exponential_cluster_chain(clusters, 40, np.random.default_rng(5))
        ds = make_dataset(pts)
        merged = build_merged_graph(
            ds, EPS, np.random.default_rng(11), theta=THETA,
            theta_method="sweep",
        )
        queries = list(uniform_queries(50, np.asarray(ds.points), bench_rng))
        stats = measure_queries(merged.graph, ds, queries, epsilon=EPS)
        h = merged.params.height
        rows.append(
            [
                clusters,
                ds.n,
                h,
                round(stats.mean_distance_evals, 1),
                stats.max_distance_evals,
                round(stats.epsilon_satisfied_fraction, 3),
            ]
        )
        assert stats.epsilon_satisfied_fraction == 1.0
    write_table(
        "t13_merged_query",
        f"E6b: merged-graph greedy cost across log Delta (eps={EPS})",
        ["clusters", "n", "h", "evals_mean", "evals_max", "eps_ok"],
        rows,
        notes="eps_ok must be 1.0: navigability is inherited from G_geo",
    )

    pts = exponential_cluster_chain(16, 40, np.random.default_rng(5))
    ds = make_dataset(pts)
    merged = build_merged_graph(
        ds, EPS, np.random.default_rng(11), theta=THETA,
        theta_method="sweep",
    )
    queries = list(uniform_queries(50, np.asarray(ds.points), bench_rng))
    benchmark.pedantic(
        lambda: measure_queries(merged.graph, ds, queries, epsilon=EPS),
        rounds=1,
        iterations=1,
    )


def test_best_of_runs_size_control(benchmark, bench_rng):
    """Section 5.3: repeating the sampling O(log n) times and keeping the
    smallest graph controls the size w.h.p. — quantified."""
    pts = exponential_cluster_chain(8, 40, np.random.default_rng(5))
    ds = make_dataset(pts)
    merged = build_merged_graph(
        ds, EPS, np.random.default_rng(23), theta=THETA, runs=10,
        theta_method="sweep",
    )
    counts = merged.runs_edge_counts
    rows = [[i, c] for i, c in enumerate(counts)]
    write_table(
        "t13_runs",
        "E6c: edge counts across 10 independent jackpot samplings",
        ["run", "edges"],
        rows,
        notes=(
            f"kept = min = {min(counts)}; max = {max(counts)}; "
            "the best-of-O(log n) trick converts the expectation bound into "
            "a w.h.p. bound (Markov + independent repetition)"
        ),
    )
    assert merged.graph.num_edges == min(counts)

    benchmark.pedantic(
        lambda: build_merged_graph(
            ds, EPS, np.random.default_rng(23), theta=THETA, runs=10,
            theta_method="sweep",
        ),
        rounds=1,
        iterations=1,
    )
