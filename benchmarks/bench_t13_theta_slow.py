"""E7 — Lemma 5.1's "small-but-slow" trade-off, and how the merge fixes it.

A theta-graph is a (1+eps)-PG with only O(n) edges, but nothing bounds
how many *hops* greedy needs: on a chain-like input, greedy creeps
through ~n vertices.  The jackpot edges of the merged graph (Theorem 1.3)
give greedy log-Delta expressways.  We measure both on the exponential
line — few points, huge aspect ratio, maximal creep."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_table
from repro.core import measure_queries
from repro.graphs import build_gnet, build_merged_graph, build_theta_graph
from repro.workloads import exponential_cluster_chain, make_dataset

EPS = 1.0
THETA = 0.25


def test_theta_alone_creeps_merged_flies(benchmark, bench_rng):
    rows = []
    for clusters in [8, 16, 24]:
        # long chain of tiny clusters: greedy on the theta-graph must walk
        # cluster by cluster; jackpot G_net edges jump scales directly.
        pts = exponential_cluster_chain(
            clusters, 6, np.random.default_rng(2), base=2.5
        )
        ds = make_dataset(pts)
        geo = build_theta_graph(ds, THETA, method="sweep")
        gnet = build_gnet(ds, EPS)
        merged = build_merged_graph(
            ds, EPS, np.random.default_rng(3), gnet=gnet, geo=geo, z=4.0
        )
        # Query near the far end, start at the near end: worst creep.
        far_point = np.asarray(ds.points)[np.argmax(np.asarray(ds.points)[:, 0])]
        q = far_point + np.array([3.0, 0.0])
        start = int(np.argmin(np.asarray(ds.points)[:, 0]))
        theta_stats = measure_queries(
            geo.graph, ds, [q], epsilon=EPS, starts=[start]
        )
        merged_stats = measure_queries(
            merged.graph, ds, [q], epsilon=EPS, starts=[start]
        )
        rows.append(
            [
                clusters,
                ds.n,
                theta_stats.max_hops,
                merged_stats.max_hops,
                theta_stats.max_distance_evals,
                merged_stats.max_distance_evals,
                round(theta_stats.epsilon_satisfied_fraction, 2),
                round(merged_stats.epsilon_satisfied_fraction, 2),
            ]
        )
    write_table(
        "t13_theta_slow",
        "E7: end-to-end worst-path hops — theta-graph alone vs merged "
        f"(eps={EPS})",
        ["clusters", "n", "theta hops", "merged hops", "theta evals",
         "merged evals", "theta ok", "merged ok"],
        rows,
        notes=(
            "Both are (1+eps)-PGs (ok = 1.0), but the theta-graph's hop count "
            "grows with the chain length while the merged graph jumps via "
            "jackpot vertices — Section 5.2's speed argument"
        ),
    )
    assert all(r[6] == 1.0 and r[7] == 1.0 for r in rows)
    theta_hops = [r[2] for r in rows]
    merged_hops = [r[3] for r in rows]
    # Creep grows along the sweep for theta; merged stays below it at the end.
    assert theta_hops[-1] > theta_hops[0]
    assert merged_hops[-1] <= theta_hops[-1]

    pts = exponential_cluster_chain(24, 6, np.random.default_rng(2), base=2.5)
    ds = make_dataset(pts)
    geo = build_theta_graph(ds, THETA, method="sweep")
    far_point = np.asarray(ds.points)[np.argmax(np.asarray(ds.points)[:, 0])]
    q = far_point + np.array([3.0, 0.0])
    start = int(np.argmin(np.asarray(ds.points)[:, 0]))
    benchmark.pedantic(
        lambda: measure_queries(geo.graph, ds, [q], epsilon=EPS, starts=[start]),
        rounds=1,
        iterations=1,
    )


def test_jackpot_condition_empirics(benchmark, bench_rng):
    """Section 5.2's jackpot condition: greedy-on-G_geo stretches longer
    than ceil(ln n * log Delta) without a jackpot vertex should be rare at
    tau = z/log Delta."""
    import math

    pts = exponential_cluster_chain(12, 10, np.random.default_rng(4), base=2.5)
    ds = make_dataset(pts)
    geo = build_theta_graph(ds, THETA, method="sweep")
    gnet = build_gnet(ds, EPS)
    rows = []
    for z in [1.0, 2.0, 4.0]:
        merged = build_merged_graph(
            ds, EPS, np.random.default_rng(8), gnet=gnet, geo=geo, z=z, runs=1
        )
        window = math.ceil(math.log(ds.n) * max(merged.params.height, 1))
        # Walk greedy traces on the merge; measure the longest stretch of
        # consecutive non-jackpot hop vertices.
        from repro.graphs import greedy_batch

        queries, starts = [], []
        for _ in range(40):
            queries.append(bench_rng.uniform(-5, 1200, size=2))
            starts.append(int(bench_rng.integers(ds.n)))
        longest = 0
        for result in greedy_batch(merged.graph, ds, starts, queries):
            run = 0
            for p in result.hops:
                run = 0 if merged.jackpot[p] else run + 1
                longest = max(longest, run)
        rows.append([z, round(merged.tau, 3), window, longest])
    write_table(
        "t13_jackpot",
        "E7b: longest non-jackpot greedy stretch vs the ln(n)*log(Delta) window",
        ["z", "tau", "window", "longest stretch observed"],
        rows,
        notes=(
            "Larger z = denser jackpots = shorter stretches; the Section 5.2 "
            "analysis needs stretches <= window, which holds w.h.p."
        ),
    )
    stretches = [r[3] for r in rows]
    assert stretches[-1] <= stretches[0] + 2, "more jackpots should not lengthen stretches"
    assert all(r[3] <= r[2] for r in rows), "observed stretch exceeded the whp window"

    benchmark.pedantic(
        lambda: build_merged_graph(
            ds, EPS, np.random.default_rng(8), gnet=gnet, geo=geo, z=2.0, runs=1
        ),
        rounds=1,
        iterations=1,
    )
