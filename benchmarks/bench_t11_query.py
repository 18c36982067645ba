"""E2 — Theorem 1.1 query bound: greedy on G_net computes
``O((1/eps)^lambda log^2 Delta)`` distances and reaches a (1+eps)-ANN
within ``h`` hops (the log-drop property, Lemma 2.2)."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_table
from repro.core import compute_ground_truth, measure_queries
from repro.graphs import build_gnet
from repro.workloads import (
    exponential_cluster_chain,
    make_dataset,
    uniform_cube,
    uniform_queries,
)


def test_query_cost_vs_log_delta(benchmark, bench_rng):
    """Distance evaluations should grow ~quadratically in log Delta
    (h hops x O(phi^lambda log Delta) degree) on the chain family."""
    rows = []
    for clusters in [2, 4, 8, 16]:
        pts = exponential_cluster_chain(clusters, 30, np.random.default_rng(3))
        ds = make_dataset(pts)
        res = build_gnet(ds, epsilon=1.0)
        queries = list(uniform_queries(60, np.asarray(ds.points), bench_rng))
        stats = measure_queries(res.graph, ds, queries, epsilon=1.0)
        h = res.params.height
        rows.append(
            [
                clusters,
                ds.n,
                h,
                round(stats.mean_distance_evals, 1),
                stats.max_distance_evals,
                round(stats.max_distance_evals / h**2, 2),
                stats.max_hops,
                round(stats.epsilon_satisfied_fraction, 3),
            ]
        )
    write_table(
        "t11_query_vs_logdelta",
        "E2a: greedy cost on G_net vs log Delta (eps=1, cluster chain)",
        ["clusters", "n", "h", "evals_mean", "evals_max", "evals_max/h^2",
         "hops_max", "eps_ok"],
        rows,
        notes=(
            "evals_max/h^2 should stay bounded (the O(phi^lambda log^2 Delta) "
            "query bound); eps_ok must be 1.0 throughout"
        ),
    )
    assert all(r[-1] == 1.0 for r in rows), "every query must be (1+eps)-served"
    normalized = [r[5] for r in rows]
    assert max(normalized) <= 25 * max(min(normalized), 0.1), (
        "evals/h^2 should not blow up with log Delta"
    )

    pts = exponential_cluster_chain(16, 30, np.random.default_rng(3))
    ds = make_dataset(pts)
    res = build_gnet(ds, epsilon=1.0)
    queries = list(uniform_queries(60, np.asarray(ds.points), bench_rng))
    benchmark.pedantic(
        lambda: measure_queries(res.graph, ds, queries, epsilon=1.0),
        rounds=1,
        iterations=1,
    )


def test_hops_bounded_by_h(benchmark, bench_rng):
    """Lemma 2.2: the hop at which greedy first holds a (1+eps)-ANN is at
    most h+1, for every start vertex and query."""
    from repro.graphs import greedy_batch

    ds = make_dataset(uniform_cube(800, 2, bench_rng))
    eps = 0.5
    res = build_gnet(ds, epsilon=eps)
    h = res.params.height
    rows = []
    worst_first_ann = 0
    coords = np.asarray(ds.points)
    queries, starts, nns = [], [], []
    for trial in range(150):
        # Adversarial regime: query a hair away from a data point (NN
        # distance ~ 0, so almost nothing qualifies as an ANN) and start
        # greedy at the farthest vertex from it.
        target = int(bench_rng.integers(ds.n))
        q = coords[target] + bench_rng.normal(size=2) * 1e-6
        dists = ds.distances_to_query_all(q)
        queries.append(q)
        nns.append(float(dists.min()))
        starts.append(int(np.argmax(dists)))
    results = greedy_batch(res.graph, ds, starts, queries)
    for q, nn, result in zip(queries, nns, results):
        first_ann = next(
            k
            for k, p in enumerate(result.hops)
            if ds.distance_to_query(q, p) <= (1 + eps) * nn + 1e-12
        )
        worst_first_ann = max(worst_first_ann, first_ann)
    rows.append([ds.n, h, worst_first_ann, h + 1])
    write_table(
        "t11_hops",
        "E2b: hops until first (1+eps)-ANN vs the h bound (eps=0.5)",
        ["n", "h", "worst first-ANN hop", "bound h+1"],
        rows,
        notes="Lemma 2.2's log-drop: the worst case must be <= h+1",
    )
    assert worst_first_ann <= h + 1

    q = bench_rng.uniform(-10, 100, size=2)
    benchmark.pedantic(
        lambda: greedy_batch(res.graph, ds, [0], [q]), rounds=3, iterations=1
    )


def test_query_cost_vs_epsilon(benchmark, bench_rng):
    """Smaller eps: costlier queries (degree grows as (1/eps)^lambda) but
    tighter answers."""
    ds = make_dataset(uniform_cube(600, 2, bench_rng))
    queries = list(uniform_queries(60, np.asarray(ds.points), bench_rng))
    # The same query batch replays against every eps: scan for NNs once.
    gt = compute_ground_truth(ds, queries)
    rows = []
    for eps in [1.0, 0.5, 0.25]:
        res = build_gnet(ds, epsilon=eps)
        stats = measure_queries(res.graph, ds, queries, epsilon=eps, ground_truth=gt)
        rows.append(
            [
                eps,
                res.graph.num_edges,
                round(stats.mean_distance_evals, 1),
                round(stats.mean_approximation, 4),
                round(stats.max_approximation, 4),
                round(stats.epsilon_satisfied_fraction, 3),
            ]
        )
    write_table(
        "t11_query_vs_epsilon",
        "E2c: greedy cost/quality vs eps on G_net (n=600, uniform R^2)",
        ["eps", "edges", "evals_mean", "approx_mean", "approx_max", "eps_ok"],
        rows,
        notes="approx_max must stay below 1+eps per row; cost rises as eps falls",
    )
    for eps, row in zip([1.0, 0.5, 0.25], rows):
        assert row[-1] == 1.0
        assert row[4] <= 1 + eps + 1e-9
    evals = [r[2] for r in rows]
    assert evals[0] <= evals[-1], "smaller eps should cost more distance evals"

    res = build_gnet(ds, epsilon=0.25)
    benchmark.pedantic(
        lambda: measure_queries(res.graph, ds, queries, epsilon=0.25),
        rounds=1,
        iterations=1,
    )
