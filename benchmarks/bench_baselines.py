"""E8 — the systems-context table: every construction in the library on
one clustered workload.

Columns follow the paper's cost model: space = edges, query time =
distance evaluations of the method's own search procedure, plus build
time and empirical quality.  The guaranteed methods (gnet, merged,
theta, diskann) must hit eps on every query; the empirical systems
(HNSW, NSW) are allowed to miss — that gap is the paper's motivation."""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_table
from repro.core import build, compute_ground_truth, measure_queries
from repro.workloads import gaussian_clusters, make_dataset, uniform_queries

EPS = 1.0
N = 1000


def test_baseline_comparison(benchmark, bench_rng):
    ds = make_dataset(gaussian_clusters(N, 2, np.random.default_rng(1), clusters=8))
    queries = list(uniform_queries(80, np.asarray(ds.points), bench_rng))
    # One exact-NN scan serves every builder below.
    gt = compute_ground_truth(ds, queries)

    configs = [
        ("gnet", {}),
        ("merged", {"theta": 0.25, "theta_method": "sweep"}),
        ("theta", {"theta": 0.25, "method": "sweep"}),
        ("diskann", {}),
        ("vamana", {"max_degree": 16}),
        ("hnsw", {"m": 8, "ef_construction": 64}),
        ("nsw", {"m": 8, "ef_construction": 32}),
        ("knn", {"k": 8}),
    ]
    rows = []
    for name, opts in configs:
        rng = np.random.default_rng(42)
        t0 = time.perf_counter()
        built = build(name, ds, EPS, rng, **opts)
        build_s = time.perf_counter() - t0
        stats = measure_queries(built.graph, ds, queries, epsilon=EPS, ground_truth=gt)
        rows.append(
            [
                name + ("*" if built.guaranteed else ""),
                built.graph.num_edges,
                built.graph.max_out_degree(),
                round(build_s, 2),
                round(stats.mean_distance_evals, 1),
                round(stats.recall_at_1, 3),
                round(stats.epsilon_satisfied_fraction, 3),
            ]
        )
        if built.guaranteed and name != "theta":
            assert stats.epsilon_satisfied_fraction == 1.0, f"{name} broke eps"
    # theta with the generous demo angle is not covered by Lemma 5.1's
    # guarantee; report it but don't assert.
    write_table(
        "baselines",
        f"E8: all builders on clustered R^2 (n={N}, eps={EPS}; * = guaranteed)",
        ["method", "edges", "max deg", "build s", "evals/query",
         "recall@1", "eps_ok"],
        rows,
        notes=(
            "Greedy (the paper's model) drives every method here.  knn is "
            "the negative control: small and fast but eps_ok < 1 — precisely "
            "the failure mode proximity graphs exist to fix."
        ),
    )
    knn_row = rows[-1]
    assert knn_row[-1] < 1.0, "the k-NN digraph should fail somewhere"

    benchmark.pedantic(
        lambda: build("gnet", ds, EPS, np.random.default_rng(0)),
        rounds=1,
        iterations=1,
    )


def test_theory_vs_measured_constants(benchmark, bench_rng):
    """E8c: instantiate the Section 2.3 bounds with explicit constants
    and report the slack against the measured graph — quantifying how
    conservative the worst-case analysis is on realistic data."""
    from repro.analysis import gnet_theory_report
    from repro.graphs import build_gnet

    rows = []
    for name, ds in [
        ("uniform", make_dataset(
            gaussian_clusters(600, 2, np.random.default_rng(2), clusters=1,
                              spread=0.3))),
        ("clustered", make_dataset(
            gaussian_clusters(600, 2, np.random.default_rng(2), clusters=8))),
    ]:
        res = build_gnet(ds, epsilon=1.0)
        report = gnet_theory_report(res, doubling_dimension=2.0)
        rows.append(
            [
                name,
                report.edges_measured,
                f"{report.edges_bound:.3g}",
                round(report.edge_slack, 1),
                report.max_degree_measured,
                f"{report.max_degree_bound:.3g}",
            ]
        )
        assert report.edge_slack >= 1.0
    write_table(
        "baselines_theory",
        "E8c: Fact 2.3 bounds vs measured G_net (eps=1, lambda=2)",
        ["workload", "edges", "edge bound", "slack x", "max deg", "deg bound"],
        rows,
        notes=(
            "The (16 phi)^lambda packing constant is famously loose; the "
            "slack column is the honest constant-factor gap on benign data."
        ),
    )

    ds = make_dataset(gaussian_clusters(600, 2, np.random.default_rng(2)))
    benchmark.pedantic(
        lambda: build_gnet(ds, epsilon=1.0), rounds=1, iterations=1
    )


def test_beam_search_extension(benchmark, bench_rng):
    """Practical extension: beam search (ef-style) on the guaranteed
    graphs recovers exact NN at modest extra cost — the bridge between
    the paper's greedy model and deployed systems."""
    from repro.graphs import beam_search_batch

    ds = make_dataset(gaussian_clusters(600, 2, np.random.default_rng(1)))
    built = build("gnet", ds, EPS, np.random.default_rng(0))
    queries = list(uniform_queries(60, np.asarray(ds.points), bench_rng))
    rows = []
    starts = [0] * len(queries)
    for width in [1, 4, 16]:
        found = beam_search_batch(built.graph, ds, starts, queries, beam_width=width, k=1)
        evals_total = int(found.evals.sum())
        hits = sum(
            int(found.ids[i, 0]) == ds.nearest_neighbor(q)[0]
            for i, q in enumerate(queries)
        )
        rows.append(
            [width, round(hits / len(queries), 3),
             round(evals_total / len(queries), 1)]
        )
    write_table(
        "beam_extension",
        "E8b: beam width vs exact recall on G_net (eps=1)",
        ["beam width", "recall@1", "evals/query"],
        rows,
        notes="width 1 ~ greedy; modest widths push recall toward 1.0",
    )
    recalls = [r[1] for r in rows]
    assert recalls == sorted(recalls)

    q = queries[0]
    benchmark.pedantic(
        lambda: beam_search_batch(built.graph, ds, [0], [q], beam_width=16, k=1),
        rounds=3,
        iterations=1,
    )
