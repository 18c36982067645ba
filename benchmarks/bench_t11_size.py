"""E1 — Theorem 1.1 size bound: edges(G_net) = O((1/eps)^lambda n log Delta).

Three sweeps isolate the three factors:

* ``n`` at constant density (jittered grid) — edges track
  ``n * log Delta`` with ``log Delta = Theta(log n)`` (a fixed-``Delta``
  sweep is impossible: the packing bound forces ``Delta >= c n^(1/lambda)``);
* ``log Delta`` at fixed local geometry (exponential cluster chain) —
  edges per point grow ~linearly in ``log Delta``; this family is where
  the ``n log Delta`` bound is *tight* (cf. the Section 3 lower bound);
* ``1/eps`` — edges grow polynomially in ``1/eps`` (the ``(1/eps)^lambda``
  factor, lambda ~ 2 in the plane).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import loglog_slope, write_table
from repro.graphs import build_gnet
from repro.workloads import (
    exponential_cluster_chain,
    jittered_grid,
    make_dataset,
    uniform_cube,
)


def test_edges_vs_n(benchmark, bench_rng):
    sides = [16, 23, 32, 45]
    rows, xs, edges = [], [], []
    for side in sides:
        ds = make_dataset(jittered_grid(side, 2, bench_rng, jitter=0.05))
        res = build_gnet(ds, epsilon=1.0)
        e = res.graph.num_edges
        log_delta = max(res.params.height - 1, 1)
        xs.append(ds.n * log_delta)
        edges.append(e)
        rows.append(
            [ds.n, log_delta, e, round(e / ds.n, 1), round(e / (ds.n * log_delta), 2)]
        )
    slope = loglog_slope(xs, edges)
    write_table(
        "t11_edges_vs_n",
        "E1a: G_net edges vs n (eps=1, jittered grid R^2, constant density)",
        ["n", "log2(Delta)", "edges", "edges/n", "edges/(n log Delta)"],
        rows,
        notes=(
            f"log-log slope of edges vs n*log2(Delta) = {slope:.2f} "
            "(paper predicts ~1.0: the O(n log Delta) size bound)"
        ),
    )
    assert 0.75 <= slope <= 1.3, "edges should track n * log Delta"

    ds = make_dataset(jittered_grid(sides[-1], 2, bench_rng, jitter=0.05))
    benchmark.pedantic(
        lambda: build_gnet(ds, epsilon=1.0), rounds=1, iterations=1
    )


def test_edges_vs_log_delta(benchmark, bench_rng):
    cluster_size = 40
    rows, log_deltas, per_point = [], [], []
    for clusters in [2, 4, 8, 16]:
        pts = exponential_cluster_chain(
            clusters, cluster_size, np.random.default_rng(7)
        )
        ds = make_dataset(pts)
        res = build_gnet(ds, epsilon=1.0)
        log_delta = max(res.params.height - 1, 1)
        e = res.graph.num_edges
        log_deltas.append(log_delta)
        per_point.append(e / ds.n)
        rows.append([clusters, ds.n, log_delta, e, round(e / ds.n, 1)])
    increments = np.diff(per_point) / np.diff(log_deltas)
    write_table(
        "t11_edges_vs_logdelta",
        "E1b: G_net edges vs log Delta (eps=1, exponential cluster chain, "
        f"fixed cluster size {cluster_size})",
        ["clusters", "n", "log2(Delta)", "edges", "edges/n"],
        rows,
        notes=(
            "edges/n increments per extra log2(Delta): "
            + ", ".join(f"{x:.2f}" for x in increments)
            + "  (paper: roughly constant increments = linear log Delta growth; "
            "this family is where O(n log Delta) is tight)"
        ),
    )
    assert per_point[-1] > per_point[0], "edges/point must grow with log Delta"
    assert (increments > 0).all()

    pts = exponential_cluster_chain(16, cluster_size, np.random.default_rng(7))
    ds = make_dataset(pts)
    benchmark.pedantic(
        lambda: build_gnet(ds, epsilon=1.0), rounds=1, iterations=1
    )


def test_edges_vs_epsilon(benchmark, bench_rng):
    n = 700
    ds = make_dataset(uniform_cube(n, 2, bench_rng))
    rows, inv_eps, edges = [], [], []
    for eps in [1.0, 0.5, 0.25, 0.125]:
        res = build_gnet(ds, epsilon=eps)
        e = res.graph.num_edges
        inv_eps.append(1 / eps)
        edges.append(e)
        rows.append([eps, res.params.phi, e, round(e / n, 1)])
    slope = loglog_slope(inv_eps, edges)
    write_table(
        "t11_edges_vs_epsilon",
        "E1c: G_net edges vs 1/eps (n=700, uniform R^2)",
        ["eps", "phi", "edges", "edges/n"],
        rows,
        notes=(
            f"log-log slope of edges vs 1/eps = {slope:.2f} "
            "(paper: <= lambda ~ 2 in the plane; saturates once the graph "
            "approaches completeness)"
        ),
    )
    assert edges == sorted(edges), "smaller eps must not shrink the graph"

    benchmark.pedantic(
        lambda: build_gnet(ds, epsilon=0.125), rounds=1, iterations=1
    )
