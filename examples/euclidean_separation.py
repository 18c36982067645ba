"""The Euclidean separation (Theorem 1.3) in one picture-worth of numbers.

Run:  python examples/euclidean_separation.py

Statement (1) of Theorem 1.2 says: in general metric spaces, any 2-PG
must pay Omega(n log Delta) edges — no construction can dodge it.
Theorem 1.3 says: in Euclidean space, O((1/eps)^lambda * n) suffices.

This example makes that pair of statements concrete.  We grow the aspect
ratio Delta over four orders of magnitude while holding the local
geometry fixed (the exponential cluster chain, where the n log Delta
bound is tight), and chart edges-per-point for:

    G_net   (general-metric construction; pays log Delta)
    merged  (Euclidean construction: sampled G_net + theta-graph; flat)

while confirming both stay certified (1+eps)-PGs throughout.
"""

from __future__ import annotations

import numpy as np

from repro.graphs import (
    build_gnet,
    build_merged_graph,
    build_theta_graph,
    find_violations,
)
from repro.workloads import exponential_cluster_chain, make_dataset, uniform_queries

EPS = 1.0
THETA = 0.25  # demo angle; Lemma 5.1's eps/32 gives the same shape with more cones


def bar(value: float, scale: float = 1.0, width: int = 48) -> str:
    filled = int(min(value * scale, width))
    return "#" * filled


def main() -> None:
    rng = np.random.default_rng(0)
    print(f"{'log2(Delta)':>12s} {'n':>5s}   {'G_net edges/pt':>15s}   {'merged edges/pt':>15s}")
    print("-" * 90)
    rows = []
    for clusters in [2, 4, 8, 16, 24]:
        pts = exponential_cluster_chain(clusters, 40, np.random.default_rng(5))
        ds = make_dataset(pts)
        gnet = build_gnet(ds, EPS)
        geo = build_theta_graph(ds, THETA, method="sweep")
        merged = build_merged_graph(ds, EPS, np.random.default_rng(11), gnet=gnet, geo=geo)
        log_delta = gnet.params.height - 1
        g_pp = gnet.graph.num_edges / ds.n
        m_pp = merged.graph.num_edges / ds.n
        rows.append((log_delta, ds.n, g_pp, m_pp))
        print(
            f"{log_delta:12d} {ds.n:5d}   {g_pp:15.1f}   {m_pp:15.1f}   "
            f"|{bar(g_pp, 0.7):48s}| gnet"
        )
        print(f"{'':12s} {'':5s}   {'':15s}   {'':15s}   |{bar(m_pp, 0.7):48s}| merged")

        # Both must remain certified (1+eps)-PGs.
        queries = list(uniform_queries(30, np.asarray(ds.points), rng))
        assert find_violations(gnet.graph, ds, queries, EPS, stop_at=1) == []
        assert find_violations(merged.graph, ds, queries, EPS, stop_at=1) == []

    g_growth = rows[-1][2] - rows[0][2]
    m_growth = rows[-1][3] - rows[0][3]
    print("-" * 90)
    print(
        f"Across the sweep: G_net grew by {g_growth:+.1f} edges/point, the "
        f"merged graph by {m_growth:+.1f}."
    )
    print(
        "The flat merged line is impossible in general metric spaces "
        "(Theorem 1.2(1));\ngeometry buys it (Theorem 1.3). Both graphs stayed "
        "certified (1+eps)-PGs at every size."
    )


if __name__ == "__main__":
    main()
