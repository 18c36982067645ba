"""A4 — probing the paper's open question (Section 1.3 closing remark).

"Our lower bounds do not rule out a (1+eps)-PG of
O((1/eps)^lambda n + n log Delta) edges" — we build the natural
candidate within that budget (net-tree spine + own-scale laterals, see
``repro/graphs/hybrid.py``) and measure whether navigability survives.

Expected outcome (and what the table shows): the candidate is far
smaller than G_net and usually routes fine, but violations appear
already on benign workloads — this candidate does **not** settle the
question affirmatively.  The bench documents the failure rate so future
candidates have a quantitative baseline to beat."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_table
from repro.graphs import build_gnet
from repro.graphs.hybrid import probe_open_question
from repro.workloads import (
    exponential_cluster_chain,
    gaussian_clusters,
    make_dataset,
    uniform_cube,
    uniform_queries,
)

EPS = 1.0


def test_candidate_budget_and_failures(benchmark, bench_rng):
    workloads = [
        ("uniform", make_dataset(uniform_cube(400, 2, np.random.default_rng(1)))),
        (
            "clustered",
            make_dataset(gaussian_clusters(400, 2, np.random.default_rng(2))),
        ),
        (
            "chain",
            make_dataset(
                exponential_cluster_chain(8, 50, np.random.default_rng(3))
            ),
        ),
    ]
    rows = []
    any_violation = 0
    for name, ds in workloads:
        gnet = build_gnet(ds, EPS)
        points = np.asarray(ds.points)
        queries = list(uniform_queries(80, points, bench_rng))
        queries += [points[i] * (1 + 1e-9) for i in range(0, ds.n, 10)]
        report = probe_open_question(
            ds, EPS, queries, gnet_edges=gnet.graph.num_edges
        )
        any_violation += report["violations"]
        rows.append(
            [
                name,
                report["edges"],
                report["spine_edges"],
                report["lateral_edges"],
                report["gnet_edges"],
                report["vs_gnet"],
                report["violations"],
            ]
        )
        assert report["within_budget"], "candidate exceeded the open-question budget"
        assert report["edges"] < report["gnet_edges"], (
            "the candidate must be smaller than G_net, else it probes nothing"
        )
    write_table(
        "open_question",
        f"A4: the O((1/eps)^lambda n + n log Delta) candidate (eps={EPS})",
        ["workload", "edges", "spine", "lateral", "gnet edges", "vs gnet",
         "violations"],
        rows,
        notes=(
            "Violations > 0 anywhere means this candidate does NOT resolve "
            "the paper's open question affirmatively; the failure counts "
            "are the baseline for future candidates."
        ),
    )
    # The honest headline: we do not assert violations == 0 (that would
    # claim the open question); we assert the probe ran meaningfully.
    assert all(r[1] > 0 for r in rows)

    ds = workloads[0][1]
    queries = list(uniform_queries(40, np.asarray(ds.points), bench_rng))
    benchmark.pedantic(
        lambda: probe_open_question(ds, EPS, queries), rounds=1, iterations=1
    )
