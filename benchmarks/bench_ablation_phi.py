"""A1 — ablation of phi (equivalently eta): the edge-threshold constant
of the G_net construction (equations (3)-(4)).

The proof of Lemma 2.2 needs ``phi >= 1 + 2^(eta+1)`` with
``eta = ceil(log2(1 + 2/eps))``.  What if we shrink it?  Smaller
multipliers give smaller graphs — until navigability snaps.  This
ablation quantifies how much of phi is safety margin on benign data and
demonstrates (on an adversarial input) that the prescribed value is not
arbitrary."""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import write_table
from repro.graphs import find_violations
from repro.graphs.base import ProximityGraph
from repro.graphs.gnet import GNetParameters, build_gnet, gnet_parameters
from repro.nets import NetHierarchy
from repro.workloads import (
    exponential_cluster_chain,
    make_dataset,
    uniform_queries,
)


def _build_with_phi_multiplier(ds, eps, multiplier):
    """Rebuild G_net with phi scaled by `multiplier` (< 1 = under-pruned)."""
    hier = NetHierarchy(ds)
    base = gnet_parameters(eps, 2.0 * hier.max_insertion_distance)
    params = GNetParameters(
        epsilon=eps,
        height=base.height,
        eta=base.eta,
        phi=base.phi * multiplier,
    )
    out_sets = [set() for _ in range(ds.n)]
    for i in range(params.height + 1):
        level = hier.level(i)
        radius = params.level_radius(i)
        for p in range(ds.n):
            d = ds.distances_from_index(p, level)
            for y in level[d <= radius]:
                if int(y) != p:
                    out_sets[p].add(int(y))
    return ProximityGraph(ds.n, out_sets), params


def test_phi_ablation(benchmark, bench_rng):
    eps = 1.0
    pts = exponential_cluster_chain(8, 30, np.random.default_rng(9))
    ds = make_dataset(pts)
    queries = list(uniform_queries(120, np.asarray(ds.points), bench_rng))
    queries += [np.asarray(ds.points)[i] for i in range(0, ds.n, 5)]

    rows = []
    edges_at = {}
    violations_at = {}
    for mult in [1.0, 0.5, 0.25, 0.12, 0.06]:
        graph, params = _build_with_phi_multiplier(ds, eps, mult)
        v = find_violations(graph, ds, queries, eps, stop_at=None)
        edges_at[mult] = graph.num_edges
        violations_at[mult] = len(v)
        rows.append(
            [mult, round(params.phi, 2), graph.num_edges,
             graph.min_out_degree(), len(v)]
        )
    write_table(
        "ablation_phi",
        "A1: shrinking the phi threshold (eps=1, cluster chain)",
        ["phi multiplier", "phi", "edges", "min degree", "violations"],
        rows,
        notes=(
            "At multiplier 1.0 violations must be 0 (Theorem 1.1); as the "
            "threshold shrinks the graph thins and navigability eventually "
            "breaks — phi is load-bearing, not slack to be tuned away."
        ),
    )
    assert violations_at[1.0] == 0
    assert edges_at[0.06] < edges_at[1.0]
    assert violations_at[0.06] > 0, (
        "expected navigability failures at 6% of the prescribed phi"
    )

    benchmark.pedantic(
        lambda: _build_with_phi_multiplier(ds, eps, 0.5), rounds=1, iterations=1
    )


def test_reference_gnet_matches_multiplier_one(benchmark, bench_rng):
    """Sanity: the ablation harness at multiplier 1.0 reproduces the real
    builder's graph exactly."""
    pts = exponential_cluster_chain(4, 20, np.random.default_rng(9))
    ds = make_dataset(pts)
    ablation_graph, _ = _build_with_phi_multiplier(ds, 1.0, 1.0)
    reference = build_gnet(ds, 1.0)
    assert ablation_graph == reference.graph

    benchmark.pedantic(lambda: build_gnet(ds, 1.0), rounds=1, iterations=1)
