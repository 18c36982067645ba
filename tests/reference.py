"""Plain reference loops the library's fast paths are held to.

The library runs greedy and beam search through ``repro.graphs.engine``'s
``greedy_batch`` and ``beam_search_batch`` (and their compiled twins in
``repro.accel``).  These are the plain per-query loops those engines are
held bit-identical to: :func:`greedy` is the Section 1.1 procedure with
the budget of ``query(p_start, q, Q)``, and :func:`beam_search` is the
best-first beam search (HNSW's ``ef`` search) with an eval budget.
:func:`build_gnet_vectorized` reads G_net's edge set level by level,
the definition :func:`repro.graphs.gnet.build_gnet` takes off the net
traversal.  Only tests import them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.gnet import GNetBuildResult, gnet_parameters
from repro.graphs.greedy import GreedyResult
from repro.metrics.base import Dataset
from repro.nets.hierarchy import NetHierarchy

__all__ = ["greedy", "beam_search", "build_gnet_vectorized"]


def greedy(
    graph: ProximityGraph,
    dataset: Dataset,
    p_start: int,
    q: Any,
    budget: int | None = None,
) -> GreedyResult:
    """Run ``greedy(p_start, q)``; optionally stop after ``budget``
    distance computations (the paper's ``query`` wrapper).

    Ties at Line 3 break toward the smallest vertex id, making runs
    deterministic.
    """
    p_cur = int(p_start)
    if not 0 <= p_cur < graph.n:
        raise ValueError(f"start vertex {p_cur} out of range")
    d_cur = dataset.distance_to_query(q, p_cur)
    evals = 1
    hops = [p_cur]

    while True:
        if budget is not None and evals >= budget:
            return GreedyResult(p_cur, d_cur, hops, evals, self_terminated=False)
        nbrs = graph.out_neighbors(p_cur)
        if len(nbrs) == 0:
            return GreedyResult(p_cur, d_cur, hops, evals, self_terminated=True)
        truncated = False
        if budget is not None and evals + len(nbrs) > budget:
            # Charging the whole batch would exceed the budget: the paper's
            # query() stops greedy "once it has computed Q distances".
            nbrs = nbrs[: budget - evals]
            truncated = True
        dists = dataset.distances_to_query(q, nbrs)
        evals += len(nbrs)
        j = int(np.argmin(dists))  # argmin takes the first (smallest id) tie
        if float(dists[j]) >= d_cur:
            # With a truncated batch we cannot certify a local optimum.
            return GreedyResult(
                p_cur, d_cur, hops, evals, self_terminated=not truncated
            )
        p_cur, d_cur = int(nbrs[j]), float(dists[j])
        hops.append(p_cur)


def beam_search(
    graph: ProximityGraph,
    dataset: Dataset,
    p_start: int,
    q: Any,
    beam_width: int,
    k: int = 1,
    budget: int | None = None,
) -> tuple[list[tuple[int, float]], int]:
    """Best-first beam search (practical extension; HNSW's ``ef`` search).

    Not part of the paper's model — provided because every system the
    paper cites (HNSW, DiskANN, NSG) routes with a beam in practice, and
    the baseline benches compare against it.  Returns the top-``k``
    ``(id, distance)`` pairs found and the distance-evaluation count.
    """
    import heapq

    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    start = int(p_start)
    d0 = dataset.distance_to_query(q, start)
    evals = 1
    visited = {start}
    # candidates: min-heap by distance; result pool: max-heap via negation.
    candidates = [(d0, start)]
    pool = [(-d0, start)]
    while candidates:
        d, u = heapq.heappop(candidates)
        if len(pool) >= beam_width and d > -pool[0][0]:
            break
        nbrs = [int(v) for v in graph.out_neighbors(u) if int(v) not in visited]
        if not nbrs:
            continue
        if budget is not None and evals >= budget:
            break
        if budget is not None and evals + len(nbrs) > budget:
            nbrs = nbrs[: budget - evals]
        arr = np.array(nbrs, dtype=np.intp)
        dists = dataset.distances_to_query(q, arr)
        evals += len(arr)
        for v, dv in zip(arr, dists):
            visited.add(int(v))
            if len(pool) < beam_width or dv < -pool[0][0]:
                heapq.heappush(candidates, (float(dv), int(v)))
                heapq.heappush(pool, (-float(dv), int(v)))
                if len(pool) > beam_width:
                    heapq.heappop(pool)
    best = sorted((-d, v) for d, v in pool)[: max(k, 1)]
    return [(v, d) for d, v in best], evals


def build_gnet_vectorized(
    dataset: Dataset, epsilon: float, diameter: float | None = None
) -> GNetBuildResult:
    """G_net by its definition: per level ``i``, one batched distance row
    per point against ``Y_i``, keeping the net points within ``phi * 2^i``.
    ``level_edge_counts`` counts the edges each level adds first."""
    params = None if diameter is None else gnet_parameters(epsilon, diameter)
    hierarchy = NetHierarchy(dataset, height=None if params is None else params.height)
    if params is None:
        params = gnet_parameters(epsilon, 2.0 * hierarchy.max_insertion_distance)
    out_sets: list[set[int]] = [set() for _ in range(dataset.n)]
    level_edge_counts = []
    for i in range(params.height + 1):
        level_ids = hierarchy.level(i)
        added = 0
        for p in range(dataset.n):
            dists = dataset.distances_from_index(p, level_ids)
            for y in level_ids[dists <= params.level_radius(i)]:
                if int(y) != p and int(y) not in out_sets[p]:
                    out_sets[p].add(int(y))
                    added += 1
        level_edge_counts.append(added)
    return GNetBuildResult(
        graph=ProximityGraph(dataset.n, out_sets),
        params=params,
        hierarchy=hierarchy,
        level_sizes=[hierarchy.level_size(i) for i in range(params.height + 1)],
        level_edge_counts=level_edge_counts,
    )
