"""One-query-at-a-time reference loops for the batch engines.

The library runs greedy and beam search through ``repro.graphs.engine``'s
``greedy_batch`` and ``beam_search_batch`` (and their compiled twins in
``repro.accel``).  These are the plain per-query loops those engines are
held bit-identical to: :func:`greedy` is the Section 1.1 procedure with
the budget of ``query(p_start, q, Q)``, and :func:`beam_search` is the
best-first beam search (HNSW's ``ef`` search) with an eval budget.
Only tests that hold a batch engine against them import them.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.greedy import GreedyResult
from repro.metrics.base import Dataset

__all__ = ["greedy", "beam_search"]


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
