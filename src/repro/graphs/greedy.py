"""The greedy routing procedure of Section 1.1 — verbatim.

``greedy(p_start, q)`` repeatedly hops to the out-neighbor closest to the
query, stopping when no out-neighbor improves.  A graph is a (1+eps)-PG
exactly when this procedure, from *any* start vertex, returns a
(1+eps)-ANN (Definition in Section 1.1; equivalently navigability, Fact
2.1).  ``query(p_start, q, Q)`` is the budgeted variant: run greedy until
self-termination or ``Q`` distance computations, then return the last hop
vertex.

Accounting matches the paper: every distance computation — the initial
``D(p_start, q)`` and one per out-neighbor examined at each hop — counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.metrics.base import Dataset

__all__ = ["GreedyResult", "BeamBatch", "greedy", "query", "beam_search"]


@dataclass
class GreedyResult:
    """Outcome of one greedy run.

    Attributes
    ----------
    point:
        The returned vertex (a data point id).
    distance:
        ``D(point, q)``.
    hops:
        The full hop-vertex sequence (the ``sigma`` of Section 5.2),
        including the start vertex.
    distance_evals:
        Number of distance computations performed — the paper's query
        time measure.
    self_terminated:
        ``True`` when greedy stopped on its own (Line 4 of the
        pseudocode); ``False`` when the budget cut it off.
    """

    point: int
    distance: float
    hops: list[int] = field(default_factory=list)
    distance_evals: int = 0
    self_terminated: bool = True


class BeamBatch:
    """One beam-search batch as dense arrays — what both batch engines
    (``engine.beam_search_batch`` and ``accel.run_beam``) return.

    ``ids`` is ``(m, max(k, 1))`` int64: row ``i`` holds query ``i``'s
    pool ascending by ``(distance, vertex)``, ``-1`` past what it found;
    ``dists`` the matching float64 distances, ``inf`` where padded;
    ``evals`` the ``(m,)`` int64 distance-evaluation counts.  ``dists``
    may be given as a zero-argument callable, run the first time the
    attribute is read — a compiled search hands over ids and counts and
    leaves its distances unevaluated for callers that only rerank.

    Indexing and iterating yield each query's ``(pairs, evals)``, the
    scalar :func:`beam_search`'s return value, and a batch equals a list
    of those tuples (or another batch) holding the same values.
    """

    __slots__ = ("ids", "evals", "_dists")

    def __init__(self, ids: np.ndarray, dists: Any, evals: np.ndarray) -> None:
        self.ids = ids
        self.evals = evals
        self._dists = dists

    @property
    def dists(self) -> np.ndarray:
        if callable(self._dists):
            self._dists = self._dists()
        return self._dists

    def __len__(self) -> int:
        return len(self.evals)

    def __getitem__(self, i: int) -> tuple[list[tuple[int, float]], int]:
        ids = self.ids[i]
        count = int((ids >= 0).sum())
        pairs = list(zip(ids[:count].tolist(), self.dists[i, :count].tolist()))
        return pairs, int(self.evals[i])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BeamBatch):
            return (
                np.array_equal(self.ids, other.ids)
                and np.array_equal(self.dists, other.dists)
                and np.array_equal(self.evals, other.evals)
            )
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented


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


def query(
    graph: ProximityGraph,
    dataset: Dataset,
    p_start: int,
    q: Any,
    budget: int,
) -> GreedyResult:
    """The paper's ``query(p_start, q, Q)``: budgeted greedy."""
    if budget < 1:
        raise ValueError("query budget must be at least 1")
    return greedy(graph, dataset, p_start, q, budget=budget)


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
