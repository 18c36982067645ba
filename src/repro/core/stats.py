"""Measurement helpers shared by benches, examples, and tests.

The paper's cost model is explicit: *space* is the edge count, *query
time* is the number of distance evaluations of greedy, *construction
time* is wall time of the builder.  :func:`measure_queries` runs greedy
over a query batch and reports exactly those quantities plus solution
quality against the exact (linear-scan) nearest neighbor.

The whole query batch runs through the lockstep engine of
:mod:`repro.graphs.engine`.  :func:`compute_ground_truth` evaluates all
exact NNs in one cross-distance matrix and its output can be passed
back in as ``ground_truth`` whenever the same query batch is replayed
across builders (every benchmark re-uses one batch per workload).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.engine import greedy_batch
from repro.metrics.base import Dataset

__all__ = [
    "QueryStats",
    "compute_ground_truth",
    "compute_ground_truth_k",
    "measure_queries",
    "recall_at_k",
    "storage_breakdown",
    "timed",
]

# Chunk bound for the ground-truth cross-distance matrix (elements).
_GT_CHUNK_ELEMENTS = 16_000_000


@dataclass
class QueryStats:
    """Aggregated greedy-search statistics over a query batch."""

    num_queries: int
    mean_distance_evals: float
    max_distance_evals: int
    mean_hops: float
    max_hops: int
    mean_approximation: float
    max_approximation: float
    recall_at_1: float
    epsilon_satisfied_fraction: float
    per_query: list[dict] = field(default_factory=list, repr=False)

    def table_row(self) -> dict:
        return {
            "queries": self.num_queries,
            "evals_mean": round(self.mean_distance_evals, 1),
            "evals_max": self.max_distance_evals,
            "hops_mean": round(self.mean_hops, 2),
            "hops_max": self.max_hops,
            "approx_mean": round(self.mean_approximation, 4),
            "approx_max": round(self.max_approximation, 4),
            "recall@1": round(self.recall_at_1, 4),
        }


def compute_ground_truth(
    dataset: Dataset, queries: Sequence[Any]
) -> tuple[np.ndarray, np.ndarray]:
    """Exact NN ``(ids, distances)`` of every query by linear scan.

    Uses the metric's :meth:`~repro.metrics.base.MetricSpace.cross_distances`
    (one BLAS GEMM for Euclidean data) in query chunks.  The returned
    pair can be passed to :func:`measure_queries` as ``ground_truth`` so
    replaying the same batch across many builders pays for the scan only
    once.
    """
    m = len(queries)
    ids = np.empty(m, dtype=np.intp)
    dists = np.empty(m, dtype=np.float64)
    step = max(1, _GT_CHUNK_ELEMENTS // max(dataset.n, 1))
    arr = queries if isinstance(queries, np.ndarray) else np.asarray(queries)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        mat = dataset.metric.cross_distances(arr[lo:hi], dataset.points)
        ids[lo:hi] = np.argmin(mat, axis=1)
    if m:
        # The winners' distances as the one-to-many kernel gives them,
        # the floats Dataset.nearest_neighbor's linear scan reports.
        dists[:] = dataset.metric.distances_many(
            arr, dataset.points[ids], np.ones(m, dtype=np.int64)
        )
    return ids, dists


def compute_ground_truth_k(
    dataset: Dataset, queries: Sequence[Any], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` NN ``(ids, distances)`` of every query, ``(m, k)``.

    The recall@k oracle for the regression suite and the build bench.
    Uses the chunked cross-distance path of :func:`compute_ground_truth`
    with a row-wise partial sort; the Euclidean Gram expansion is exact
    to a relative 2^-30 of ``d^2`` (closer pairs are evaluated directly),
    so it can only permute ids at near-ties, which recall@k treats as
    equivalent anyway.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    k = min(k, dataset.n)
    m = len(queries)
    ids = np.empty((m, k), dtype=np.intp)
    dists = np.empty((m, k), dtype=np.float64)
    step = max(1, _GT_CHUNK_ELEMENTS // max(dataset.n, 1))
    arr = queries if isinstance(queries, np.ndarray) else np.asarray(queries)
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        mat = dataset.metric.cross_distances(arr[lo:hi], dataset.points)
        part = np.argpartition(mat, k - 1, axis=1)[:, :k]
        rows = np.arange(hi - lo)[:, None]
        order = np.argsort(mat[rows, part], axis=1, kind="stable")
        ids[lo:hi] = np.take_along_axis(part, order, axis=1)
        dists[lo:hi] = mat[rows, ids[lo:hi]]
    return ids, dists


def recall_at_k(
    index: Any,
    queries: Any,
    ground_truth: np.ndarray,
    k: int,
    params: Any = None,
) -> float:
    """Recall@k of an index front door against an exact oracle.

    ``index`` is anything with the :class:`~repro.core.interface.
    SearchableIndex` surface (flat or sharded); ``ground_truth`` is the
    ``(m, k)`` id matrix of :func:`compute_ground_truth_k`.  The one
    recall definition every gate shares: hits are the per-query set
    intersection of returned and exact ids, averaged over ``m * k``
    (``-1`` padding can never hit — ground-truth ids are non-negative).
    Assumes the index's external ids are the dataset row indices (the
    default identity mapping every bench workload uses).
    """
    from repro.core.search import SearchParams

    if params is None:
        params = SearchParams(beam_width=max(4 * k, 32), seed=0)
    result = index.search(queries, k=k, params=params)
    hits = sum(
        len(set(ground_truth[i].tolist()) & set(result.ids[i].tolist()))
        for i in range(result.m)
    )
    return hits / (max(result.m, 1) * k)


def storage_breakdown(index: Any) -> dict:
    """Bytes-per-vector / total-memory breakdown of an index's storage.

    Works for both front-door kinds (flat
    :class:`~repro.core.index.ProximityGraphIndex` and
    :class:`~repro.core.sharded.ShardedIndex` — shards aggregate) and is
    what the ``repro index info`` CLI subcommand prints.  Fields:

    * ``traversal_bytes_per_vector`` / ``traversal_bytes`` — what graph
      traversal touches per candidate (codes for quantized stores, the
      raw rows for flat);
    * ``aux_bytes`` — fixed quantizer state (SQ8's offsets and scales);
    * ``exact_bytes`` — the raw vector array (kept by quantized indexes
      for the exact rerank stage; *the* vector storage for flat);
    * ``flat_bytes_per_vector`` — the raw cost per vector, so
      ``compression = flat / traversal`` reads directly.
    """
    shards = getattr(index, "shards", None)
    if shards is not None:
        parts = [storage_breakdown(s) for s in shards]
        total_n = sum(p["n"] for p in parts)
        traversal = sum(p["traversal_bytes"] for p in parts)
        out = {
            "kind": parts[0]["kind"],
            "quantized": parts[0]["quantized"],
            "n": total_n,
            "traversal_bytes_per_vector": (
                round(traversal / total_n, 2) if total_n else 0.0
            ),
            "traversal_bytes": traversal,
            # Training state (offsets/scales) is trained once and
            # shared across shards, so it counts once — matching
            # ShardedIndex.stats()["storage"].
            "aux_bytes": parts[0]["aux_bytes"],
            "exact_bytes": sum(p["exact_bytes"] for p in parts),
            "flat_bytes_per_vector": parts[0]["flat_bytes_per_vector"],
            "drift": sum(p["drift"] for p in parts),
        }
    else:
        store = index.store
        pts = np.asarray(index.dataset.points)
        flat_bytes = 0 if pts.dtype == object else int(pts.nbytes)
        n = int(store.n)
        bpv = float(store.traversal_bytes_per_vector())
        out = {
            "kind": store.kind,
            "quantized": bool(store.is_quantized),
            "n": n,
            "traversal_bytes_per_vector": round(bpv, 2),
            "traversal_bytes": int(round(bpv * n)),
            "aux_bytes": int(store.aux_bytes()),
            "exact_bytes": flat_bytes,
            "flat_bytes_per_vector": (
                round(flat_bytes / n, 2) if n else 0.0
            ),
            "drift": int(store.drift),
        }
    out["total_bytes"] = out["traversal_bytes"] + out["aux_bytes"] + (
        out["exact_bytes"] if out["quantized"] else 0
    )
    out["compression"] = (
        round(out["flat_bytes_per_vector"] / out["traversal_bytes_per_vector"], 2)
        if out["traversal_bytes_per_vector"]
        else 1.0
    )
    return out


def measure_queries(
    graph: ProximityGraph,
    dataset: Dataset,
    queries: Sequence[Any],
    epsilon: float,
    starts: Sequence[int] | None = None,
    budget: int | None = None,
    rng: np.random.Generator | None = None,
    keep_per_query: bool = False,
    ground_truth: tuple[np.ndarray, np.ndarray] | None = None,
    seed: int | None = None,
    backend: str | None = None,
) -> QueryStats:
    """Run greedy for each query and aggregate cost/quality.

    ``starts`` supplies one start vertex per query; by default they are
    drawn uniformly (the paper allows *any* start, and the flexibility of
    choosing ``p_start`` is called out as a strength of the paradigm)
    from ``rng`` or, failing that, a fresh generator seeded with
    ``seed`` — so repeated calls with the same arguments aggregate the
    same searches.  The approximation ratio compares greedy's answer to
    the exact NN from a linear scan; queries whose NN distance is 0
    count as satisfied only on exact hits.  ``ground_truth`` accepts a
    precomputed ``(nn_ids, nn_dists)`` pair (see
    :func:`compute_ground_truth`).  An empty query batch aggregates to
    all-zero stats instead of tripping numpy's empty reductions.  ``backend`` threads
    through to the batch engine (see ``SearchParams.backend``; ``None``
    means ``"auto"``) — compiled backends return the same statistics
    bit for bit.
    """
    m = len(queries)
    if m == 0:
        return QueryStats(
            num_queries=0,
            mean_distance_evals=0.0,
            max_distance_evals=0,
            mean_hops=0.0,
            max_hops=0,
            mean_approximation=0.0,
            max_approximation=0.0,
            recall_at_1=0.0,
            epsilon_satisfied_fraction=0.0,
        )
    if starts is None:
        gen = rng if rng is not None else np.random.default_rng(seed or 0)
        starts = gen.integers(graph.n, size=m)

    results = greedy_batch(
        graph, dataset, starts, queries, budget=budget,
        backend="auto" if backend is None else backend,
    )

    evals, hops, ratios, hits, ok = [], [], [], [], []
    per_query: list[dict] = []
    for pos, (q, start, result) in enumerate(zip(queries, starts, results)):
        if ground_truth is not None:
            nn_id, nn_dist = int(ground_truth[0][pos]), float(ground_truth[1][pos])
        else:
            nn_id, nn_dist = dataset.nearest_neighbor(q)
        if nn_dist == 0.0:
            ratio = 1.0 if result.distance == 0.0 else float("inf")
        else:
            ratio = result.distance / nn_dist
        evals.append(result.distance_evals)
        hops.append(len(result.hops))
        ratios.append(ratio)
        hits.append(result.distance <= nn_dist * (1.0 + 1e-12))
        ok.append(ratio <= 1.0 + epsilon + 1e-9)
        if keep_per_query:
            per_query.append(
                {
                    "start": int(start),
                    "evals": result.distance_evals,
                    "hops": len(result.hops),
                    "ratio": ratio,
                    "returned": result.point,
                    "nn": nn_id,
                }
            )
    return QueryStats(
        num_queries=m,
        mean_distance_evals=float(np.mean(evals)),
        max_distance_evals=int(np.max(evals)),
        mean_hops=float(np.mean(hops)),
        max_hops=int(np.max(hops)),
        mean_approximation=float(np.mean(ratios)),
        max_approximation=float(np.max(ratios)),
        recall_at_1=float(np.mean(hits)),
        epsilon_satisfied_fraction=float(np.mean(ok)),
        per_query=per_query,
    )


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``fn`` and return ``(result, seconds)``."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0
