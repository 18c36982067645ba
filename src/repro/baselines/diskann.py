"""DiskANN with "slow preprocessing" — the strongest prior baseline.

Indyk & Xu [18] showed that among popular proximity-graph systems only
DiskANN's slow-preprocessing variant carries worst-case guarantees: built
with pruning parameter ``alpha``, greedy search terminates at an
``(alpha+1)/(alpha-1)``-approximate NN, and on bounded-doubling inputs the
graph has ``O((alpha)^lambda * n log Delta)`` edges.  The paper cites this
as the ``O(n^3)``-construction-time benchmark that Theorem 1.1 improves.

Construction (alpha-pruned relative neighborhood graph): for each point
``p``, scan the other points in ascending distance from ``p``; keep ``v``
unless some already-kept ``u`` satisfies ``alpha * D(u, v) <= D(p, v)``.
The kept set is ``p``'s out-neighborhood.

Correctness intuition (the argument our tests replay): if ``p`` is not a
``(alpha+1)/(alpha-1)``-ANN of ``q`` and ``p* not in N(p)``, the pruning
rule yields ``u in N(p)`` with ``D(u, p*) <= D(p, p*)/alpha``, and the
triangle inequality turns that into ``D(u, q) < D(p, q)`` — navigability.
To guarantee a (1+eps)-PG, solve ``(alpha+1)/(alpha-1) <= 1+eps``:
``alpha >= (2+eps)/eps``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.metrics.base import Dataset

__all__ = ["DiskANNBuildResult", "alpha_for_epsilon", "build_diskann_slow"]


def alpha_for_epsilon(epsilon: float) -> float:
    """Smallest pruning parameter giving a (1+eps)-PG:
    ``alpha = (2+eps)/eps``."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    return (2.0 + epsilon) / epsilon


@dataclass
class DiskANNBuildResult:
    graph: ProximityGraph
    alpha: float

    @property
    def guarantee(self) -> float:
        """The approximation ratio ``(alpha+1)/(alpha-1)`` greedy attains."""
        return (self.alpha + 1.0) / (self.alpha - 1.0)


def build_diskann_slow(
    dataset: Dataset,
    alpha: float | None = None,
    epsilon: float | None = None,
    max_degree: int | None = None,
    batch_size: int | None = None,
) -> DiskANNBuildResult:
    """Build the alpha-pruned graph by the quadratic-per-point scan.

    Exactly one of ``alpha`` or ``epsilon`` must be given.  ``max_degree``
    optionally truncates neighbor lists (the practical DiskANN knob ``R``)
    — doing so voids the worst-case guarantee, which the ablation benches
    demonstrate.

    ``batch_size`` (the wave knob of the batched construction engine)
    computes the per-point distance rows for a whole wave with one
    :meth:`~repro.metrics.base.MetricSpace.cross_distances` call — a
    single BLAS GEMM for Euclidean data — instead of ``batch_size``
    separate one-to-all evaluations.  The pruning scan itself is
    unchanged, so the graph differs from the sequential build only where
    the GEMM expansion rounds a tie differently (measure-zero on random
    inputs; ``batch_size in (None, 1)`` uses the sequential row kernel
    verbatim).
    """
    if (alpha is None) == (epsilon is None):
        raise ValueError("give exactly one of alpha or epsilon")
    if alpha is None:
        alpha = alpha_for_epsilon(epsilon)
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be at least 1")

    n = dataset.n
    wave_rows: np.ndarray | None = None
    wave_lo = 0
    adjacency: list[np.ndarray] = []
    for p in range(n):
        if batch_size is None or batch_size == 1:
            row = dataset.distances_from_index_to_all(p)
        else:
            if wave_rows is None or p >= wave_lo + len(wave_rows):
                wave_lo = p
                hi = min(p + batch_size, n)
                wave_rows = dataset.metric.cross_distances(
                    dataset.points[wave_lo:hi], dataset.points
                )
            row = wave_rows[p - wave_lo]
        order = np.argsort(row, kind="stable")
        kept: list[int] = []
        # min_over_kept[v] = min_{u kept} D(u, v), updated per kept point.
        min_over_kept = np.full(n, np.inf)
        for v in order:
            v = int(v)
            if v == p:
                continue
            if max_degree is not None and len(kept) >= max_degree:
                break
            if alpha * min_over_kept[v] > row[v]:
                kept.append(v)
                np.minimum(
                    min_over_kept,
                    dataset.distances_from_index_to_all(v),
                    out=min_over_kept,
                )
        adjacency.append(np.array(kept, dtype=np.intp))
    return DiskANNBuildResult(
        graph=ProximityGraph(n, adjacency), alpha=float(alpha)
    )
