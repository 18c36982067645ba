"""Metric-space abstractions.

The paper (Section 1.1) works in an abstract metric space ``(M, D)`` where
``D`` satisfies identity of indiscernibles, symmetry, and the triangle
inequality, and is computable in constant time.  Everything downstream —
r-nets, proximity graphs, the greedy search — consumes distances through
the :class:`MetricSpace` interface defined here.

Design notes
------------
* A *point* is whatever representation the concrete metric understands:
  a ``(d,)`` float array for Euclidean metrics, an integer leaf id for the
  tree metric of Section 3, an integer point id for the adversarial family
  of Section 4.  The only contract is that a *batch* of points can be held
  in a numpy array (or an object the metric can index), so that
  :meth:`MetricSpace.distances` can vectorize.
* The paper measures query time as the **number of distance evaluations**
  (Section 1.1: "distance calculation is the bottleneck of greedy").  The
  :class:`~repro.metrics.counting.CountingMetric` wrapper implements that
  accounting; algorithms never count on their own.
* :class:`Dataset` couples a metric with an indexed point collection and
  is the object most algorithms take: graphs store vertex *indices*, and
  the dataset answers index-based and query-point-based distance batches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

__all__ = [
    "MetricSpace",
    "Dataset",
    "ScaledMetric",
    "ExplicitMatrixMetric",
]


class MetricSpace(ABC):
    """Abstract distance function ``D`` of a metric space ``(M, D)``.

    Subclasses implement :meth:`distance` (scalar) and should override
    :meth:`distances` (one-to-many batch) with a vectorized version —
    the default loops over :meth:`distance`.
    """

    @abstractmethod
    def distance(self, a: Any, b: Any) -> float:
        """Return ``D(a, b)``."""

    def distances(self, a: Any, batch: Any) -> np.ndarray:
        """Return ``[D(a, b) for b in batch]`` as a float64 array.

        ``batch`` is a numpy array of points in the metric's native
        representation (rows for Euclidean points, entries for id-based
        metrics).  Subclasses override this with vectorized code.
        """
        return np.array([self.distance(a, b) for b in batch], dtype=np.float64)

    def distances_many(self, queries: Any, batch: Any, lens: np.ndarray) -> np.ndarray:
        """Segmented many-to-many distances — the batch engine primitive.

        ``queries`` holds one query point per segment, ``batch`` is the
        flat concatenation of all segments' target points, and ``lens``
        gives each segment's length (so ``len(batch) == lens.sum()``).
        Returns the flat float64 array whose segment ``i`` is
        ``[D(queries[i], b) for b in segment_i]``.

        The default delegates each segment to :meth:`distances`, which
        guarantees the per-element results are *bit-identical* to what a
        scalar search loop would compute — the batch engine relies on
        that.  Coordinate metrics override with a single vectorized
        evaluation over the whole flat batch.
        """
        lens = np.asarray(lens, dtype=np.int64)
        out = np.empty(int(lens.sum()), dtype=np.float64)
        pos = 0
        for q, ln in zip(queries, lens):
            ln = int(ln)
            out[pos : pos + ln] = self.distances(q, batch[pos : pos + ln])
            pos += ln
        return out

    def cross_distances(self, queries: Any, batch: Any) -> np.ndarray:
        """Full ``(len(queries), len(batch))`` query-to-point matrix.

        Used by ground-truth computation (exact NN of every query by
        linear scan).  The default runs one :meth:`distances` row per
        query; the Euclidean metric overrides it with a BLAS-backed Gram
        expansion.
        """
        out = np.empty((len(queries), len(batch)), dtype=np.float64)
        for i, q in enumerate(queries):
            out[i, :] = self.distances(q, batch)
        return out

    def pairwise(self, batch: Any) -> np.ndarray:
        """Return the full symmetric distance matrix of ``batch``: its
        :meth:`cross_distances` with itself, the diagonal exactly 0.

        Intended for tests and small inputs; quadratic in ``len(batch)``.
        """
        out = self.cross_distances(batch, batch)
        np.fill_diagonal(out, 0.0)
        return out

    # ------------------------------------------------------------------
    # Axiom checkers (used by tests; exact arithmetic not assumed, so a
    # relative tolerance is accepted for the triangle inequality).
    # ------------------------------------------------------------------

    def check_axioms(self, batch: Sequence[Any], rtol: float = 1e-9) -> None:
        """Raise ``AssertionError`` if the metric axioms fail on ``batch``.

        Checks identity of indiscernibles, symmetry, non-negativity and
        the triangle inequality over all triples of the sample.  Meant for
        test suites; cost is cubic in ``len(batch)``.
        """
        m = len(batch)
        mat = self.pairwise(batch)
        if (mat < 0).any():
            raise AssertionError("negative distance found")
        if not np.allclose(mat, mat.T, rtol=rtol):
            raise AssertionError("distance function is not symmetric")
        for i in range(m):
            if mat[i, i] != 0.0:
                raise AssertionError(f"D(p, p) != 0 at index {i}")
        slack = rtol * (1.0 + mat.max())
        for k in range(m):
            # D(i, j) <= D(i, k) + D(k, j) for all i, j — vectorized per k.
            via_k = mat[:, k][:, None] + mat[k, :][None, :]
            if (mat > via_k + slack).any():
                i, j = np.unravel_index(np.argmax(mat - via_k), mat.shape)
                raise AssertionError(
                    f"triangle inequality violated: D({i},{j})={mat[i, j]} "
                    f"> D({i},{k})+D({k},{j})={via_k[i, j]}"
                )


class Dataset:
    """A finite point set ``P`` from a metric space, indexable by id.

    Graph algorithms operate on vertex indices ``0..n-1``; the dataset
    translates index-level requests into metric evaluations.  ``points``
    must support numpy fancy indexing (``points[idx_array]``), which holds
    for ``(n, d)`` coordinate arrays and for 1-D id arrays alike.
    """

    def __init__(self, metric: MetricSpace, points: Any):
        if len(points) < 2:
            raise ValueError("a dataset needs at least 2 points (paper: n >= 2)")
        self.metric = metric
        self.points = points
        self.n = len(points)

    # -- index-based ---------------------------------------------------

    def distance(self, i: int, j: int) -> float:
        """``D(p_i, p_j)`` for data point indices ``i``, ``j``."""
        return self.metric.distance(self.points[i], self.points[j])

    def distances_from_index(self, i: int, idx: np.ndarray) -> np.ndarray:
        """Distances from data point ``i`` to the data points in ``idx``."""
        return self.metric.distances(self.points[i], self.points[idx])

    def distances_from_index_to_all(self, i: int) -> np.ndarray:
        """Distances from data point ``i`` to every data point."""
        return self.metric.distances(self.points[i], self.points)

    # -- query-point-based ----------------------------------------------

    def distance_to_query(self, q: Any, i: int) -> float:
        """``D(q, p_i)`` for an arbitrary query point ``q`` of ``M``."""
        return self.metric.distance(q, self.points[i])

    def distances_to_query(self, q: Any, idx: np.ndarray) -> np.ndarray:
        """Distances from query ``q`` to the data points in ``idx``."""
        return self.metric.distances(q, self.points[idx])

    def distances_to_queries(
        self, queries: Any, idx: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        """Segmented batch: distances from ``queries[i]`` to the data
        points of segment ``i`` of ``idx`` (segment lengths in ``lens``).
        One call serves a whole lockstep hop of the batch engine."""
        return self.metric.distances_many(
            queries, self.points[np.asarray(idx, dtype=np.intp)], lens
        )

    def distances_to_query_all(self, q: Any) -> np.ndarray:
        """Distances from query ``q`` to every data point."""
        return self.metric.distances(q, self.points)

    # -- exact search (oracle; linear scan) -------------------------------

    def nearest_neighbor(self, q: Any) -> tuple[int, float]:
        """Exact NN of ``q`` by linear scan: ``(index, distance)``."""
        dists = self.distances_to_query_all(q)
        i = int(np.argmin(dists))
        return i, float(dists[i])

    def diameter(self) -> float:
        """Exact ``diam(P)`` by full pairwise scan (quadratic; small n)."""
        best = 0.0
        for i in range(self.n):
            best = max(best, float(self.distances_from_index_to_all(i).max()))
        return best

    def min_interpoint_distance(self) -> float:
        """Exact smallest inter-point distance (quadratic; small n)."""
        best = np.inf
        for i in range(self.n):
            d = self.distances_from_index_to_all(i)
            d[i] = np.inf
            best = min(best, float(d.min()))
        return best

    def aspect_ratio(self) -> float:
        """Exact aspect ratio ``diam(P) / min inter-point distance``."""
        return self.diameter() / self.min_interpoint_distance()


class ScaledMetric(MetricSpace):
    """``D'(a, b) = factor * D(a, b)`` — used to normalize the minimum
    inter-point distance to 2 as Section 2.1 assumes.

    Scaling preserves all metric axioms and the doubling dimension, and
    multiplies every distance (hence the diameter) by the same factor, so
    the aspect ratio is unchanged.
    """

    def __init__(self, inner: MetricSpace, factor: float):
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        self.inner = inner
        self.factor = float(factor)

    def distance(self, a: Any, b: Any) -> float:
        return self.factor * self.inner.distance(a, b)

    def distances(self, a: Any, batch: Any) -> np.ndarray:
        return self.factor * self.inner.distances(a, batch)

    def distances_many(self, queries: Any, batch: Any, lens: np.ndarray) -> np.ndarray:
        return self.factor * self.inner.distances_many(queries, batch, lens)

    def cross_distances(self, queries: Any, batch: Any) -> np.ndarray:
        return self.factor * self.inner.cross_distances(queries, batch)


class ExplicitMatrixMetric(MetricSpace):
    """A metric given by an explicit ``n x n`` distance matrix.

    Points are integer ids ``0..n-1``.  Useful for tests and for small
    hand-crafted metric spaces.  The constructor validates symmetry and
    zero diagonal; triangle inequality validation is opt-in (cubic).
    """

    def __init__(self, matrix: np.ndarray, validate_triangle: bool = False):
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("distance matrix must be square")
        if not np.allclose(matrix, matrix.T):
            raise ValueError("distance matrix must be symmetric")
        if not np.all(np.diag(matrix) == 0):
            raise ValueError("distance matrix must have zero diagonal")
        if (matrix < 0).any():
            raise ValueError("distances must be non-negative")
        self.matrix = matrix
        if validate_triangle:
            self.check_axioms(np.arange(len(matrix)))

    def distance(self, a: int, b: int) -> float:
        return float(self.matrix[int(a), int(b)])

    def distances(self, a: int, batch: np.ndarray) -> np.ndarray:
        return self.matrix[int(a), np.asarray(batch, dtype=np.intp)].astype(
            np.float64, copy=False
        )

    def distances_many(
        self, queries: np.ndarray, batch: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        rows = np.repeat(np.asarray(queries, dtype=np.intp), np.asarray(lens))
        return self.matrix[rows, np.asarray(batch, dtype=np.intp)].astype(
            np.float64, copy=False
        )

    def cross_distances(self, queries: np.ndarray, batch: np.ndarray) -> np.ndarray:
        rows = np.asarray(queries, dtype=np.intp)
        cols = np.asarray(batch, dtype=np.intp)
        return self.matrix[np.ix_(rows, cols)].astype(np.float64, copy=False)
