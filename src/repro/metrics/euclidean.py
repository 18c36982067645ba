"""Euclidean and related norm-induced metrics on ``R^d``.

The paper's Theorem 1.3 lives in ``(R^d, L2)`` with constant ``d``; the
Section 4 lower bound uses ``L_inf`` between grid points.  Points are
``(d,)`` float64 arrays and batches are ``(m, d)`` arrays, so all methods
vectorize with numpy.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import MetricSpace, ScaledMetric
from repro.metrics.counting import CountingMetric

__all__ = ["EuclideanMetric", "ChebyshevMetric", "MinkowskiMetric", "lp_decompose"]


class EuclideanMetric(MetricSpace):
    """The ``L2`` metric on ``R^d``.

    The doubling dimension of ``(R^d, L2)`` is ``Theta(d)`` (the paper
    uses ``d <= lambda = O(d)``), so algorithms parameterized by the
    doubling dimension may take ``d`` as a proxy.
    """

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
        return float(np.sqrt(np.dot(diff, diff)))

    def distances(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, :]
        diff = batch - np.asarray(a, dtype=np.float64)[None, :]
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def distances_many(
        self, queries: np.ndarray, batch: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        # One flat evaluation for a whole lockstep hop.  The row-wise
        # einsum reduction is per-row independent, so each element is
        # bit-identical to the per-segment `distances` result above.
        queries = np.asarray(queries, dtype=np.float64)
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, :]
        if queries.ndim == 1:
            queries = queries[None, :]
        diff = batch - np.repeat(queries, np.asarray(lens), axis=0)
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    def cross_distances(self, queries: np.ndarray, batch: np.ndarray) -> np.ndarray:
        # ||q - p||^2 = ||q||^2 + ||p||^2 - 2 q.p with the cross term as
        # one BLAS GEMM — the fast ground-truth path.  It is off by at most
        # (2d + 4) eps (||q||^2 + ||p||^2), all of d^2 near zero: every
        # entry under 2^30 times that bound (at the largest norms) is
        # evaluated directly, so the rest are exact to 2^-30 of d^2.
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        same = queries is batch  # pairwise: D(x, x) is 0, no second look
        q_sq = np.einsum("ij,ij->i", queries, queries)
        b_sq = q_sq if same else np.einsum("ij,ij->i", batch, batch)
        d2 = q_sq[:, None] + b_sq[None, :] - 2.0 * (queries @ batch.T)
        if same:
            np.fill_diagonal(d2, np.inf)
        bound = (q_sq.max(initial=0.0) + b_sq.max(initial=0.0)) * (2 * queries.shape[1] + 4)
        bound *= 2.0**30 * np.finfo(np.float64).eps
        rows, cols = np.nonzero(d2 <= bound) if d2.min(initial=np.inf) <= bound else ((), ())
        np.maximum(d2, 0.0, out=d2)
        out = np.sqrt(d2, out=d2)
        if same:
            np.fill_diagonal(out, 0.0)
        if len(rows):
            out[rows, cols] = self.distances_many(
                queries[rows], batch[cols], np.ones(len(rows), dtype=np.int64)
            )
        return out


class ChebyshevMetric(MetricSpace):
    """The ``L_inf`` metric on ``R^d`` (doubling dimension exactly ``d``).

    Used by the Section 4 hard instance, whose intra-``P`` distances are
    ``L_inf`` between integer grid points.
    """

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        return float(np.abs(a - b).max())

    def distances(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, :]
        return np.abs(batch - np.asarray(a, dtype=np.float64)[None, :]).max(axis=1)

    def distances_many(
        self, queries: np.ndarray, batch: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        return np.abs(batch - np.repeat(queries, np.asarray(lens), axis=0)).max(axis=1)


class MinkowskiMetric(MetricSpace):
    """The ``Lp`` metric on ``R^d`` for ``p >= 1``.

    Provided for workload variety (the theory of Sections 2-4 applies to
    any metric of bounded doubling dimension, which every fixed-``d``
    ``Lp`` space has).
    """

    def __init__(self, p: float):
        if p < 1:
            raise ValueError("Lp is a metric only for p >= 1")
        self.p = float(p)

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        diff = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))
        return float((diff**self.p).sum() ** (1.0 / self.p))

    def distances(self, a: np.ndarray, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim == 1:
            batch = batch[None, :]
        diff = np.abs(batch - np.asarray(a, dtype=np.float64)[None, :])
        return (diff**self.p).sum(axis=1) ** (1.0 / self.p)

    def distances_many(
        self, queries: np.ndarray, batch: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        batch = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        diff = np.abs(batch - np.repeat(queries, np.asarray(lens), axis=0))
        return (diff**self.p).sum(axis=1) ** (1.0 / self.p)


def lp_decompose(metric: MetricSpace) -> tuple[MetricSpace, float] | None:
    """``(inner, factor)`` with ``metric == factor * inner`` and ``inner``
    one of the ``L_p`` coordinate metrics above, or ``None`` for any other
    metric.  Sees through :class:`ScaledMetric` and
    :class:`CountingMetric` wrappers in any nesting.

    This is the single answer to "may coordinates stand in for
    distances?": an ``L_p`` norm is homogeneous, so ``factor * x`` are
    coordinates whose plain ``inner`` distances are ``metric``'s, and
    every ``|x_k - y_k| * factor`` is at most ``metric.distance(x, y)`` —
    the ``L_inf`` box of radius ``r`` contains the metric's ``r``-ball.
    """
    factor = 1.0
    while isinstance(metric, (ScaledMetric, CountingMetric)):
        if isinstance(metric, ScaledMetric):
            factor *= metric.factor
        metric = metric.inner
    if isinstance(metric, (EuclideanMetric, ChebyshevMetric, MinkowskiMetric)):
        return metric, factor
    return None
