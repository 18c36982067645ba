"""Distance-evaluation accounting.

The paper defines query time as the number of distance computations
(Section 1.1: a "Q query time" guarantee translates into an ``O(Q)``
running time "because distance calculation is the bottleneck of greedy").
Algorithms in this library therefore never count work themselves; wrapping
the metric in :class:`CountingMetric` makes every scalar evaluation — and
every element of a batch evaluation — tick a shared counter.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.metrics.base import MetricSpace

__all__ = ["CountingMetric"]


class CountingMetric(MetricSpace):
    """Transparent wrapper that counts distance evaluations.

    A batch request of ``m`` points counts as ``m`` evaluations, matching
    the paper's accounting (each out-neighbor of a hop vertex costs one
    distance computation regardless of vectorization).
    """

    def __init__(self, inner: MetricSpace):
        self.inner = inner
        self.count = 0

    def reset(self) -> int:
        """Zero the counter, returning the previous value."""
        old, self.count = self.count, 0
        return old

    def distance(self, a: Any, b: Any) -> float:
        self.count += 1
        return self.inner.distance(a, b)

    def distances(self, a: Any, batch: Any) -> np.ndarray:
        out = self.inner.distances(a, batch)
        self.count += len(out)
        return out

    def distances_many(self, queries: Any, batch: Any, lens: Any) -> np.ndarray:
        out = self.inner.distances_many(queries, batch, lens)
        self.count += len(out)
        return out

    def cross_distances(self, queries: Any, batch: Any) -> np.ndarray:
        out = self.inner.cross_distances(queries, batch)
        self.count += out.shape[0] * out.shape[1]
        return out
