"""``FlatStore`` — full-precision vectors, the exact reference store.

The store every index gets by default.  It owns no data of its own: it
references the dataset's point array and delegates every distance to the
metric through :class:`~repro.storage.base.FlatQueryView` — the same
calls the engines made before the storage layer existed, so search
results are bit-identical to the pre-storage behavior.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.metrics.base import MetricSpace
from repro.storage.base import FlatQueryView, VectorStore

__all__ = ["FlatStore"]


class FlatStore(VectorStore):
    """The raw coordinate (or id) array, measured exactly."""

    kind = "flat"
    is_quantized = False
    default_rerank_factor = 1

    def __init__(self, metric: MetricSpace, points: Any) -> None:
        self.metric = metric
        self.points = points
        self.drift = 0

    # -- traversal ------------------------------------------------------

    def bind(self, Q: Any) -> FlatQueryView:
        return FlatQueryView(self.metric, self.points, Q)

    # -- collection lifecycle ------------------------------------------

    def refresh(self, dataset: Any, added: int) -> "FlatStore":
        return FlatStore(dataset.metric, dataset.points)

    def retrained(self, dataset: Any) -> "FlatStore":
        return FlatStore(dataset.metric, dataset.points)

    # -- accounting -----------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.points)

    def traversal_bytes_per_vector(self) -> float:
        arr = np.asarray(self.points)
        if arr.dtype == object or not len(arr):
            return 0.0
        return arr.nbytes / len(arr)

    def aux_bytes(self) -> int:
        return 0

    # -- wire form ------------------------------------------------------

    def spec(self) -> dict[str, Any]:
        return {"kind": "flat"}
