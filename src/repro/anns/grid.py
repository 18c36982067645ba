"""Hash-grid index for datasets embedded in ``R^d``.

The Euclidean fast path of the G_net builder issues, per level ``i``, a
batch of fixed-radius range queries (radius ``phi * 2^i``) over the net
``Y_i``.  A uniform grid with cell width tied to the query radius answers
such queries output-sensitively: only ``O((phi)^d)`` cells are touched per
query thanks to the net's ``2^i`` separation (Fact 2.3 bounds occupancy).

Works for any ``Lp`` metric on coordinate data because an ``Lp`` ball of
radius ``r`` is contained in the ``L_inf`` box of radius ``r``: the grid
over-approximates with the box and filters by true metric distance.

Radii and the cell width are given in the dataset *metric's* units; under
a :class:`~repro.metrics.base.ScaledMetric` (every normalized dataset)
those are ``factor`` times coordinate units, so the grid divides by the
factor :func:`~repro.metrics.euclidean.lp_decompose` reports before it
touches a coordinate.
"""

from __future__ import annotations

import itertools
import math
from typing import Any

import numpy as np

from repro.anns.base import DynamicANN
from repro.metrics.base import Dataset
from repro.metrics.euclidean import lp_decompose

__all__ = ["GridANN"]

# The box is cut in coordinate units from a radius divided by the scale
# factor; this relative slack keeps it a superset of the metric ball when
# that division (or the box corners) round the wrong way.
_BOX_SLACK = 1.0 + 2.0**-20


class GridANN(DynamicANN):
    """Dynamic uniform-grid point index over coordinate data.

    Parameters
    ----------
    dataset:
        Dataset whose ``points`` is an ``(n, d)`` float array and whose
        metric is coordinate-based (``L2``, ``L_inf``, ``Lp``).
    cell_size:
        Grid cell width, in the metric's units like every radius.  Choose
        it near the typical query radius; range queries remain exact for
        any radius, only efficiency varies.
    """

    def __init__(self, dataset: Dataset, cell_size: float, point_ids: Any = ()):
        super().__init__(dataset)
        coords = np.asarray(dataset.points, dtype=np.float64)
        if coords.ndim != 2:
            raise ValueError("GridANN requires (n, d) coordinate data")
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        decomposed = lp_decompose(dataset.metric)
        if decomposed is None:
            raise ValueError(
                "GridANN requires an L_p coordinate metric (optionally "
                f"scaled or counted), got {type(dataset.metric).__name__}"
            )
        self._coords = coords
        self.dim = coords.shape[1]
        self.cell_size = float(cell_size)
        self._factor = decomposed[1]  # metric units per coordinate unit
        self._cell_width = self.cell_size / self._factor
        self._cells: dict[tuple[int, ...], set[int]] = {}
        self._live: set[int] = set()
        self.insert_many(point_ids)

    # ------------------------------------------------------------------

    def _cell_of(self, point: np.ndarray) -> tuple[int, ...]:
        return tuple(np.floor(np.asarray(point) / self._cell_width).astype(int))

    def insert(self, point_id: int) -> None:
        point_id = int(point_id)
        if not 0 <= point_id < self.dataset.n:
            raise ValueError(f"point id {point_id} out of range")
        if point_id in self._live:
            raise ValueError(f"point {point_id} already stored")
        self._cells.setdefault(self._cell_of(self._coords[point_id]), set()).add(
            point_id
        )
        self._live.add(point_id)

    def delete(self, point_id: int) -> None:
        point_id = int(point_id)
        if point_id not in self._live:
            raise KeyError(f"point {point_id} is not stored")
        cell = self._cell_of(self._coords[point_id])
        self._cells[cell].discard(point_id)
        if not self._cells[cell]:
            del self._cells[cell]
        self._live.remove(point_id)

    # ------------------------------------------------------------------

    def _candidates_in_box(self, query: np.ndarray, radius: float) -> np.ndarray:
        """Ids stored in cells intersecting the L_inf box of ``radius``."""
        q = np.asarray(query, dtype=np.float64)
        reach = radius / self._factor * _BOX_SLACK
        lo = np.floor((q - reach) / self._cell_width).astype(int)
        hi = np.floor((q + reach) / self._cell_width).astype(int)
        span = hi - lo + 1
        n_cells = int(np.prod(span))
        if n_cells > 8 * max(len(self._cells), 1):
            # The box covers more cells than exist: scan occupied cells.
            out: list[int] = []
            for cell, members in self._cells.items():
                if all(lo[k] <= cell[k] <= hi[k] for k in range(self.dim)):
                    out.extend(members)
            return np.array(out, dtype=np.intp)
        out = []
        for offsets in itertools.product(*(range(span[k]) for k in range(self.dim))):
            cell = tuple(lo + np.array(offsets))
            members = self._cells.get(cell)
            if members:
                out.extend(members)
        return np.array(out, dtype=np.intp)

    def range_search(self, query: Any, radius: float) -> list[tuple[int, float]]:
        cand = self._candidates_in_box(query, radius)
        if len(cand) == 0:
            return []
        dists = self.dataset.distances_to_query(query, cand)
        hit = dists <= radius
        return self._as_sorted(
            [(int(i), float(d)) for i, d in zip(cand[hit], dists[hit])]
        )

    def nearest(self, query: Any) -> tuple[int, float] | None:
        if not self._live:
            return None
        radius = self.cell_size
        while True:
            hits = self.range_search(query, radius)
            if hits:
                best_id, best_d = hits[0]
                if best_d <= radius:
                    # Candidates came from the full L_inf box of `radius`
                    # >= best_d, which contains the whole metric ball of
                    # radius best_d — the answer is exact.
                    return best_id, best_d
            radius *= 2.0
            if radius > self._search_radius_cap():
                # The query sits far outside the data region: expanding
                # rings would keep probing empty space, so fall back to
                # one exact scan over the live points.
                return self._scan_all(query, 1)[0]

    def knn(self, query: Any, k: int) -> list[tuple[int, float]]:
        k = int(k)
        if k <= 0 or not self._live:
            return []
        k = min(k, len(self._live))
        radius = self.cell_size
        while True:
            hits = self.range_search(query, radius)
            if len(hits) >= k and hits[k - 1][1] <= radius:
                return hits[:k]
            radius *= 2.0
            if radius > self._search_radius_cap():
                return self._scan_all(query, k)

    def _scan_all(self, query: Any, k: int) -> list[tuple[int, float]]:
        """Exact fallback: scan every live point (used only when the
        expanding search outgrew the data's bounding region)."""
        ids = np.fromiter(self._live, dtype=np.intp, count=len(self._live))
        dists = self.dataset.distances_to_query(query, ids)
        order = np.argsort(dists, kind="stable")[:k]
        return [(int(ids[j]), float(dists[j])) for j in order]

    def _search_radius_cap(self) -> float:
        spread = float(self._coords.max() - self._coords.min()) * self._factor
        return 4.0 * math.sqrt(self.dim) * (spread + self.cell_size)

    def __len__(self) -> int:
        return len(self._live)
