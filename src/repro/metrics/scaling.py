"""Normalization and spread estimation (Section 2.1 and the Section 2.4 remark).

The constructions of Sections 2 and 5 assume the smallest inter-point
distance of ``P`` is exactly 2, so that the aspect ratio is
``Delta = diam(P) / 2`` and the net hierarchy has levels ``0..h`` with
``h = ceil(log2 diam(P))``.  This module provides:

* :func:`normalize_min_distance` — wrap a metric so the minimum inter-point
  distance becomes 2 (a pure rescaling; preserves axioms, doubling
  dimension, and aspect ratio).  Its exact ``d_min`` comes from a sorted
  sweep along the widest axis for ``(n, d)`` points under an ``L_p``
  metric, and from one distance row per point for any other metric;
* :func:`estimate_extremes` — the remark of Section 2.4 (footnote 1): from
  ``n`` ANN queries obtain ``d_min_hat in [d_min/2, d_min]`` and
  ``d_max_hat in [d_max, 2*d_max]`` without a quadratic scan, so the
  algorithm never needs the exact ``d_min``/``diam(P)``;
* :func:`spread_parameters` — the derived ``(h, Delta)`` the builders use.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.metrics.base import Dataset, ScaledMetric
from repro.metrics.euclidean import lp_decompose

__all__ = [
    "normalize_min_distance",
    "estimate_extremes",
    "spread_parameters",
    "SpreadEstimate",
]

# The sweep stops once the smallest gap along its axis, in the metric's
# units, clears the best distance by this factor: a pair's computed
# distance may round a few ulps below its own computed gap.
_SWEEP_SLACK = 1.0 + 2.0**-20


class SpreadEstimate:
    """Estimated distance extremes of a dataset.

    ``d_min_hat`` lies in ``[d_min/2, d_min]`` and ``d_max_hat`` in
    ``[d_max, 2*d_max]``, so ``aspect_ratio_hat = d_max_hat / d_min_hat``
    overestimates the true aspect ratio by a factor of at most 4 — exactly
    the guarantee the Section 2.4 remark supplies.
    """

    def __init__(self, d_min_hat: float, d_max_hat: float):
        if not 0 < d_min_hat <= d_max_hat:
            raise ValueError("need 0 < d_min_hat <= d_max_hat")
        self.d_min_hat = float(d_min_hat)
        self.d_max_hat = float(d_max_hat)

    @property
    def aspect_ratio_hat(self) -> float:
        return self.d_max_hat / self.d_min_hat

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SpreadEstimate(d_min_hat={self.d_min_hat}, "
            f"d_max_hat={self.d_max_hat})"
        )


def estimate_extremes(
    dataset: Dataset,
    second_nearest: Callable[[int], float] | None = None,
) -> SpreadEstimate:
    """Estimate ``d_min`` and ``d_max`` per the Section 2.4 remark.

    ``d_max_hat``: pick any point ``p0`` and set ``2 * max_p D(p0, p)`` —
    by the triangle inequality this is within ``[d_max, 2*d_max]``.

    ``d_min_hat``: for each point ``p`` record the distance to a 2-ANN of
    ``p`` among ``P - {p}`` (the paper builds a dynamic 2-ANN structure;
    pass its query as ``second_nearest``), then halve the smallest record.
    Each record is within ``[d_min_p, 2*d_min_p]`` of ``p``'s true nearest
    distance, so the halved minimum is within ``[d_min/2, d_min]``.  The
    default implementation is an exact vectorized scan (a valid 2-ANN).
    """
    n = dataset.n
    row0 = dataset.distances_from_index_to_all(0)
    d_max_hat = 2.0 * float(row0.max())

    if second_nearest is None:

        def second_nearest(i: int) -> float:
            row = dataset.distances_from_index_to_all(i)
            row[i] = np.inf
            return float(row.min())

    smallest = min(second_nearest(i) for i in range(n))
    if smallest <= 0:
        raise ValueError("dataset contains duplicate points (d_min = 0)")
    return SpreadEstimate(d_min_hat=smallest / 2.0, d_max_hat=d_max_hat)


def normalize_min_distance(
    dataset: Dataset,
    target: float = 2.0,
    spread: SpreadEstimate | None = None,
) -> tuple[Dataset, float]:
    """Return a dataset whose metric is rescaled so the minimum inter-point
    distance is (approximately) ``target``, plus the factor applied.

    With an exact ``d_min`` the minimum becomes exactly ``target``; with a
    :class:`SpreadEstimate` it lands in ``[target, 2*target]``, which every
    construction in the paper tolerates (constants absorb the factor 2).
    """
    d_min = spread.d_min_hat if spread is not None else _min_distance(dataset)
    if d_min <= 0:
        raise ValueError("dataset contains duplicate points (d_min = 0)")
    # The 1e-12 headroom keeps the *recomputed* minimum at or above the
    # target despite float rounding — the net hierarchy relies on every
    # insertion distance clearing 2^1 exactly when the input is normalized.
    factor = (target / d_min) * (1.0 + 1e-12)
    scaled = Dataset(ScaledMetric(dataset.metric, factor), dataset.points)
    return scaled, factor


def _min_distance(dataset: Dataset) -> float:
    """The exact smallest inter-point distance, as the same float a scan
    of every distance row finds."""
    lp = lp_decompose(dataset.metric) if np.ndim(dataset.points) == 2 else None
    if lp is None:
        return dataset.min_interpoint_distance()
    return _sweep_min_distance(dataset, factor=lp[1])


def _sweep_min_distance(dataset: Dataset, factor: float) -> float:
    """Sorted sweep for ``(n, d)`` points under ``factor * L_p``.

    Sort along the widest axis; shift ``s`` evaluates every pair ``s``
    apart in that order (one :meth:`~repro.metrics.base.MetricSpace
    .distances_many` call, per element the float the distance rows give).
    A pair ``t >= s`` apart spans at least the smallest shift-``s`` gap
    along the axis, and ``|x_k - y_k| * factor <= D(x, y)``, so once that
    gap clears the best distance found no later shift can beat it.
    """
    n = dataset.n
    coords = np.asarray(dataset.points, dtype=np.float64)
    axis = int(np.argmax(coords.max(axis=0) - coords.min(axis=0)))
    order = np.argsort(coords[:, axis], kind="stable")
    along = coords[order, axis]
    best = np.inf
    for shift in range(1, n):
        if float((along[shift:] - along[:-shift]).min()) * factor >= best * _SWEEP_SLACK:
            break
        dists = dataset.distances_to_queries(
            dataset.points[order[:-shift]], order[shift:], np.ones(n - shift, dtype=np.int64)
        )
        best = min(best, float(dists.min()))
    return best


def spread_parameters(diameter: float) -> tuple[int, float]:
    """Derive ``(h, Delta)`` from the (possibly estimated) diameter of a
    dataset already normalized to minimum inter-point distance 2.

    ``h = ceil(log2 diam(P))`` per equation (1) and ``Delta = diam(P)/2``
    per Section 2.1.
    """
    if diameter < 2:
        raise ValueError("normalized dataset must have diameter >= 2")
    h = max(1, math.ceil(math.log2(diameter)))
    return h, diameter / 2.0
