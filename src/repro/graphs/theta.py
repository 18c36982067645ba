"""Theta-graphs — the "small-but-slow" Euclidean proximity graph G_geo of
Section 5.1.

For a cone family ``C`` (apexes translated to each point ``p``), the
theta-graph has an edge from ``p`` to the *nearest-point-on-ray* of every
non-empty cone ``C_p``: among the points of ``P - {p}`` covered by
``C_p``, the one whose projection onto the cone's designated ray is
closest to ``p``.  Lemma 5.1: an ``(eps/32)``-graph of ``P`` is a
(1+eps)-PG of ``P``.  Out-degree is at most ``|C| = O((1/theta)^(d-1))``,
so the graph has ``O((1/theta)^(d-1) * n)`` edges — no ``log Delta``
factor, the geometric blessing that powers Theorem 1.3.

Two builders with identical output on generic inputs:

* ``"sweep"`` (``d = 2`` only) — the classical ``O(k n log n)`` staircase
  construction [5, 25].  In rotated cone coordinates
  ``a = tan(beta) * u - v``, ``b = tan(beta) * u + v`` (``u`` along the
  axis, ``v`` across, ``beta`` the half-angle), ``p'`` lies in ``C_p``
  iff ``a(p') >= a(p)`` and ``b(p') >= b(p)``; processing points by
  ascending ``u`` and keeping unassigned points as a dominance staircase
  (an antichain: ``a`` ascending, ``b`` descending) finds each point's
  first dominator — exactly its nearest-point-on-ray.
* ``"vectorized"`` (any ``d``) — per point, one matrix product against
  all cone axes; the correctness reference.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.cones import ConeFamily, build_cone_family
from repro.metrics.base import Dataset

__all__ = [
    "ThetaBuildResult",
    "theta_for_epsilon",
    "build_theta_graph",
]


def theta_for_epsilon(epsilon: float) -> float:
    """The cone angle Lemma 5.1 prescribes: ``theta = eps / 32``."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    return epsilon / 32.0


@dataclass
class ThetaBuildResult:
    """Output of :func:`build_theta_graph`."""

    graph: ProximityGraph
    cones: ConeFamily
    theta: float


def build_theta_graph(
    dataset: Dataset,
    theta: float,
    method: str = "auto",
    cones: ConeFamily | None = None,
) -> ThetaBuildResult:
    """Build the theta-graph of a Euclidean dataset.

    ``dataset.points`` must be an ``(n, d)`` float array.  ``method`` is
    ``"sweep"`` (d=2), ``"vectorized"``, or ``"auto"`` (sweep when d=2).
    """
    points = np.asarray(dataset.points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("theta-graphs need (n, d) coordinate data")
    dim = points.shape[1]
    if cones is None:
        cones = build_cone_family(theta, dim)
    if method == "auto":
        method = "sweep" if dim == 2 else "vectorized"
    if method == "sweep":
        if dim != 2:
            raise ValueError("the sweep builder is 2-D only")
        graph = _build_sweep_2d(points, cones)
    elif method == "vectorized":
        graph = _build_vectorized(points, cones)
    else:
        raise ValueError(f"unknown build method {method!r}")
    return ThetaBuildResult(graph=graph, cones=cones, theta=theta)


# ----------------------------------------------------------------------
# Vectorized reference builder (any dimension)
# ----------------------------------------------------------------------


def _build_vectorized(points: np.ndarray, cones: ConeFamily) -> ProximityGraph:
    n = len(points)
    cos_half = math.cos(cones.half_angle)
    axes_t = cones.axes.T  # (d, k)
    out: list[np.ndarray] = []
    for p in range(n):
        diff = points - points[p]
        norms = np.linalg.norm(diff, axis=1)
        proj = diff @ axes_t  # (n, k) projections onto designated rays
        member = proj >= (cos_half * norms)[:, None] - 1e-12
        member[p, :] = False
        member[norms == 0.0, :] = False  # coincident points: treat as absent
        masked = np.where(member, proj, np.inf)
        best = np.argmin(masked, axis=0)  # (k,)
        ok = masked[best, np.arange(cones.num_cones)] < np.inf
        out.append(best[ok])
    return ProximityGraph(n, out)


# ----------------------------------------------------------------------
# 2-D staircase sweep builder
# ----------------------------------------------------------------------


def _build_sweep_2d(points: np.ndarray, cones: ConeFamily) -> ProximityGraph:
    n = len(points)
    tan_half = math.tan(cones.half_angle)
    edge_sets: list[set[int]] = [set() for _ in range(n)]
    for axis in cones.axes:
        _sweep_one_cone(points, axis, tan_half, edge_sets)
    return ProximityGraph(n, edge_sets)


def _sweep_one_cone(
    points: np.ndarray,
    axis: np.ndarray,
    tan_half: float,
    edge_sets: list[set[int]],
) -> None:
    """Assign, for one cone direction, each point's nearest-point-on-ray.

    The staircase invariant: unassigned processed points form an antichain
    under the dominance order ``(a, b)`` — stored with ``a`` strictly
    ascending and hence ``b`` strictly descending — because any
    comparable pair would have been resolved when the later point was
    processed.
    """
    u = points @ axis
    v = points @ np.array([-axis[1], axis[0]])
    a = tan_half * u - v
    b = tan_half * u + v
    order = np.lexsort((np.arange(len(points)), u))

    stair_a: list[float] = []
    stair_b: list[float] = []
    stair_id: list[int] = []
    for idx in order:
        idx = int(idx)
        # Points dominated by idx: prefix by a (<= a[idx]), then — since b
        # is descending there — the suffix of that prefix with b <= b[idx].
        hi = bisect_right(stair_a, float(a[idx]))
        lo = _first_below(stair_b, float(b[idx]), hi)
        if lo < hi:
            for pid in stair_id[lo:hi]:
                edge_sets[pid].add(idx)
            del stair_a[lo:hi], stair_b[lo:hi], stair_id[lo:hi]
        pos = bisect_left(stair_a, float(a[idx]))
        stair_a.insert(pos, float(a[idx]))
        stair_b.insert(pos, float(b[idx]))
        stair_id.insert(pos, idx)


def _first_below(desc_values: list[float], threshold: float, hi: int) -> int:
    """First index ``< hi`` whose value is ``<= threshold`` in a
    descending list (all later indices also satisfy it)."""
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if desc_values[mid] <= threshold:
            hi = mid
        else:
            lo = mid + 1
    return lo
