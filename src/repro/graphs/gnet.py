"""G_net — the fast-construction proximity graph of Theorem 1.1 (Section 2).

Definition (Section 2.1).  After normalizing ``P`` so its smallest
inter-point distance is 2, fix

* ``h   = ceil(log2 diam(P))``                       (equation (1)),
* ``Y_i = a 2^i-net of P`` for ``i in [0, h]``        (equation (2)),
* ``eta = ceil(log2(1 + 2/eps))``                     (equation (3)),
* ``phi = 1 + 2^(eta+1)``                             (equation (4)),

and give every point ``p`` an out-edge to **every** ``y in Y_i`` with
``D(p, y) <= phi * 2^i``, for every level ``i``.

Properties proved in the paper and checked by our tests:

* G_net is (1+eps)-navigable, hence a (1+eps)-PG (Lemma 2.2 + Fact 2.1);
* every out-degree is at least 1 (Proposition 2.1);
* out-degrees are ``O(phi^lambda * log Delta)`` (via Fact 2.3), giving
  ``O((1/eps)^lambda * n log Delta)`` edges;
* greedy reaches a (1+eps)-ANN within ``h`` hops (the log-drop property,
  Lemma 2.2(2)), giving ``O((1/eps)^lambda * log^2 Delta)`` query time.

Three interchangeable build strategies produce the identical edge set:

* ``"vectorized"`` — per level, batched distance rows against ``Y_i``
  (the correctness reference; works for every metric);
* ``"paper"`` — the Section 2.4 loop verbatim: a dynamic ANN structure
  per level, repeated 2-ANN extraction with deletions until the paper's
  ``2 * phi * 2^i`` stopping rule fires, then re-insertion;
* ``"grid"`` — one array-level range join for ``L_p`` coordinate metrics
  (the output-sensitive fast path, and what ``"auto"`` picks for them).

The join rests on the hierarchy's nestedness.  The levels are prefixes
of one traversal (``Y_h ⊆ ... ⊆ Y_0``) and the radius doubles per level,
so with ``top(y)`` the highest level containing ``y``

    ``(p, y) in E  <=>  D(p, y) <= phi * 2^top(y)``:

the ``h + 1`` overlapping per-level range queries collapse to ``h + 1``
*disjoint* joins of ``P`` against ``Y_i - Y_(i+1)``, each pair is
evaluated at most once, and nothing needs deduplicating.  The level an
edge would first have been added at (``level_edge_counts``) is read off
the same distance: the first ``i`` with ``D(p, y) <= phi * 2^i``.  Per
join, net points are sorted by the key of their grid cell — cells of
width ``phi * 2^i`` in the *metric's* units, i.e. over coordinates times
the normalization factor — and the ``3^d`` neighbour cells of every
point resolve to runs of that sorted array by binary search.  Candidate
pairs are filtered by the metric's own segmented primitive
(:meth:`~repro.metrics.base.MetricSpace.distances_many`, bit-identical
per element to the ``distances`` rows the reference evaluates) against
the same float radius, so the edge set *equals* the reference's,
boundary ties included; rows and targets leave through one sort straight
into CSR.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.anns.base import DynamicANN
from repro.anns.cover_tree import CoverTree
from repro.graphs.base import ProximityGraph
from repro.metrics.base import Dataset
from repro.metrics.euclidean import lp_decompose
from repro.nets.hierarchy import NetHierarchy

__all__ = ["GNetParameters", "GNetBuildResult", "gnet_parameters", "build_gnet"]

# The join evaluates candidate pairs in blocks of whole points holding at
# most this many gathered coordinates (2 MiB of float64 per temporary),
# so peak memory does not grow with the candidate count.
_JOIN_BLOCK_COORDS = 1 << 18
# Coordinates the cells are cut on (the widest ones): every point probes
# 3^g cells, and any subset of coordinates still gives a superset filter
# because |x_k - y_k| * factor <= D(x, y) for each k.
_JOIN_GRID_DIMS = 3
# Cells per axis are capped (wider cells only admit more candidates) so a
# cell's linear key stays far inside int64 and inside float64's integers.
_JOIN_MAX_CELLS_PER_AXIS = 1 << 20
# Cells are this much wider than the radius: pairs at distance <= radius
# stay in adjacent cells even when the keys' floor() rounds against them.
_JOIN_CELL_SLACK = 1.0 + 2.0**-20


@dataclass(frozen=True)
class GNetParameters:
    """The derived constants of Section 2.1."""

    epsilon: float
    height: int  # h
    eta: int
    phi: float

    def level_radius(self, i: int) -> float:
        """The edge threshold ``phi * 2^i`` at level ``i``."""
        return self.phi * float(2**i)

    def per_level_degree_bound(self, doubling_dimension: float) -> float:
        """Fact 2.3 bound on out-edges per level: the level-``i``
        out-neighborhood has aspect ratio at most ``2 * phi``, hence at
        most ``(8 * 2 * phi)^lambda`` points."""
        return (16.0 * self.phi) ** doubling_dimension

    def out_degree_bound(self, doubling_dimension: float) -> float:
        """Explicit out-degree bound: per-level bound times ``h + 1``."""
        return (self.height + 1) * self.per_level_degree_bound(doubling_dimension)

    def hop_bound(self) -> int:
        """Lemma 2.2's log-drop gives a (1+eps)-ANN within ``h`` non-ANN
        hops; allow one more for the landing vertex."""
        return self.height + 1

    def query_budget(self, doubling_dimension: float) -> int:
        """A distance-evaluation budget sufficient for the Section 2.3
        argument: (hop bound) * (out-degree bound) + 1 for the start."""
        return int(self.hop_bound() * self.out_degree_bound(doubling_dimension)) + 1


def gnet_parameters(epsilon: float, diameter: float) -> GNetParameters:
    """Compute ``(h, eta, phi)`` from ``eps`` and (an upper bound on) the
    diameter of the normalized input."""
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    if diameter < 2:
        raise ValueError("normalized diameter must be at least 2")
    height = max(1, math.ceil(math.log2(diameter)))
    eta = math.ceil(math.log2(1.0 + 2.0 / epsilon))
    phi = 1.0 + float(2 ** (eta + 1))
    return GNetParameters(epsilon=epsilon, height=height, eta=eta, phi=phi)


@dataclass
class GNetBuildResult:
    """Output of :func:`build_gnet`: the graph plus build artifacts."""

    graph: ProximityGraph
    params: GNetParameters
    hierarchy: NetHierarchy
    level_sizes: list[int] = field(default_factory=list)
    level_edge_counts: list[int] = field(default_factory=list)


def build_gnet(
    dataset: Dataset,
    epsilon: float,
    method: str = "auto",
    hierarchy: NetHierarchy | None = None,
    diameter: float | None = None,
    ann_factory: Callable[[Dataset, np.ndarray], DynamicANN] | None = None,
) -> GNetBuildResult:
    """Build G_net for a dataset normalized to minimum inter-point
    distance 2 (see :func:`repro.metrics.scaling.normalize_min_distance`).

    Parameters
    ----------
    method:
        ``"vectorized"``, ``"paper"``, ``"grid"``, or ``"auto"`` (grid for
        ``(n, d)`` arrays under an ``L_p`` coordinate metric, possibly
        scaled or counted; vectorized otherwise).
    diameter:
        Upper bound on ``diam(P)`` within a factor 2 (the Section 2.4
        remark's ``d_max_hat``).  Defaults to twice the eccentricity of
        the hierarchy's start point, which satisfies that contract.
    ann_factory:
        For ``method="paper"``: builds the dynamic ANN structure over a
        net level; defaults to :class:`~repro.anns.cover_tree.CoverTree`.
    """
    if hierarchy is None:
        hierarchy = NetHierarchy(dataset, height=None)
    if diameter is None:
        diameter = 2.0 * hierarchy.max_insertion_distance
    params = gnet_parameters(epsilon, diameter)
    if params.height > hierarchy.height:
        hierarchy = NetHierarchy(dataset, height=params.height)

    lp = lp_decompose(dataset.metric) if np.ndim(dataset.points) == 2 else None
    if method == "auto":
        method = "grid" if lp is not None else "vectorized"

    level_sizes = [hierarchy.level_size(i) for i in range(params.height + 1)]
    if method == "grid":
        if lp is None:
            raise ValueError(
                'method="grid" needs (n, d) points under an L_p coordinate '
                f"metric, got {type(dataset.metric).__name__}"
            )
        graph, level_edge_counts = _edges_grid_join(
            dataset, hierarchy.order, level_sizes, params, factor=lp[1]
        )
    elif method in ("vectorized", "paper"):
        out_sets: list[set[int]] = [set() for _ in range(dataset.n)]
        level_edge_counts = []
        for i in range(params.height + 1):
            level_ids = hierarchy.level(i)
            radius = params.level_radius(i)
            if method == "vectorized":
                added = _level_edges_vectorized(dataset, level_ids, radius, out_sets)
            else:
                factory = ann_factory or (
                    lambda ds, ids: CoverTree(ds, point_ids=ids)
                )
                added = _level_edges_paper(
                    dataset, level_ids, radius, out_sets, factory
                )
            level_edge_counts.append(added)
        graph = ProximityGraph.from_sets(dataset.n, out_sets)
    else:
        raise ValueError(f"unknown build method {method!r}")

    return GNetBuildResult(
        graph=graph,
        params=params,
        hierarchy=hierarchy,
        level_sizes=level_sizes,
        level_edge_counts=level_edge_counts,
    )


def _level_edges_vectorized(
    dataset: Dataset,
    level_ids: np.ndarray,
    radius: float,
    out_sets: list[set[int]],
) -> int:
    """Reference path: one batched distance row per point against Y_i."""
    added = 0
    for p in range(dataset.n):
        dists = dataset.distances_from_index(p, level_ids)
        close = level_ids[dists <= radius]
        for y in close:
            y = int(y)
            if y != p and y not in out_sets[p]:
                out_sets[p].add(y)
                added += 1
    return added


def _edges_grid_join(
    dataset: Dataset,
    order: np.ndarray,
    level_sizes: list[int],
    params: GNetParameters,
    factor: float,
) -> tuple[ProximityGraph, list[int]]:
    """Fast path for ``L_p`` coordinate data: the whole edge set as one
    range join, emitted as CSR (see the module docstring).

    ``order`` is the hierarchy's traversal and ``level_sizes[i]`` the
    length of its prefix ``Y_i``; ``factor`` is the metric's scale over
    plain coordinates.  Returns the graph and, per level, the number of
    edges a level-by-level build in ascending order would first have
    added there.
    """
    n, height = dataset.n, params.height
    radii = np.array([params.level_radius(i) for i in range(height + 1)])

    coords = np.asarray(dataset.points, dtype=np.float64)
    low = coords.min(axis=0)
    axes = np.argsort(low - coords.max(axis=0), kind="stable")[:_JOIN_GRID_DIMS]
    grid = (coords[:, axes] - low[axes]) * factor  # metric units, >= 0
    min_width = float(grid.max()) / _JOIN_MAX_CELLS_PER_AXIS
    # Cell offsets of the neighbourhood over all but the last grid axis;
    # along the last axis the three cells have consecutive keys: one run.
    neighbours = np.array(
        list(itertools.product((-1, 0, 1), repeat=len(axes) - 1)), dtype=np.int64
    )
    block_pairs = max(_JOIN_BLOCK_COORDS // coords.shape[1], 1)

    rows_out = [np.empty(0, dtype=np.int64)]  # seeded: an edgeless result
    cols_out = [np.empty(0, dtype=np.int64)]  # must still concatenate
    level_edge_counts = np.zeros(height + 1, dtype=np.int64)
    for i in range(height + 1):
        # Net points whose top level is i: Y_i minus Y_(i+1), a slice of
        # the traversal order (the whole top net for i = h).
        members = order[(level_sizes[i + 1] if i < height else 0) : level_sizes[i]]
        radius = radii[i]
        width = max(radius, min_width) * _JOIN_CELL_SLACK
        cells = np.floor(grid / width).astype(np.int64) + 1  # >= 1: room for -1
        dims = cells.max(axis=0) + 2
        keys = np.ravel_multi_index(tuple(cells.T), tuple(dims))
        outer_strides = np.cumprod(dims[:0:-1])[::-1]  # the last axis has 1
        run_keys = keys[:, None] + neighbours @ outer_strides

        member_keys = keys[members]
        by_key = np.argsort(member_keys, kind="stable")
        members, member_keys = members[by_key], member_keys[by_key]
        run_start = np.searchsorted(member_keys, run_keys - 1, side="left")
        run_len = np.searchsorted(member_keys, run_keys + 1, side="right") - run_start
        per_point = run_len.sum(axis=1)
        done = np.cumsum(per_point)

        a = 0
        while a < n:
            # Whole points while the block stays within budget, never none.
            taken = done[a - 1] if a else 0
            b = max(int(np.searchsorted(done, taken + block_pairs, side="right")), a + 1)
            total = int(done[b - 1] - taken)
            if total:
                # Expand the runs [start, start + len) to flat positions.
                lens = run_len[a:b].ravel()
                ends = np.cumsum(lens)
                flat = np.repeat(run_start[a:b].ravel() - (ends - lens), lens)
                flat += np.arange(total)
                cand = members[flat]
                dists = dataset.distances_to_queries(
                    dataset.points[a:b], cand, per_point[a:b]
                )
                rows = np.repeat(np.arange(a, b), per_point[a:b])
                keep = (dists <= radius) & (cand != rows)
                rows_out.append(rows[keep])
                cols_out.append(cand[keep])
                first = np.searchsorted(radii, dists[keep], side="left")
                level_edge_counts += np.bincount(first, minlength=height + 1)
            a = b

    # Each (p, y) was produced once, so sorting the pairs is all that is
    # left of the CSR invariant (rows strictly increasing, no self-loop).
    rows = np.concatenate(rows_out)
    pair = rows * n + np.concatenate(cols_out)
    pair.sort()
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    graph = ProximityGraph.from_csr(n, offsets, pair % n)
    return graph, level_edge_counts.tolist()


def _level_edges_paper(
    dataset: Dataset,
    level_ids: np.ndarray,
    radius: float,
    out_sets: list[set[int]],
    ann_factory: Callable[[Dataset, np.ndarray], DynamicANN],
) -> int:
    """The Section 2.4 retrieval loop, verbatim.

    ``radius`` is ``phi * 2^i``.  For each ``p``: repeatedly take a 2-ANN
    ``y`` of ``p`` from ``T``, record the edge if ``D(p, y) <= radius``,
    delete ``y``, and stop once ``D(p, y) > 2 * radius`` for the first
    time; finally re-insert everything deleted.  Correctness of the stop
    rule is the paper's argument: were some ``y'`` with
    ``D(p, y') <= radius`` still stored, ``y_last`` could not have been a
    2-ANN of ``p`` because ``2 * D(p, y') <= 2 * radius < D(p, y_last)``.
    """
    structure = ann_factory(dataset, level_ids)
    added = 0
    for p in range(dataset.n):
        deleted: list[int] = []
        while len(structure) > 0:
            found = structure.nearest(dataset.points[p])
            if found is None:
                break
            y, dist = found
            structure.delete(y)
            deleted.append(y)
            if dist > 2.0 * radius:
                break
            if dist <= radius and y != p and y not in out_sets[p]:
                out_sets[p].add(y)
                added += 1
        structure.insert_many(deleted)
    return added
