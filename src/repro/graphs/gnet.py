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

Two interchangeable build strategies produce the identical edge set:

* ``"auto"`` — the edges read off the net traversal (the default; any
  metric);
* ``"paper"`` — the Section 2.4 loop verbatim: a dynamic ANN structure
  per level, repeated 2-ANN extraction with deletions until the paper's
  ``2 * phi * 2^i`` stopping rule fires, then re-insertion.

The default rests on the hierarchy's nestedness: the levels are prefixes
of one farthest-point traversal (``Y_h ⊆ ... ⊆ Y_0``) and the radius
doubles per level, so with ``top(y)`` the highest level containing ``y``

    ``(p, y) in E  <=>  D(p, y) <= phi * 2^top(y)``.

The traversal computes the row ``D(y, .)`` of every point ``y`` it
selects and knows ``top(y)`` from ``y``'s insertion distance, so
:class:`~repro.nets.hierarchy.NetHierarchy` keeps ``y``'s in-neighbours
from that row (``D(y, p)`` is the same float as ``D(p, y)`` for every
metric here): ``n^2`` evaluations in all, each edge recorded once.  An
edge's level in ``level_edge_counts`` is the first ``i`` with
``D(p, y) <= phi * 2^i``.  The pairs come grouped by target, so a
counting sort in ascending target order gives sorted CSR rows: compiled
where the cffi backend is, one numpy sort of the pairs elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.anns.base import DynamicANN
from repro.anns.cover_tree import CoverTree
from repro.graphs.base import ProximityGraph
from repro.metrics.base import Dataset
from repro.nets.hierarchy import NetHierarchy

__all__ = ["GNetParameters", "GNetBuildResult", "gnet_parameters", "build_gnet"]

_METHODS = ("auto", "paper")


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
    eta, phi = _eta_phi(epsilon)
    if diameter < 2:
        raise ValueError("normalized diameter must be at least 2")
    height = max(1, math.ceil(math.log2(diameter)))
    return GNetParameters(epsilon=epsilon, height=height, eta=eta, phi=phi)


def _eta_phi(epsilon: float) -> tuple[int, float]:
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    eta = math.ceil(math.log2(1.0 + 2.0 / epsilon))
    return eta, 1.0 + float(2 ** (eta + 1))


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
    diameter: float | None = None,
    ann_factory: Callable[[Dataset, np.ndarray], DynamicANN] | None = None,
) -> GNetBuildResult:
    """Build G_net for a dataset normalized to minimum inter-point
    distance 2 (see :func:`repro.metrics.scaling.normalize_min_distance`).

    Parameters
    ----------
    method:
        ``"auto"`` (edges recorded by the net traversal itself) or
        ``"paper"`` (see the module docstring).
    diameter:
        Upper bound on ``diam(P)`` within a factor 2 (the Section 2.4
        remark's ``d_max_hat``); it fixes ``h`` before the traversal.
        Defaults to twice the eccentricity of the hierarchy's start
        point, which satisfies that contract.
    ann_factory:
        For ``method="paper"``: builds the dynamic ANN structure over a
        net level; defaults to :class:`~repro.anns.cover_tree.CoverTree`.
    """
    if method not in _METHODS:
        raise ValueError(
            f"unknown build method {method!r}; expected one of "
            + ", ".join(map(repr, _METHODS))
        )
    _, phi = _eta_phi(epsilon)  # a bad epsilon fails before the traversal
    params = None if diameter is None else gnet_parameters(epsilon, diameter)
    hierarchy = NetHierarchy(
        dataset,
        height=None if params is None else params.height,
        phi=phi if method == "auto" else None,
    )
    if params is None:
        params = gnet_parameters(epsilon, 2.0 * hierarchy.max_insertion_distance)

    level_sizes = [hierarchy.level_size(i) for i in range(params.height + 1)]
    if method == "auto":
        graph, level_edge_counts = _csr_from_in_edges(
            dataset.n, hierarchy.take_in_edges(), params
        )
    else:
        out_sets: list[set[int]] = [set() for _ in range(dataset.n)]
        factory = ann_factory or (lambda ds, ids: CoverTree(ds, point_ids=ids))
        level_edge_counts = [
            _level_edges_paper(
                dataset, hierarchy.level(i), params.level_radius(i), out_sets, factory
            )
            for i in range(params.height + 1)
        ]
        graph = ProximityGraph(dataset.n, out_sets)

    return GNetBuildResult(
        graph=graph,
        params=params,
        hierarchy=hierarchy,
        level_sizes=level_sizes,
        level_edge_counts=level_edge_counts,
    )


def _csr_from_in_edges(
    n: int,
    in_edges: tuple[np.ndarray, np.ndarray, np.ndarray],
    params: GNetParameters,
) -> tuple[ProximityGraph, list[int]]:
    """The traversal's ``(sources, targets, distances)`` as CSR, plus the
    number of edges a level-by-level build in ascending order would first
    have added at each level."""
    from repro.accel import dispatch

    sources, targets, distances = in_edges
    csr = dispatch.run_in_edge_csr(n, sources, targets)  # a counting sort
    if csr is None:
        # Each (p, y) was recorded once, so sorting the pairs is all that
        # is left of the CSR invariant (rows strictly increasing, no self-loop).
        pair = sources * n + targets
        pair.sort()
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(sources, minlength=n), out=offsets[1:])
        csr = offsets, pair % n
    # An edge is first added at the lowest level whose radius covers it.
    covered = [
        np.count_nonzero(distances <= params.level_radius(i))
        for i in range(params.height + 1)
    ]
    graph = ProximityGraph.from_csr(n, *csr, validate=False)
    return graph, np.diff(covered, prepend=0).tolist()


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
