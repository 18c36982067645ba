"""Incremental G_net — online insertion, an extension beyond the paper.

The Theorem 1.1 construction is static.  Nothing about its *proof*,
however, requires the nets to be built offline: navigability (Lemma 2.2)
only needs each ``Y_i`` to be a 2^i-net of the current point set and
every point to link to all net points within ``phi * 2^i``.  Both
properties can be maintained under insertions:

* **net membership** — a new point ``p`` joins ``Y_i`` iff its distance
  to the current ``Y_i`` is at least ``2^i`` (preserving separation;
  covering then holds with radius ``2^i`` because either ``p`` joined or
  a witness within ``2^i`` blocked it);  note the memberships are no
  longer nested prefixes of one ordering — they don't need to be;
* **edges** — ``p`` gains out-edges to all ``y in Y_i`` within
  ``phi * 2^i`` (a range query per level), and every existing point
  ``q`` within ``phi * 2^i`` of ``p`` gains an edge to ``p`` for each
  level where ``p`` joined ``Y_i`` (the *reverse* range query).

Cost per insertion: ``O(h)`` range queries, each output-sensitive via a
per-level hash grid — ``(1/eps)^lambda * polylog`` amortized on
bounded-doubling inputs, matching the static build's per-point cost.

Limitations (documented, by design):

* the height ``h`` and minimum inter-point distance are fixed at
  creation from a declared coordinate ``domain`` (points outside it are
  rejected), mirroring the paper's normalization convention;
* deletions are not supported (the paper's lower bounds say nothing
  about deletions; a tombstone scheme as in the cover tree would work
  but is orthogonal).

Coordinate (``R^d``-style) metrics only — the per-level grids need
coordinates.  For abstract metrics use the static builder.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.gnet import GNetParameters, gnet_parameters
from repro.metrics.base import Dataset, MetricSpace

__all__ = ["DynamicGNet"]


class _LevelGrid:
    """Minimal hash grid over a growing id->coordinate map (one per net
    level; cell width = the level's edge radius)."""

    def __init__(self, cell_size: float):
        self.cell_size = float(cell_size)
        self.cells: dict[tuple[int, ...], list[int]] = {}

    def _cell_of(self, x: np.ndarray) -> tuple[int, ...]:
        return tuple(np.floor(x / self.cell_size).astype(int))

    def add(self, point_id: int, x: np.ndarray) -> None:
        self.cells.setdefault(self._cell_of(x), []).append(point_id)

    def candidates(self, x: np.ndarray, radius: float) -> list[int]:
        lo = np.floor((x - radius) / self.cell_size).astype(int)
        hi = np.floor((x + radius) / self.cell_size).astype(int)
        out: list[int] = []
        ranges = [range(int(a), int(b) + 1) for a, b in zip(lo, hi)]
        # Iterate the cell box; for radius <= cell_size this is 3^d cells.
        for cell in itertools.product(*ranges):
            out.extend(self.cells.get(cell, ()))
        return out


class DynamicGNet:
    """A (1+eps)-PG maintained under point insertions.

    The per-level grids equate coordinate radii with metric radii, so the
    metric must be a plain (unscaled) coordinate metric and the inserted
    coordinates must already live in normalized units — scale the
    *points* (not the metric) so their minimum inter-point distance is
    ``min_distance``, e.g. ``points * factor`` with the factor from
    :func:`repro.metrics.scaling.normalize_min_distance`.

    Parameters
    ----------
    metric:
        A coordinate metric (``L2``, ``L_inf``, ``Lp``), unscaled.
    epsilon:
        Approximation target; fixes ``phi`` as in the static build.
    domain_diameter:
        Upper bound on the diameter of everything that will ever be
        inserted (after your own scaling).  Fixes ``h``.
    min_distance:
        Lower bound on inter-point distances (the paper's normalized
        value is 2).  Insertions closer than this to an existing point
        are rejected.
    capacity:
        Optional pre-allocation hint for the coordinate store.
    """

    def __init__(
        self,
        metric: MetricSpace,
        epsilon: float,
        domain_diameter: float,
        dim: int,
        min_distance: float = 2.0,
        capacity: int = 1024,
    ):
        if min_distance <= 0:
            raise ValueError("min_distance must be positive")
        if domain_diameter < min_distance:
            raise ValueError("domain diameter below the minimum distance")
        self.metric = metric
        self.min_distance = float(min_distance)
        self._domain_radius = float(domain_diameter) / 2.0
        self.params: GNetParameters = gnet_parameters(
            epsilon, max(domain_diameter, 2.0)
        )
        self.dim = int(dim)
        self._coords = np.empty((max(capacity, 4), self.dim), dtype=np.float64)
        self.n = 0
        self._out: list[set[int]] = []
        # Per level: member ids of Y_i, a grid at the *separation* scale
        # (for the >= 2^i check) and a grid at the *edge radius* scale.
        h = self.params.height
        self._members: list[list[int]] = [[] for _ in range(h + 1)]
        self._sep_grids = [_LevelGrid(float(2**i)) for i in range(h + 1)]
        self._edge_grids = [
            _LevelGrid(self.params.level_radius(i)) for i in range(h + 1)
        ]
        # One grid over all points for reverse edge queries, per level.
        self._all_grids = [
            _LevelGrid(self.params.level_radius(i)) for i in range(h + 1)
        ]

    # ------------------------------------------------------------------

    @classmethod
    def from_points(
        cls,
        metric: MetricSpace,
        coords: np.ndarray,
        epsilon: float,
        min_distance: float = 2.0,
        diameter_headroom: float = 4.0,
    ) -> "DynamicGNet":
        """Adopt an existing (already normalized) point set into a dynamic
        net — the upgrade path a static ``gnet`` index takes on its first
        ``add()``.

        ``coords`` must already live in normalized units (minimum
        inter-point distance ``>= min_distance``); every point is
        re-inserted in id order, so internal ids ``0..n-1`` are
        preserved.  The resulting net hierarchy generally differs from
        the static build's (memberships depend on insertion order) but
        maintains exactly the Theorem 1.1 invariants, so the (1+eps)
        guarantee carries over.  ``diameter_headroom`` multiplies the
        estimated current diameter to fix the domain budget — the room
        future insertions may occupy (``h`` grows only logarithmically
        in it).
        """
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or len(coords) < 1:
            raise ValueError("need an (n, d) coordinate array with n >= 1")
        if diameter_headroom < 1.0:
            raise ValueError("diameter_headroom must be at least 1")
        # Section 2.4 remark: 2 * max-distance-from-any-point is within
        # [diam, 2*diam]; headroom then reserves growth room on top.
        d_max_hat = 2.0 * float(metric.distances(coords[0], coords).max())
        domain = max(diameter_headroom * max(d_max_hat, min_distance), 2.0)
        net = cls(
            metric,
            epsilon,
            domain_diameter=domain,
            dim=coords.shape[1],
            min_distance=min_distance,
            capacity=2 * len(coords),
        )
        net.insert_many(coords)
        return net

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    @property
    def coords(self) -> np.ndarray:
        return self._coords[: self.n]

    def graph(self) -> ProximityGraph:
        """Snapshot of the current graph."""
        return ProximityGraph(max(self.n, 1), self._out)

    def dataset(self) -> Dataset:
        """Snapshot dataset over the current points."""
        return Dataset(self.metric, self.coords.copy())

    # ------------------------------------------------------------------

    def _dists(self, x: np.ndarray, ids: list[int]) -> np.ndarray:
        if not ids:
            return np.empty(0)
        return self.metric.distances(x, self._coords[np.array(ids, dtype=np.intp)])

    def rejection_reason(self, point: np.ndarray) -> str | None:
        """Why :meth:`insert` would refuse ``point`` — or ``None`` if it
        is insertable.  Lets batch callers (the index facade's ``add``)
        pre-validate a whole batch before mutating anything, keeping the
        batch atomic."""
        x = np.asarray(point, dtype=np.float64)
        if x.shape != (self.dim,):
            return f"expected a ({self.dim},) point"
        if self.n > 0:
            # Distance sanity: nearest existing point must be >= min_distance.
            near = self._all_grids[0].candidates(x, self.min_distance)
            d = self._dists(x, near)
            if len(d) and float(d.min()) < self.min_distance:
                return "insertion violates the declared minimum inter-point distance"
            # Diameter budget: h was sized from domain_diameter, and the
            # Lemma 2.2 argument needs h >= log2(diam).  Enforce the
            # (conservative) radius-around-the-first-point test, which by
            # the triangle inequality caps the diameter at the budget.
            if self.metric.distance(x, self._coords[0]) > self._domain_radius:
                return (
                    "insertion exceeds the declared domain diameter; "
                    "rebuild with a larger domain_diameter"
                )
        return None

    def insert(self, point: np.ndarray, prevalidated: bool = False) -> int:
        """Insert a point; returns its id.

        Raises ``ValueError`` if the point violates the declared minimum
        distance or falls outside the declared diameter budget (both
        checks are exact, via level-0 / top-level range queries).
        Callers that already ran :meth:`rejection_reason` over their
        whole batch (the facade's atomic ``add``) pass
        ``prevalidated=True`` to skip re-checking.
        """
        x = np.asarray(point, dtype=np.float64)
        if not prevalidated:
            reason = self.rejection_reason(x)
            if reason is not None:
                raise ValueError(reason)
        pid = self.n

        if self.n == len(self._coords):
            grown = np.empty((2 * len(self._coords), self.dim))
            grown[: self.n] = self._coords[: self.n]
            self._coords = grown
        self._coords[pid] = x
        self.n += 1
        self._out.append(set())

        new_edges_in = 0
        for i in range(self.params.height + 1):
            radius = self.params.level_radius(i)
            sep = float(2**i)

            # Does p join Y_i?  Yes iff no current member within 2^i.
            member_hits = self._sep_grids[i].candidates(x, sep)
            d = self._dists(x, member_hits)
            joins = not (len(d) and float(d.min()) < sep)
            if joins:
                self._members[i].append(pid)
                self._sep_grids[i].add(pid, x)
                self._edge_grids[i].add(pid, x)
                # Reverse edges: every existing point within radius links
                # to the new net member.
                others = self._all_grids[i].candidates(x, radius)
                od = self._dists(x, others)
                for q, dq in zip(others, od):
                    if dq <= radius and q != pid:
                        if pid not in self._out[q]:
                            self._out[q].add(pid)
                            new_edges_in += 1

            # Forward edges of p at this level.
            cand = self._edge_grids[i].candidates(x, radius)
            cd = self._dists(x, cand)
            for y, dy in zip(cand, cd):
                if dy <= radius and y != pid:
                    self._out[pid].add(int(y))

            self._all_grids[i].add(pid, x)
        return pid

    def insert_many(
        self, points: np.ndarray, prevalidated: bool = False
    ) -> list[int]:
        return [
            self.insert(p, prevalidated=prevalidated)
            for p in np.asarray(points, dtype=np.float64)
        ]

    # ------------------------------------------------------------------

    def level_members(self, i: int) -> np.ndarray:
        """Current ``Y_i`` (for inspection/tests)."""
        return np.array(self._members[i], dtype=np.intp)

    def check_net_invariants(self) -> None:
        """Assert every level is a 2^i-net of the current points
        (quadratic; test support)."""
        from repro.nets.rnet import verify_rnet

        ds = self.dataset()
        for i in range(self.params.height + 1):
            members = self.level_members(i)
            verify_rnet(ds, members, float(2**i))

    def query(self, q: np.ndarray, p_start: int | None = None):
        """Greedy (1+eps)-ANN over the current snapshot."""
        from repro.graphs.engine import greedy_batch

        if self.n == 0:
            raise ValueError("empty index")
        start = 0 if p_start is None else int(p_start)
        result = greedy_batch(self.graph(), self.dataset(), [start], [np.asarray(q, float)])[0]
        return result.point, result.distance
