"""HNSW — hierarchical navigable small world graphs (Malkov & Yashunin [22]).

The empirical champion the paper's introduction motivates.  No worst-case
guarantee exists for it (Indyk & Xu [18]); it appears here as the system
baseline the benches compare the provable constructions against.

Implementation follows the published algorithm:

* each point draws a top level from a geometric distribution with scale
  ``m_L = 1 / ln(M)``;
* insertion greedily descends from the entry point to the target level,
  then runs an ``ef_construction``-beam at each level downward, selecting
  ``M`` neighbors (optionally with the "heuristic" diversity rule, which
  is the published Algorithm 4) and linking bidirectionally, pruning
  overflowing adjacency back to ``M_max``;
* search descends greedily to level 1, then runs an ``ef``-beam at level 0.

The structure exposes its level-0 adjacency as a
:class:`~repro.graphs.base.ProximityGraph` so the paper's greedy/navigability
machinery can interrogate it directly.

``batch_size`` selects the :func:`~repro.graphs.engine.bulk_insert` wave
schedule: a whole wave descends the hierarchy in lockstep (one
:func:`~repro.graphs.engine.beam_search_batch` per layer per wave — the
search beam, ``SEARCH-LAYER`` itself — against frozen per-layer
snapshots) before committing member-by-member.
``batch_size=1`` is edge-identical to the sequential build.  The one
deviation of the wave path from the published algorithm: each layer's
beam is seeded with the single best vertex found at the layer above
rather than the full ``ef`` pool (the batch beam takes one start per
query); the recall benches show no measurable quality loss.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.baselines.nsw import beam_pairs, scalar_beam
from repro.graphs.base import ProximityGraph
from repro.graphs.engine import beam_search_batch, bulk_insert, snapshot_graph
from repro.metrics.base import Dataset

__all__ = ["HNSWIndex"]

# A wave member's located pools: (target_level, {level: [(distance, id)]}).
_WavePool = tuple[int, dict[int, list[tuple[float, int]]]]


class HNSWIndex:
    """Hierarchical NSW index over a dataset.

    Parameters
    ----------
    m:
        Target degree ``M``; level-0 allows ``2 * M``.
    ef_construction:
        Beam width during insertion.
    use_heuristic:
        Apply the diversity-select rule (Algorithm 4 of [22]) instead of
        plain nearest-``M`` selection.
    batch_size:
        ``None`` for the sequential reference build; an integer ``k``
        for the wave schedule (``k=1`` is edge-identical to sequential).
    backend:
        Accel backend for the wave schedule's per-layer candidate
        location (``None``/``"numpy"`` = the pinned engines, ``"auto"``
        = best warmed compiled backend, or an explicit backend name).
        The sequential schedule ignores it.
    """

    def __init__(
        self,
        dataset: Dataset,
        rng: np.random.Generator,
        m: int = 8,
        ef_construction: int = 64,
        use_heuristic: bool = True,
        batch_size: int | None = None,
        backend: str | None = None,
    ):
        if m < 2:
            raise ValueError("M must be at least 2")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.dataset = dataset
        self.m = int(m)
        self.m_max0 = 2 * self.m
        self.ef_construction = int(ef_construction)
        self.use_heuristic = bool(use_heuristic)
        self.batch_size = batch_size
        self.backend = backend
        self._ml = 1.0 / math.log(self.m)
        # adjacency[level][node] -> list of neighbor ids
        self._adj: list[dict[int, list[int]]] = []
        self.entry_point: int | None = None
        self._node_level: dict[int, int] = {}
        self._rng = rng
        if batch_size is None:
            for pid in range(dataset.n):
                self._insert(pid, rng)
        else:
            bulk_insert(self, range(dataset.n), batch_size)

    # ------------------------------------------------------------------

    @property
    def max_level(self) -> int:
        return len(self._adj) - 1

    def neighbors(self, node: int, level: int) -> list[int]:
        return self._adj[level].get(node, [])

    def base_layer_graph(self) -> ProximityGraph:
        """Level-0 adjacency as a flat directed graph."""
        return ProximityGraph(
            self.dataset.n, [self._adj[0].get(u, []) for u in range(self.dataset.n)]
        )

    # ------------------------------------------------------------------

    def _distance(self, q: Any, node: int) -> float:
        return self.dataset.distance_to_query(q, node)

    def _draw_level(self, rng: np.random.Generator) -> int:
        return int(-math.log(max(rng.random(), 1e-300)) * self._ml)

    def _search_layer(
        self, q: Any, entry: list[int], ef: int, level: int
    ) -> list[tuple[float, int]]:
        """Beam search within one layer; returns up to ``ef`` closest
        ``(distance, id)`` pairs, ascending."""
        return scalar_beam(
            self.dataset, lambda u: self.neighbors(u, level), q, entry, ef
        )

    def _select_neighbors(
        self, candidates: list[tuple[float, int]], m: int
    ) -> list[int]:
        """Top-``m`` selection; with the heuristic, prefer candidates
        closer to the base point than to any already-selected neighbor
        (diversity rule).  All candidate-to-candidate distances come
        from one vectorized cross-distance matrix, so the greedy scan
        itself is pure Python over floats."""
        if not self.use_heuristic or len(candidates) <= 1:
            return [v for _, v in candidates[:m]]
        ids = np.fromiter(
            (v for _, v in candidates), dtype=np.intp, count=len(candidates)
        )
        pts = self.dataset.points[ids]
        rows = self.dataset.metric.cross_distances(pts, pts).tolist()
        selected: list[int] = []  # indices into candidates
        for j, (d, _v) in enumerate(candidates):
            if len(selected) >= m:
                break
            if any(rows[u][j] < d for u in selected):
                continue
            selected.append(j)
        if len(selected) < m:
            chosen = set(selected)
            for j in range(len(candidates)):
                if len(selected) >= m:
                    break
                if j not in chosen:
                    selected.append(j)
        return [int(ids[j]) for j in selected]

    def _cap_degree(self, v: int, nbrs: list[int], m_max: int) -> list[int]:
        """Re-select an overflowing adjacency list back to ``m_max``."""
        uniq = np.array(sorted(set(nbrs)), dtype=np.intp)
        dists = self.dataset.distances_from_index(v, uniq)
        pairs = sorted(zip(dists.tolist(), uniq.tolist()))
        return self._select_neighbors(pairs, m_max)

    def _insert(self, pid: int, rng: np.random.Generator) -> None:
        level = self._draw_level(rng)
        self._node_level[pid] = level
        while len(self._adj) <= level:
            self._adj.append({})
        q = self.dataset.points[pid]

        if self.entry_point is None:
            self.entry_point = pid
            for lvl in range(level + 1):
                self._adj[lvl][pid] = []
            return

        entry = [self.entry_point]
        # Greedy descent above the insertion level.
        for lvl in range(self.max_level, level, -1):
            entry = [self._search_layer(q, entry, 1, lvl)[0][1]]
        # Beam insert at each level from min(level, old max) down to 0.
        for lvl in range(min(level, self.max_level), -1, -1):
            found = self._search_layer(q, entry, self.ef_construction, lvl)
            found = [(d, v) for d, v in found if v != pid]
            self._link(pid, lvl, found)
            entry = [v for _, v in found] or entry
        if level > self._node_level.get(self.entry_point, 0):
            self.entry_point = pid

    def _link(self, pid: int, lvl: int, found: list[tuple[float, int]]) -> None:
        """Select ``M`` neighbors for ``pid`` at ``lvl``, link both ways,
        and prune any overflowing reverse adjacency."""
        m_max = self.m_max0 if lvl == 0 else self.m
        chosen = self._select_neighbors(found, self.m)
        self._adj[lvl][pid] = list(chosen)
        for v in chosen:
            nbrs = self._adj[lvl].setdefault(v, [])
            nbrs.append(pid)
            if len(nbrs) > m_max:
                self._adj[lvl][v] = self._cap_degree(v, nbrs, m_max)

    # ------------------------------------------------------------------
    # WaveInserter protocol (repro.graphs.engine.bulk_insert)
    # ------------------------------------------------------------------

    def insert_one(self, pid: int) -> None:
        self._insert(int(pid), self._rng)

    def locate_wave(self, pids: Sequence[int]) -> list[_WavePool | None]:
        """Lockstep multi-layer candidate location for a whole wave.

        Levels are drawn for the wave in insertion order (identical rng
        consumption to the sequential build), then the wave descends the
        frozen per-layer snapshots together: one ``beam_width=1`` batch
        for the members still above their target level, one
        ``ef_construction`` batch for the members collecting candidates.
        """
        pids = [int(p) for p in pids]
        pools: list[_WavePool | None] = []
        if self.entry_point is None:
            self._insert(pids[0], self._rng)  # seeds the hierarchy
            pools.append(None)
            pids = pids[1:]
        if not pids:
            return pools
        levels = [self._draw_level(self._rng) for _ in pids]
        n = self.dataset.n
        snap_max = self.max_level
        layers = [
            snapshot_graph(n, [self._adj[lvl].get(u, ()) for u in range(n)])
            for lvl in range(snap_max + 1)
        ]
        q_arr = self.dataset.points[np.asarray(pids, dtype=np.intp)]
        entry = np.full(len(pids), self.entry_point, dtype=np.intp)
        by_level: list[dict[int, list[tuple[float, int]]]] = [{} for _ in pids]
        for lvl in range(snap_max, -1, -1):
            desc = [i for i, tl in enumerate(levels) if tl < lvl]
            ins = [i for i, tl in enumerate(levels) if tl >= lvl]
            if desc:
                idx = np.asarray(desc, dtype=np.intp)
                found = beam_search_batch(
                    layers[lvl], self.dataset, entry[idx], q_arr[idx],
                    beam_width=1, backend=self.backend,
                )
                entry[idx] = found.ids[:, 0]
            if ins:
                idx = np.asarray(ins, dtype=np.intp)
                ef = self.ef_construction
                found = beam_search_batch(
                    layers[lvl], self.dataset, entry[idx], q_arr[idx],
                    beam_width=ef, k=ef, backend=self.backend,
                )
                for i, pairs in zip(ins, beam_pairs(found)):
                    by_level[i][lvl] = pairs
                entry[idx] = found.ids[:, 0]
        pools += [(levels[i], by_level[i]) for i in range(len(pids))]
        return pools

    def commit(self, pid: int, pool: _WavePool | None) -> None:
        if pool is None:  # first point of the build, already inserted
            return
        pid = int(pid)
        level, by_level = pool
        self._node_level[pid] = level
        while len(self._adj) <= level:
            self._adj.append({})
        q = self.dataset.points[pid]
        for lvl in range(level, -1, -1):
            pairs = by_level.get(lvl)
            if pairs is None:
                # A brand-new top level above the snapshot: seeded by the
                # current global entry point, as in the sequential build.
                e = int(self.entry_point)
                pairs = [(self._distance(q, e), e)]
            found = [(d, v) for d, v in pairs if v != pid]
            self._link(pid, lvl, found)
        if level > self._node_level.get(self.entry_point, 0):
            self.entry_point = pid

    # ------------------------------------------------------------------

    def search(self, q: Any, k: int = 1, ef: int | None = None) -> list[tuple[int, float]]:
        """Top-``k`` approximate neighbors of ``q`` (``(id, distance)``)."""
        if self.entry_point is None:
            return []
        ef = max(int(ef) if ef is not None else self.ef_construction, k)
        entry = [self.entry_point]
        for lvl in range(self.max_level, 0, -1):
            entry = [self._search_layer(q, entry, 1, lvl)[0][1]]
        found = self._search_layer(q, entry, ef, 0)
        return [(v, d) for d, v in found[:k]]
