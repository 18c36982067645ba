"""NSW — flat navigable small world graph (Malkov et al. [21]).

The predecessor of HNSW and the first system the paper's related work
lists.  Points are inserted in random order; each new point is linked
bidirectionally to its ``m`` (approximate) nearest current members, found
by beam search on the graph built so far.  Early random insertions create
long-range "small world" links; no worst-case guarantee exists.

``batch_size`` selects the :func:`~repro.graphs.engine.bulk_insert` wave
schedule: each wave's candidates are found with one lockstep
:func:`~repro.graphs.engine.beam_search_batch` — the search beam, keeping
its whole ``ef``-wide pool — against the frozen prefix graph.
``batch_size=1`` is edge-identical to the sequential build.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.engine import beam_search_batch, bulk_insert, snapshot_graph
from repro.graphs.greedy import BeamBatch
from repro.metrics.base import Dataset

__all__ = ["NSWIndex", "scalar_beam", "beam_pairs"]


def scalar_beam(
    dataset: Dataset,
    neighbors: Callable[[int], Iterable[int]],
    q: Any,
    entry: Sequence[int],
    ef: int,
) -> list[tuple[float, int]]:
    """Best-first beam from the ``entry`` vertices over the adjacency
    ``neighbors(u)`` yields, one scalar distance per discovered vertex;
    returns up to ``ef`` closest ``(distance, id)`` pairs, ascending.
    The sequential reference search of every insertion baseline here
    (NSW, HNSW's ``SEARCH-LAYER``, Vamana): ids stay whatever
    ``neighbors`` hands out, so Python ints in give Python ints out."""
    visited = set(entry)
    cand: list[tuple[float, int]] = []
    best: list[tuple[float, int]] = []  # max-heap via negation
    for e in entry:
        d = dataset.distance_to_query(q, e)
        heapq.heappush(cand, (d, e))
        heapq.heappush(best, (-d, e))
    while cand:
        d, u = heapq.heappop(cand)
        if len(best) >= ef and d > -best[0][0]:
            break
        for v in neighbors(u):
            if v in visited:
                continue
            visited.add(v)
            dv = dataset.distance_to_query(q, v)
            if len(best) < ef or dv < -best[0][0]:
                heapq.heappush(cand, (dv, v))
                heapq.heappush(best, (-dv, v))
                if len(best) > ef:
                    heapq.heappop(best)
    return sorted((-d, v) for d, v in best)


def beam_pairs(found: BeamBatch) -> list[list[tuple[float, int]]]:
    """Each row of a wave's beam as :func:`scalar_beam` returns one
    search: its ``(distance, id)`` pairs, ascending, padding dropped."""
    return [
        [(d, v) for d, v in zip(dists, ids) if v >= 0]
        for dists, ids in zip(found.dists.tolist(), found.ids.tolist())
    ]


class NSWIndex:
    """Flat small-world graph with beam-search construction and queries."""

    def __init__(
        self,
        dataset: Dataset,
        rng: np.random.Generator,
        m: int = 8,
        ef_construction: int = 32,
        batch_size: int | None = None,
        backend: str | None = None,
    ):
        if m < 1:
            raise ValueError("m must be at least 1")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.dataset = dataset
        self.m = int(m)
        self.ef_construction = int(ef_construction)
        self.batch_size = batch_size
        self.backend = backend
        self._adj: list[set[int]] = [set() for _ in range(dataset.n)]
        self._members: list[int] = []
        order = rng.permutation(dataset.n)
        if batch_size is None:
            for pid in order:
                self._insert(int(pid))
        else:
            bulk_insert(self, order, batch_size)

    def _insert(self, pid: int) -> None:
        if self._members:
            found = self._beam(
                self.dataset.points[pid], max(self.ef_construction, self.m)
            )
            for _, v in found[: self.m]:
                self._adj[pid].add(v)
                self._adj[v].add(pid)
        self._members.append(pid)

    def _beam(self, q: Any, ef: int) -> list[tuple[float, int]]:
        return scalar_beam(
            self.dataset, self._adj.__getitem__, q, [self._members[0]], ef
        )

    # ------------------------------------------------------------------
    # WaveInserter protocol (repro.graphs.engine.bulk_insert)
    # ------------------------------------------------------------------

    def insert_one(self, pid: int) -> None:
        self._insert(int(pid))

    def locate_wave(
        self, pids: Sequence[int]
    ) -> list[list[tuple[float, int]] | None]:
        """Lockstep candidate location for a wave.

        The very first insertion of the whole build has no prefix to
        search, so it is inserted on the spot (its pool is ``None`` and
        :meth:`commit` is a no-op for it); the rest of the wave beams
        against the prefix that includes it.
        """
        pids = [int(p) for p in pids]
        pools: list[list[tuple[float, int]] | None] = []
        if not self._members:
            self._insert(pids[0])
            pools.append(None)
            pids = pids[1:]
        if pids:
            idx = np.asarray(pids, dtype=np.intp)
            prefix = snapshot_graph(self.dataset.n, self._adj)
            ef = max(self.ef_construction, self.m)
            found = beam_search_batch(
                prefix,
                self.dataset,
                [self._members[0]] * len(idx),
                self.dataset.points[idx],
                beam_width=ef,
                k=ef,
                backend=self.backend,
            )
            pools += beam_pairs(found)
        return pools

    def commit(self, pid: int, pool: list[tuple[float, int]] | None) -> None:
        if pool is None:  # first point of the build, already inserted
            return
        pid = int(pid)
        for _, v in pool[: self.m]:
            self._adj[pid].add(v)
            self._adj[v].add(pid)
        self._members.append(pid)

    # ------------------------------------------------------------------

    def graph(self) -> ProximityGraph:
        """The (symmetric) adjacency as a directed graph."""
        return ProximityGraph(self.dataset.n, self._adj)

    def search(self, q: Any, k: int = 1, ef: int | None = None) -> list[tuple[int, float]]:
        if not self._members:
            return []
        ef = max(int(ef) if ef is not None else self.ef_construction, k)
        return [(v, d) for d, v in self._beam(q, ef)[:k]]
