"""Vamana — DiskANN's *practical* construction (Jayaram Subramanya et al.
[19]), as opposed to the slow-preprocessing variant of
:mod:`repro.baselines.diskann`.

Where the slow variant alpha-prunes against *every* other point (the
version Indyk & Xu proved guarantees for, at Omega(n^2) cost), Vamana
generates each point's candidate set with a beam search over the graph
built so far and alpha-prunes only those candidates, in two passes over
a random insertion order, with degrees capped at ``R``.  That makes it
near-linear in practice but forfeits the worst-case guarantee — the
trade the paper's Theorem 1.1 shows is unnecessary (near-linear build
*and* guarantees are simultaneously possible).

Included as a baseline so benches can show all three regimes:
guaranteed-but-quadratic (diskann slow), fast-but-unguaranteed (vamana,
HNSW), and fast-and-guaranteed (G_net).

Construction runs in one of two schedules, both on one adjacency — the
:class:`~repro.graphs.engine.CommitMirror` row store ``add()`` repairs
on, here holding every row from the start (an ``add()`` loads only the
rows its waves touch) — through the one RobustPrune wave inserter,
:class:`~repro.graphs.engine.RepairInserter`:

* **sequential** (``batch_size=None``) — the reference loop: one scalar
  beam search per insertion;
* **batched** (``batch_size=k``) — the :func:`~repro.graphs.engine.bulk_insert`
  wave schedule: each wave of ``k`` points is located with one lockstep
  :func:`~repro.graphs.engine.beam_search_batch` (the search beam, its
  whole ``L``-wide pool kept) against the frozen prefix graph, then
  committed in order.  ``batch_size=1`` replays the
  sequential insertions exactly (identical edges); larger waves trade a
  little candidate staleness for vectorized distance evaluation.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.baselines.nsw import scalar_beam
from repro.graphs.engine import RepairInserter, bulk_insert
from repro.metrics.base import Dataset

__all__ = ["VamanaIndex"]


class VamanaIndex(RepairInserter):
    """Two-pass Vamana graph with beam-search queries.

    The wave protocol (``locate_wave`` / ``commit`` / ``commit_wave``)
    and the adjacency are :class:`~repro.graphs.engine.RepairInserter`'s,
    started from an empty prefix; this class adds the entry choice, the
    two-pass schedule and the sequential reference insertion.  The entry
    point is the first point of a 256-point random sample — not a
    medoid, see ``__init__``.

    Parameters
    ----------
    max_degree:
        The degree cap ``R``.
    beam_width:
        Construction beam width ``L`` (candidate pool size).
    alpha:
        Pruning slack; the reference implementation uses 1.2 on the
        second pass and 1.0 on the first.
    batch_size:
        ``None`` for the sequential reference build; an integer ``k``
        for the wave schedule (``k=1`` is edge-identical to sequential).
    backend:
        Accel backend for the batched waves' candidate location and
        RobustPrune (``None``/``"numpy"`` = the pinned engines,
        ``"auto"`` = best warmed compiled backend, or an explicit
        backend name).  The sequential schedule's beam ignores it.
    """

    # A re-inserted point's current out-edges join its candidate pool.
    include_own = True

    def __init__(
        self,
        dataset: Dataset,
        rng: np.random.Generator,
        max_degree: int = 16,
        beam_width: int = 48,
        alpha: float = 1.2,
        batch_size: int | None = None,
        backend: str | None = None,
    ):
        if max_degree < 2:
            raise ValueError("max_degree must be at least 2")
        if beam_width < max_degree:
            beam_width = max_degree
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        n = dataset.n
        # Entry point: a uniformly random vertex, the first of a random
        # sample drawn whole (the draw advances ``rng``, which the
        # insertion order below reads).  The canonical Vamana entry is the
        # medoid (``ProximityGraphIndex._add_repair`` computes a real
        # sample medoid for its repair waves); switching changes every
        # Vamana graph, so it waits for ROADMAP item 1's follow-on, which
        # makes it ``prefix[0]``.
        sample = rng.choice(n, size=min(n, 256), replace=False)
        entry = int(sample[0])
        super().__init__(
            dataset, None, entry, max_degree, beam_width, alpha, backend
        )
        self.batch_size = batch_size

        order = rng.permutation(n)
        # Pass 1 (alpha = 1), pass 2 (the configured alpha), as in [19];
        # ``self.alpha`` is the slack the commits of the current pass use.
        for pass_no, pass_alpha in enumerate((1.0, self.alpha)):
            self.alpha = pass_alpha
            if batch_size is None:
                for pid in order:
                    self.insert_one(pid)
            else:
                # Ramp waves only while the graph is filling up (pass 1);
                # pass 2 re-inserts into a complete graph, where full
                # waves are never stale enough to matter.
                bulk_insert(self, order, batch_size, ramp=pass_no == 0)

    def _beam(self, q: Any, ef: int) -> list[tuple[float, int]]:
        return scalar_beam(
            self.dataset, self._rows.__getitem__, q, [self.entry_point], ef
        )

    def insert_one(self, pid: int) -> None:
        """The sequential reference insertion: one scalar beam, then the
        shared commit."""
        pid = int(pid)
        found = self._beam(self.dataset.points[pid], self.beam_width)
        self.commit(
            pid,
            (
                np.fromiter((v for _, v in found), dtype=np.intp, count=len(found)),
                np.fromiter((d for d, _ in found), dtype=np.float64, count=len(found)),
            ),
        )

    def search(self, q: Any, k: int = 1, ef: int | None = None) -> list[tuple[int, float]]:
        ef = max(int(ef) if ef is not None else self.beam_width, k)
        return [(v, d) for d, v in self._beam(q, ef)[:k]]
