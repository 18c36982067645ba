"""Result types of the greedy routing procedure of Section 1.1.

``greedy(p_start, q)`` repeatedly hops to the out-neighbor closest to the
query, stopping when no out-neighbor improves.  A graph is a (1+eps)-PG
exactly when this procedure, from *any* start vertex, returns a
(1+eps)-ANN (Definition in Section 1.1; equivalently navigability, Fact
2.1).  ``query(p_start, q, Q)`` is the budgeted variant: run greedy until
self-termination or ``Q`` distance computations, then return the last hop
vertex.  The library runs both through the batch engines
(:func:`repro.graphs.engine.greedy_batch` and its compiled twin); this
module holds what they return.

Accounting matches the paper: every distance computation — the initial
``D(p_start, q)`` and one per out-neighbor examined at each hop — counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["GreedyResult", "BeamBatch"]


@dataclass
class GreedyResult:
    """Outcome of one greedy run.

    Attributes
    ----------
    point:
        The returned vertex (a data point id).
    distance:
        ``D(point, q)``.
    hops:
        The full hop-vertex sequence (the ``sigma`` of Section 5.2),
        including the start vertex.
    distance_evals:
        Number of distance computations performed — the paper's query
        time measure.
    self_terminated:
        ``True`` when greedy stopped on its own (Line 4 of the
        pseudocode); ``False`` when the budget cut it off.
    """

    point: int
    distance: float
    hops: list[int] = field(default_factory=list)
    distance_evals: int = 0
    self_terminated: bool = True


class BeamBatch:
    """One beam-search batch as dense arrays — what both batch engines
    (``engine.beam_search_batch`` and ``accel.run_beam``) return.

    ``ids`` is ``(m, max(k, 1))`` int64: row ``i`` holds query ``i``'s
    pool ascending by ``(distance, vertex)``, ``-1`` past what it found;
    ``dists`` the matching float64 distances, ``inf`` where padded;
    ``evals`` the ``(m,)`` int64 distance-evaluation counts.  ``dists``
    may be given as a zero-argument callable, run the first time the
    attribute is read — a compiled search hands over ids and counts and
    leaves its distances unevaluated for callers that only rerank.

    Two batches are equal when their ids, distances and counts are.
    """

    __slots__ = ("ids", "evals", "_dists")

    def __init__(self, ids: np.ndarray, dists: Any, evals: np.ndarray) -> None:
        self.ids = ids
        self.evals = evals
        self._dists = dists

    @property
    def dists(self) -> np.ndarray:
        if callable(self._dists):
            self._dists = self._dists()
        return self._dists

    def __len__(self) -> int:
        return len(self.evals)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BeamBatch):
            return (
                np.array_equal(self.ids, other.ids)
                and np.array_equal(self.dists, other.dists)
                and np.array_equal(self.evals, other.evals)
            )
        return NotImplemented
