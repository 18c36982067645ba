"""``SearchableIndex`` — the one front door, as a protocol.

PR 3 unified every query shape behind ``ProximityGraphIndex.search()``;
the sharded index multiplies the *implementations* of that surface while
keeping exactly one *shape*.  This protocol is that shape, extracted
from :class:`~repro.core.index.ProximityGraphIndex` so the flat and
sharded indexes (and any future backend) are interchangeable to callers:
the CLI, the benches, and user code accept a ``SearchableIndex`` and
never ask which kind they were given.

The contract, in one place:

* :meth:`search` — single query or batch, greedy or beam, filtered or
  budgeted; returns a :class:`~repro.core.search.SearchResult` of dense
  ``(m, k)`` *external*-id / original-unit-distance arrays.  An index
  with nothing to return (every point tombstoned, an empty filter, an
  empty batch) returns empty/padded arrays — it never raises.
* :meth:`add` / :meth:`delete` / :meth:`compact` — the mutable
  collection under *stable external ids*: ids survive every mutation
  and a save/load round trip.
* :meth:`stats` — a JSON-safe structural summary.
* :meth:`save` — persistence; see :mod:`repro.core.persistence` for the
  layouts (v4 ``.npz``, v5 disk directory, v3 sharded directory) and
  ``load_any`` for the type-dispatching loader.
"""

from __future__ import annotations

from typing import Any, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.core.search import SearchParams, SearchResult

__all__ = ["SearchableIndex"]


@runtime_checkable
class SearchableIndex(Protocol):
    """What every index front door exposes.

    ``runtime_checkable`` so ``isinstance(x, SearchableIndex)`` works as
    a structural check (method presence only, as Python protocols go);
    the behavioral contract — stable ids, never-raising empty searches,
    original-unit distances — is pinned by the shared test suites
    instead.
    """

    @property
    def n(self) -> int:
        """Total vertex count, including tombstoned points."""
        ...

    @property
    def active_count(self) -> int:
        """Points that searches may return (not tombstoned)."""
        ...

    @property
    def tombstone_count(self) -> int:
        ...

    @property
    def epsilon(self) -> float:
        ...

    def search(
        self,
        queries: Any,
        k: int = 1,
        params: SearchParams | None = None,
    ) -> SearchResult:
        ...

    def add(
        self, points: Any, ids: Sequence[int] | None = None, **kwargs: Any
    ) -> np.ndarray:
        ...

    def delete(self, ids: Any) -> int:
        ...

    def compact(self, seed: int | None = None) -> "SearchableIndex":
        ...

    def stats(self) -> dict:
        ...

    def save(self, path: Any) -> Any:
        ...
