"""``IndexHolder`` — snapshot-swap reader/writer separation.

The serving layer has concurrent readers (coalesced search batches
running in executor threads) and occasional writers (``/add``,
``/delete``).  The index facades' mutations are *not* atomic from a
reader's perspective — ``add`` rebinds ``dataset``/``graph``/store in
sequence, ``delete`` flips tombstone bits in place — so a search
overlapping a mutation on the same object could traverse a graph that
disagrees with its point array.

The holder removes the race wholesale instead of locking the hot path:

* readers grab an immutable ``(index, generation)`` pair via
  :attr:`state` — one attribute read, atomic under the GIL — and use
  that object for the whole search, never re-reading it mid-flight;
* writers serialize on a lock, build the mutation against an
  :meth:`~repro.core.index.ProximityGraphIndex.snapshot` copy, and only
  then swap the pair in.  A reader therefore sees either the whole
  mutation or none of it, and the old object stays fully consistent for
  every search still running on it (Python references keep it alive
  until the last one returns).

``generation`` increments on every swap; the query cache folds it into
its keys, so a swap implicitly invalidates every cached result.

What a write costs.  The snapshot shares the heavy arrays, and ``add``
repairs the graph with array operations only: per call, distance work
proportional to ``count * beam * degree`` plus a constant number of
copies of the point and edge arrays — no interpreter work per vertex,
so the writer's hold on the GIL (which is what readers wait for) does
not grow with the collection the way a per-vertex list repair would.  The
writer passes ``backend="auto"``, the same default ``/search`` uses:
once a compiled backend is warmed (``repro serve`` warms one before
binding) the wave location and commit run in its kernels, which are
pinned bit-identical to numpy.  ``delete`` flips tombstone bits.
:attr:`writer_stats` counts the swaps and their wall time.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

import numpy as np

__all__ = ["IndexHolder"]


class IndexHolder:
    """One mutable slot holding the currently-served index."""

    def __init__(self, index: Any) -> None:
        self._state: tuple[Any, int] = (index, 0)
        self._write_lock = threading.Lock()
        self._writer = {"mutations": 0, "last_ms": 0.0, "total_ms": 0.0}

    # -- readers --------------------------------------------------------

    @property
    def state(self) -> tuple[Any, int]:
        """The ``(index, generation)`` pair, read atomically.

        Callers must keep using the returned *object* — re-reading
        ``holder.state`` mid-request could observe a newer swap.
        """
        return self._state

    @property
    def current(self) -> Any:
        return self._state[0]

    @property
    def generation(self) -> int:
        return self._state[1]

    @property
    def writer_stats(self) -> dict[str, float]:
        """``mutations`` swapped in so far, and the wall time of the
        last one and of all of them (snapshot + mutation + swap, ms)."""
        return dict(self._writer)

    # -- writers --------------------------------------------------------

    def mutate(self, fn: Callable[[Any], Any]) -> Any:
        """Run ``fn(snapshot)`` and swap the mutated snapshot in.

        Writers serialize on the holder's lock (one snapshot-mutate-swap
        at a time, so no mutation is ever lost to a concurrent swap).
        If ``fn`` raises, nothing is swapped — the served index is
        untouched, matching the facades' own no-partial-mutation
        contract.  Returns whatever ``fn`` returned.
        """
        with self._write_lock:
            t0 = time.perf_counter()
            index, generation = self._state
            snap = index.snapshot()
            out = fn(snap)
            self._state = (snap, generation + 1)
            ms = (time.perf_counter() - t0) * 1e3
            self._writer = {
                "mutations": self._writer["mutations"] + 1,
                "last_ms": ms,
                "total_ms": self._writer["total_ms"] + ms,
            }
            return out

    # Convenience wrappers the HTTP layer calls from its writer thread.

    def add(self, points: Any, ids: Sequence[int] | None = None) -> np.ndarray:
        return self.mutate(lambda ix: ix.add(points, ids=ids, backend="auto"))

    def delete(self, ids: Any) -> int:
        return self.mutate(lambda ix: ix.delete(ids))

    def compact(self) -> None:
        self.mutate(lambda ix: ix.compact())
