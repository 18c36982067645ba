"""The ``Coalescer`` — turn concurrent single queries into one batch.

Requests arrive one query at a time; the lockstep engines want batches.
The coalescer buckets pending requests by :class:`BatchKey` — the
parameters that must agree for two queries to share one
``index.search()`` call — and keeps **one batch in flight**: a request
that finds the search thread idle is dispatched on the next turn of the
event loop (with whatever else was parsed in the same turn), and every
request that arrives while a batch runs waits for it to finish and then
leaves with the next one — the oldest bucket first, at most
``max_batch`` rows.  No timer decides when to dispatch, so batches grow
with load instead of with a tick.  The batch runs on the coalescer's one
search thread (the search is CPU-bound; the event loop keeps accepting
requests while it runs), and each awaiting future receives its own row
of the :class:`~repro.core.search.SearchResult`.

Cores come from the search call, not from here: a compiled batch of 16
rows or more is split over the usable cores by the accel layer's row
split, so one batch in flight already uses every core a large batch can
use, and a second one would only queue behind it for the same cores.

Cost model (benchmark workload ``serve_mixed``: 15 closed-loop readers
and one writer on 16 connections): a request waits for the rest of the
batch in flight, then searches in the next one; it never waits for a
tick.  Against a 2 ms tick and two search threads, the median wait
(``serve.coalescer.wait_ms_p50``) fell from 3.1 ms to 1.4–1.9 ms and
the batch from about 15 rows to about 6.5, and the end-to-end
``p50_ms`` from about 5.0 ms to 3.0 ms (``CHANGES.md`` has the runs).
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.search import SearchParams

__all__ = ["BatchKey", "Coalescer"]


@dataclass(frozen=True)
class BatchKey:
    """Everything two requests must agree on to share one search call.

    Queries under the same key are answered by one
    ``index.search(Q, k, params)`` — so ``k``, every routing knob, and
    the filter must match exactly.  ``allowed_ids`` is a sorted tuple
    (order-insensitive: the filter is a set).
    """

    k: int = 1
    mode: str = "auto"
    beam_width: int | None = None
    rerank_factor: int | None = None
    backend: str = "auto"
    allowed_ids: tuple[int, ...] | None = None

    def params(self, seed: int | None = None) -> SearchParams:
        return SearchParams(
            mode=self.mode,
            beam_width=self.beam_width,
            rerank_factor=self.rerank_factor,
            backend=self.backend,
            seed=seed,
            allowed_ids=list(self.allowed_ids)
            if self.allowed_ids is not None
            else None,
        )


@dataclass
class RowResult:
    """One request's slice of a batch search."""

    ids: np.ndarray
    distances: np.ndarray
    evals: int
    batch_size: int  # how many requests shared the dispatch
    generation: int  # the index generation the batch searched


@dataclass
class CoalescerStats:
    requests: int = 0
    batches: int = 0
    coalesced_requests: int = 0  # requests that shared a batch with others
    max_batch_size: int = 0
    batch_size_counts: dict[int, int] = field(default_factory=dict)
    errors: int = 0

    def record(self, size: int) -> None:
        self.batches += 1
        self.max_batch_size = max(self.max_batch_size, size)
        self.batch_size_counts[size] = self.batch_size_counts.get(size, 0) + 1
        if size > 1:
            self.coalesced_requests += size

    def summary(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "coalesced_requests": self.coalesced_requests,
            "max_batch_size": self.max_batch_size,
            "mean_batch_size": round(self.requests / self.batches, 2)
            if self.batches
            else 0.0,
            "batch_size_counts": {
                str(s): c for s, c in sorted(self.batch_size_counts.items())
            },
            "errors": self.errors,
        }


_Group = list[tuple[np.ndarray, "asyncio.Future[RowResult]"]]


class Coalescer:
    """Gather compatible requests; keep one lockstep batch in flight.

    Single-threaded with the event loop: :meth:`submit`, the drain and
    the scatter all run on the loop, so the pending dict and the
    in-flight flag need no lock.  Only the search itself leaves the loop,
    onto the coalescer's one search thread.
    """

    def __init__(self, holder: Any, max_batch: int = 64) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.holder = holder
        self.max_batch = int(max_batch)
        self._executor = ThreadPoolExecutor(max_workers=1)
        # Buckets in the order their oldest waiting request arrived.
        self._pending: dict[BatchKey, _Group] = {}
        # A batch is running, or a drain is already due on the loop.
        self._in_flight = False
        self.stats = CoalescerStats()

    def submit(self, query: np.ndarray, key: BatchKey) -> "asyncio.Future[RowResult]":
        """Enqueue one (already validated) query; await the future.

        The caller is responsible for front-door validation
        (``index.validate_queries``) *before* submitting — a bad query
        inside a batch would fail the whole dispatch and error every
        batch-mate's future.
        """
        loop = asyncio.get_running_loop()
        fut: asyncio.Future[RowResult] = loop.create_future()
        self._pending.setdefault(key, []).append(
            (np.asarray(query, dtype=np.float64), fut)
        )
        self.stats.requests += 1
        if not self._in_flight:
            # Not at once: every request parsed in this turn of the loop
            # joins the batch.
            self._in_flight = True
            loop.call_soon(self._drain)
        return fut

    def summary(self) -> dict[str, Any]:
        """The counters, plus the queue right now: ``in_flight`` (0 or 1)
        and ``pending`` (requests waiting for the next batch)."""
        return dict(
            self.stats.summary(),
            in_flight=int(self._in_flight),
            pending=sum(len(group) for group in self._pending.values()),
        )

    def close(self) -> None:
        """Answer every request still queued with an error — nothing will
        dispatch it, so its future fails now instead of hanging its
        client — and let the search thread go.  A batch already in
        flight still answers."""
        for group in self._pending.values():
            for _, fut in group:
                if not fut.done():
                    fut.set_exception(
                        RuntimeError(
                            "server shutting down: the request was not dispatched"
                        )
                    )
        self._pending.clear()
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------

    def _drain(self) -> None:
        """Dispatch the next batch, or go idle when nothing is queued."""
        if not self._pending:
            self._in_flight = False
            return
        key = next(iter(self._pending))
        group = self._pending[key]
        batch = group[: self.max_batch]
        if len(group) > self.max_batch:
            self._pending[key] = group[self.max_batch :]  # keeps its place
        else:
            del self._pending[key]
        # Pin the index object for the whole batch: the holder may swap
        # mid-search, but this batch keeps traversing its own snapshot,
        # and its rows report the generation they were answered from.
        index, generation = self.holder.state
        Q = np.stack([q for q, _ in batch])
        self.stats.record(len(batch))
        # Vary the traversal seed per dispatched batch.  Start vertices
        # derive from the search seed, and with the library default
        # (seed=None -> the index's build seed) every 1-row batch would
        # greedy-descend from the *same* start vertex forever — fine for
        # the deterministic library API, but a serving layer answering a
        # query stream wants start diversity, and result quality must
        # not depend on how traffic happened to coalesce.
        seq = self.stats.batches
        task = asyncio.get_running_loop().run_in_executor(
            self._executor,
            lambda: index.search(Q, k=key.k, params=key.params(seed=seq)),
        )
        task.add_done_callback(lambda t: self._scatter(t, batch, generation))

    def _scatter(self, task: "asyncio.Future[Any]", batch: _Group, generation: int) -> None:
        # The search thread is free: send what queued meanwhile first.
        self._drain()
        exc = task.exception() if not task.cancelled() else None
        if task.cancelled() or exc is not None:
            self.stats.errors += 1
            for _, fut in batch:
                if not fut.done():
                    if exc is not None:
                        fut.set_exception(exc)
                    else:
                        fut.cancel()
            return
        result = task.result()
        for i, (_, fut) in enumerate(batch):
            if not fut.done():  # client may have gone away
                fut.set_result(
                    RowResult(
                        ids=result.ids[i],
                        distances=result.distances[i],
                        evals=int(result.evals[i]),
                        batch_size=len(batch),
                        generation=generation,
                    )
                )
