"""The ``Coalescer`` — turn concurrent single queries into one batch.

Requests arrive one query at a time; the lockstep engines want batches.
The coalescer buckets pending requests by :class:`BatchKey` — the
parameters that must agree for two queries to share one
``index.search()`` call — and flushes a bucket when it reaches
``max_batch`` requests or its oldest request has waited ``max_wait_ms``,
whichever comes first.  The batch runs in a thread-pool executor (the
search is CPU-bound numpy; the event loop keeps accepting requests
while it runs), and each awaiting future receives its own row of the
:class:`~repro.core.search.SearchResult`.

Latency/throughput knobs: ``max_wait_ms`` is how long a bucket's first
request waits for company (one tick), ``max_batch`` bounds per-flush
lockstep state.  Measured cost model (benchmark workload ``serve_mixed``:
15 closed-loop readers and one writer on 16 connections, defaults 64 /
2 ms): a closed loop of 15 can never fill a 64-row bucket, so nearly
every dispatch is a timer flush of about 12 rows and the tick is paid in
full — the median request waits 3.2–3.9 ms here
(``serve.coalescer.wait_ms_p50``: the 2 ms tick plus the queue behind
the two executor threads) for a search that takes about 3.5 ms per
batch.  Waiting costs as much as searching; the tick is not free under
load.
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


class Coalescer:
    """Gather compatible requests, dispatch one lockstep batch per tick.

    Single-threaded with the event loop: :meth:`submit` and the flush
    callbacks all run on the loop, so the pending dict needs no lock.
    Only the search itself leaves the loop (into ``executor``).
    """

    def __init__(
        self,
        holder: Any,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        executor: ThreadPoolExecutor | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be non-negative")
        self.holder = holder
        self.max_batch = int(max_batch)
        self.max_wait_ms = float(max_wait_ms)
        self._executor = executor or ThreadPoolExecutor(max_workers=2)
        self._owns_executor = executor is None
        self._pending: dict[BatchKey, list[tuple[np.ndarray, asyncio.Future]]] = {}
        self._timers: dict[BatchKey, asyncio.TimerHandle] = {}
        self.stats = CoalescerStats()

    def submit(self, query: np.ndarray, key: BatchKey) -> "asyncio.Future[RowResult]":
        """Enqueue one (already validated) query; await the future.

        The caller is responsible for front-door validation
        (``index.validate_queries``) *before* submitting — a bad query
        inside a batch would fail the whole dispatch and error every
        batch-mate's future.
        """
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        group = self._pending.setdefault(key, [])
        group.append((np.asarray(query, dtype=np.float64), fut))
        self.stats.requests += 1
        if len(group) >= self.max_batch:
            self._flush(key)
        elif len(group) == 1:
            self._timers[key] = loop.call_later(
                self.max_wait_ms / 1000.0, self._flush, key
            )
        return fut

    async def flush_all(self) -> None:
        """Dispatch every pending bucket now (shutdown/test hook)."""
        for key in list(self._pending):
            self._flush(key)

    def close(self) -> None:
        """Stop the timers and answer every request still waiting for its
        tick: with the timers gone nothing would ever dispatch it, so its
        future fails now instead of hanging its client."""
        for timer in self._timers.values():
            timer.cancel()
        self._timers.clear()
        for group in self._pending.values():
            for _, fut in group:
                if not fut.done():
                    fut.set_exception(
                        RuntimeError(
                            "server shutting down: the request was not dispatched"
                        )
                    )
        self._pending.clear()
        if self._owns_executor:
            self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------

    def _flush(self, key: BatchKey) -> None:
        timer = self._timers.pop(key, None)
        if timer is not None:
            timer.cancel()
        group = self._pending.pop(key, None)
        if not group:
            return
        loop = asyncio.get_running_loop()
        # Pin the index object for the whole batch: the holder may swap
        # mid-search, but this batch keeps traversing its own snapshot.
        index, _generation = self.holder.state
        Q = np.stack([q for q, _ in group])
        self.stats.record(len(group))
        # Vary the traversal seed per dispatched batch.  Start vertices
        # derive from the search seed, and with the library default
        # (seed=None -> the index's build seed) every 1-row batch would
        # greedy-descend from the *same* start vertex forever — fine for
        # the deterministic library API, but a serving layer answering a
        # query stream wants start diversity, and result quality must
        # not depend on how traffic happened to coalesce.
        seq = self.stats.batches
        task = loop.run_in_executor(
            self._executor,
            lambda: index.search(Q, k=key.k, params=key.params(seed=seq)),
        )
        task.add_done_callback(lambda t: self._scatter(t, group))

    def _scatter(
        self,
        task: "asyncio.Future",
        group: list[tuple[np.ndarray, asyncio.Future]],
    ) -> None:
        exc = task.exception() if not task.cancelled() else None
        if task.cancelled() or exc is not None:
            self.stats.errors += 1
            for _, fut in group:
                if not fut.done():
                    if exc is not None:
                        fut.set_exception(exc)
                    else:
                        fut.cancel()
            return
        result = task.result()
        for i, (_, fut) in enumerate(group):
            if not fut.done():  # client may have gone away
                fut.set_result(
                    RowResult(
                        ids=result.ids[i],
                        distances=result.distances[i],
                        evals=int(result.evals[i]),
                        batch_size=len(group),
                    )
                )
