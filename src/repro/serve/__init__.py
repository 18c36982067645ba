"""``repro.serve`` — a long-lived asyncio serving layer over one index.

The lockstep engines (and the compiled accel backends on top of them)
make *batches* 5-30x cheaper per query than single calls — but a
network front door receives queries one at a time.  This package closes
the gap with three cooperating pieces, all stdlib-only:

* :class:`~repro.serve.coalescer.Coalescer` — keeps one
  ``index.search()`` batch in flight.  Requests compatible on ``(k,
  beam_width, rerank_factor, backend, filter)`` that arrive while it
  runs go out together as the next batch (up to ``max_batch``), so
  batches grow with load and an idle server dispatches at once; per-row
  results are scattered back to the awaiting futures.  The cores a
  batch gets come from the accel layer's row split, not from here.
* :class:`~repro.serve.cache.QueryCache` — an LRU over exact
  ``(query bytes, params, index generation)`` keys; hit/miss counters
  surface in ``/stats``.
* :class:`~repro.serve.state.IndexHolder` — snapshot-style
  reader/writer separation: every mutation builds against an
  :meth:`~repro.core.index.ProximityGraphIndex.snapshot` copy and
  atomically swaps the ``(index, generation)`` pair, so an in-flight
  search never observes a partially-mutated index.

:class:`~repro.serve.http.SearchServer` wires them behind a plain
HTTP/1.1 endpoint (``asyncio.start_server``, no new runtime deps):
``POST /search``, ``POST /add``, ``POST /delete``, ``GET /healthz``,
``GET /stats``.  Start it from the shell with ``python -m repro serve
INDEX`` or programmatically::

    from repro.serve import IndexHolder, SearchServer
    server = SearchServer(IndexHolder(index))
    asyncio.run(server.serve_forever("127.0.0.1", 8080))
"""

from repro.serve.cache import QueryCache
from repro.serve.coalescer import BatchKey, Coalescer
from repro.serve.http import SearchServer
from repro.serve.state import IndexHolder

__all__ = [
    "BatchKey",
    "Coalescer",
    "IndexHolder",
    "QueryCache",
    "SearchServer",
]
