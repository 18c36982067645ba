"""``SearchServer`` — the plain-HTTP front door (stdlib asyncio only).

One ``asyncio.start_server`` loop speaking minimal HTTP/1.1 with
keep-alive.  Request/response bodies are JSON.  Endpoints:

``POST /search``
    ``{"query": [..], "k": 3, "beam_width": .., "rerank_factor": ..,
    "backend": "..", "mode": "..", "allowed_ids": [..]}`` →
    ``{"ids": [..], "distances": [..], "evals": n, "batch_size": b,
    "cached": bool, "generation": g}``.  The query is validated (finite
    values, dimension) *before* it is enqueued, so a malformed request
    fails alone with a 400 instead of poisoning its coalesced
    batch-mates.
    Padding follows the ``SearchResult`` contract: when fewer than ``k``
    neighbors exist, the tail holds ``id == -1`` and ``distance ==
    null`` (JSON has no ``Infinity``; a ``-1`` id always pairs with a
    ``null`` distance).
``POST /add``
    ``{"points": [[..], ..], "ids": [..]?}`` → ``{"ids": [..],
    "generation": g}``.  Runs through the holder's snapshot-swap writer.
``POST /delete``
    ``{"ids": [..]}`` → ``{"deleted": n, "generation": g}``.  A batch
    with any unknown id 400s atomically — nothing is deleted.
``GET /healthz``
    ``{"status": "ok", "n": .., "active": .., "generation": g}``.
``GET /stats``
    Coalescer counters (batch-size histogram) and queue (``in_flight``:
    0 or 1 batch searching, ``pending``: requests queued behind it),
    cache hit/miss, index stats, the ``writer`` block (``mutations``
    swapped in, ``last_ms``, ``total_ms``), the ``http`` block
    (``rejected``: requests refused for their framing, by status code),
    uptime.

A request with a malformed request line or ``Content-Length`` gets a 400,
one announcing more than 64 MiB a 413; both carry ``Connection: close``
and the connection is closed, because the end of the body is unknown.

Writes run on a dedicated single worker thread (serialized anyway by
the holder's lock); searches run one batch at a time on the
coalescer's search thread.  The event loop itself never blocks on
index work.
"""

from __future__ import annotations

import asyncio
import json
import time
from concurrent.futures import ThreadPoolExecutor
from http import HTTPStatus
from typing import Any

import numpy as np

from repro import accel
from repro.serve.cache import QueryCache
from repro.serve.coalescer import BatchKey, Coalescer, RowResult
from repro.serve.state import IndexHolder

__all__ = ["SearchServer"]

_MAX_BODY = 64 * 1024 * 1024
_MAX_BODY_DIGITS = len(str(_MAX_BODY))


class _BadRequest(ValueError):
    """Client error → 400 with ``{"error": ...}``."""


class _Rejected(Exception):
    """A request whose framing cannot be trusted (request line, body
    length): answered with ``status`` and ``{"error": ...}``, after
    which the connection closes — where its body ends is unknown."""

    def __init__(self, status: HTTPStatus, message: str) -> None:
        super().__init__(message)
        self.status = status


def _json_row(row: RowResult) -> dict[str, Any]:
    ids = [int(v) for v in row.ids]
    return {
        "ids": ids,
        "distances": [
            None if v < 0 else float(d) for v, d in zip(ids, row.distances)
        ],
        "evals": row.evals,
        "batch_size": row.batch_size,
        "cached": False,
        "generation": row.generation,
    }


def _parse_batch_key(body: dict[str, Any]) -> BatchKey:
    allowed = body.get("allowed_ids")
    if allowed is not None:
        if not isinstance(allowed, list):
            raise _BadRequest("allowed_ids must be a list of ids")
        allowed = tuple(sorted(int(v) for v in allowed))
    k = body.get("k", 1)
    if not isinstance(k, int) or k < 1:
        raise _BadRequest("k must be a positive integer")
    beam = body.get("beam_width")
    if beam is not None and (not isinstance(beam, int) or beam < 1):
        raise _BadRequest("beam_width must be a positive integer")
    rerank = body.get("rerank_factor")
    if rerank is not None and (not isinstance(rerank, int) or rerank < 1):
        raise _BadRequest("rerank_factor must be a positive integer")
    return BatchKey(
        k=k,
        mode=str(body.get("mode", "auto")),
        beam_width=beam,
        rerank_factor=rerank,
        backend=str(body.get("backend", "auto")),
        allowed_ids=allowed,
    )


def _parse_query(body: dict[str, Any]) -> np.ndarray:
    if "query" not in body:
        raise _BadRequest("missing 'query'")
    try:
        q = np.asarray(body["query"], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise _BadRequest(f"query is not numeric: {exc}") from exc
    if q.ndim != 1 or q.size == 0:
        raise _BadRequest(
            "query must be a flat non-empty list of coordinates "
            "(one query per /search request; concurrency is batched "
            "server-side)"
        )
    return q


class SearchServer:
    """The coalescer, cache, and holder behind one HTTP listener."""

    def __init__(self, holder: IndexHolder, max_batch: int = 64, cache_size: int = 1024) -> None:
        self.holder = holder
        self.coalescer = Coalescer(holder, max_batch=max_batch)
        self.cache = QueryCache(cache_size)
        self._writer_pool = ThreadPoolExecutor(max_workers=1)
        self._started = time.monotonic()
        self._rejected: dict[int, int] = {}  # status code -> requests refused
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        self._handlers: set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the bound ``(host, port)``
        (useful with ``port=0``)."""
        self._server = await asyncio.start_server(self._handle, host, port)
        sock = self._server.sockets[0]
        addr = sock.getsockname()
        return addr[0], addr[1]

    async def serve_forever(self, host: str = "127.0.0.1", port: int = 8080) -> None:
        bound_host, bound_port = await self.start(host, port)
        print(f"repro serve: listening on http://{bound_host}:{bound_port}")
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Close every open keep-alive connection so the handler tasks
        # finish on their own (EOF) instead of being cancelled at loop
        # teardown, then wait for any in-flight request to complete.
        for writer in list(self._connections):
            writer.close()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        self.coalescer.close()
        self._writer_pool.shutdown(wait=False)

    # -- connection handling -------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _Rejected as exc:
                    code = exc.status.value
                    self._rejected[code] = self._rejected.get(code, 0) + 1
                    self._write_response(
                        writer, exc.status, {"error": str(exc)}, keep_alive=False
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body = request
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload = await self._route(method, path, body)
                self._write_response(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._handlers.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, dict[str, str], bytes] | None:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            return None
        parts = line.decode("latin-1").split()
        if len(parts) != 3:
            raise _Rejected(HTTPStatus.BAD_REQUEST, "malformed request line")
        method, path, _version = parts
        headers: dict[str, str] = {}
        while True:
            h = await reader.readline()
            if h in (b"\r\n", b"\n", b""):
                break
            name, _, value = h.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        announced = headers.get("content-length", "0")
        if not (announced.isascii() and announced.isdigit()):
            raise _Rejected(
                HTTPStatus.BAD_REQUEST,
                f"Content-Length must be a non-negative integer, got {announced!r}",
            )
        # Digits are counted first: int() itself refuses very long strings.
        if len(announced.lstrip("0")) > _MAX_BODY_DIGITS or int(announced) > _MAX_BODY:
            raise _Rejected(
                HTTPStatus.REQUEST_ENTITY_TOO_LARGE,
                f"body of {announced[:32]} bytes is over the {_MAX_BODY}-byte limit",
            )
        length = int(announced)
        body = await reader.readexactly(length) if length else b""
        return method, path.split("?", 1)[0], headers, body

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: HTTPStatus,
        payload: dict[str, Any],
        keep_alive: bool,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        head = (
            f"HTTP/1.1 {status.value} {status.phrase}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)

    # -- routing --------------------------------------------------------

    async def _route(
        self, method: str, path: str, raw: bytes
    ) -> tuple[HTTPStatus, dict[str, Any]]:
        try:
            if method == "GET" and path == "/healthz":
                return HTTPStatus.OK, self._healthz()
            if method == "GET" and path == "/stats":
                return HTTPStatus.OK, self._stats()
            if method == "POST":
                try:
                    body = json.loads(raw.decode("utf-8")) if raw else {}
                except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                    raise _BadRequest(f"invalid JSON body: {exc}") from exc
                if not isinstance(body, dict):
                    raise _BadRequest("body must be a JSON object")
                if path == "/search":
                    return HTTPStatus.OK, await self._search(body)
                if path == "/add":
                    return HTTPStatus.OK, await self._add(body)
                if path == "/delete":
                    return HTTPStatus.OK, await self._delete(body)
            return HTTPStatus.NOT_FOUND, {"error": f"no route {method} {path}"}
        except _BadRequest as exc:
            return HTTPStatus.BAD_REQUEST, {"error": str(exc)}
        except (ValueError, KeyError) as exc:
            # Front-door validation errors from the index itself.
            return HTTPStatus.BAD_REQUEST, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 - a 500 must not kill the loop
            return HTTPStatus.INTERNAL_SERVER_ERROR, {"error": str(exc)}

    async def _search(self, body: dict[str, Any]) -> dict[str, Any]:
        q = _parse_query(body)
        key = _parse_batch_key(body)
        # Pin one (index, generation) pair for validation and the cache
        # lookup.  The batch searches whatever generation is current when
        # it is dispatched, and the reply reports and is cached under that
        # one (``row.generation``), which may be newer.
        index, generation = self.holder.state
        if key.k > index.n:
            # search() answers with dense (m, k) arrays: k sizes an allocation.
            raise _BadRequest(f"k = {key.k} exceeds the index's {index.n} points")
        # Validate HERE, not inside the batch: one NaN query must fail
        # alone, not error every future sharing its dispatch.
        index.validate_queries(q.reshape(1, -1))
        cache_key = QueryCache.key(q, key, generation)
        hit = self.cache.get(cache_key)
        if hit is not None:
            out = dict(hit)
            out["cached"] = True
            return out
        row = await self.coalescer.submit(q, key)
        out = _json_row(row)
        self.cache.put(QueryCache.key(q, key, row.generation), out)
        return out

    async def _add(self, body: dict[str, Any]) -> dict[str, Any]:
        if "points" not in body:
            raise _BadRequest("missing 'points'")
        try:
            pts = np.asarray(body["points"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise _BadRequest(f"points are not numeric: {exc}") from exc
        if pts.ndim == 1:
            pts = pts.reshape(1, -1)
        if pts.ndim != 2 or pts.size == 0:
            raise _BadRequest("points must be a non-empty (n, d) nested list")
        if not np.isfinite(pts).all():
            raise _BadRequest("points contain non-finite values")
        ids = body.get("ids")
        loop = asyncio.get_running_loop()
        new_ids = await loop.run_in_executor(
            self._writer_pool, lambda: self.holder.add(pts, ids=ids)
        )
        return {
            "ids": [int(v) for v in new_ids],
            "generation": self.holder.generation,
        }

    async def _delete(self, body: dict[str, Any]) -> dict[str, Any]:
        if "ids" not in body or not isinstance(body["ids"], list):
            raise _BadRequest("missing 'ids' (a list of external ids)")
        ids = [int(v) for v in body["ids"]]
        loop = asyncio.get_running_loop()
        try:
            removed = await loop.run_in_executor(
                self._writer_pool, lambda: self.holder.delete(ids)
            )
        except KeyError as exc:
            # Atomic: an unknown id fails the whole batch, zero deletes.
            raise _BadRequest(str(exc.args[0]) if exc.args else str(exc)) from exc
        return {"deleted": int(removed), "generation": self.holder.generation}

    def _healthz(self) -> dict[str, Any]:
        index, generation = self.holder.state
        return {
            "status": "ok",
            "n": int(index.n),
            "active": int(index.active_count),
            "generation": generation,
        }

    def _stats(self) -> dict[str, Any]:
        index, generation = self.holder.state
        return {
            "coalescer": self.coalescer.summary(),
            "cache": self.cache.summary(),
            "index": {
                "n": int(index.n),
                "active": int(index.active_count),
                "tombstones": int(index.tombstone_count),
                "generation": generation,
            },
            "writer": self.holder.writer_stats,
            # Active backend, and the threads a large batch is split over.
            "accel": accel.backend_status(),
            "http": {
                "rejected": {str(c): n for c, n in sorted(self._rejected.items())}
            },
            "uptime_seconds": round(time.monotonic() - self._started, 3),
        }
