"""The ``serve_mixed`` load generator: one process, one thread, asyncio.

Runs as a child process (``python loadgen.py <plan.pkl> <records.pkl>``)
so that the generator never shares an interpreter lock with a server
hosted in the harness process; it imports nothing from the harness or
from ``repro``.  The parent writes the plan (pre-encoded HTTP requests,
the fresh/hot schedule) and reads the records back; both pickles are
written and read only by this benchmark.

Closed loop, 16 keep-alive connections multiplexed on the one thread:
15 readers each send their next ``POST /search`` as soon as the previous
reply is in; 1 writer loops ``/add`` 8 points, ``/delete`` those ids,
sleep 100 ms.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import pickle
import sys
from time import perf_counter
from typing import Any

READERS = 15
WRITER_PAUSE_S = 0.1
HOT_SHARE = 0.2


def encode_request(path: str, body: dict[str, Any]) -> bytes:
    raw = json.dumps(body).encode("utf-8")
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(raw)}\r\n\r\n"
    )
    return head.encode("latin-1") + raw


async def exchange(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter, request: bytes
) -> tuple[int, bytes]:
    """Send one pre-encoded request; return (status, body)."""
    writer.write(request)
    status_line = await reader.readline()
    status = int(status_line.split(None, 2)[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if line[:15].lower() == b"content-length:":
            length = int(line[15:])
    body = await reader.readexactly(length) if length else b""
    return status, body


async def _reader_loop(
    host: str, port: int, plan: dict[str, Any], lane: int,
    fresh_counter: "itertools.count[int]", deadline: float, out: list[tuple],
) -> None:
    fresh, hot = plan["fresh_requests"], plan["hot_requests"]
    use_hot, hot_pick = plan["use_hot"][lane], plan["hot_pick"][lane]
    reader, writer = await asyncio.open_connection(host, port)
    try:
        step = 0
        while True:
            if use_hot[step % len(use_hot)]:
                pos = hot_pick[step % len(hot_pick)]
                idx, request = -1 - pos, hot[pos]  # negative ids name the hot set
            else:
                idx = next(fresh_counter) % len(fresh)
                request = fresh[idx]
            step += 1
            t0 = perf_counter()
            if t0 >= deadline:
                break
            try:
                status, body = await exchange(reader, writer, request)
            except (ConnectionError, asyncio.IncompleteReadError, ValueError, IndexError):
                out.append((idx, t0, perf_counter(), 0, b""))
                break
            out.append((idx, t0, perf_counter(), status, body))
    finally:
        writer.close()


async def _writer_loop(
    host: str, port: int, plan: dict[str, Any], deadline: float, out: list[tuple]
) -> None:
    adds = plan["add_requests"]
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for cycle in itertools.count():
            t0 = perf_counter()
            if t0 >= deadline:
                break
            try:
                status, body = await exchange(reader, writer, adds[cycle % len(adds)])
                t1 = perf_counter()
                ids = json.loads(body)["ids"] if status == 200 else []
                out.append(("add", cycle % len(adds), t0, t1, status, ids))
                if ids:
                    request = encode_request("/delete", {"ids": ids})
                    t2 = perf_counter()
                    status, body = await exchange(reader, writer, request)
                    out.append(("delete", cycle % len(adds), t2, perf_counter(), status, ids))
            except (ConnectionError, asyncio.IncompleteReadError, ValueError, KeyError):
                out.append(("broken", cycle % len(adds), t0, perf_counter(), 0, []))
                break
            await asyncio.sleep(WRITER_PAUSE_S)
    finally:
        writer.close()


async def run_load(plan: dict[str, Any]) -> dict[str, Any]:
    host, port, seconds = plan["host"], plan["port"], plan["seconds"]
    searches: list[tuple] = []
    mutations: list[tuple] = []
    fresh_counter = itertools.count()
    t_begin = perf_counter()
    deadline = t_begin + seconds
    tasks = [
        asyncio.create_task(
            _reader_loop(host, port, plan, lane, fresh_counter, deadline, searches)
        )
        for lane in range(READERS)
    ]
    tasks.append(asyncio.create_task(_writer_loop(host, port, plan, deadline, mutations)))
    await asyncio.gather(*tasks)
    return {
        "t_begin": t_begin,
        "seconds": seconds,
        "wall_s": perf_counter() - t_begin,
        "searches": searches,
        "mutations": mutations,
    }


if __name__ == "__main__":
    with open(sys.argv[1], "rb") as fh:
        _plan = pickle.load(fh)
    _records = asyncio.run(run_load(_plan))
    with open(sys.argv[2], "wb") as fh:
        pickle.dump(_records, fh)
