"""The serving layer: snapshot isolation, coalescing, cache, HTTP e2e.

Driven with ``asyncio.run()`` directly (no pytest-asyncio in the
toolchain); the HTTP end-to-end tests bind an ephemeral port and talk
real sockets through ``urllib`` on executor threads.
"""

from __future__ import annotations

import asyncio
import gc
import json
import logging
import sys
import threading
import time
import warnings
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from repro import ProximityGraphIndex, ShardedIndex, accel
from repro.serve import BatchKey, Coalescer, IndexHolder, QueryCache, SearchServer
from repro.serve.coalescer import RowResult
from repro.workloads import uniform_cube


def _flat(n: int = 90, seed: int = 2) -> ProximityGraphIndex:
    pts = uniform_cube(n, 4, np.random.default_rng(seed))
    return ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=seed)


class _HeldIndex:
    """An index stub whose ``search`` blocks until ``release`` is set.

    It records every call as ``(k, rows)``, the most calls it saw running
    at once, and answers row ``i`` with id ``int(Q[i, 0])`` so a test can
    check that each request got its own row back.
    """

    def __init__(self, hold: bool = True, work_s: float = 0.0) -> None:
        self.release = threading.Event()
        if not hold:
            self.release.set()
        self.entered = threading.Event()
        self.work_s = work_s
        self.calls: list[tuple[int, int]] = []
        self.peak = 0
        self._running = 0
        self._lock = threading.Lock()

    def search(self, Q, k, params):
        with self._lock:
            self._running += 1
            self.peak = max(self.peak, self._running)
            self.calls.append((k, len(Q)))
        try:
            self.entered.set()
            assert self.release.wait(timeout=10)
            time.sleep(self.work_s)
        finally:
            with self._lock:
                self._running -= 1
        ids = np.repeat(Q[:, :1].astype(np.int64), k, axis=1)
        return SimpleNamespace(
            ids=ids, distances=np.zeros(ids.shape), evals=np.ones(len(Q), np.int64)
        )


def _hold_searches(index) -> threading.Event:
    """Make ``index.search`` wait until the returned event is set."""
    release = threading.Event()
    search = index.search

    def held(*args, **kwargs):
        assert release.wait(timeout=10)
        return search(*args, **kwargs)

    index.search = held
    return release


async def _until(predicate, timeout: float = 10.0) -> None:
    """Poll ``predicate`` on the event loop until it holds."""

    async def poll():
        while not predicate():
            await asyncio.sleep(0.001)

    await asyncio.wait_for(poll(), timeout)


# ----------------------------------------------------------------------
# Snapshot isolation (the core/index + core/sharded hooks)
# ----------------------------------------------------------------------


class TestSnapshot:
    def test_mutating_snapshot_leaves_original_untouched(self):
        index = _flat()
        q = np.full(4, 0.5)
        before = index.search(q, k=5)
        snap = index.snapshot()
        snap.add(np.random.default_rng(7).uniform(size=(6, 4)))
        snap.delete([0, 1])
        after = index.search(q, k=5)
        assert np.array_equal(before.ids, after.ids)
        assert np.array_equal(before.distances, after.distances)
        assert index.active_count == 90 and snap.active_count == 94

    def test_mutating_original_leaves_snapshot_untouched(self):
        index = _flat()
        snap = index.snapshot()
        index.delete([2])
        index.add(np.random.default_rng(8).uniform(size=(3, 4)))
        assert snap.active_count == 90
        assert snap.tombstone_count == 0

    def test_snapshot_ids_are_independent(self):
        index = _flat(n=30)
        snap = index.snapshot()
        a = snap.add(np.random.default_rng(1).uniform(size=(2, 4)))
        b = index.add(np.random.default_rng(1).uniform(size=(2, 4)))
        # Both continue from the same next id — independently.
        assert a.tolist() == b.tolist() == [30, 31]

    def test_snapshot_compact_does_not_disturb_original(self):
        index = _flat(n=40)
        index.delete([0, 1, 2])
        snap = index.snapshot()
        snap.compact()
        assert snap.tombstone_count == 0 and snap.n == 37
        assert index.tombstone_count == 3 and index.n == 40

    @pytest.mark.parametrize("storage", ["sq8"])
    def test_quantized_snapshot_refresh_is_isolated(self, storage):
        pts = uniform_cube(80, 4, np.random.default_rng(5))
        index = ProximityGraphIndex.build(
            pts, epsilon=1.0, method="vamana", seed=5, storage=storage
        )
        snap = index.snapshot()
        snap.add(np.random.default_rng(6).uniform(size=(4, 4)))
        assert index.store.n == 80 and snap.store.n == 84
        assert index.store.drift == 0 and snap.store.drift == 4

    def test_sharded_snapshot_survives_arena_unlink(self):
        pts = uniform_cube(100, 4, np.random.default_rng(9))
        sharded = ShardedIndex.build(
            pts, epsilon=1.0, method="knn", k=6, seed=9, shards=2, workers=2
        )
        q = pts[:5]
        snap = sharded.snapshot()
        expect = snap.search(q, k=3)
        sharded.close()
        del sharded
        gc.collect()
        # The snapshot detached from the shared-memory arena, so it
        # keeps answering after the original unlinked it.
        got = snap.search(q, k=3)
        assert np.array_equal(expect.ids, got.ids)
        snap.add(np.random.default_rng(1).uniform(size=(2, 4)))
        snap.close()

    def test_sharded_snapshot_isolation(self):
        pts = uniform_cube(60, 4, np.random.default_rng(4))
        sharded = ShardedIndex.build(
            pts, epsilon=1.0, method="knn", k=6, seed=4, shards=2
        )
        snap = sharded.snapshot()
        snap.delete([0, 1, 2])
        assert sharded.tombstone_count == 0 and snap.tombstone_count == 3
        sharded.close()
        snap.close()


class TestIndexHolder:
    def test_mutate_swaps_and_bumps_generation(self):
        index = _flat(n=40)
        holder = IndexHolder(index)
        assert holder.generation == 0
        holder.delete([0])
        assert holder.generation == 1
        assert holder.current is not index  # swapped, not mutated
        assert index.tombstone_count == 0
        assert holder.current.tombstone_count == 1

    def test_failed_mutation_swaps_nothing(self):
        index = _flat(n=40)
        holder = IndexHolder(index)
        with pytest.raises(KeyError):
            holder.delete([99999])
        assert holder.generation == 0
        assert holder.current is index

    def test_reader_keeps_its_pinned_object(self):
        holder = IndexHolder(_flat(n=40))
        pinned, gen = holder.state
        holder.add(np.random.default_rng(0).uniform(size=(1, 4)))
        assert holder.generation == gen + 1
        assert pinned.n == 40  # the pinned object never changed

    def test_writer_stats_count_swaps_only(self):
        holder = IndexHolder(_flat(n=40))
        assert holder.writer_stats == {"mutations": 0, "last_ms": 0.0, "total_ms": 0.0}
        holder.add(np.random.default_rng(0).uniform(size=(2, 4)))
        first = holder.writer_stats
        assert first["mutations"] == 1 and first["last_ms"] > 0.0
        assert first["total_ms"] == first["last_ms"]
        with pytest.raises(KeyError):
            holder.delete([99999])
        assert holder.writer_stats == first  # nothing swapped, nothing counted
        holder.delete([0])
        second = holder.writer_stats
        assert second["mutations"] == 2
        assert second["total_ms"] == pytest.approx(first["total_ms"] + second["last_ms"])
        first["mutations"] = 99  # a copy: callers cannot reach the counters
        assert holder.writer_stats["mutations"] == 2

    def test_concurrent_writers_lose_no_count(self):
        holder = IndexHolder(_flat(n=60))
        workers, each = 6, 5  # more writers than cores, on purpose
        errors: list[BaseException] = []

        def writer(w: int) -> None:
            try:
                for j in range(each):
                    holder.delete([w * each + j])
                    assert holder.writer_stats["mutations"] <= workers * each
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=writer, args=(w,)) for w in range(workers)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        stats = holder.writer_stats
        assert stats["mutations"] == workers * each == holder.generation
        assert holder.current.tombstone_count == workers * each
        assert stats["total_ms"] >= stats["last_ms"] > 0.0

    def test_add_runs_the_repair_on_the_auto_backend(self, monkeypatch):
        index = _flat(n=40)
        seen = []
        original = type(index).add

        def spy(self, points, **kwargs):
            seen.append(kwargs)
            return original(self, points, **kwargs)

        monkeypatch.setattr(type(index), "add", spy)
        IndexHolder(index).add(np.zeros((1, 4)), ids=[77])
        assert seen == [{"ids": [77], "backend": "auto"}]


# ----------------------------------------------------------------------
# Coalescer
# ----------------------------------------------------------------------


class TestCoalescer:
    def test_compatible_requests_share_one_batch(self):
        index = _flat()
        holder = IndexHolder(index)

        async def run():
            coalescer = Coalescer(holder, max_batch=64)
            try:
                Q = uniform_cube(10, 4, np.random.default_rng(3))
                key = BatchKey(k=3)
                rows = await asyncio.gather(
                    *[coalescer.submit(q, key) for q in Q]
                )
                return Q, rows, coalescer.stats.summary()
            finally:
                coalescer.close()

        Q, rows, stats = asyncio.run(run())
        assert stats["batches"] == 1
        assert stats["max_batch_size"] == 10
        assert all(r.batch_size == 10 for r in rows)
        # Scattered rows ARE the batch result: identical to calling the
        # engine with the same stacked batch directly.  The coalescer
        # seeds each dispatch with its batch sequence number (the first
        # dispatched batch gets seed=1), so replay with that seed.
        direct = index.search(Q, k=3, params=BatchKey(k=3).params(seed=1))
        for i, row in enumerate(rows):
            assert np.array_equal(row.ids, direct.ids[i])
            assert np.array_equal(row.distances, direct.distances[i])

    def test_incompatible_keys_never_share(self):
        holder = IndexHolder(_flat())

        async def run():
            coalescer = Coalescer(holder, max_batch=64)
            try:
                q = np.full(4, 0.5)
                await asyncio.gather(
                    coalescer.submit(q, BatchKey(k=1)),
                    coalescer.submit(q, BatchKey(k=3)),
                    coalescer.submit(q, BatchKey(k=3, beam_width=32)),
                )
                return coalescer.stats.summary()
            finally:
                coalescer.close()

        stats = asyncio.run(run())
        assert stats["batches"] == 3
        assert stats["max_batch_size"] == 1

    def test_max_batch_flushes_immediately(self):
        holder = IndexHolder(_flat())

        async def run():
            coalescer = Coalescer(holder, max_batch=4)
            try:
                Q = uniform_cube(8, 4, np.random.default_rng(1))
                key = BatchKey(k=2)
                rows = await asyncio.wait_for(
                    asyncio.gather(*[coalescer.submit(q, key) for q in Q]),
                    timeout=10.0,
                )
                return rows, coalescer.stats.summary()
            finally:
                coalescer.close()

        rows, stats = asyncio.run(run())
        assert stats["batches"] == 2
        assert stats["batch_size_counts"] == {"4": 2}
        assert all(r.batch_size == 4 for r in rows)

    def test_search_error_reaches_every_future(self):
        holder = IndexHolder(_flat())

        async def run():
            coalescer = Coalescer(holder, max_batch=64)
            try:
                # Bypass front-door validation to force an engine error
                # inside the dispatched batch (the HTTP layer prevents
                # this by validating before submit).
                bad = np.full(4, np.nan)
                futures = [
                    coalescer.submit(bad, BatchKey(k=1)),
                    coalescer.submit(np.full(4, 0.5), BatchKey(k=1)),
                ]
                results = await asyncio.gather(*futures, return_exceptions=True)
                return results, coalescer.stats.summary()
            finally:
                coalescer.close()

        results, stats = asyncio.run(run())
        assert all(isinstance(r, ValueError) for r in results)
        assert stats["errors"] == 1

    def test_close_answers_requests_still_inside_the_wait_window(self):
        holder = IndexHolder(_flat())

        async def run():
            # close() arrives in the same loop turn, before the drain.
            coalescer = Coalescer(holder, max_batch=64)
            futures = [
                coalescer.submit(np.full(4, 0.5), BatchKey(k=1)),
                coalescer.submit(np.full(4, 0.5), BatchKey(k=3)),
            ]
            coalescer.close()
            results = await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), timeout=1.0
            )
            return results, coalescer._pending, coalescer.stats.summary()

        results, pending, stats = asyncio.run(run())
        assert all(isinstance(r, RuntimeError) for r in results)
        assert all("shutting down" in str(r) for r in results)
        assert not pending and stats["batches"] == 0

    def test_a_lone_request_is_searching_after_one_loop_turn(self):
        stub = _HeldIndex()

        async def run():
            coalescer = Coalescer(IndexHolder(stub))
            try:
                fut = coalescer.submit(np.full(4, 7.0), BatchKey(k=1))
                await asyncio.sleep(0)
                entered = stub.entered.wait(timeout=5)
                stub.release.set()
                return entered, await asyncio.wait_for(fut, timeout=10)
            finally:
                stub.release.set()
                coalescer.close()

        entered, row = asyncio.run(run())
        assert entered and stub.calls == [(1, 1)]
        assert row.batch_size == 1 and row.ids.tolist() == [7]

    def test_requests_queued_behind_a_batch_leave_as_one(self):
        stub = _HeldIndex()

        async def run():
            coalescer = Coalescer(IndexHolder(stub), max_batch=64)
            try:
                first = coalescer.submit(np.zeros(4), BatchKey(k=2))
                await asyncio.sleep(0)
                assert stub.entered.wait(timeout=10)
                queued = [
                    coalescer.submit(np.full(4, float(i)), BatchKey(k=2))
                    for i in range(1, 10)
                ]
                held = coalescer.summary()
                stub.release.set()
                rows = await asyncio.wait_for(asyncio.gather(first, *queued), timeout=10)
                return held, rows, coalescer.summary()
            finally:
                stub.release.set()
                coalescer.close()

        held, rows, after = asyncio.run(run())
        assert stub.calls == [(2, 1), (2, 9)]
        assert [r.batch_size for r in rows] == [1] + [9] * 9
        assert [r.ids.tolist() for r in rows] == [[i, i] for i in range(10)]
        # /stats shows the queue: one batch searching, nine behind it.
        assert (held["in_flight"], held["pending"], held["batches"]) == (1, 9, 1)
        assert (after["in_flight"], after["pending"], after["batches"]) == (0, 0, 2)

    def test_a_bucket_over_the_cap_keeps_its_place_in_line(self):
        stub = _HeldIndex()
        cap = 3

        async def run():
            coalescer = Coalescer(IndexHolder(stub), max_batch=cap)
            try:
                first = coalescer.submit(np.zeros(4), BatchKey(k=9))
                await asyncio.sleep(0)
                assert stub.entered.wait(timeout=10)
                # 2 * cap + 1 requests; the k=1 bucket is the older one.
                keys = [1, 2, 1, 1, 1, 1, 1]
                queued = [
                    coalescer.submit(np.full(4, float(i)), BatchKey(k=k))
                    for i, k in enumerate(keys, start=1)
                ]
                stub.release.set()
                return await asyncio.wait_for(asyncio.gather(first, *queued), timeout=10)
            finally:
                stub.release.set()
                coalescer.close()

        rows = asyncio.run(run())
        assert stub.calls == [(9, 1), (1, cap), (1, cap), (2, 1)]
        assert [int(r.ids[0]) for r in rows] == list(range(8))

    def test_close_fails_only_the_queued_requests(self):
        stub = _HeldIndex()

        async def run():
            coalescer = Coalescer(IndexHolder(stub))
            try:
                first = coalescer.submit(np.full(4, 3.0), BatchKey(k=1))
                await asyncio.sleep(0)
                assert stub.entered.wait(timeout=10)
                queued = [
                    coalescer.submit(np.ones(4), BatchKey(k=1)),
                    coalescer.submit(np.ones(4), BatchKey(k=2)),
                ]
                coalescer.close()
                stub.release.set()
                return await asyncio.wait_for(
                    asyncio.gather(first, *queued, return_exceptions=True), timeout=10
                )
            finally:
                stub.release.set()

        row, *failed = asyncio.run(run())
        assert isinstance(row, RowResult) and row.ids.tolist() == [3]
        assert all(isinstance(r, RuntimeError) for r in failed)
        assert all("shutting down" in str(r) for r in failed)
        assert stub.calls == [(1, 1)]

    def test_never_two_searches_at_once(self):
        stub = _HeldIndex(hold=False, work_s=0.0005)

        async def client(coalescer, c):
            for r in range(10):
                await coalescer.submit(np.full(4, float(r)), BatchKey(k=1 + (c + r) % 3))

        async def run():
            coalescer = Coalescer(IndexHolder(stub), max_batch=4)
            try:
                await asyncio.wait_for(
                    asyncio.gather(*[client(coalescer, c) for c in range(8)]), timeout=60
                )
                return coalescer
            finally:
                coalescer.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            coalescer = asyncio.run(run())
        finally:
            sys.setswitchinterval(interval)
        assert stub.peak == 1
        summary = coalescer.summary()
        assert sum(rows for _k, rows in stub.calls) == summary["requests"] == 80
        assert summary["in_flight"] == summary["pending"] == 0


# ----------------------------------------------------------------------
# Query cache
# ----------------------------------------------------------------------


class TestQueryCache:
    def test_hit_miss_counters(self):
        cache = QueryCache(capacity=8)
        q = np.array([1.0, 2.0])
        k = QueryCache.key(q, BatchKey(k=3), generation=0)
        assert cache.get(k) is None
        cache.put(k, {"ids": [1]})
        assert cache.get(k) == {"ids": [1]}
        assert cache.hits == 1 and cache.misses == 1

    def test_generation_in_key_invalidates_on_swap(self):
        cache = QueryCache(capacity=8)
        q = np.array([1.0, 2.0])
        cache.put(QueryCache.key(q, BatchKey(), 0), "old")
        assert cache.get(QueryCache.key(q, BatchKey(), 1)) is None

    def test_lru_evicts_oldest(self):
        cache = QueryCache(capacity=2)
        keys = [
            QueryCache.key(np.array([float(i)]), BatchKey(), 0) for i in range(3)
        ]
        cache.put(keys[0], 0)
        cache.put(keys[1], 1)
        assert cache.get(keys[0]) == 0  # freshen 0; 1 is now oldest
        cache.put(keys[2], 2)
        assert cache.get(keys[1]) is None
        assert cache.get(keys[0]) == 0 and cache.get(keys[2]) == 2

    def test_zero_capacity_disables(self):
        cache = QueryCache(capacity=0)
        k = QueryCache.key(np.array([1.0]), BatchKey(), 0)
        cache.put(k, "x")
        assert cache.get(k) is None
        assert len(cache) == 0

    def test_params_distinguish_entries(self):
        cache = QueryCache(capacity=8)
        q = np.array([1.0])
        cache.put(QueryCache.key(q, BatchKey(k=1), 0), "k1")
        assert cache.get(QueryCache.key(q, BatchKey(k=2), 0)) is None


# ----------------------------------------------------------------------
# HTTP end to end
# ----------------------------------------------------------------------


def _fetch(base: str, path: str, body=None):
    data = json.dumps(body).encode() if body is not None else None
    request = urllib.request.Request(
        base + path, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


def _serve_test(coro_fn, index=None, **server_kw):
    """Run ``coro_fn(base_url, server)`` against a live server."""

    async def run():
        holder = IndexHolder(index if index is not None else _flat())
        server = SearchServer(holder, **server_kw)
        host, port = await server.start("127.0.0.1", 0)
        try:
            return await coro_fn(f"http://{host}:{port}", server)
        finally:
            await server.stop()

    return asyncio.run(run())


async def _afetch(base, path, body=None):
    return await asyncio.get_running_loop().run_in_executor(
        None, _fetch, base, path, body
    )


class TestHTTP:
    def test_healthz(self):
        async def go(base, _server):
            return await _afetch(base, "/healthz")

        status, body = _serve_test(go)
        assert status == 200
        assert body["status"] == "ok" and body["n"] == 90

    def test_concurrent_searches_coalesce_and_match_direct(self):
        index = _flat()
        Q = uniform_cube(12, 4, np.random.default_rng(11))

        direct = index.search(Q[:1], k=3, params=BatchKey(k=3).params(seed=1))
        release = _hold_searches(index)

        async def go(base, server):
            loop = asyncio.get_running_loop()
            coalescer = server.coalescer
            # One thread per client: all of them must be waiting at once.
            with ThreadPoolExecutor(len(Q)) as pool:

                def post(q):
                    body = {"query": q.tolist(), "k": 3}
                    return loop.run_in_executor(pool, _fetch, base, "/search", body)

                try:
                    # The first request is searching, and held there ...
                    first = post(Q[0])
                    await _until(lambda: coalescer.stats.batches == 1)
                    # ... so the other eleven queue behind it.
                    rest = [post(q) for q in Q[1:]]
                    await _until(lambda: coalescer.summary()["pending"] == len(Q) - 1)
                    _, held = await _afetch(base, "/stats")
                finally:
                    release.set()
                results = await asyncio.gather(first, *rest)
            _, stats = await _afetch(base, "/stats")
            return held, results, stats

        held, results, stats = _serve_test(go, index=index)
        assert held["coalescer"]["in_flight"] == 1
        assert held["coalescer"]["pending"] == 11
        assert all(status == 200 for status, _ in results)
        assert stats["coalescer"]["batch_size_counts"] == {"1": 1, "11": 1}
        assert (stats["coalescer"]["in_flight"], stats["coalescer"]["pending"]) == (0, 0)
        # The lone first batch IS a direct call with the first seed.
        assert results[0][1]["ids"] == direct.ids[0].tolist()
        for _, body in results:
            assert len(body["ids"]) == 3
            assert all(v >= 0 for v in body["ids"])

    def test_cache_hit_on_identical_request(self):
        async def go(base, _server):
            q = {"query": [0.5, 0.5, 0.5, 0.5], "k": 2}
            _, first = await _afetch(base, "/search", q)
            _, second = await _afetch(base, "/search", q)
            _, stats = await _afetch(base, "/stats")
            return first, second, stats

        first, second, stats = _serve_test(go)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["ids"] == first["ids"]
        assert stats["cache"]["hits"] == 1

    def test_validation_errors_are_400(self):
        async def go(base, _server):
            codes = {}
            for name, payload in {
                "wrong_dim": {"query": [0.5] * 7, "k": 1},
                "nan": {"query": [float("nan")] * 4, "k": 1},
                "missing": {"k": 1},
                "bad_k": {"query": [0.5] * 4, "k": 0},
                "not_numeric": {"query": ["a", "b"]},
                "unknown_backend": {"query": [0.5] * 4, "backend": "numba"},
                "python_backend": {"query": [0.5] * 4, "backend": "python"},
            }.items():
                try:
                    await _afetch(base, "/search", payload)
                    codes[name] = 200
                except urllib.error.HTTPError as exc:
                    codes[name] = exc.code
                    exc.read()
            return codes

        codes = _serve_test(go)
        assert all(code == 400 for code in codes.values()), codes

    def test_k_beyond_the_point_count_is_400(self):
        """``search()`` answers with dense ``(m, k)`` arrays, so a served
        ``k`` is bounded by the snapshot's point count before anything is
        allocated; the refusal names both numbers."""

        async def go(base, _server):
            ok = await _afetch(base, "/search", {"query": [0.5] * 4, "k": 90})
            try:
                await _afetch(base, "/search", {"query": [0.5] * 4, "k": 91})
            except urllib.error.HTTPError as exc:
                return ok, exc.code, json.loads(exc.read())["error"]
            return ok, 200, ""

        (status, body), code, error = _serve_test(go)
        assert status == 200 and len(body["ids"]) == 90
        assert code == 400 and "91" in error and "90" in error

    def test_add_then_search_sees_new_point_and_generation(self):
        async def go(base, _server):
            far = [40.0, 40.0, 40.0, 40.0]
            _, added = await _afetch(base, "/add", {"points": [far]})
            # beam_width forces beam traversal: pure greedy descent can
            # stall in a local minimum and has no visibility guarantee.
            _, found = await _afetch(
                base, "/search", {"query": far, "k": 1, "beam_width": 16}
            )
            return added, found

        added, found = _serve_test(go)
        assert added["generation"] == 1
        assert found["ids"][0] == added["ids"][0]
        assert found["generation"] == 1

    def test_reply_reports_the_generation_its_batch_searched(self):
        """A swap between the request's cache lookup and its dispatch: the
        answer comes from the newer generation, so it must say so and be
        cached under it."""
        pts = uniform_cube(200, 4, np.random.default_rng(7))
        holder = IndexHolder(
            ProximityGraphIndex.build(pts, epsilon=1.0, method="vamana", seed=7)
        )
        body = {"query": pts[5].tolist(), "k": 1}

        async def run():
            server = SearchServer(holder)
            try:
                reply = asyncio.create_task(server._search(dict(body)))
                # _search has looked up generation 0 and queued its query;
                # the drain that dispatches it is due on the next turn.
                await asyncio.sleep(0)
                holder.delete([5])
                reply = await asyncio.wait_for(reply, timeout=30)
                return reply, await server._search(dict(body))
            finally:
                await server.stop()

        reply, again = asyncio.run(run())
        assert holder.generation == 1
        assert reply["generation"] == 1 and reply["ids"] != [5]
        assert again["cached"] and again["ids"] == reply["ids"]

    def test_stats_expose_the_writer_block(self):
        async def go(base, _server):
            _, before = await _afetch(base, "/stats")
            _, added = await _afetch(base, "/add", {"points": [[9.0, 9.0, 9.0, 9.0]]})
            await _afetch(base, "/delete", {"ids": added["ids"]})
            _, after = await _afetch(base, "/stats")
            return before, after

        before, after = _serve_test(go)
        assert before["writer"] == {"mutations": 0, "last_ms": 0.0, "total_ms": 0.0}
        assert after["writer"]["mutations"] == 2 == after["index"]["generation"]
        assert 0.0 < after["writer"]["last_ms"] < after["writer"]["total_ms"]

    def test_stats_show_the_accel_backend_and_its_threads(self):
        async def go(base, _server):
            return (await _afetch(base, "/stats"))[1]

        stats = _serve_test(go)
        assert stats["accel"] == accel.backend_status()
        assert set(stats["accel"]["threads"]) == {"split", "releases_gil"}

    def test_delete_is_atomic_over_http(self):
        async def go(base, _server):
            try:
                await _afetch(base, "/delete", {"ids": [0, 99999]})
                code = 200
            except urllib.error.HTTPError as exc:
                code = exc.code
                exc.read()
            _, health = await _afetch(base, "/healthz")
            return code, health

        code, health = _serve_test(go)
        assert code == 400
        assert health["active"] == 90  # id 0 survived the failed batch
        assert health["generation"] == 0  # nothing swapped

    @pytest.mark.parametrize(
        "path, body",
        [
            ("/delete", {"ids": [7.9]}),
            ("/delete", {"ids": [True]}),
            ("/delete", {"ids": [None]}),
            ("/add", {"points": [[0.5] * 4], "ids": [None]}),
            ("/add", {"points": [[0.5] * 4], "ids": [60.7]}),
            ("/search", {"query": [0.5] * 4, "k": 2, "allowed_ids": [1.5]}),
            ("/search", {"query": [0.5] * 4, "k": 2, "allowed_ids": [None]}),
        ],
    )
    def test_non_integer_ids_are_a_400_that_changes_nothing(self, path, body):
        async def go(base, _server):
            try:
                await _afetch(base, path, body)
                code, error = 200, None
            except urllib.error.HTTPError as exc:
                code, error = exc.code, json.loads(exc.read())["error"]
            _, health = await _afetch(base, "/healthz")
            return code, error, health

        code, error, health = _serve_test(go)
        assert code == 400
        assert "external ids must be integers" in error
        assert (health["n"], health["active"], health["generation"]) == (90, 90, 0)

    def test_padding_contract_over_json(self):
        async def go(base, _server):
            return await _afetch(
                base,
                "/search",
                {"query": [0.5] * 4, "k": 5, "allowed_ids": [1, 2]},
            )

        _, body = _serve_test(go)
        assert body["ids"][2:] == [-1, -1, -1]
        # JSON has no inf: the padded tail serializes as null.
        assert body["distances"][2:] == [None, None, None]
        assert all(d is not None for d in body["distances"][:2])

    def test_unknown_route_is_404(self):
        async def go(base, _server):
            try:
                await _afetch(base, "/nope", {})
                return 200
            except urllib.error.HTTPError as exc:
                exc.read()
                return exc.code

        assert _serve_test(go) == 404

    @pytest.mark.parametrize(
        "head, status",
        [
            (b"POST /search HTTP/1.1\r\nContent-Length: abc\r\n\r\n", 400),
            (b"POST /search HTTP/1.1\r\nContent-Length: -5\r\n\r\n", 400),
            (b"POST /search HTTP/1.1\r\nContent-Length: 67108865\r\n\r\n", 413),
            (b"POST /search HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", 413),
            (b"GARBAGE\r\n\r\n", 400),
        ],
        ids=["length-not-a-number", "length-negative", "length-over-limit",
             "length-too-long-for-int", "request-line"],
    )
    def test_untrustworthy_framing_is_answered_counted_and_closed(self, head, status):
        """A request line or Content-Length the server cannot trust gets
        a JSON error and ``Connection: close`` — not an empty reply and
        an unhandled exception in the connection callback — and /stats
        counts it."""

        async def go(base, _server):
            host, port = base.removeprefix("http://").split(":")
            reader, writer = await asyncio.open_connection(host, int(port))
            writer.write(head)
            await writer.drain()
            reply = await asyncio.wait_for(reader.read(), timeout=10)  # to EOF
            writer.close()
            await writer.wait_closed()
            _, stats = await _afetch(base, "/stats")
            return reply, stats

        reply, stats = _serve_test(go)
        head_part, _, body = reply.partition(b"\r\n\r\n")
        assert head_part.startswith(f"HTTP/1.1 {status} ".encode())
        assert b"Connection: close" in head_part
        assert "error" in json.loads(body)
        assert stats["http"]["rejected"] == {str(status): 1}

    def test_interleaved_writes_never_expose_partial_state(self):
        """The acceptance invariant, in miniature: a writer repeatedly
        adds and deletes a complete 4-point cluster at a far corner
        while readers query for exactly those ids (``allowed_ids``
        makes the answer retrieval-proof: every live member of the set
        comes back, or none) — a proper subset would mean a response
        saw a partially-applied mutation."""
        index = _flat()
        corner = np.full(4, 30.0)
        cluster = (corner + np.arange(4)[:, None] * 0.5).tolist()

        async def go(base, _server):
            torn = []
            live_ids = [[]]

            async def writer():
                for _ in range(6):
                    _, added = await _afetch(base, "/add", {"points": cluster})
                    live_ids[0] = added["ids"]
                    await asyncio.sleep(0.002)
                    await _afetch(base, "/delete", {"ids": added["ids"]})

            async def reader():
                for _ in range(30):
                    ids = live_ids[0]
                    if not ids:
                        await asyncio.sleep(0)
                        continue
                    _, body = await _afetch(
                        base,
                        "/search",
                        {
                            "query": corner.tolist(),
                            "k": 4,
                            "allowed_ids": ids,
                        },
                    )
                    close = [
                        v
                        for v, d in zip(body["ids"], body["distances"])
                        if d is not None
                    ]
                    if len(close) not in (0, 4):
                        torn.append(close)

            await asyncio.gather(writer(), reader(), reader())
            return torn

        torn = _serve_test(go, index=index, cache_size=0)
        assert torn == []


# ----------------------------------------------------------------------
# ``repro serve`` start-up
# ----------------------------------------------------------------------


class TestServeCommand:
    @pytest.mark.parametrize("compiled", [True, False])
    def test_warms_before_binding_and_logs_the_backend(
        self, tmp_path, monkeypatch, caplog, compiled
    ):
        from repro import accel
        from repro.accel import dispatch
        from repro.cli import main

        path = tmp_path / "served.npz"
        _flat(n=40).save(path)
        at_bind = []

        async def bind(self, host, port):
            at_bind.append(accel.get_backend())

        monkeypatch.setattr(SearchServer, "serve_forever", bind)
        if not compiled:
            monkeypatch.setattr(dispatch, "available_backends", lambda: [])
        accel.reset()
        try:
            with warnings.catch_warnings(), caplog.at_level(
                logging.INFO, logger="repro.serve"
            ):
                # Without a compiled backend warm() warns once and the
                # server starts on numpy: not fatal.
                warnings.simplefilter("ignore", accel.AccelFallbackWarning)
                assert main(["serve", str(path), "--port", "0"]) == 0
                best = accel.warm()["backend"]
        finally:
            accel.reset()
        assert compiled or best == "numpy"
        assert at_bind == [best]  # "auto" already means the best backend
        messages = [r.getMessage() for r in caplog.records if r.name == "repro.serve"]
        assert any(f"accel backend {best}" in m for m in messages), messages

    def test_the_tick_and_worker_flags_are_gone(self, tmp_path, capsys):
        from repro.cli import main

        for flag in ("--max-wait-ms", "--search-workers"):
            with pytest.raises(SystemExit) as exc:
                main(["serve", str(tmp_path / "unused.npz"), flag, "2"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
