"""``serve_mixed`` — HTTP reads beside writes.

Operation: one ``POST /search`` request (k = 10, beam_width = 64).  The
index of ``query_batch`` is saved as ``.npz`` and served by ``python -m
repro serve <index> --port <free>`` with every other flag at its
default.  16 keep-alive connections — 16 rather than ``nproc`` because
the coalescer can only form batches from concurrently in-flight
requests — are multiplexed on the single thread of one generator
process (:mod:`loadgen`): 15 closed-loop readers (80 % fresh queries,
20 % from a 64-query hot set) and 1 writer looping ``/add`` 8 points,
``/delete`` those ids, sleep 100 ms.  ``serve.http`` parse/serialise,
the coalescer wait, the cache and the snapshot-swap writer dominate;
traversal is a minority.

Untraced, the server is the real subprocess.  Traced, the harness hosts
``SearchServer`` in-process on its own event-loop thread so that the
wrappers can see ``Coalescer.submit``, ``QueryCache.get``,
``IndexHolder.add/delete`` and ``index.search``; the generator stays a
separate process either way.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import pickle
import socket
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, sleep
from typing import Any

import numpy as np

from .. import env, gen, stats
from ..runner import CheckFailed, RunContext, Slice, Timed, Verdict, dir_bytes
from ..tracing import Tracer
from . import loadgen
from ._query import BEAM_WIDTH, BUILD_BATCH, DIM, K

N = 20_000
FRESH_POOL = 24_576
HOT_SET = 64
PROBE_EVERY = 8  # every 8th fresh query has ground truth
ADD_BATCH = 8
ADD_CYCLES = 256
WARM_REQUESTS = 200
RECALL_FLOOR = 0.93
HOST = "127.0.0.1"
TOP_LEVEL_SPAN = "serve.coalescer.submit"
# Three segments to a 3.3 s slice: each holds three cycles of the writer
# (add + delete + pause, about 0.36 s) and some 1 500 searches, so its
# p99 has over ten samples beyond it.  The reported values are medians
# over all segments, not the quiet fifth: see ``stats``.
SEGMENT_S = 1.1


# -- the two ways of hosting the server -----------------------------------


class ServerProcess:
    """``python -m repro serve`` as a child; always terminated and reaped."""

    def __init__(self, index_path: Path, scratch: Path) -> None:
        with socket.socket() as s:
            s.bind((HOST, 0))
            self.port = s.getsockname()[1]
        self.log_path = scratch / f"server-{self.port}.log"
        self._log = open(self.log_path, "wb")
        child_env = env.child_env()
        child_env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(index_path), "--port", str(self.port)],
            env=child_env, stdout=self._log, stderr=subprocess.STDOUT, cwd=scratch,
        )
        self.peak_rss_mb = 0.0

    def alive(self) -> bool:
        return self.proc.poll() is None

    def log_tail(self, lines: int = 20) -> str:
        self._log.flush()
        text = self.log_path.read_text(encoding="utf-8", errors="replace")
        return "\n".join(text.splitlines()[-lines:])

    def read_peak_rss(self) -> None:
        """``VmHWM`` of the server, while it is still alive."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    self.peak_rss_mb = int(line.split()[1]) / 1024.0

    def stop(self) -> None:
        try:
            if self.alive():
                self.proc.terminate()
                try:
                    self.proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()


class ServerThread:
    """``SearchServer`` with the CLI's defaults on an event-loop thread of
    this process (traced run only)."""

    def __init__(self, index_path: Path) -> None:
        from repro.core.persistence import load_any
        from repro.serve import IndexHolder, SearchServer

        self.server = SearchServer(IndexHolder(load_any(index_path)))
        self.loop = asyncio.new_event_loop()
        self.port = 0
        self.peak_rss_mb = 0.0
        self._ready = threading.Event()
        self._failure: BaseException | None = None
        self._thread = threading.Thread(target=self._serve, name="bench-server", daemon=True)
        self._thread.start()
        if not self._ready.wait(timeout=30) or self._failure is not None:
            raise CheckFailed(f"in-process server did not start: {self._failure!r}")

    def _serve(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            _host, self.port = self.loop.run_until_complete(self.server.start(HOST, 0))
        except BaseException as exc:  # noqa: BLE001 - reported by the constructor
            self._failure = exc
            self._ready.set()
            return
        self._ready.set()
        self.loop.run_forever()

    def alive(self) -> bool:
        return self._thread.is_alive()

    def log_tail(self, lines: int = 20) -> str:
        return "(in-process server: no log)"

    def read_peak_rss(self) -> None:
        pass

    def stop(self) -> None:
        if self._thread.is_alive():
            asyncio.run_coroutine_threadsafe(self.server.stop(), self.loop).result(timeout=20)
            self.loop.call_soon_threadsafe(self.loop.stop)
            self._thread.join(timeout=20)
        if self._thread.is_alive():
            raise CheckFailed("in-process server thread did not stop")
        self.loop.close()


def _http(port: int, method: str, path: str, body: dict[str, Any] | None = None) -> tuple[int, Any]:
    conn = http.client.HTTPConnection(HOST, port, timeout=30)
    try:
        raw = None if body is None else json.dumps(body)
        conn.request(method, path, body=raw, headers={"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read())
    finally:
        conn.close()


def _wait_healthy(server: Any, timeout_s: float = 90.0) -> None:
    deadline = perf_counter() + timeout_s
    while perf_counter() < deadline:
        if not server.alive():
            break
        try:
            status, body = _http(server.port, "GET", "/healthz")
            if status == 200 and body.get("status") == "ok":
                return
        except (OSError, http.client.HTTPException, ValueError):
            pass
        sleep(0.05)
    raise CheckFailed(f"server never answered /healthz; its last output:\n{server.log_tail()}")


# -- set-up -----------------------------------------------------------------


@dataclass
class Inputs:
    backend: str
    points: np.ndarray
    fresh: np.ndarray
    hot: np.ndarray
    added: np.ndarray  # (cycles, ADD_BATCH, d) points the writer adds
    warm: np.ndarray
    truth_fresh: np.ndarray  # exact top-K of fresh[::PROBE_EVERY] over the base points
    plan: dict[str, Any]  # what the generator sends, minus port and seconds


@dataclass
class State:
    inputs: Inputs
    server: Any
    index_bytes: int
    scratch: Path
    setup_layers: dict[str, float]


def _search_body(q: np.ndarray, backend: str) -> dict[str, Any]:
    return {"query": q.tolist(), "k": K, "beam_width": BEAM_WIDTH, "backend": backend}


def prepare(ctx: RunContext) -> Inputs:
    from repro import accel

    cycles = ctx.size(ADD_CYCLES, floor=16)
    backend = accel.warm()["backend"]  # first run in a checkout compiles here
    model = gen.ClusterModel(ctx.seed, DIM)
    points = model.sample("points", ctx.size(N, floor=600))
    fresh = model.sample("fresh", ctx.size(FRESH_POOL, floor=2048))
    hot = model.sample("hot", HOT_SET)
    added = model.sample("added", cycles * ADD_BATCH).reshape(cycles, ADD_BATCH, DIM)
    lane_rng = gen.rng_for(ctx.seed, "lanes")
    plan = {
        "host": HOST,
        "fresh_requests": [
            loadgen.encode_request("/search", _search_body(q, backend)) for q in fresh
        ],
        "hot_requests": [
            loadgen.encode_request("/search", _search_body(q, backend)) for q in hot
        ],
        "add_requests": [
            loadgen.encode_request("/add", {"points": pts.tolist()}) for pts in added
        ],
        "use_hot": (lane_rng.random(size=(loadgen.READERS, 4096)) < loadgen.HOT_SHARE).tolist(),
        "hot_pick": lane_rng.integers(HOT_SET, size=(loadgen.READERS, 4096)).tolist(),
    }
    return Inputs(
        backend=backend, points=points, fresh=fresh, hot=hot, added=added,
        warm=model.sample("warm", ctx.size(WARM_REQUESTS, floor=20)),
        truth_fresh=gen.exact_knn(fresh[::PROBE_EVERY], points, K),
        plan=plan,
    )


def setup(ctx: RunContext, inputs: Inputs) -> State:
    from repro import ProximityGraphIndex, accel

    layers: dict[str, float] = {}
    accel.reset()
    t0 = perf_counter()
    accel.warm()
    layers["accel.warm_s"] = perf_counter() - t0

    t0 = perf_counter()
    index = ProximityGraphIndex.build(
        inputs.points, method="vamana", normalize=False, batch_size=BUILD_BATCH,
        backend=None if inputs.backend == "numpy" else inputs.backend,
    )
    layers["core.builders.vamana_build_s"] = perf_counter() - t0
    index_path = ctx.scratch / "served.npz"
    index.save(index_path)
    del index

    server = ServerThread(index_path) if ctx.trace else ServerProcess(index_path, ctx.scratch)
    try:
        _wait_healthy(server)
        for q in inputs.warm:
            status, body = _http(
                server.port, "POST", "/search", _search_body(q, inputs.backend)
            )
            if status != 200 or len(body.get("ids", ())) != K:
                raise CheckFailed(f"warm-up search failed with {status}: {body}")
    except BaseException:
        server.stop()
        raise
    return State(
        inputs=inputs, server=server, index_bytes=dir_bytes(index_path),
        scratch=ctx.scratch, setup_layers=layers,
    )


def teardown(state: State) -> None:
    state.server.stop()


def backend_used(inputs: Inputs) -> str:
    return inputs.backend


# -- the timed window ----------------------------------------------------------


def measure(
    ctx: RunContext, state: State, seconds: float, tracer: Tracer | None = None
) -> Slice:
    plan_path = state.scratch / "plan.pkl"
    records_path = state.scratch / "records.pkl"
    with open(plan_path, "wb") as fh:
        pickle.dump(dict(state.inputs.plan, port=state.server.port, seconds=seconds), fh)
    _status, before = _http(state.server.port, "GET", "/stats")
    child = subprocess.Popen(
        [sys.executable, str(Path(loadgen.__file__)), str(plan_path), str(records_path)],
        env=env.child_env(), cwd=state.scratch,
    )
    try:
        code = child.wait(timeout=seconds + 60)
    except BaseException as exc:  # never leave the generator running
        child.kill()
        child.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise CheckFailed("the load generator did not finish") from None
        raise
    if code != 0 or not state.server.alive():
        raise CheckFailed(
            f"load generator exited with {code}; server output:\n{state.server.log_tail()}"
        )
    with open(records_path, "rb") as fh:
        records = pickle.load(fh)
    _status, after = _http(state.server.port, "GET", "/stats")
    state.server.read_peak_rss()

    searches = records["searches"]
    ok = [s for s in searches if s[3] == 200]
    ends = np.array([s[2] for s in ok])
    lat_ms = (ends - np.array([s[1] for s in ok])) * 1e3
    return Slice(
        wall_s=records["wall_s"],
        ops=len(ok),
        segments=stats.cut_segments(
            ends, lat_ms, np.ones(len(ok)), records["t_begin"], seconds, SEGMENT_S
        ),
        data={"records": records, "before": before, "after": after, "inputs": state.inputs},
    )


def summarise(slices: list[Slice]) -> Timed:
    """The median over the segments of all slices of each segment's
    throughput, p50 and p99 (``stats.median_summary``)."""
    return Timed(
        wall_s=sum(s.wall_s for s in slices),
        ops=sum(s.ops for s in slices),
        slices=slices,
        **stats.median_summary([seg for s in slices for seg in s.segments]),
    )


def _grew(slices: list[Slice], *keys: str) -> float:
    """Growth of one cumulative ``/stats`` counter over the slices."""
    total = 0.0
    for sl in slices:
        a, b = sl.data["before"], sl.data["after"]
        for k in keys:
            a, b = a[k], b[k]
        total += b - a
    return total


def corrupt(timed: Slice) -> None:
    """Self-test hook: the first search reply loses one of its ids."""
    searches = timed.data["records"]["searches"]
    idx, t0, t1, status, body = searches[0]
    reply = json.loads(body)
    reply["ids"] = reply["ids"][:-1]
    searches[0] = (idx, t0, t1, status, json.dumps(reply).encode("utf-8"))


def verify(ctx: RunContext, state: State, timed: Slice) -> Verdict:
    inp = state.inputs
    records = timed.data["records"]
    searches, mutations = records["searches"], records["mutations"]
    problems: list[str] = []
    attempted = len(searches) + len(mutations)
    failed = 0

    # Where every id the server may return lives: base points, then the
    # writer's points under the ids the server handed back for them.
    coords = {}
    for kind, cycle, _t0, _t1, status, ids in mutations:
        if status != 200 or (kind == "add" and len(ids) != ADD_BATCH):
            failed += 1
        elif kind == "add":
            coords.update(zip(ids, inp.added[cycle]))
    top = max(coords, default=len(inp.points) - 1) + 1
    where = np.full((top, DIM), np.nan)
    where[: len(inp.points)] = inp.points
    for i, p in coords.items():
        where[i] = p

    queries, ids, dist, truth, has_truth = [], [], [], [], []
    for idx, _t0, _t1, status, body in searches:
        try:
            reply = json.loads(body) if status == 200 else None
            good = (
                reply is not None
                and len(reply["ids"]) == K
                and len(reply["distances"]) == K
                and all(isinstance(v, int) and 0 <= v < top for v in reply["ids"])
                and all(isinstance(d, float) for d in reply["distances"])
            )
        except (ValueError, KeyError, TypeError):
            good = False
        if not good:
            failed += 1
            continue
        queries.append(inp.hot[-1 - idx] if idx < 0 else inp.fresh[idx])
        ids.append(reply["ids"])
        dist.append(reply["distances"])
        # Recall is judged on every PROBE_EVERY-th fresh query (a hot
        # query would weigh as often as it is repeated).
        probe = idx >= 0 and idx % PROBE_EVERY == 0
        truth.append(inp.truth_fresh[idx // PROBE_EVERY if probe else 0])
        has_truth.append(probe)
    if failed:
        problems.append(f"{failed} of {attempted} requests failed, were refused or malformed")
    if not ids:
        problems.append("no well-formed search reply to judge")
        return Verdict(recall=0.0, attempted=attempted, failed=failed, problems=problems)

    ids_a, dist_a, q_a = np.array(ids), np.array(dist), np.array(queries)
    own = gen.distances(q_a[:, None, :], where[ids_a])
    err = np.abs(own - dist_a)
    wrong = int((~(err <= 1e-9)).any(axis=1).sum())  # NaN: an id nobody added
    if wrong:
        failed += wrong
        problems.append(
            f"{wrong} replies hold a distance that differs from numpy's "
            f"(worst {np.nanmax(err):.3g}) or an id that was never added"
        )
    mask = np.array(has_truth)
    # A transient writer id is not in the base ground truth: it counts as a miss.
    recall = gen.recall_at_k(ids_a[mask], np.array(truth)[mask]) if mask.any() else 0.0
    if recall < RECALL_FLOOR and ctx.scale == 1.0:
        problems.append(f"recall@{K} {recall:.4f} is under the floor {RECALL_FLOOR}")
    return Verdict(recall=recall, attempted=attempted, failed=failed, problems=problems)


def peak_rss_mb(state: State) -> float:
    return state.server.peak_rss_mb


def index_bytes_per_point(state: State) -> float:
    return state.index_bytes / len(state.inputs.points)


# -- traced run ------------------------------------------------------------------


def install(ctx: RunContext, state: State, tracer: Tracer) -> None:
    import repro.core.index as core_index
    from repro.serve.cache import QueryCache
    from repro.serve.coalescer import Coalescer
    from repro.serve.state import IndexHolder

    submit = Coalescer.submit

    def traced_submit(self: Any, query: np.ndarray, key: Any) -> Any:
        # The span covers enqueue -> result: it closes when the future does.
        token = tracer.open(TOP_LEVEL_SPAN, rid=np.asarray(query, dtype=np.float64).tobytes())
        future = submit(self, query, key)
        future.add_done_callback(lambda _f: tracer.close(token))
        return future

    tracer.patch(Coalescer, "submit", traced_submit)
    tracer.wrap(
        core_index.ProximityGraphIndex, "search", "core.index.search",
        # One batch serves many requests: it is linked to them by the
        # rows' bytes, not by a single parent.
        rid_of=lambda args, kwargs: [np.asarray(q, dtype=np.float64).tobytes() for q in args[1]],
        count_of=lambda args, kwargs, result: len(args[1]),
    )
    tracer.wrap(QueryCache, "get", "serve.cache.get")
    tracer.wrap(IndexHolder, "add", "serve.state.add")
    tracer.wrap(IndexHolder, "delete", "serve.state.delete")


def layers(ctx: RunContext, plain: Timed, traced: Timed, tracer: Tracer) -> dict[str, float]:
    fresh = traced.slices[0].data["inputs"].fresh
    searches = [s for sl in traced.slices for s in sl.data["records"]["searches"]]
    mutations = [m for sl in traced.slices for m in sl.data["records"]["mutations"]]

    # Join client and server by the query's bytes.  Only fresh queries
    # are unique within a slice, and a query sent in several slices is
    # told apart by the slice's time span, so each slice is joined alone.
    idx_of = {q.tobytes(): i for i, q in enumerate(fresh)}
    overhead: list[float] = []
    wait: list[float] = []
    batch_ms: list[float] = []
    for sl in traced.slices:
        rec = sl.data["records"]
        t0, t1 = rec["t_begin"], rec["t_begin"] + rec["wall_s"]
        spans = [s for s in tracer.spans if t0 <= s.start <= t1]
        search_of: dict[int, float] = {}
        for s in spans:
            if s.name == "core.index.search":
                batch_ms.append(s.duration * 1e3)
                search_of.update((idx_of[r], s.duration) for r in s.rid if r in idx_of)
        submit_of = {
            idx_of[s.rid]: s.duration
            for s in spans
            if s.name == TOP_LEVEL_SPAN and s.rid in idx_of
        }
        client_of = {
            idx: t_end - t_start
            for idx, t_start, t_end, status, _b in rec["searches"]
            if idx >= 0 and status == 200
        }
        overhead += [(client_of[i] - submit_of[i]) * 1e3 for i in submit_of if i in client_of]
        wait += [(submit_of[i] - search_of[i]) * 1e3 for i in submit_of if i in search_of]
    mutate_ms = [(t1 - t0) * 1e3 for _k, _c, t0, t1, status, _i in mutations if status == 200]
    errors = sum(1 for s in searches if s[3] != 200) + sum(1 for m in mutations if m[4] != 200)
    _shorten_rids(tracer, idx_of)

    batches = _grew(traced.slices, "coalescer", "batches")
    hits = _grew(traced.slices, "cache", "hits")
    lookups = hits + _grew(traced.slices, "cache", "misses")
    return {
        "core.index.search_ms_per_batch": float(np.mean(batch_ms)),
        "serve.http.overhead_ms_p50": stats.percentile(overhead, 50),
        "serve.http.errors": float(errors),
        "serve.coalescer.wait_ms_p50": stats.percentile(wait, 50),
        "serve.coalescer.mean_batch": _grew(traced.slices, "coalescer", "requests") / batches,
        "serve.coalescer.dispatches": batches,
        "serve.cache.hit_ratio": hits / lookups,
        "serve.state.mutate_ms_p50": stats.percentile(mutate_ms, 50),
        "serve.state.mutate_ms_p99": stats.percentile(mutate_ms, 99),
        "serve.state.generations": _grew(traced.slices, "index", "generation"),
        "serve.state.tombstones_end": _grew(traced.slices, "index", "tombstones"),
        "serve.search_share": len(searches) / (len(searches) + len(mutations)),
    }


def _shorten_rids(tracer: Tracer, idx_of: dict[bytes, int]) -> None:
    """Replace query bytes by the fresh-pool row (or ``"hot"``) before the
    trace is dumped."""

    def short(rid: Any) -> Any:
        if isinstance(rid, bytes):
            return idx_of.get(rid, "hot")
        if isinstance(rid, list):
            return [short(r) for r in rid]
        return rid

    tracer.spans[:] = [s._replace(rid=short(s.rid)) for s in tracer.spans]
