"""Shared body of the two in-process read workloads.

``query_batch`` and ``query_disk`` differ only in their configuration
(:class:`Config`): how many rows one ``index.search`` call carries, how
the vectors are stored, and whether the index is served from RAM or off
a memory-mapped v5 directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any

import numpy as np

from .. import gen, stats
from ..runner import CheckFailed, RunContext, Slice, Timed, Verdict, dir_bytes
from ..runner import peak_rss_mb  # noqa: F401 - the workload protocol
from ..tracing import Tracer

DIM = 16
K = 10
BEAM_WIDTH = 64
BUILD_BATCH = 2048
PROBES = 2000
IDENTITY_QUERIES = 200
TOP_LEVEL_SPAN = "core.index.search"
# The loop has no period of its own, so segments are as short as keeps a
# few dozen calls in one (19 64-row batches, ~300 single queries).
SEGMENT_S = 0.1


@dataclass(frozen=True)
class Config:
    n: int
    rows_per_call: int
    pool: int  # distinct queries; calls walk through them in order, again and again
    storage: str  # "flat" | "sq8"
    from_disk: bool  # serve the timed calls off the mmap'd v5 directory
    recall_floor: float
    warm_calls: int


@dataclass
class Inputs:
    config: Config
    backend: str  # best compiled backend here, else "numpy"
    points: np.ndarray
    pool: np.ndarray
    truth: np.ndarray  # exact top-K ids of the first PROBES pool rows


@dataclass
class State:
    inputs: Inputs
    index: Any
    params: Any
    saved_bytes: int
    setup_layers: dict[str, float]


def prepare(ctx: RunContext, config: Config) -> Inputs:
    from repro import accel

    n = ctx.size(config.n, floor=600)
    pool_n = ctx.size(config.pool, floor=4 * config.rows_per_call)
    probes = min(ctx.size(PROBES, floor=100), pool_n)
    model = gen.ClusterModel(ctx.seed, DIM)
    points = model.sample("points", n)
    pool = model.sample("queries", pool_n)
    ctx.note("p50_ms and p99_ms are taken over the pool's distinct calls, each at its fastest repeat")
    return Inputs(
        config=config,
        # The first run in a checkout compiles the kernels here, once.
        backend=accel.warm()["backend"],
        points=points,
        pool=pool,
        truth=gen.exact_knn(pool[:probes], points, K),
    )


def setup(ctx: RunContext, inputs: Inputs) -> State:
    from repro import ProximityGraphIndex, SearchParams, accel
    from repro.core.persistence import load_any
    from repro.storage import make_store

    config, backend, pool = inputs.config, inputs.backend, inputs.pool
    layers: dict[str, float] = {}

    # dlopen and self-check the kernels; reset first so that every
    # repeat of set-up pays the same.
    accel.reset()
    t0 = perf_counter()
    accel.warm()
    layers["accel.warm_s"] = perf_counter() - t0

    t0 = perf_counter()
    index = ProximityGraphIndex.build(
        inputs.points,
        method="vamana",
        normalize=False,
        batch_size=BUILD_BATCH,
        storage=config.storage,
        backend=None if backend == "numpy" else backend,
    )
    layers["core.builders.vamana_build_s"] = perf_counter() - t0
    layers["storage.hot_bytes_per_point"] = _hot_bytes_per_point(index)
    if config.storage == "sq8":
        # The quantiser alone, called directly: the build above hides it.
        t0 = perf_counter()
        make_store("sq8", index.dataset.metric, index.dataset.points, seed=0)
        layers["storage.sq8.train_encode_s"] = perf_counter() - t0

    params = SearchParams(beam_width=BEAM_WIDTH, backend=backend)
    path = ctx.scratch / "v5"
    t0 = perf_counter()
    index.save(path, format="disk")
    layers["core.persistence.save_s"] = perf_counter() - t0
    saved = dir_bytes(path)
    if config.from_disk:
        t0 = perf_counter()
        mapped = load_any(path)
        layers["core.persistence.open_ms"] = (perf_counter() - t0) * 1e3
        _assert_identical(index, mapped, pool[-IDENTITY_QUERIES:], params)
        index = mapped  # the RAM copy is dropped: reads go through the mmap
        ctx.note("latencies are the sandbox's page-cache-warm latencies, not a device's")

    # Warm-up on the tail of the pool (the timed window starts at row 0).
    for i in range(config.warm_calls):
        lo = max(len(pool) - (i + 1) * config.rows_per_call, 0)
        index.search(_call_rows(pool, lo, config.rows_per_call), k=K, params=params)
    return State(
        inputs=inputs, index=index, params=params, saved_bytes=saved, setup_layers=layers
    )


def _hot_bytes_per_point(index: Any) -> float:
    store = index.store
    return float(store.traversal_bytes_per_vector()) + store.aux_bytes() / store.n


def _assert_identical(ram: Any, mapped: Any, queries: np.ndarray, params: Any) -> None:
    a = ram.search(queries, k=K, params=params)
    b = mapped.search(queries, k=K, params=params)
    if not (np.array_equal(a.ids, b.ids) and np.array_equal(a.distances, b.distances)):
        raise CheckFailed("mmap'd v5 index answers differ from the in-RAM index")


def _call_rows(pool: np.ndarray, lo: int, rows: int) -> np.ndarray:
    """The rows of one call: a (rows, d) batch, or one bare query."""
    return pool[lo] if rows == 1 else pool[lo : lo + rows]


def teardown(state: State) -> None:
    state.index = None


def measure(
    ctx: RunContext, state: State, seconds: float, tracer: Tracer | None = None
) -> Slice:
    rows = state.inputs.config.rows_per_call
    pool, index, params = state.inputs.pool, state.index, state.params
    calls_per_pass = len(pool) // rows
    search = index.search
    begins: list[float] = []
    ends: list[float] = []
    results: list[Any] = []
    call = 0
    t_begin = perf_counter()
    deadline = t_begin + seconds
    while True:
        lo = (call % calls_per_pass) * rows
        q = _call_rows(pool, lo, rows)
        if tracer is not None:
            tracer.set_rid(call)
        t0 = perf_counter()
        if t0 >= deadline:
            break
        r = search(q, k=K, params=params)
        ends.append(perf_counter())
        begins.append(t0)
        results.append(r)
        call += 1
    lat_ms = (np.asarray(ends) - np.asarray(begins)) * 1e3
    return Slice(
        wall_s=ends[-1] - t_begin,
        ops=call * rows,
        segments=stats.cut_segments(
            ends, lat_ms, np.full(call, rows), t_begin, seconds, SEGMENT_S
        ),
        data={
            "results": results, "rows": rows, "span": (t_begin, ends[-1]),
            "lat_ms": lat_ms, "calls_per_pass": calls_per_pass,
        },
    )


def summarise(slices: list[Slice]) -> Timed:
    """Throughput over the quiet fifth of the segments; p50 and p99 over
    the distinct calls of the pool, each at its fastest repeat in any
    slice (every set-up builds the same index, so a call costs the same
    in every slice) — see ``stats``."""
    calls_per_pass = slices[0].data["calls_per_pass"]
    lat_ms = np.concatenate([s.data["lat_ms"] for s in slices])
    pool_call = np.concatenate([np.arange(len(s.data["lat_ms"])) % calls_per_pass for s in slices])
    fastest = stats.fastest_repeats(pool_call, lat_ms, calls_per_pass)
    return Timed(
        wall_s=sum(s.wall_s for s in slices),
        ops=sum(s.ops for s in slices),
        ops_per_s=stats.quiet_ops_per_s([seg for s in slices for seg in s.segments]),
        p50_ms=stats.percentile(fastest, 50),
        p99_ms=stats.percentile(fastest, 99),
        samples=len(fastest),
        slices=slices,
    )


def corrupt(timed: Slice) -> None:
    """Self-test hook: one reported distance is off by a millionth."""
    timed.data["results"][0].distances[0, 0] += 1e-6


def verify(ctx: RunContext, state: State, timed: Slice) -> Verdict:
    config, points, pool, truth = (
        state.inputs.config, state.inputs.points, state.inputs.pool, state.inputs.truth
    )
    rows = config.rows_per_call
    results = timed.data["results"]
    calls_per_pass = len(pool) // rows
    problems: list[str] = []
    wrong_shape = sum(
        1 for r in results if r.ids.shape != (rows, K) or r.distances.shape != (rows, K)
    )
    if wrong_shape:
        problems.append(f"{wrong_shape} calls returned arrays that are not ({rows}, {K})")
        return Verdict(recall=0.0, attempted=timed.ops, failed=wrong_shape * rows, problems=problems)
    ids = np.concatenate([r.ids for r in results])
    dist = np.concatenate([r.distances for r in results])
    first_row = (np.arange(len(results)) % calls_per_pass) * rows
    pool_row = (first_row[:, None] + np.arange(rows)[None, :]).reshape(-1)

    bad = ((ids < 0) | (ids >= len(points))).any(axis=1)
    worst = 0.0
    for lo in range(0, len(ids), 8192):
        sl = slice(lo, lo + 8192)
        safe = np.where(bad[sl, None], 0, ids[sl])
        own = gen.distances(pool[pool_row[sl], None, :], points[safe])
        err = np.abs(own - dist[sl])
        worst = max(worst, float(err[~bad[sl]].max(initial=0.0)))
        bad[sl] |= (err > 1e-9).any(axis=1)
    failed = int(bad.sum())
    if failed:
        problems.append(
            f"{failed} of {len(ids)} answers hold an id outside the index or a distance "
            f"that differs from numpy's (worst {worst:.3g})"
        )

    # Recall over the probe rows the window reached, first pass only.
    probes = len(truth)
    seen = np.flatnonzero(pool_row[: calls_per_pass * rows] < probes)
    if len(seen) == 0:
        problems.append("the timed window reached no probe query")
        recall = 0.0
    else:
        recall = gen.recall_at_k(ids[seen], truth[pool_row[seen]])
        if recall < config.recall_floor and ctx.scale == 1.0:
            problems.append(
                f"recall@{K} {recall:.4f} is under the floor {config.recall_floor}"
            )
    timed.data["probe_rows"] = seen
    return Verdict(recall=recall, attempted=timed.ops, failed=failed, problems=problems)


def index_bytes_per_point(state: State) -> float:
    return state.saved_bytes / len(state.inputs.points)


def backend_used(inputs: Inputs) -> str:
    return inputs.backend


# -- traced run ----------------------------------------------------------


def install(ctx: RunContext, state: State, tracer: Tracer) -> None:
    import repro.accel as accel
    import repro.core.index as core_index
    from repro.storage.base import VectorStore
    from repro.storage.disk import DiskTierStore

    def rows_reranked(args: tuple, kwargs: dict, result: Any) -> int:
        return len(args[3] if len(args) > 3 else kwargs["cand"])

    tracer.wrap(core_index.ProximityGraphIndex, "search", TOP_LEVEL_SPAN)
    tracer.wrap(core_index, "beam_search_batch", "graphs.engine.beam_search_batch")
    tracer.wrap(accel, "run_beam", "accel.dispatch.run_beam")
    for cls in (VectorStore, DiskTierStore):
        tracer.wrap(cls, "rerank_distances", "storage.rerank_distances", count_of=rows_reranked)


def layers(ctx: RunContext, plain: Timed, traced: Timed, tracer: Tracer) -> dict[str, float]:
    by_name = tracer.by_name()
    queries = traced.ops
    zero = {"calls": 0, "duration_s": 0.0, "self_s": 0.0, "count": 0}

    def us_per_query(name: str) -> float:
        return by_name.get(name, zero)["self_s"] / queries * 1e6

    # Exact counts are taken over the probe rows of the first traced
    # slice only: that set is the same whatever the machine's speed, so
    # the counts repeat exactly.
    first = traced.slices[0].data
    probe_rows, rows, (t0, t1) = first["probe_rows"], first["rows"], first["span"]
    evals = np.concatenate([r.evals for r in first["results"]])[probe_rows]
    probe_calls = set((probe_rows // rows).tolist())
    reranked = sum(
        s.count for s in tracer.spans
        if s.name == "storage.rerank_distances" and s.rid in probe_calls and t0 <= s.start <= t1
    )
    return {
        "storage.rerank_us_per_query": us_per_query("storage.rerank_distances"),
        "storage.rerank_rows_per_query": reranked / (len(probe_calls) * rows),
        "accel.run_beam_us_per_query": us_per_query("accel.dispatch.run_beam"),
        "accel.share": by_name.get("accel.dispatch.run_beam", zero)["duration_s"]
        / by_name[TOP_LEVEL_SPAN]["duration_s"],
        "graphs.engine.self_us_per_query": us_per_query("graphs.engine.beam_search_batch"),
        "graphs.engine.evals_per_query": float(evals.mean()),
        "core.index.self_us_per_query": us_per_query(TOP_LEVEL_SPAN),
    }
