"""Vectorized batch query engine — many searches in lockstep.

A per-query greedy loop issues one small distance batch per hop per
query; at production query rates the Python per-hop overhead dominates
the arithmetic.  This engine runs a whole query batch in lockstep
instead: per hop it gathers every active query's neighbor slice straight
from the graph's CSR storage, issues **one** segmented
:meth:`~repro.metrics.base.MetricSpace.distances_many` call for all
(query, neighbor) pairs, and advances every active query at once with
segmented reductions.

``greedy_batch`` is the library's one greedy: the Section 1.1 procedure
and its budgeted ``query(p_start, q, Q)``, with the paper's accounting
(eval budgets charged per query, ties broken toward the smallest vertex
id — the first index of the per-segment minimum).  It returns one
:class:`GreedyResult` per query, bit-identical to the one-query-at-a-time
reference loop in ``tests/reference.py``; the compiled kernels of
:mod:`repro.accel` are held bit-identical to it in turn.
"""

from __future__ import annotations

import dataclasses
import heapq
from itertools import chain
from typing import Any, Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.graphs.base import ProximityGraph
from repro.graphs.greedy import BeamBatch, GreedyResult
from repro.metrics.base import Dataset
from repro.storage.base import FlatQueryView

__all__ = [
    "greedy_batch",
    "beam_search_batch",
    "rerank_pools",
    "WaveInserter",
    "bulk_insert",
    "snapshot_graph",
    "robust_prune",
    "locate_wave_pools",
    "prune_and_link",
    "RepairInserter",
    "chunk_spans",
    "shard_search_entry",
    "preload_shard_cache",
    "reset_shard_worker_cache",
]


def _as_query_array(queries: Any) -> np.ndarray:
    """Hold the query batch in one fancy-indexable array.

    Coordinate queries become an ``(m, d)`` float array, id queries a 1-D
    int array; anything heterogeneous falls back to an object array,
    which the default (per-segment) metric path handles.
    """
    if isinstance(queries, np.ndarray):
        return queries
    try:
        return np.asarray(queries)
    except ValueError:  # ragged input
        arr = np.empty(len(queries), dtype=object)
        arr[:] = list(queries)
        return arr


def _distance_view(dataset: Dataset, Q: np.ndarray, store: Any):
    """The per-batch distance oracle this search traverses against.

    ``store=None`` (the default everywhere) builds the exact
    :class:`~repro.storage.base.FlatQueryView` over the dataset's metric
    and points — the very calls the engines made before the storage
    layer existed, so results stay bit-identical.  A quantized
    :class:`~repro.storage.base.VectorStore` binds its approximate
    view here instead.
    """
    if store is None:
        return FlatQueryView(dataset.metric, dataset.points, Q)
    return store.bind(Q)


def _check_budget(budget: int | None) -> None:
    """Refuse a budget below 1 before any backend sees it: the compiled
    kernels read a negative budget as none at all."""
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")


def _check_rerank(rerank: int | None, store: Any) -> None:
    """A rerank re-evaluates the pool off the store's raw rows, so it needs
    the store the beam traverses, and a k of at least 1."""
    if rerank is not None and (store is None or rerank < 1):
        raise ValueError("rerank needs a store and a k of at least 1")


def greedy_batch(
    graph: ProximityGraph,
    dataset: Dataset,
    starts: Sequence[int],
    queries: Any,
    budget: int | None = None,
    allowed: np.ndarray | None = None,
    store: Any = None,
    backend: str | None = None,
) -> list[GreedyResult]:
    """Run ``greedy(starts[i], queries[i])`` for all ``i`` in lockstep.

    Returns one :class:`GreedyResult` per query (point, distance, hops,
    distance_evals, self_terminated).  ``budget`` is the paper's ``Q``:
    a walk stops once it has computed that many distances, and must be
    at least 1.  One query is a batch of one:
    ``greedy_batch(graph, dataset, [s], [q], budget=b)[0]``.

    ``allowed`` (a boolean mask over the vertex set) restricts which
    vertices may be *returned*: the walk itself is unchanged — greedy
    still hops through every vertex, which preserves navigability — but
    the reported ``(point, distance)`` is the closest *allowed* vertex
    among all vertices the walk evaluated.  A query that never evaluated
    an allowed vertex reports ``(-1, inf)``.  With ``allowed=None`` the
    masked bookkeeping is skipped entirely.

    ``store`` selects the :class:`~repro.storage.base.VectorStore` to
    traverse against (approximate distances over codes); ``None`` walks
    the exact flat path.

    ``backend`` selects the traversal engine: ``None``/``"numpy"`` is
    this pinned lockstep code; ``"auto"`` and explicit accel backend
    names dispatch whole batches to :mod:`repro.accel` compiled kernels
    (``"auto"`` silently stays here when no backend is warmed or the
    workload has no compiled kernel).
    """
    _check_budget(budget)
    m = len(queries)
    starts = np.asarray(starts, dtype=np.intp)
    if len(starts) != m:
        raise ValueError("need exactly one start vertex per query")
    if m and (starts.min() < 0 or starts.max() >= graph.n):
        bad = starts[(starts < 0) | (starts >= graph.n)][0]
        raise ValueError(f"start vertex {int(bad)} out of range")
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (graph.n,):
            raise ValueError("allowed mask must cover every vertex")
    if backend is not None and backend != "numpy":
        import repro.accel as accel

        if accel.resolve_backend(backend) != "numpy":
            try:
                return accel.run_greedy(
                    graph, dataset, starts, queries,
                    budget=budget, allowed=allowed, store=store,
                )
            except accel.UnsupportedWorkloadError:
                if backend != "auto":
                    raise
    offsets, targets = graph.csr()
    Q = _as_query_array(queries)
    view = _distance_view(dataset, Q, store)

    # The initial distance of each query: one evaluation per query, once.
    p_cur = starts.copy()
    d_cur = np.array(
        [view.scalar(i, int(starts[i])) for i in range(m)],
        dtype=np.float64,
    )
    evals = np.ones(m, dtype=np.int64)
    hops: list[list[int]] = [[int(s)] for s in starts]
    results: list[GreedyResult | None] = [None] * m
    active = np.arange(m, dtype=np.intp)

    # Best *allowed* vertex evaluated so far, per query (filter path).
    if allowed is not None:
        best_p = np.where(allowed[starts], p_cur, -1)
        best_d = np.where(allowed[starts], d_cur, np.inf)

    def finalize(idx: np.ndarray, self_terminated: np.ndarray | bool) -> None:
        flags = (
            np.broadcast_to(self_terminated, len(idx))
            if np.isscalar(self_terminated)
            else self_terminated
        )
        if allowed is None:
            for i, flag in zip(idx, flags):
                results[i] = GreedyResult(
                    int(p_cur[i]), float(d_cur[i]), hops[i], int(evals[i]), bool(flag)
                )
        else:
            for i, flag in zip(idx, flags):
                results[i] = GreedyResult(
                    int(best_p[i]), float(best_d[i]), hops[i], int(evals[i]), bool(flag)
                )

    while len(active):
        # 1. Budget exhausted before the hop (the paper's query() cutoff).
        if budget is not None:
            exhausted = evals[active] >= budget
            if exhausted.any():
                finalize(active[exhausted], False)
                active = active[~exhausted]
                if not len(active):
                    break

        # 2. Local optimum by emptiness: no out-neighbors to examine.
        p_act = p_cur[active]
        deg = (offsets[p_act + 1] - offsets[p_act]).astype(np.int64)
        empty = deg == 0
        if empty.any():
            finalize(active[empty], True)
            active, p_act, deg = active[~empty], p_act[~empty], deg[~empty]
            if not len(active):
                break

        # 3. Truncate each neighbor slice to the remaining budget.
        if budget is not None:
            take = np.minimum(deg, budget - evals[active])
            truncated = take < deg
        else:
            take = deg
            truncated = np.zeros(len(active), dtype=bool)

        # 4. Gather all neighbor slices flat and evaluate them in ONE
        #    segmented distance call.
        seg_stop = np.cumsum(take)
        seg_start = seg_stop - take
        total = int(seg_stop[-1])
        flat = (
            np.arange(total, dtype=np.int64)
            - np.repeat(seg_start, take)
            + np.repeat(offsets[p_act], take)
        )
        cand = targets[flat]
        dists = view.segmented(active, cand, take)
        evals[active] += take

        # 4b. Filter bookkeeping: fold this hop's *allowed* candidates
        #     into each query's best-allowed record (routing unaffected).
        if allowed is not None:
            adm = allowed[cand]
            if adm.any():
                masked = np.where(adm, dists, np.inf)
                amins = np.minimum.reduceat(masked, seg_start)
                a_is_min = masked == np.repeat(amins, take)
                a_first = np.minimum.reduceat(
                    np.where(a_is_min, np.arange(total, dtype=np.int64), total),
                    seg_start,
                )
                better = amins < best_d[active]
                upd = active[better]
                best_d[upd] = amins[better]
                best_p[upd] = cand[a_first[better]]

        # 5. Per-segment first minimum (greedy's smallest-id tie-break).
        mins = np.minimum.reduceat(dists, seg_start)
        is_min = dists == np.repeat(mins, take)
        first = np.minimum.reduceat(
            np.where(is_min, np.arange(total, dtype=np.int64), total), seg_start
        )

        # 6. Queries whose best neighbor does not improve stop here; with
        #    a truncated slice the optimum cannot be certified.
        improved = mins < d_cur[active]
        if (~improved).any():
            finalize(active[~improved], ~truncated[~improved])

        # 7. Advance the rest.
        adv = active[improved]
        new_p = cand[first[improved]]
        p_cur[adv] = new_p
        d_cur[adv] = mins[improved]
        for i, p in zip(adv, new_p):
            hops[i].append(int(p))
        active = adv

    return results  # type: ignore[return-value]


class _BeamState:
    """Per-query beam bookkeeping for the lockstep rounds.

    Visited tracking lives outside the state, in the batch-shared
    ``(m, n)`` bitmap, so the gather step is one vectorized row mask
    instead of a per-neighbor Python ``set`` probe.
    """

    __slots__ = ("candidates", "pool", "evals", "done")

    def __init__(self, start: int, d0: float, admissible: bool = True):
        self.candidates: list[tuple[float, int]] = [(d0, start)]
        self.pool: list[tuple[float, int]] = [(-d0, start)] if admissible else []
        self.evals = 1
        self.done = False


def beam_search_batch(
    graph: ProximityGraph,
    dataset: Dataset,
    starts: Sequence[int],
    queries: Any,
    beam_width: int,
    k: int = 1,
    budget: int | None = None,
    allowed: np.ndarray | None = None,
    store: Any = None,
    backend: str | None = None,
    rerank: int | None = None,
) -> BeamBatch:
    """Lockstep best-first beam search over a query batch.

    Per round every live query pops its best candidate and contributes
    its unvisited out-neighbors to one shared segmented distance call;
    heap updates then replay one query's best-first search per query, so
    results and eval counts match the one-query-at-a-time reference loop
    exactly.  The :class:`~repro.graphs.greedy.BeamBatch` returned holds
    them as dense arrays: row ``i`` of ``.ids``/``.dists`` and
    ``.evals[i]`` are query ``i``'s pool and count.  ``budget``, when
    given, must be at least 1.

    ``allowed`` (a boolean mask over the vertex set) restricts which
    vertices may enter the *result pool*: disallowed vertices are still
    traversed — they enter the candidate heap under the usual beam
    bound, keeping the search connected through filtered-out regions —
    but never count toward the ``beam_width`` best.  With a filter a
    query may return fewer than ``k`` pairs (even zero when nothing
    admissible was reached).  ``allowed=None`` takes the exact unmasked
    code path.

    ``store`` selects the :class:`~repro.storage.base.VectorStore` to
    traverse against (approximate distances over codes); ``None`` walks
    the exact flat path.  ``rerank=r`` (which needs a ``store``) is the
    two-stage search's exact stage, :func:`rerank_pools`: each row's
    pool of up to ``k`` is re-evaluated on the raw rows and the first
    ``r`` returned, ``(m, r)``, its evaluations counted in ``evals``.

    ``backend`` selects the traversal engine: ``None``/``"numpy"`` is
    this pinned lockstep code; ``"auto"`` and explicit accel backend
    names dispatch whole batches to :mod:`repro.accel` compiled kernels
    (``"auto"`` silently stays here when no backend is warmed or the
    workload has no compiled kernel).

    Visited tracking is a dense ``(m, n)`` bitmap — memory is
    ``O(m * n)`` bits, sized for chunked query batches and
    construction waves, not unbounded ones.  It is also the beam every
    insertion builder locates a wave with (``k=beam_width``): HNSW's
    ``SEARCH-LAYER``, one routine for building and querying.
    """
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    _check_budget(budget)
    _check_rerank(rerank, store)
    m = len(queries)
    starts = np.asarray(starts, dtype=np.intp)
    if len(starts) != m:
        raise ValueError("need exactly one start vertex per query")
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (graph.n,):
            raise ValueError("allowed mask must cover every vertex")
    if backend is not None and backend != "numpy":
        import repro.accel as accel

        if accel.resolve_backend(backend) != "numpy":
            try:
                return accel.run_beam(
                    graph, dataset, starts, queries,
                    beam_width=beam_width, k=k, budget=budget,
                    allowed=allowed, store=store, rerank=rerank,
                )
            except accel.UnsupportedWorkloadError:
                if backend != "auto":
                    raise
    offsets, targets = graph.csr()
    Q = _as_query_array(queries)
    view = _distance_view(dataset, Q, store)

    states = [
        _BeamState(
            int(starts[i]),
            view.scalar(i, int(starts[i])),
            admissible=allowed is None or bool(allowed[starts[i]]),
        )
        for i in range(m)
    ]

    # Batch-shared visited bitmap, generationless: row i is query i's
    # visited set (the gather below preserves CSR slice order).
    visited = np.zeros((m, graph.n), dtype=bool)
    if m:
        visited[np.arange(m), starts] = True

    live = list(range(m))
    while live:
        round_ids: list[int] = []
        round_nbrs: list[np.ndarray] = []
        next_live: list[int] = []
        for i in live:
            st = states[i]
            if not st.candidates:
                st.done = True
                continue
            d, u = heapq.heappop(st.candidates)
            if len(st.pool) >= beam_width and d > -st.pool[0][0]:
                st.done = True
                continue
            row = targets[offsets[u] : offsets[u + 1]]
            nbrs = row[~visited[i, row]]
            if not len(nbrs):
                next_live.append(i)  # pop the next candidate next round
                continue
            if budget is not None and st.evals >= budget:
                st.done = True
                continue
            if budget is not None and st.evals + len(nbrs) > budget:
                nbrs = nbrs[: budget - st.evals]
            round_ids.append(i)
            round_nbrs.append(nbrs)
            next_live.append(i)

        if round_ids:
            lens = np.array([len(a) for a in round_nbrs], dtype=np.int64)
            dists = view.segmented(
                np.array(round_ids, dtype=np.intp),
                np.concatenate(round_nbrs),
                lens,
            )
            pos = 0
            for i, arr in zip(round_ids, round_nbrs):
                st = states[i]
                seg = dists[pos : pos + len(arr)]
                pos += len(arr)
                st.evals += len(arr)
                visited[i, arr] = True
                if len(st.pool) >= beam_width:
                    # A full pool stays full and its bound only tightens,
                    # so what it refuses now it refuses below as well.
                    near = seg < -st.pool[0][0]
                    arr, seg = arr[near], seg[near]
                for v, dv in zip(arr, seg):
                    if len(st.pool) < beam_width or dv < -st.pool[0][0]:
                        heapq.heappush(st.candidates, (float(dv), int(v)))
                        if allowed is None or allowed[v]:
                            heapq.heappush(st.pool, (-float(dv), int(v)))
                            if len(st.pool) > beam_width:
                                heapq.heappop(st.pool)
        live = [i for i in next_live if not states[i].done]

    width = max(k, 1)
    ids = np.full((m, width), -1, dtype=np.int64)
    dists = np.full((m, width), np.inf, dtype=np.float64)
    for i, st in enumerate(states):
        best = sorted((-d, v) for d, v in st.pool)[:width]
        if best:
            dists[i, : len(best)], ids[i, : len(best)] = zip(*best)
    evals = np.fromiter((st.evals for st in states), dtype=np.int64, count=m)
    if rerank is not None:
        return rerank_pools(dataset, store, Q, BeamBatch(ids, dists, evals), rerank)
    return BeamBatch(ids, dists, evals)


def rerank_pools(dataset: Dataset, store: Any, Q: Any, pools: BeamBatch, k: int) -> BeamBatch:
    """The two-stage search's exact stage: row ``i``'s pool (its ids up to
    the ``-1`` padding) re-evaluated by ``store.rerank_distances``, ranked
    by ``(distance, id)`` and cut to ``k``, ``(m, k)`` padded with ``-1`` /
    ``inf``.  The evaluations are added to ``pools.evals``, in place — that
    array is the result's."""
    m = len(pools)
    ids = np.full((m, k), -1, dtype=np.int64)
    dists = np.full((m, k), np.inf, dtype=np.float64)
    evals = pools.evals
    for i, row in enumerate(pools.ids):
        cand = row[row >= 0]
        if not len(cand):
            continue
        exact = store.rerank_distances(dataset, Q[i], cand)
        evals[i] += len(cand)
        order = np.lexsort((cand, exact))[:k]
        ids[i, : len(order)] = cand[order]
        dists[i, : len(order)] = exact[order]
    return BeamBatch(ids, dists, evals)


# ----------------------------------------------------------------------
# Batched construction: the wave driver for insertion-based builders
# ----------------------------------------------------------------------


@runtime_checkable
class WaveInserter(Protocol):
    """What a builder must expose to be driven by :func:`bulk_insert`.

    The contract mirrors the two halves of every insertion-based
    construction (NSW, HNSW, Vamana, ...):

    * :meth:`locate_wave` finds each wave member's candidate pool by
      searching the graph as it stands **before the wave** (the frozen
      prefix).  Implementations vectorize this with one
      :func:`beam_search_batch` (``k=beam_width``, the search beam) over
      a :func:`snapshot_graph` of the current adjacency, which is where
      the batched build speedup comes from.  The pools' type is
      builder-specific and opaque to :func:`bulk_insert`, which only
      counts them.
    * :meth:`commit` performs one member's neighbor selection and
      linking from its located pool.  Commits run sequentially in wave
      order, so backlink pruning within a wave behaves exactly as in the
      sequential build; only candidate *location* is computed against
      the stale prefix.
    * :meth:`insert_one` is the builder's original sequential insertion.
      The driver uses it for singleton waves, which makes
      ``batch_size=1`` edge-identical to the sequential build by
      construction.
    """

    def insert_one(self, pid: int) -> None:
        """Insert ``pid`` exactly as the sequential builder would."""
        ...

    def locate_wave(self, pids: Sequence[int]) -> Any:
        """Return one candidate pool per wave member, located against the
        frozen prefix graph (the state before any member of this wave): a
        list, or — for an inserter with ``commit_wave`` — any sized
        container that hook reads, such as a whole
        :class:`~repro.graphs.greedy.BeamBatch`."""
        ...

    def commit(self, pid: int, pool: Any) -> None:
        """Select neighbors for ``pid`` from its pool and link it in."""
        ...


def bulk_insert(
    inserter: WaveInserter,
    order: Iterable[int],
    batch_size: int,
    ramp: bool = True,
) -> int:
    """Insert ``order`` into ``inserter`` in waves of up to ``batch_size``.

    Each wave is located in one vectorized pass against the frozen
    prefix graph (every point inserted in previous waves), then
    committed member-by-member in order.  ``batch_size=1`` degenerates
    to the sequential schedule — each singleton wave goes through
    :meth:`WaveInserter.insert_one`, so the resulting edge set is
    bit-identical to the plain sequential build.

    Larger waves trade a bounded amount of candidate staleness (wave
    members cannot appear in each other's candidate pools) for
    vectorized distance evaluation.  With ``ramp=True`` (the default)
    wave sizes additionally never exceed the current prefix size —
    waves grow 1, 1, 2, 4, ... until they reach ``batch_size`` — so no
    point is ever located against a prefix smaller than its own wave.
    Without the ramp, early waves of a from-scratch build search a
    near-empty graph and link poorly (measurably worse recall);
    builders inserting into an already-complete graph (e.g. Vamana's
    second pass) can pass ``ramp=False`` to run full-width immediately.
    Returns the number of waves executed.

    One optional hook extends the protocol for the compiled commit
    path: an inserter exposing ``commit_wave(pids, pools)`` receives
    each multi-member wave whole (instead of per-member ``commit``
    calls) so it can commit the wave in one kernel dispatch.  Singleton
    waves still go through ``insert_one``, which keeps ``batch_size=1``
    bit-identical to the sequential build by construction.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    commit_wave = getattr(inserter, "commit_wave", None)
    order = [int(p) for p in order]
    waves = 0
    pos = 0
    while pos < len(order):
        take = min(batch_size, max(1, pos)) if ramp else batch_size
        wave = order[pos : pos + take]
        pos += len(wave)
        waves += 1
        if len(wave) == 1:
            inserter.insert_one(wave[0])
            continue
        pools = inserter.locate_wave(wave)
        if len(pools) != len(wave):
            raise ValueError(
                f"locate_wave returned {len(pools)} pools for a wave of {len(wave)}"
            )
        if commit_wave is not None:
            commit_wave(wave, pools)
        else:
            for pid, pool in zip(wave, pools):
                inserter.commit(pid, pool)
    return waves


# ----------------------------------------------------------------------
# Shared wave-repair plumbing: locate / prune / link
#
# Every RobustPrune construction and every incremental repair does the
# same two things per point: *locate* a candidate pool by beam search
# over the graph as it stands, and *commit* the point by RobustPrune +
# bidirectional linking with overflow re-pruning.  These helpers are
# that plumbing and :class:`RepairInserter` is the one inserter built
# on them — the index facade's ``add()`` repair uses it as is, the
# Vamana builder subclasses it — over one adjacency, a
# :class:`CommitMirror`.
# ----------------------------------------------------------------------


def robust_prune(
    dataset: Dataset,
    pid: int,
    v_arr: np.ndarray,
    d_arr: np.ndarray,
    alpha: float,
    max_degree: int,
    backend: str | None = None,
) -> list[int]:
    """The RobustPrune of DiskANN [19], array-native and builder-agnostic.

    Keep the closest candidate, discard any candidate ``v`` with
    ``alpha * D(kept, v) <= D(pid, v)``, repeat until ``max_degree``
    neighbors are kept.  Candidates need not be sorted or unique;
    duplicates keep their smallest distance.  All kept-to-candidate
    distances come from one cross-distance matrix (a single BLAS call
    for coordinate metrics), so the greedy scan below only does cheap
    row masking.  ``backend`` follows the engine-wide seam: ``None`` /
    ``"numpy"`` run this pinned code, ``"auto"`` / explicit names
    dispatch to the compiled prune kernel when the workload (raw
    float64 coordinates under a coordinate metric) supports it.
    """
    if backend is not None and backend != "numpy":
        import repro.accel as accel

        if accel.resolve_backend(backend) != "numpy":
            try:
                return accel.run_robust_prune(
                    dataset, pid, v_arr, d_arr, alpha, max_degree
                )
            except accel.UnsupportedWorkloadError:
                if backend != "auto":
                    raise
    order = np.lexsort((v_arr, d_arr))
    v_s, d_s = v_arr[order], d_arr[order]
    mask = v_s != pid
    v_s, d_s = v_s[mask], d_s[mask]
    if not len(v_s):
        return []
    # First occurrence per id in (d, v) order = its smallest distance.
    _, first = np.unique(v_s, return_index=True)
    if len(first) != len(v_s):
        take = np.sort(first)
        v_s, d_s = v_s[take], d_s[take]
    mat = dataset.metric.pairwise(dataset.points[v_s])
    alive = np.ones(len(v_s), dtype=bool)
    kept: list[int] = []
    pos, P = 0, len(v_s)
    while len(kept) < max_degree:
        while pos < P and not alive[pos]:
            pos += 1
        if pos >= P:
            break
        kept.append(int(v_s[pos]))
        if len(kept) >= max_degree:
            break
        alive &= alpha * mat[pos] > d_s
        pos += 1
    return kept


def locate_wave_pools(
    dataset: Dataset,
    rows: "CommitMirror",
    entry: int,
    pids: Sequence[int],
    beam_width: int,
    backend: str | None = None,
) -> BeamBatch:
    """Locate one candidate pool per wave member against the frozen
    prefix: splice the store's loaded rows into its base CSR once
    (:meth:`CommitMirror.snapshot`), then run one
    :func:`beam_search_batch` from ``entry`` for the whole wave, keeping
    each member's whole beam (``k=beam_width``).  Row ``i`` of the
    returned batch's ``ids`` / ``dists`` is member ``i``'s pool,
    ascending by ``(distance, vertex)`` and padded with ``-1`` / ``inf``.
    """
    idx = np.asarray(pids, dtype=np.intp)
    return beam_search_batch(
        rows.snapshot(),
        dataset,
        [int(entry)] * len(idx),
        dataset.points[idx],
        beam_width=beam_width,
        k=beam_width,
        backend=backend,
    )


def prune_and_link(
    dataset: Dataset,
    adj: Any,
    pid: int,
    v_arr: np.ndarray,
    d_arr: np.ndarray,
    alpha: float,
    max_degree: int,
    backend: str | None = None,
) -> None:
    """Commit one point from its located pool: RobustPrune its out-edges,
    then add backlinks with overflow re-pruning — the ``commit`` body
    every RobustPrune-style inserter shares.  ``adj`` is indexed by
    vertex and its rows are read and assigned whole, so a
    :class:`CommitMirror` (every caller in the package) and a plain list
    of lists (the tests' reference repair) both serve.
    """
    kept = robust_prune(dataset, pid, v_arr, d_arr, alpha, max_degree, backend=backend)
    adj[pid] = kept
    for v in kept:
        nbrs = adj[v]
        if pid in nbrs:
            continue
        grown = [*nbrs, pid]
        if len(grown) > max_degree:
            arr = np.asarray(grown, dtype=np.intp)
            dists = dataset.distances_from_index(v, arr)
            grown = robust_prune(
                dataset, v, arr, dists, alpha, max_degree, backend=backend
            )
        adj[v] = grown


class CommitMirror:
    """The adjacency of a RobustPrune construction or repair: the rows
    a commit may change, held in a padded int64 row store over the
    immutable CSR that still holds every other row.

    ``arr`` is ``(k, cap)`` rows with their lengths in ``deg``;
    ``ids[s]`` is the vertex whose row sits in store row ``s`` and
    ``slot[v]`` the store row of vertex ``v`` (``-1`` while it is still
    the base graph's) — the layout the compiled commit kernel
    (``accel.run_commit_wave``) mutates in place.  ``cap`` is one more
    than the longer of ``max_degree`` and the longest loaded row:
    headroom for the transient pre-prune backlink append.

    A repair starts with ``base`` and no row loaded; :meth:`load` brings
    in the rows a wave can touch — its members and the ids of their
    located pools, since RobustPrune keeps a subset of the pool,
    backlinks land only in kept rows and an overflow re-prune rewrites
    only its own row.  Without ``base`` (a from-scratch build) every row
    is loaded from the start, empty, with ``slot`` the identity.
    ``store[v]`` reads a loaded row (a list of Python ints, in insertion
    order) and ``store[v] = ids`` assigns one, which is all
    :func:`prune_and_link` needs; a row that is not loaded raises
    ``KeyError``.  :meth:`snapshot` splices the loaded rows into the
    base CSR.  ``scratch`` persists the dispatch layer's kernel buffers
    across waves.
    """

    def __init__(
        self, n: int, max_degree: int, base: ProximityGraph | None = None
    ) -> None:
        self.n = int(n)
        self.cap = int(max_degree) + 1
        self.scratch: dict[str, Any] = {}
        self._identity = base is None
        if base is None:
            self._base = (np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.int32))
            self.ids = np.arange(self.n, dtype=np.int64)
            self.slot = self.ids
        else:
            self._base = base.csr()
            self.ids = np.empty(0, dtype=np.int64)
            self.slot = np.full(self.n, -1, dtype=np.int64)
        self.arr = np.zeros((len(self.ids), self.cap), dtype=np.int64)
        self.deg = np.zeros(len(self.ids), dtype=np.int64)

    @property
    def complete(self) -> bool:
        """Is every row loaded (always, in a from-scratch build)?"""
        return len(self.ids) == self.n

    def load(self, vertices: Any) -> None:
        """Copy the base rows of ``vertices`` into the store; vertices
        already loaded (or repeated) are skipped, and a vertex past the
        base graph loads an empty row."""
        v = np.asarray(vertices, dtype=np.int64).ravel()
        v = np.unique(v[self.slot[v] < 0])
        if not len(v):
            return
        off, tgt = self._base
        nb = len(off) - 1
        lo = off[np.minimum(v, nb)]
        lens = off[np.minimum(v + 1, nb)] - lo
        k, cap = len(self.ids), max(self.cap, int(lens.max()) + 1)
        arr = np.zeros((k + len(v), cap), dtype=np.int64)
        arr[:k, : self.cap] = self.arr
        arr[k:][np.arange(cap) < lens[:, None]] = tgt[_ranges(lo, lens)]
        self.arr, self.cap = arr, cap
        self.deg = np.concatenate([self.deg, lens])
        self.ids = np.concatenate([self.ids, v])
        self.slot[v] = np.arange(k, k + len(v))

    def _slot(self, v: int) -> int:
        s = int(self.slot[v]) if 0 <= v < self.n else -1
        if s < 0:
            raise KeyError(f"the row of vertex {v} is not loaded in this store")
        return s

    def slots(self, vertices: Any) -> np.ndarray:
        """The store rows of ``vertices``; ``KeyError`` naming the first
        one whose row is not loaded or that is no vertex (``slot[v] == -1``
        or ``v < 0`` would otherwise index the last row)."""
        v = np.asarray(vertices, dtype=np.int64)
        s = self.slot[np.clip(v, 0, self.n - 1)]
        missing = v[(s < 0) | (v < 0) | (v >= self.n)]
        if len(missing):
            self._slot(int(missing[0]))
        return s

    def __getitem__(self, v: int) -> list[int]:
        s = self._slot(v)
        return self.arr[s, : self.deg[s]].tolist()

    def __setitem__(self, v: int, row: Sequence[int]) -> None:
        s, m = self._slot(v), len(row)
        self.arr[s, :m] = row
        self.deg[s] = m

    def rows_of(self, vertices: Any) -> np.ndarray:
        """The loaded rows of ``vertices``, concatenated."""
        s = self.slots(vertices)
        return self.arr[s][np.arange(self.cap) < self.deg[s][:, None]]

    def snapshot(self, sort: bool = False) -> ProximityGraph:
        """The base CSR with every loaded row spliced in.  Loaded rows
        keep their store order — row-for-row ``snapshot_graph(n, adj)``
        over the equivalent lists, which is all a beam's pool needs;
        ``sort=True`` orders them ascending instead, the graph
        container's canonical form (the base rows already are).  The
        rows between two loaded ones are copied as one slice."""
        n, ids, deg = self.n, self.ids, self.deg
        off, tgt = self._base
        nb = len(off) - 1
        offsets = np.zeros(n + 1, dtype=np.int64)
        lens = offsets[1:]
        np.subtract(off[1:], off[:-1], out=lens[:nb])
        lens[ids] = deg
        np.cumsum(lens, out=lens)
        if not len(ids):
            return ProximityGraph.from_csr(n, offsets, tgt, validate=False)
        rows = self.arr
        valid = np.arange(self.cap) < deg[:, None]
        if sort:
            rows = np.sort(np.where(valid, rows, np.iinfo(np.int64).max), axis=1)
        if self._identity:
            return ProximityGraph.from_csr(n, offsets, rows[valid], validate=False)
        targets = np.empty(int(offsets[-1]), dtype=np.int32)
        held = np.sort(ids)
        lo = np.minimum(np.concatenate([[0], held + 1]), nb)
        hi = np.minimum(np.concatenate([held, [n]]), nb)
        run = off[hi] > off[lo]
        lo, hi = lo[run], hi[run]
        for a, b, c, d in zip(
            offsets[lo].tolist(), offsets[hi].tolist(),
            off[lo].tolist(), off[hi].tolist(),
        ):
            targets[a:b] = tgt[c:d]
        targets[_ranges(offsets[ids], deg)] = rows[valid]
        return ProximityGraph.from_csr(n, offsets, targets, validate=False)


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lens)])``
    without the loop."""
    ends = np.cumsum(lens)
    return np.repeat(starts - (ends - lens), lens) + np.arange(
        int(ends[-1]) if len(ends) else 0
    )


def _commit_pool(
    dataset: Dataset,
    rows: Any,
    pid: int,
    pool: tuple[np.ndarray, np.ndarray],
    alpha: float,
    max_degree: int,
    include_own: bool,
    backend: str | None = None,
) -> None:
    """One member's commit: :func:`prune_and_link` over its located
    pool, joined under ``include_own`` by its current out-edges at
    recomputed distances (a Vamana re-insertion competes with what the
    point already has)."""
    v_arr = np.asarray(pool[0], dtype=np.intp)
    d_arr = np.asarray(pool[1], dtype=np.float64)
    own = rows[pid] if include_own else ()
    if len(own):
        own = np.asarray(own, dtype=np.intp)
        own_d = dataset.distances_from_index(pid, own)
        v_arr = np.concatenate([v_arr, own])
        d_arr = np.concatenate([d_arr, own_d])
    prune_and_link(
        dataset, rows, pid, v_arr, d_arr, alpha, max_degree, backend=backend
    )


def commit_wave_pools(
    dataset: Dataset,
    rows: CommitMirror,
    pids: Sequence[int],
    pools: BeamBatch,
    alpha: float,
    max_degree: int,
    backend: str | None = None,
    include_own: bool = False,
) -> None:
    """Commit a whole wave of located pools in order.

    ``pools`` is the wave's :class:`~repro.graphs.greedy.BeamBatch` as
    :func:`locate_wave_pools` returns it: row ``i`` of its ``ids`` /
    ``dists`` (``-1``-padded) is member ``i``'s pool.  Per member this
    is exactly :func:`prune_and_link` (prepended, when
    ``include_own`` is set, by Vamana's own-edge concatenation at
    recomputed distances).  With a compiled ``backend`` the entire wave
    — every RobustPrune, backlink append, and overflow re-prune — runs
    in **one** kernel call against the store's padded rows, which is
    where the compiled build path's throughput comes from: the
    per-commit Python and FFI overhead of dispatching ~6 prunes per
    insertion otherwise dominates the build.  ``backend=None`` /
    ``"numpy"`` run the pinned per-member loop.
    """
    if backend is not None and backend != "numpy":
        import repro.accel as accel

        if accel.resolve_backend(backend) != "numpy":
            try:
                accel.run_commit_wave(
                    dataset, pids, pools, alpha, max_degree,
                    include_own, rows,
                )
                return
            except accel.UnsupportedWorkloadError:
                if backend != "auto":
                    raise
    for pid, ids, dists in zip(pids, pools.ids, pools.dists):
        found = ids >= 0
        _commit_pool(
            dataset, rows, int(pid), (ids[found], dists[found]), alpha,
            max_degree, include_own,
        )


class RepairInserter:
    """The :class:`WaveInserter` for RobustPrune graphs: one adjacency
    (a :class:`CommitMirror`), located and committed wave by wave.
    Before a commit the store loads the rows it can touch: the members',
    the ids' of their pools and, with ``include_own``, the members'
    out-neighbours'.

    Each point's candidate pool is located by beam search over the
    current graph (vectorized per wave by :func:`bulk_insert` +
    :func:`locate_wave_pools`), its out-edges chosen by RobustPrune, and
    backlinks added with overflow re-pruning (:func:`prune_and_link`).
    Two users:

    * **Repair** (the index facade's ``add()``): ``graph`` is the frozen
      graph over the first ``graph.n`` points of ``dataset``, the rest
      are the points to insert; the store starts with no row loaded.
      Works for any builder's graph — it only needs the dataset's
      distances — which is what lets every index grow, at the price of
      the paper's worst-case guarantee (the facade clears
      ``guaranteed`` on this path; ``gnet`` indexes keep it via the
      dynamic-net path instead).
    * **Construction** (:class:`~repro.baselines.vamana.VamanaIndex`, a
      subclass): ``graph=None`` is the empty prefix over all of
      ``dataset``, every row loaded from the start; the subclass sets
      ``include_own`` (a re-inserted point's current out-edges join its
      pool), moves ``alpha`` between its passes and overrides
      :meth:`insert_one` with its sequential reference insertion.

    The finished graph is read back with :meth:`graph`.  Besides the
    distance work a repair costs work on the rows it loads and one copy
    of the CSR per wave: no step visits every vertex or edge in Python,
    whichever backend commits.
    """

    include_own = False

    def __init__(
        self,
        dataset: Dataset,
        graph: ProximityGraph | None,
        entry: int,
        max_degree: int,
        beam_width: int,
        alpha: float = 1.2,
        backend: str | None = None,
    ):
        self.dataset = dataset
        self.entry_point = int(entry)
        self.max_degree = int(max_degree)
        self.beam_width = int(beam_width)
        self.alpha = float(alpha)
        self.backend = backend
        self._rows = CommitMirror(dataset.n, self.max_degree, graph)

    def graph(self) -> ProximityGraph:
        """The graph as it stands, rows sorted (the container's invariant)."""
        return self._rows.snapshot(sort=True)

    # -- WaveInserter protocol -----------------------------------------

    def insert_one(self, pid: int) -> None:
        self.commit_wave([pid], self.locate_wave([pid]))

    def locate_wave(self, pids: Sequence[int]) -> BeamBatch:
        return locate_wave_pools(
            self.dataset, self._rows, self.entry_point, pids, self.beam_width,
            backend=self.backend,
        )

    def _load(self, pids: Any, pool_ids: np.ndarray) -> None:
        """Load the rows a commit of ``pids`` can touch: the members', the
        pool ids', and with ``include_own`` the members' out-neighbours'."""
        rows = self._rows
        if rows.complete:
            return
        rows.load(np.concatenate([np.ravel(pids), pool_ids[pool_ids >= 0]]))
        if self.include_own:
            rows.load(rows.rows_of(pids))

    def commit(self, pid: int, pool: tuple[np.ndarray, np.ndarray]) -> None:
        self._load([pid], np.asarray(pool[0]).ravel())
        _commit_pool(
            self.dataset, self._rows, int(pid), pool, self.alpha,
            self.max_degree, self.include_own, backend=self.backend,
        )

    def commit_wave(self, pids: Sequence[int], pools: BeamBatch) -> None:
        self._load(pids, pools.ids.ravel())
        commit_wave_pools(
            self.dataset, self._rows, pids, pools, self.alpha,
            self.max_degree, backend=self.backend, include_own=self.include_own,
        )


def snapshot_graph(n: int, rows: Sequence[Any]) -> ProximityGraph:
    """A builder's in-progress adjacency as a CSR graph, for wave location.

    ``rows`` holds one iterable of neighbor ids per vertex (list, set,
    or array — whatever the builder mutates).  Unlike the
    :class:`ProximityGraph` constructor this neither sorts nor cleans the
    rows (builders already guarantee no self-loops or duplicates), so a
    snapshot costs one flattening pass.  Rows keep the builder's order,
    which a beam's pool depends on only through distance ties (both
    backends read the same order), but ``has_edge`` and greedy's
    smallest-id tie-break assume sorted rows, so a finished graph goes
    through the constructor instead.
    """
    if len(rows) != n:
        raise ValueError("need exactly one adjacency row per vertex")
    lens = np.fromiter((len(r) for r in rows), dtype=np.int64, count=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    flat = np.fromiter(chain.from_iterable(rows), dtype=np.int32, count=int(offsets[-1]))
    return ProximityGraph.from_csr(n, offsets, flat, validate=False)


# ----------------------------------------------------------------------
# Chunked execution + the shard-search worker entry point
# ----------------------------------------------------------------------


def chunk_spans(total: int, chunk: int) -> list[tuple[int, int]]:
    """Split ``range(total)`` into ``[start, stop)`` spans of ``chunk``.

    The lockstep engines hold per-query state for the whole batch (and
    :func:`beam_search_batch` a dense ``(m, n)`` visited bitmap), so
    unbounded batches mean unbounded peak memory.  Callers — the
    sharded fan-out, the worker entry point below — run one engine call
    per span instead, bounding state at ``chunk`` queries while keeping
    every call fully vectorized.
    """
    if chunk < 1:
        raise ValueError("chunk size must be at least 1")
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]


# Per-process cache of rehydrated shards — (index, arena attachment)
# pairs keyed by the parent's (sharded-index token, generation, shard)
# tuple.  The pool initializer (:func:`preload_shard_cache`) fills it
# once per worker at pool creation, so search tasks ship only queries —
# never points or CSR arrays.  A mutation in the parent bumps the
# generation and recreates the pool, so stale graphs are never reused;
# cached attachments live exactly as long as their worker process
# (attaching never registers with the resource tracker, and process
# exit unmaps).
_SHARD_CACHE: dict[Any, tuple[Any, Any]] = {}


def reset_shard_worker_cache() -> None:
    """Drop every cached shard, closing any arena attachments."""
    for _index, attachment in _SHARD_CACHE.values():
        if attachment is not None:
            attachment.close()
    _SHARD_CACHE.clear()


def preload_shard_cache(keys: Sequence[Any], payloads: Sequence[dict]) -> None:
    """Process-pool *initializer*: rehydrate every shard once per worker.

    Runs in each worker as it starts (under any start method — the
    arguments are plain picklable values), replacing whatever a prior
    pool generation left behind.  After this, :func:`shard_search_entry`
    tasks carry only a cache key and the queries.
    """
    from repro.core.sharded import rehydrate_shard  # circular-import guard

    reset_shard_worker_cache()
    for key, payload in zip(keys, payloads):
        _SHARD_CACHE[key] = rehydrate_shard(payload)


def shard_search_entry(task: dict) -> dict:
    """Process-pool entry point: one shard's slice of a fan-out search.

    ``task`` is a plain picklable dict (spawn-safe by construction):

    * ``key`` — cache token of a shard preloaded by
      :func:`preload_shard_cache` (the fan-out path), or ``None``,
    * ``payload`` — the shard wire form (CSR arrays, metric spec, arena
      span or inline points; see ``repro.core.sharded.shard_payload``)
      for standalone tasks that skipped the preload,
    * ``queries`` / ``k`` / ``params`` — the search call to run,
    * ``chunk`` — optional query-chunk size for bounded lockstep state.

    Returns the result's raw arrays (``ids``/``distances``/``evals``,
    plus ``hops`` for greedy) — external ids, original distance units —
    for the parent to merge.  Start vertices are drawn for the *whole*
    batch before chunking, so answers are identical for every chunk
    size.
    """
    from repro.core.sharded import rehydrate_shard  # circular-import guard

    key = task.get("key")
    cached = _SHARD_CACHE.get(key) if key is not None else None
    if cached is not None:
        return run_shard_search(
            cached[0], task["queries"], task["k"], task["params"],
            task.get("chunk"),
        )
    if "payload" not in task:
        raise RuntimeError(
            f"shard cache miss for key {key!r} and the task carries no "
            "payload — was the pool created without preload_shard_cache?"
        )
    index, attachment = rehydrate_shard(task["payload"])
    try:
        return run_shard_search(
            index, task["queries"], task["k"], task["params"], task.get("chunk")
        )
    finally:
        if attachment is not None:
            attachment.close()


def run_shard_search(
    index: Any,
    queries: Any,
    k: int,
    params: Any,
    chunk: int | None = None,
) -> dict:
    """Run one shard's ``search`` (optionally chunked) to raw arrays.

    Used by the worker entry point above and by the in-process fan-out,
    so both paths execute literally the same code.
    """
    m = len(queries)
    if params.starts is None and chunk is not None and m > chunk:
        # Draw the whole batch's start vertices up front so chunked and
        # unchunked execution answer identically.
        gen = np.random.default_rng(
            index.seed if params.seed is None else params.seed
        )
        params = dataclasses.replace(
            params, starts=gen.integers(index.n, size=m)
        )
    spans = chunk_spans(m, chunk) if chunk is not None and m else [(0, m)]
    parts = []
    for lo, hi in spans:
        sub = params
        if params.starts is not None:
            sub = dataclasses.replace(
                params, starts=np.asarray(params.starts)[lo:hi]
            )
        parts.append(index.search(queries[lo:hi], k=k, params=sub))
    out = {
        "ids": np.concatenate([p.ids for p in parts], axis=0),
        "distances": np.concatenate([p.distances for p in parts], axis=0),
        "evals": np.concatenate([p.evals for p in parts], axis=0),
    }
    if all(p.hops is not None for p in parts):
        out["hops"] = np.concatenate([p.hops for p in parts], axis=0)
    else:
        out["hops"] = None
    return out
