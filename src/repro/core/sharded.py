"""``ShardedIndex`` — K flat indexes behind the one front door.

Sharding is the standard route to both faster builds and horizontal
query scaling: partition the collection into K shards, build one
:class:`~repro.core.index.ProximityGraphIndex` per shard (each a
complete, independently navigable proximity graph — so per-shard
guarantees like the monotonic-search-network line compose), and answer
``search()`` by fanning the query batch out to every shard and merging
the per-shard top-k.  A fan-out search evaluates more distances than a
single flat search (each shard walks its own graph) but each walk is
over an ``n/K``-point graph, the walks parallelize across processes,
and recall typically *rises* — K independent beams miss less than one.

Process model
-------------
Builds run in a process pool over a **zero-copy shared-memory arena**:
the parent writes the shard-grouped ``(n, d)`` coordinate array into
one :class:`~repro.metrics.arena.SharedArena` block, and each worker
attaches by name and builds from a row-range *view* — points are never
pickled.  Workers receive only picklable task dicts (metric *specs*,
not metric objects), so every multiprocessing start method works,
including ``spawn``; set ``REPRO_MP_START_METHOD=spawn`` to force it.
Searches fan out either in-process (``workers=1``, the default — the
per-shard engines are already vectorized) or across a persistent pool
through :func:`repro.graphs.engine.shard_search_entry`, chunked to
bound lockstep state.

Shard builds default to the wave-batched construction engine
(:func:`~repro.graphs.engine.bulk_insert`) for the insertion builders —
the sharded build path *is* the chunked parallel engine.  With
``shards=1`` the default reverts to the builder's sequential reference
schedule, and the sharded index is **bit-identical** to the flat one:
same graph, same ids, same distances (equivalence-tested on 3 seeds).

Semantics carried over from the flat index, unchanged:

* **stable external ids** — ``add()`` routes a batch to the least
  loaded shard, ``delete()`` to the owning shard; ids never change
  meaning across mutations or a save/load round trip (format v3, a
  manifest directory of per-shard v4 ``.npz`` files, or of v5
  directories with ``format="disk"``);
* **filters and budgets** — ``allowed_ids`` masks and eval budgets
  apply per shard; ``SearchResult.evals`` sums the per-shard counts and
  ``SearchResult.shard_evals`` keeps the breakdown;
* **never-raising empty searches** — an empty batch, an exhausted
  filter, or a fully tombstoned collection returns ``-1``/``inf``
  padded arrays.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.core.builders import (
    BuiltGraph,
    build,
    builder_options,
    validate_builder_options,
)
from repro.core.index import ProximityGraphIndex
from repro.core.search import IdMap, SearchParams, SearchResult, resolve_mode
from repro.graphs.base import ProximityGraph
from repro.graphs.engine import (
    preload_shard_cache,
    run_shard_search,
    shard_search_entry,
)
from repro.metrics.arena import ArenaSpec, AttachedArena, SharedArena, attach
from repro.metrics.base import Dataset, MetricSpace
from repro.metrics.euclidean import EuclideanMetric
from repro.metrics.specs import metric_from_spec, metric_to_spec
from repro.storage import store_from_arrays, validate_storage_options
from repro.storage.flat import FlatStore
from repro.storage.sq8 import SQ8Store, encode_sq8, train_sq8

__all__ = [
    "ShardedIndex",
    "partition_points",
    "shard_payload",
    "rehydrate_shard",
]

# Default query-chunk size for fan-out search: bounds each lockstep
# engine call's per-query state without fragmenting the vectorization.
DEFAULT_SEARCH_CHUNK = 4096


def _mp_context() -> Any:
    """The pool start method: the platform default, unless the
    ``REPRO_MP_START_METHOD`` env knob (CI's spawn job) overrides it.

    Returns a ``multiprocessing`` context (or ``None`` for the
    default); typed ``Any`` because the context classes are
    platform-dependent."""
    import multiprocessing

    method = os.environ.get("REPRO_MP_START_METHOD")
    return multiprocessing.get_context(method) if method else None


# Worker-cache tokens: unique per live index within this process so
# pool workers never serve another index's (or a stale) graph.  A
# process-local counter, *not* uuid4 — token values never influence
# results, and the determinism contract bans ambient entropy in
# library code outright so nothing nondeterministic can leak in later.
_TOKEN_COUNTER = itertools.count()


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------


def partition_points(
    points: np.ndarray,
    shards: int,
    assignment: str,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Split ``0..n-1`` into ``shards`` member-index arrays.

    ``"random"`` deals a random permutation into near-equal shards —
    the robust default (shards statistically mirror the collection).
    ``"kmeans"`` runs a few Lloyd rounds with capacity-balanced
    assignment, giving geometrically coherent shards (each beam search
    stays in one region) at the cost of a k-means pass; coordinate
    points only.  Every shard comes back sorted ascending.  Random
    shards are sized within one of ``n / shards``; k-means shards are
    only *capped* at ``ceil(n / shards)`` — clustered data can leave
    some shards much smaller — with an explicit rebalance pass
    (:func:`_rebalance_min_size`) enforcing the paper's ``n >= 2``
    floor per shard whenever ``n >= 2 * shards``.
    """
    n = len(points)
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if n < 2 * shards:
        raise ValueError(
            f"{shards} shards over {n} points would leave a shard with "
            "fewer than 2 points (the paper assumes n >= 2 per dataset); "
            "use fewer shards"
        )
    if assignment == "random":
        perm = rng.permutation(n)
        bounds = np.linspace(0, n, shards + 1).astype(np.int64)
        return [np.sort(perm[bounds[j] : bounds[j + 1]]) for j in range(shards)]
    if assignment != "kmeans":
        raise ValueError(
            f"unknown assignment {assignment!r}; use 'random' or 'kmeans'"
        )
    coords = np.asarray(points, dtype=np.float64)
    if coords.ndim != 2:
        raise ValueError("kmeans assignment needs (n, d) coordinate points")
    if shards == 1:
        return [np.arange(n, dtype=np.int64)]
    capacity = int(math.ceil(n / shards))
    centroids = coords[rng.choice(n, size=shards, replace=False)]
    labels = np.zeros(n, dtype=np.int64)
    for _ in range(8):
        # Squared Euclidean point->centroid matrix via the Gram trick.
        d2 = (
            (coords**2).sum(axis=1)[:, None]
            - 2.0 * coords @ centroids.T
            + (centroids**2).sum(axis=1)[None, :]
        )
        # Capacity-balanced greedy: points claim centroids best-first
        # (most-confident points first), falling back to their next
        # preference once a centroid is full.
        prefs = np.argsort(d2, axis=1)
        order = np.argsort(d2[np.arange(n), prefs[:, 0]])
        fill = np.zeros(shards, dtype=np.int64)
        for i in order:
            for c in prefs[i]:
                if fill[c] < capacity:
                    labels[i] = c
                    fill[c] += 1
                    break
        _rebalance_min_size(coords, labels, shards, min_size=2)
        new_centroids = np.stack(
            [coords[labels == j].mean(axis=0) for j in range(shards)]
        )
        if np.allclose(new_centroids, centroids):
            break
        centroids = new_centroids
    return [np.flatnonzero(labels == j).astype(np.int64) for j in range(shards)]


def _rebalance_min_size(
    coords: np.ndarray, labels: np.ndarray, shards: int, min_size: int
) -> None:
    """Top up shards below ``min_size`` (in place) from the largest
    shard, moving its member closest to the deficient shard's mean —
    capacity-greedy assignment can leave a cluster nearly empty when
    ``n`` is small relative to ``shards**2``."""
    counts = np.bincount(labels, minlength=shards)
    while counts.min() < min_size:
        needy = int(counts.argmin())
        donor = int(counts.argmax())
        donors = np.flatnonzero(labels == donor)
        if counts[needy]:
            center = coords[labels == needy].mean(axis=0)
        else:
            center = coords[donors].mean(axis=0)
        move = donors[
            int(np.argmin(((coords[donors] - center) ** 2).sum(axis=1)))
        ]
        labels[move] = needy
        counts[donor] -= 1
        counts[needy] += 1


# ----------------------------------------------------------------------
# The shard wire form (worker tasks in both directions)
# ----------------------------------------------------------------------


def shard_payload(
    shard: ProximityGraphIndex,
    arena_spec: ArenaSpec | None = None,
    span: tuple[int, int] | None = None,
) -> dict:
    """The picklable wire form of one shard for a search worker.

    CSR arrays and mutable-collection state travel by value (small);
    the points travel by *reference* — an arena spec plus row span —
    when the shard's dataset is still arena-backed, or inline otherwise
    (after a mutation replaced the shard's point array).  A quantized
    shard additionally ships its storage inline: the spec, the training
    arrays (offsets/scales) and the code matrix.
    """
    offsets, targets = shard.graph.csr()
    payload: dict[str, Any] = {
        "n": int(shard.n),
        "offsets": offsets,
        "targets": targets,
        "metric": metric_to_spec(shard.dataset.metric),
        "scale": float(shard.scale),
        "seed": int(shard.seed),
        "builder": shard.built.name,
        "epsilon": float(shard.built.epsilon),
        "guaranteed": bool(shard.built.guaranteed),
        "external_ids": np.asarray(shard.id_map.externals),
        "tombstones": shard._tombstones,
    }
    if arena_spec is not None:
        if span is None:
            raise ValueError("an arena-backed payload needs its row span")
        payload["arena"] = arena_spec
        payload["span"] = (int(span[0]), int(span[1]))
    else:
        payload["points"] = np.asarray(shard.dataset.points)
    store = shard.store
    if store.is_quantized:
        payload["storage"] = {"spec": store.spec(), "arrays": store.arrays()}
    return payload


def rehydrate_shard(
    payload: dict,
) -> tuple[ProximityGraphIndex, AttachedArena | None]:
    """Rebuild a queryable shard index from its wire form.

    Returns ``(index, attachment)`` where ``attachment`` is the points
    arena handle to close after use (``None`` for an inline payload).
    Graph CSR arrays are adopted verbatim, so the rehydrated shard
    answers ``search`` identically to the parent's.
    """
    metric = metric_from_spec(payload["metric"])
    point_att = None
    if "arena" in payload:
        # Ownership transfers to the caller, who closes it after use.
        point_att = attach(payload["arena"])  # repro: ignore[arena-hygiene]
        lo, hi = payload["span"]
        points = point_att.view(lo, hi)
    else:
        points = payload["points"]
    n = int(payload["n"])
    graph = ProximityGraph.from_csr(
        n, payload["offsets"], payload["targets"], validate=False
    )
    built = BuiltGraph(
        name=payload["builder"],
        graph=graph,
        epsilon=float(payload["epsilon"]),
        guaranteed=bool(payload["guaranteed"]),
    )
    store = None
    storage = payload.get("storage")
    if storage is not None:
        store = store_from_arrays(storage["spec"], storage["arrays"], metric, points)
    index = ProximityGraphIndex(
        dataset=Dataset(metric, points),
        built=built,
        scale=float(payload["scale"]),
        seed=int(payload["seed"]),
        id_map=IdMap(payload["external_ids"]),
        tombstones=payload["tombstones"],
        store=store,
    )
    return index, point_att


def _shard_build_entry(task: dict) -> dict:
    """Process-pool entry point: build one shard's graph from its arena
    view.  Returns the graph's CSR arrays plus JSON-safe provenance (the
    same trimming persistence applies — net hierarchies and other
    non-serializable meta stay behind; the parent records what dropped).
    """
    from repro.core.persistence import _sanitize_meta
    from repro.metrics.scaling import normalize_min_distance

    attachment = attach(task["arena"])
    try:
        lo, hi = task["span"]
        metric = metric_from_spec(task["metric"])
        dataset = Dataset(metric, attachment.view(lo, hi))
        scale = 1.0
        if task["normalize"]:
            dataset, scale = normalize_min_distance(dataset)
        built = build(
            task["method"],
            dataset,
            task["epsilon"],
            np.random.default_rng(task["seed"]),
            **task["options"],
        )
        offsets, targets = built.graph.csr()
        meta_kept, meta_dropped = _sanitize_meta(built.meta)
        return {
            "shard": task["shard"],
            "offsets": offsets,
            "targets": targets,
            "scale": float(scale),
            "guaranteed": bool(built.guaranteed),
            "meta": meta_kept,
            "meta_dropped": meta_dropped,
            "options": built.options,
        }
    finally:
        attachment.close()


# ----------------------------------------------------------------------
# The sharded front door
# ----------------------------------------------------------------------


class ShardedIndex:
    """K flat proximity-graph indexes serving one :meth:`search` surface.

    Use :meth:`build` rather than the constructor.  ``shards`` holds the
    per-shard :class:`ProximityGraphIndex` objects (each with the
    *global* external ids of its members), and the index routes every
    front-door call — implementing the same
    :class:`~repro.core.interface.SearchableIndex` protocol as the flat
    index, so callers never care which they hold.
    """

    def __init__(
        self,
        shards: Sequence[ProximityGraphIndex],
        seed: int = 0,
        workers: int = 1,
        assignment: str = "random",
        arena: SharedArena | None = None,
        arena_spans: Sequence[tuple[int, int]] | None = None,
        next_id: int | None = None,
        search_chunk: int = DEFAULT_SEARCH_CHUNK,
    ) -> None:
        if not shards:
            raise ValueError("a sharded index needs at least one shard")
        self.shards = list(shards)
        self.seed = int(seed)
        self.workers = int(workers)
        self.assignment = assignment
        self.search_chunk = int(search_chunk)
        self._arena = arena
        self._arena_spans = (
            [tuple(s) for s in arena_spans] if arena_spans is not None else None
        )
        if arena is not None and (
            self._arena_spans is None or len(self._arena_spans) != len(self.shards)
        ):
            raise ValueError("need one arena span per shard")
        # External id -> shard routing table, assembled from the shards'
        # own id maps (tombstoned ids stay routed until compacted away).
        self._owner: dict[int, int] = {}
        for j, shard in enumerate(self.shards):
            for e in np.asarray(shard.id_map.externals).tolist():
                if e in self._owner:
                    raise ValueError(f"external id {e} appears in two shards")
                self._owner[e] = j
        top = max(self._owner) + 1 if self._owner else 0
        self._next = max(int(next_id) if next_id is not None else 0, top)
        # Worker-cache token: unique per live index in this process, so
        # a pool worker's preloaded shard cache can never alias another
        # index's graph (generation bumps handle staleness *within* an
        # index's lifetime).
        self._token = f"sharded-{next(_TOKEN_COUNTER)}"
        self._generation = 0
        self._pool: ProcessPoolExecutor | None = None
        self._pool_generation = -1
        self._closed = False

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: Any,
        epsilon: float = 0.5,
        method: str = "gnet",
        metric: MetricSpace | None = None,
        normalize: bool = True,
        shards: int = 2,
        workers: int = 1,
        assignment: str = "random",
        seed: int = 0,
        ids: Sequence[int] | None = None,
        batch_size: Any = "auto",
        backend: str | None = None,
        search_chunk: int = DEFAULT_SEARCH_CHUNK,
        storage: str = "flat",
        **options: Any,
    ) -> "ShardedIndex":
        """Partition ``points`` into ``shards`` and build every shard.

        ``workers > 1`` builds shards in a process pool over a shared
        -memory arena (zero-copy points; coordinate metrics only, since
        workers receive metric *specs*).  ``batch_size="auto"`` enables
        the wave-batched construction engine per shard for the
        insertion builders when ``shards > 1`` (pass ``None`` for the
        sequential reference schedule, or an explicit wave size);
        with ``shards=1`` the default stays sequential so the single
        shard is bit-identical to the flat
        ``ProximityGraphIndex.build`` with the same arguments.

        Shard ``j`` builds with seed ``seed + j``; external ids
        (``ids``, defaulting to ``0..n-1``) are global and stable.

        ``storage`` selects the vector store (``"flat"``/``"sq8"``;
        neither takes options).  SQ8 training runs **once** over the
        whole collection — every shard shares the same offsets / scales
        — and each shard encodes its own rows (see :meth:`set_storage`).

        ``backend`` selects the accel backend for the insertion
        builders' construction inner loops.  With a pooled build the
        parent resolves ``"auto"`` to its concrete warmed backend
        before shipping tasks — pool workers are fresh processes where
        nothing is ever warmed, so ``"auto"`` there would silently mean
        numpy — and each worker warms that backend once on demand.
        """
        # Fail fast on an unknown builder or misspelled build option —
        # BEFORE partitioning and the (potentially multi-process,
        # minutes-long) graph build; a typo must never surface as a
        # worker-process TypeError.
        if backend is not None:
            options["backend"] = backend
        validate_builder_options(method, options)
        if metric is None:
            points = np.asarray(points, dtype=np.float64)
            metric = EuclideanMetric()
        # Fail fast on an unknown storage kind — BEFORE the (potentially
        # multi-process, minutes-long) graph build, mirroring the
        # metric_to_spec fail-fast below.
        validate_storage_options(storage)
        n = len(points)
        rng = np.random.default_rng(seed)
        members = partition_points(points, shards, assignment, rng)
        global_ids = (
            np.asarray(ids, dtype=np.int64)
            if ids is not None
            else np.arange(n, dtype=np.int64)
        )
        if global_ids.shape != (n,):
            raise ValueError(f"need exactly {n} external ids, got {global_ids.shape}")
        if batch_size == "auto":
            batch_size = None
            if shards > 1 and "batch_size" in (builder_options(method) or ()):
                per_shard = int(math.ceil(n / shards))
                batch_size = max(32, min(1024, per_shard // 8))
        if batch_size is not None:
            options["batch_size"] = int(batch_size)

        if workers > 1:
            metric_to_spec(metric)  # fail fast: workers need a spec form
            if options.get("backend") == "auto":
                # Resolve "auto" here, in the parent: a concrete name is
                # shipped only when the workload has a compiled
                # construction path (an explicit backend raises where
                # "auto" falls back, so unsupported workloads keep
                # "auto" and its silent numpy fallback in the workers).
                from repro import accel

                concrete = accel.get_backend()
                if concrete != "numpy" and accel.construction_supported(
                    Dataset(metric, points)
                ):
                    options["backend"] = concrete
            index = cls._build_pooled(
                points, epsilon, method, metric, normalize, members,
                global_ids, workers, assignment, seed, options, search_chunk,
            )
            if storage != "flat":
                index.set_storage(storage)
            return index

        shard_indexes = [
            ProximityGraphIndex.build(
                points[mem],
                epsilon=epsilon,
                method=method,
                metric=None if isinstance(metric, EuclideanMetric) else metric,
                normalize=normalize,
                seed=seed + j,
                ids=global_ids[mem],
                **options,
            )
            for j, mem in enumerate(members)
        ]
        index = cls(
            shard_indexes, seed=seed, workers=workers, assignment=assignment,
            search_chunk=search_chunk,
        )
        if storage != "flat":
            index.set_storage(storage)
        return index

    @classmethod
    def _build_pooled(
        cls,
        points: np.ndarray,
        epsilon: float,
        method: str,
        metric: MetricSpace,
        normalize: bool,
        members: list[np.ndarray],
        global_ids: np.ndarray,
        workers: int,
        assignment: str,
        seed: int,
        options: dict,
        search_chunk: int,
    ) -> "ShardedIndex":
        """Build every shard in a process pool over one shared arena."""
        grouped = np.ascontiguousarray(
            np.asarray(points)[np.concatenate(members)]
        )
        spans: list[tuple[int, int]] = []
        lo = 0
        for mem in members:
            spans.append((lo, lo + len(mem)))
            lo += len(mem)
        # Deliberately *not* closed on success: the arena is adopted by
        # the returned ShardedIndex (shards keep zero-copy views into
        # it) and released by its close(); the except-BaseException
        # below closes it on every build failure.
        arena = SharedArena.create(grouped)  # repro: ignore[arena-hygiene]
        spec = metric_to_spec(metric)
        try:
            tasks = [
                {
                    "shard": j,
                    "arena": arena.spec,
                    "span": spans[j],
                    "metric": spec,
                    "normalize": normalize,
                    "method": method,
                    "epsilon": float(epsilon),
                    "seed": seed + j,
                    "options": options,
                }
                for j in range(len(members))
            ]
            with ProcessPoolExecutor(
                max_workers=min(workers, len(members)), mp_context=_mp_context()
            ) as pool:
                results = list(pool.map(_shard_build_entry, tasks))
        except BaseException:
            arena.close()
            raise
        from repro.core.persistence import _rehydrate_meta
        from repro.metrics.base import ScaledMetric

        shard_indexes = []
        for j, (mem, res) in enumerate(zip(members, results)):
            graph = ProximityGraph.from_csr(
                len(mem), res["offsets"], res["targets"], validate=False
            )
            meta = _rehydrate_meta(res["meta"])
            if res["meta_dropped"]:
                meta["meta_dropped"] = list(res["meta_dropped"])
            built = BuiltGraph(
                name=method,
                graph=graph,
                epsilon=float(epsilon),
                guaranteed=bool(res["guaranteed"]),
                meta=meta,
                options=dict(res["options"]),
            )
            shard_metric = (
                ScaledMetric(metric, res["scale"]) if res["scale"] != 1.0 else metric
            )
            shard_indexes.append(
                ProximityGraphIndex(
                    dataset=Dataset(shard_metric, arena.view(*spans[j])),
                    built=built,
                    scale=float(res["scale"]),
                    seed=seed + j,
                    id_map=IdMap(global_ids[mem]),
                )
            )
        return cls(
            shard_indexes, seed=seed, workers=workers, assignment=assignment,
            arena=arena, arena_spans=spans, search_chunk=search_chunk,
        )

    # ------------------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n(self) -> int:
        """Total vertex count across shards, including tombstones."""
        return sum(s.n for s in self.shards)

    @property
    def active_count(self) -> int:
        return sum(s.active_count for s in self.shards)

    @property
    def tombstone_count(self) -> int:
        return sum(s.tombstone_count for s in self.shards)

    @property
    def unreachable_count(self) -> int:
        """Live points with no in-edge in their shard, summed."""
        return sum(s.unreachable_count for s in self.shards)

    @property
    def epsilon(self) -> float:
        return self.shards[0].epsilon

    # ------------------------------------------------------------------
    # Search: fan out, merge top-k
    # ------------------------------------------------------------------

    def validate_queries(self, Q: Any) -> None:
        """Same front-door check as the flat index (dimension match,
        finite values); see :meth:`ProximityGraphIndex.validate_queries`."""
        self.shards[0].validate_queries(Q)

    def _shard_key(self, j: int) -> tuple:
        return (self._token, self._generation, j)

    def _payload_for(self, j: int) -> dict:
        """The shard's wire form — points by arena reference while its
        dataset is still arena-backed, inline after a mutation replaced
        it."""
        arena_ok = self._arena is not None and self._shard_arena_backed(j)
        return shard_payload(
            self.shards[j],
            arena_spec=self._arena.spec if arena_ok else None,
            span=self._arena_spans[j] if arena_ok else None,
        )

    def _shard_arena_backed(self, j: int) -> bool:
        """A shard stays arena-backed until a mutation replaces its
        point array (add/compact build fresh arrays, never arena rows)."""
        if self._arena is None or self._arena_spans is None:
            return False
        pts = np.asarray(self.shards[j].dataset.points)
        return pts.base is not None and (
            pts.base is self._arena.array
            or pts.base is getattr(self._arena.array, "base", None)
        )

    # ------------------------------------------------------------------
    # Storage: quantizer trained once, shared by every shard
    # ------------------------------------------------------------------

    def set_storage(self, kind: str) -> "ShardedIndex":
        """Re-encode every shard under storage ``kind``, training once.

        SQ8 training (offsets and scales) runs over the shards' points
        together, so all shards share one training state — a fan-out
        search therefore measures every candidate against the same
        geometry, and cross-shard merge order is consistent.  Each shard
        then encodes its own rows under that state.
        """
        validate_storage_options(kind)
        if kind == "flat":
            for shard in self.shards:
                shard.store = FlatStore(shard.dataset.metric, shard.dataset.points)
        else:
            shard_pts = [
                np.asarray(s.dataset.points, dtype=np.float64) for s in self.shards
            ]
            params = train_sq8(np.concatenate(shard_pts))
            total = sum(len(pts) for pts in shard_pts)
            for shard, pts in zip(self.shards, shard_pts):
                shard.store = SQ8Store(
                    shard.dataset.metric, params, encode_sq8(params, pts),
                    trained_on=total,
                )
        self._bump_generation()
        return self

    def search(
        self,
        queries: Any,
        k: int = 1,
        params: SearchParams | None = None,
    ) -> SearchResult:
        """Fan a query batch out to every shard and merge the top-k.

        Same surface as the flat :meth:`ProximityGraphIndex.search`:
        single query or batch, greedy (``k=1``) or beam, budgets and
        ``allowed_ids`` filters (both applied *per shard*), ``-1`` /
        ``inf`` padding where fewer than ``k`` admissible points exist.
        Merged rows order by ``(distance, external id)``; ``evals`` sums
        the per-shard counts, with the breakdown in
        ``SearchResult.shard_evals``.  ``params.starts`` index shard
        vertices and are therefore only accepted with a single shard.
        """
        if self._closed:
            raise RuntimeError("index is closed")
        if k < 1:
            raise ValueError("k must be at least 1")
        if params is None:
            params = SearchParams()
        K = self.n_shards
        if params.starts is not None and K > 1:
            raise ValueError(
                "explicit start vertices are shard-local internal indices; "
                "they are only meaningful with shards=1"
            )
        if K == 1:
            result = self.shards[0].search(queries, k=k, params=params)
            result.shard_evals = result.evals[:, None].copy()
            return result

        # Resolve mode="auto" HERE, not per shard: shards disagree about
        # their tombstone state, and a fan-out where one shard runs
        # greedy (hops) while another runs beam (no hops) cannot merge.
        # "Any tombstone anywhere" stands in for the flat index's mask.
        masked = params.allowed_ids is not None or self.tombstone_count > 0
        params = dataclasses.replace(params, mode=resolve_mode(
            params, k, masked=masked, quantized=self.shards[0].store.is_quantized,
        ))

        # Resolve backend="auto" HERE too: worker processes start with
        # no warmed accel backend, so the parent's resolution (the best
        # backend warmed in *this* process, else "numpy") is pickled
        # into the task dicts as a concrete name — each worker then
        # warms it once per process, reusing the on-disk kernel caches.
        if params.backend == "auto":
            from repro import accel

            params = dataclasses.replace(params, backend=accel.get_backend())

        Q, single = self.shards[0]._normalize_queries(queries)
        # Validate HERE, before the fan-out: a malformed query must be a
        # front-door ValueError, never a worker-process crash.
        self.shards[0].validate_queries(Q)
        m = len(Q)
        if self.workers > 1 and m > 0:
            tasks = [
                {
                    "key": self._shard_key(j),
                    "queries": Q,
                    "k": k,
                    "params": params,
                    "chunk": self.search_chunk,
                }
                for j in range(K)
            ]
            try:
                parts = list(self._ensure_pool().map(shard_search_entry, tasks))
            except BrokenProcessPool:
                # A worker died (OOM kill, hard crash).  The executor is
                # permanently broken; discard it and retry once on a
                # fresh pool so a transient death doesn't disable
                # parallel search for the index's whole life.
                self._discard_pool()
                parts = list(self._ensure_pool().map(shard_search_entry, tasks))
        else:
            parts = [
                run_shard_search(
                    self.shards[j], Q, k, params, chunk=self.search_chunk
                )
                for j in range(K)
            ]
        greedy = all(p["hops"] is not None for p in parts)
        return self._merge(parts, m, k, single, greedy=greedy)

    def _merge(
        self, parts: list[dict], m: int, k: int, single: bool, greedy: bool
    ) -> SearchResult:
        K = len(parts)
        all_ids = np.concatenate([p["ids"] for p in parts], axis=1)
        all_d = np.concatenate([p["distances"] for p in parts], axis=1)
        shard_evals = np.stack([p["evals"] for p in parts], axis=1)
        # Row-wise order by (distance, external id); the -1 padding
        # sorts last via its inf distance and a max-int id key.
        pad_key = np.where(all_ids < 0, np.iinfo(np.int64).max, all_ids)
        order = np.lexsort((pad_key, all_d), axis=1)[:, :k]
        rows = np.arange(m)[:, None]
        ids = all_ids[rows, order] if m else all_ids[:, :k]
        dists = all_d[rows, order] if m else all_d[:, :k]
        hops = None
        if greedy and m:
            # Greedy is k=1: the winning shard is the merged column's
            # shard of origin; report that walk's hop count.
            winner = order[:, 0] // parts[0]["ids"].shape[1]
            all_hops = np.stack([p["hops"] for p in parts], axis=1)
            hops = all_hops[np.arange(m), winner]
        elif greedy:
            hops = np.zeros(0, dtype=np.int64)
        return SearchResult(
            ids=ids,
            distances=dists,
            evals=shard_evals.sum(axis=1),
            hops=hops,
            single=single,
            shard_evals=shard_evals,
        )

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent fan-out pool for the *current* generation.

        Workers preload every shard via the pool initializer (one
        payload transfer per worker per generation), so per-call tasks
        carry only the cache key and the queries.  A mutation bumps the
        generation; the next search tears the stale pool down and
        builds a fresh one over the mutated shards.
        """
        if self._pool is not None and self._pool_generation != self._generation:
            self._discard_pool()
        if self._pool is None:
            K = self.n_shards
            self._pool = ProcessPoolExecutor(
                max_workers=min(self.workers, K),
                mp_context=_mp_context(),
                initializer=preload_shard_cache,
                initargs=(
                    [self._shard_key(j) for j in range(K)],
                    [self._payload_for(j) for j in range(K)],
                ),
            )
            self._pool_generation = self._generation
        return self._pool

    def _discard_pool(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Mutation: routed adds/deletes, per-shard compaction
    # ------------------------------------------------------------------

    def _bump_generation(self) -> None:
        self._generation += 1

    def add(
        self,
        points: Any,
        ids: Sequence[int] | None = None,
        mode: str = "auto",
        batch_size: int = 64,
        backend: str | None = None,
    ) -> np.ndarray:
        """Insert new points; returns their external ids.

        The whole batch routes to the **least-loaded** shard (fewest
        active points; ties to the lowest shard number), which keeps
        shard sizes balanced under streaming ingestion while preserving
        the flat index's ``add`` semantics inside the shard — including
        the ``mode`` knob (``"repair"`` / ``"dynamic"`` / ``"auto"``)
        and its guarantee bookkeeping, and the ``backend`` of the repair
        path, which runs in this process.  Fresh ids are global: unique
        across every shard.
        """
        new_pts, _single = self.shards[0]._normalize_queries(points)
        count = len(new_pts)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        if ids is not None:
            new_ids = np.asarray(ids, dtype=np.int64)
            if new_ids.shape != (count,):
                raise ValueError(
                    f"need exactly {count} external ids, got {new_ids.shape}"
                )
            if len(np.unique(new_ids)) != count:
                raise ValueError("external ids must be unique")
            clash = [int(e) for e in new_ids.tolist() if e in self._owner]
            if clash:
                raise ValueError(f"external ids already in use: {clash[:5]}")
        else:
            new_ids = np.arange(self._next, self._next + count, dtype=np.int64)
        target = min(
            range(self.n_shards), key=lambda j: (self.shards[j].active_count, j)
        )
        out = self.shards[target].add(
            new_pts, ids=new_ids, mode=mode, batch_size=batch_size,
            backend=backend,
        )
        for e in out.tolist():
            self._owner[int(e)] = target
        self._next = max(self._next, int(out.max()) + 1)
        self._bump_generation()
        return out

    def delete(self, ids: Any) -> int:
        """Tombstone points by external id, each in its owning shard;
        returns how many were newly deleted.  Unknown ids raise
        ``KeyError`` *before* anything mutates."""
        arr = np.atleast_1d(np.asarray(ids, dtype=np.int64))
        groups: dict[int, list[int]] = {}
        for e in arr.tolist():
            if int(e) not in self._owner:
                raise KeyError(f"unknown external id {int(e)}")
            groups.setdefault(self._owner[int(e)], []).append(int(e))
        removed = sum(
            self.shards[j].delete(members) for j, members in groups.items()
        )
        if removed:
            self._bump_generation()
        return removed

    def compact(self, seed: int | None = None) -> "ShardedIndex":
        """Rebuild every shard that carries tombstones, dropping them.

        External ids are preserved; a shard compacted below 2 survivors
        raises (like the flat index) with the shard named, leaving the
        other shards untouched.  With quantized storage the quantizer
        retrains **shared**, like the build: one training pass over the
        surviving collection, the same offsets/scales in every shard
        — per-shard retraining would leave the fan-out measuring
        candidates against diverging geometries.
        """
        store0 = self.shards[0].store
        storage_kind, quantized = store0.kind, store0.is_quantized
        if not any(s.tombstone_count for s in self.shards):
            return self
        if quantized:
            # Drop to flat stores for the compaction itself, so the flat
            # index's per-shard retrain is a cheap array rebind instead
            # of K wasted local quantizer trainings; the shared training
            # pass below is the only real one.
            for shard in self.shards:
                shard.store = FlatStore(
                    shard.dataset.metric, shard.dataset.points
                )
        try:
            for j, shard in enumerate(self.shards):
                if not shard.tombstone_count:
                    continue
                try:
                    shard.compact(seed=seed)
                except ValueError as exc:
                    raise ValueError(f"shard {j}: {exc}") from exc
        finally:
            if quantized:
                # One shared training pass over the survivors (or, on a
                # failed compact, over the untouched collection — the
                # quantized state must be restored either way).
                self.set_storage(storage_kind)
        survivors = set()
        for shard in self.shards:
            survivors.update(np.asarray(shard.id_map.externals).tolist())
        self._owner = {e: j for e, j in self._owner.items() if e in survivors}
        self._bump_generation()
        return self

    def snapshot(self) -> "ShardedIndex":
        """A mutation-isolated copy that owns its own (arena-free) memory.

        Each shard is snapshotted like the flat index (shared immutable
        arrays, private mutation containers) — but any shard whose
        points are still *views into this index's shared-memory arena*
        gets them copied into private arrays first: the original index
        unlinks its arena on :meth:`close` (or garbage collection), which
        would invalidate every view a longer-lived snapshot still holds.
        The copy therefore starts arena-free and with no worker pool;
        fan-out search lazily spawns its own pool and ships the (now
        inline) shard payloads, exactly like any post-mutation shard.
        """
        shards = []
        for j, shard in enumerate(self.shards):
            snap = shard.snapshot()
            if self._shard_arena_backed(j):
                pts = np.array(np.asarray(snap.dataset.points), copy=True)
                snap.dataset = Dataset(snap.dataset.metric, pts)
                if snap.store.kind == "flat":
                    # Rebind onto the private copy; quantized stores keep
                    # their codes and never touch the arena points.
                    snap.store = snap.store.refresh(snap.dataset, 0)
            shards.append(snap)
        return ShardedIndex(
            shards,
            seed=self.seed,
            workers=self.workers,
            assignment=self.assignment,
            arena=None,
            next_id=self._next,
            search_chunk=self.search_chunk,
        )

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Aggregate structural summary plus the per-shard breakdown."""
        per_shard = []
        for j, shard in enumerate(self.shards):
            s = shard.stats()
            per_shard.append(
                {
                    "shard": j,
                    "n": s["n"],
                    "edges": s["edges"],
                    "active": s["active"],
                    "tombstones": s["tombstones"],
                    "unreachable": s["unreachable"],
                }
            )
        out = {
            "kind": "sharded",
            "shards": self.n_shards,
            "assignment": self.assignment,
            "workers": self.workers,
            "builder": self.shards[0].built.name,
            "epsilon": self.epsilon,
            "guaranteed": all(s.built.guaranteed for s in self.shards),
            "n": self.n,
            "edges": sum(p["edges"] for p in per_shard),
            "active": self.active_count,
            "tombstones": self.tombstone_count,
            "unreachable": sum(p["unreachable"] for p in per_shard),
            "per_shard": per_shard,
        }
        storage = dict(self.shards[0].store.summary())
        storage["n"] = int(self.n)
        storage["drift"] = int(sum(s.store.drift for s in self.shards))
        out["storage"] = storage
        from repro import accel

        out["accel"] = accel.backend_status()
        return out

    def save(
        self, path: Any, format: str = "npz", compress: bool = True
    ) -> Path:
        """Persist as a format-v3 manifest directory (one ``.npz`` — or,
        with ``format="disk"``, one v5 directory — per shard); see
        :func:`repro.core.persistence.save_sharded_index`.
        """
        from repro.core.persistence import save_sharded_index

        return save_sharded_index(self, path, format=format, compress=compress)

    @classmethod
    def load(cls, path: Any) -> "ShardedIndex":
        """Load a directory written by :meth:`save`; ``format="disk"``
        shards attach lazily via ``np.memmap``."""
        from repro.core.persistence import load_sharded_index

        return load_sharded_index(path, cls)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut down the search pool and release the shared arena.

        After closing, in-process state (the shards) remains usable
        only for introspection; call it when the index's serving life
        ends.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._discard_pool()
        if self._arena is not None:
            # Detach every shard dataset from the arena before the
            # backing block unlinks (copies only still-arena-backed
            # shards, typically after the serving phase is over).
            for j, shard in enumerate(self.shards):
                if self._shard_arena_backed(j):
                    shard.dataset = Dataset(
                        shard.dataset.metric,
                        np.array(shard.dataset.points, copy=True),
                    )
                    # A flat store references the same rows; rebind it
                    # to the copied array before the block unlinks.
                    shard.store = shard.store.refresh(shard.dataset, 0)
            self._arena.close()
            self._arena = None
        self._arena_spans = None

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC backstop
        try:
            self.close()
        except Exception:
            pass
