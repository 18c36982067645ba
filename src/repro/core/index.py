"""``ProximityGraphIndex`` — the library's front door.

Wraps the whole pipeline a user needs for (1+eps)-ANN search:

1. wrap raw points + metric into a dataset,
2. normalize so the minimum inter-point distance is 2 (Section 2.1's
   convention; a pure rescaling, undone transparently on output),
3. build a proximity graph with any registered builder,
4. answer queries through one entry point — :meth:`search` — which
   accepts a single query or a batch, routes everything through the
   vectorized lockstep engine, and reports distances in *original*
   units,
5. mutate the collection in place: :meth:`add` grows it (wave-batched
   graph repair, or true online net maintenance for ``gnet`` indexes),
   :meth:`delete` tombstones points out of the result set, and
   :meth:`compact` rebuilds to reclaim them — all under *stable
   external ids* that survive every mutation and a ``save``/``load``
   round trip.

Example
-------
>>> import numpy as np
>>> from repro import ProximityGraphIndex, SearchParams
>>> rng = np.random.default_rng(7)
>>> points = rng.uniform(size=(500, 2))
>>> index = ProximityGraphIndex.build(points, epsilon=0.5, method="gnet")
>>> result = index.search(np.array([0.5, 0.5]))          # single query
>>> nn_id, dist = result.top1()
>>> batch = index.search(rng.uniform(size=(64, 2)), k=10)  # (64, 10) ids
"""

from __future__ import annotations

import math
from typing import Any, Sequence

import numpy as np

from repro.core.builders import (
    BuiltGraph,
    build,
    builder_options,
    validate_builder_options,
)
from repro.core.search import IdMap, SearchParams, SearchResult, resolve_mode
from repro.core.stats import QueryStats, measure_queries
from repro.graphs.base import ProximityGraph, check_vertex_count
from repro.graphs.engine import (
    RepairInserter,
    beam_search_batch,
    bulk_insert,
    greedy_batch,
    rerank_pools,
)
from repro.graphs.greedy import BeamBatch
from repro.graphs.navigability import NavigabilityViolation, find_violations
from repro.metrics.base import Dataset, MetricSpace
from repro.metrics.euclidean import EuclideanMetric, lp_decompose
from repro.metrics.scaling import normalize_min_distance
from repro.storage import make_store, validate_storage_options
from repro.storage.base import VectorStore
from repro.storage.flat import FlatStore

__all__ = ["ProximityGraphIndex"]


def _unfound(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(m, k)`` result arrays holding nothing found: ids -1, distances inf."""
    ids, dists = np.empty((m, k), dtype=np.int64), np.empty((m, k))
    ids.fill(-1)
    dists.fill(np.inf)
    return ids, dists


class ProximityGraphIndex:
    """A proximity-graph ANN index over a mutable, id-stable collection.

    Use :meth:`build` rather than the constructor.  Attributes of note:
    ``graph`` (the underlying :class:`ProximityGraph`), ``dataset`` (the
    normalized dataset), ``built`` (builder provenance, including
    theoretical parameters in ``built.meta``), ``scale`` (the
    normalization factor; reported distances are already divided back),
    and ``id_map`` (the stable external↔internal id translation).
    """

    def __init__(
        self,
        dataset: Dataset,
        built: BuiltGraph,
        scale: float,
        seed: int = 0,
        id_map: IdMap | None = None,
        tombstones: np.ndarray | None = None,
        store: VectorStore | None = None,
    ) -> None:
        self.dataset = dataset
        self.built = built
        self.scale = scale
        self.seed = int(seed)
        # How the vectors are held for traversal; FlatStore (exact, the
        # raw array) unless build()/set_storage() installed a quantizer.
        self.store: VectorStore = (
            store
            if store is not None
            else FlatStore(dataset.metric, dataset.points)
        )
        self.id_map = id_map if id_map is not None else IdMap.identity(dataset.n)
        if len(self.id_map) != dataset.n:
            raise ValueError("id map must cover every point")
        self._set_tombstones(
            np.asarray(tombstones, dtype=bool).copy()
            if tombstones is not None
            else np.zeros(dataset.n, dtype=bool)
        )
        if self._tombstones.shape != (dataset.n,):
            raise ValueError("tombstone mask must cover every point")
        self._dynamic = None  # DynamicGNet, after a gnet index's first add()
        # Last default start draw: ((seed, n, m), starts); see _default_starts.
        self._start_draw: tuple[tuple[int, int, int], np.ndarray] | None = None

    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls,
        points: Any,
        epsilon: float = 0.5,
        method: str = "gnet",
        metric: MetricSpace | None = None,
        normalize: bool = True,
        seed: int = 0,
        ids: Sequence[int] | None = None,
        storage: str = "flat",
        **options: Any,
    ) -> "ProximityGraphIndex":
        """Build an index over raw points.

        Parameters
        ----------
        points:
            ``(n, d)`` float array for Euclidean metrics, or whatever the
            supplied ``metric`` understands (ids for abstract metrics).
        epsilon:
            The target approximation: queries return (1+eps)-ANNs
            (guaranteed for ``method`` in {"gnet", "theta", "merged",
            "diskann", "complete"}).
        method:
            Any registered builder; see
            :func:`repro.core.builders.available_builders`.
        normalize:
            Rescale so the minimum inter-point distance is 2 (required by
            the paper's constructions; disable only if the input already
            satisfies it).
        ids:
            Optional external id per point (unique integers).  Defaults
            to ``0..n-1``.  External ids are what :meth:`search` returns
            and what :meth:`delete` accepts, and they stay stable under
            every mutation.
        storage:
            How the index *holds* its vectors for graph traversal:
            ``"flat"`` (raw float array, exact — the default, and
            bit-identical to indexes built before the storage layer) or
            ``"sq8"`` (8-bit scalar quantization).  Quantized indexes
            traverse compressed and exact-rerank an over-fetched pool —
            see ``SearchParams.rerank_factor``.  Neither kind takes
            options.

        Extra options (including ``batch_size``, the batched
        construction wave size for the insertion builders — see
        :func:`repro.core.builders.build`) pass through to the builder.
        """
        rng = np.random.default_rng(seed)
        # Fail fast on an unknown builder or a misspelled build option
        # (e.g. builder= instead of method=), BEFORE the normalization
        # pass (a closest-pair search) and the graph build.
        validate_builder_options(method, options)
        check_vertex_count(len(points))
        if metric is None:
            points = np.asarray(points, dtype=np.float64)
            metric = EuclideanMetric()
        # Fail fast on an unknown storage kind, BEFORE the graph build.
        validate_storage_options(storage)
        dataset = Dataset(metric, points)
        scale = 1.0
        if normalize:
            dataset, scale = normalize_min_distance(dataset)
        built = build(method, dataset, epsilon, rng, **options)
        id_map = IdMap(ids) if ids is not None else IdMap.identity(dataset.n)
        if len(id_map) != dataset.n:
            raise ValueError(
                f"need exactly {dataset.n} external ids, got {len(id_map)}"
            )
        store = make_store(storage, dataset.metric, dataset.points)
        return cls(
            dataset=dataset, built=built, scale=scale, seed=seed,
            id_map=id_map, store=store,
        )

    # ------------------------------------------------------------------

    @property
    def graph(self) -> ProximityGraph:
        return self.built.graph

    @property
    def epsilon(self) -> float:
        return self.built.epsilon

    @property
    def n(self) -> int:
        """Total vertex count, including tombstoned points."""
        return self.dataset.n

    @property
    def active_count(self) -> int:
        """Points that searches may return (not tombstoned)."""
        return self._live_count

    @property
    def tombstone_count(self) -> int:
        return self.n - self._live_count

    @property
    def unreachable_count(self) -> int:
        """Live points no edge leads to: a search returns one only when
        it starts there.  A tombstoned point's out-edges still count, as
        searches still route through it.  A target outside ``[0, n)`` (a
        corrupt file, which ``repro index info --validate`` names) reaches
        nothing."""
        targets = self.graph.csr()[1]
        targets = targets[(targets >= 0) & (targets < self.n)]
        in_degree = np.bincount(targets, minlength=self.n)
        return int(np.count_nonzero((in_degree == 0) & ~self._tombstones))

    def _set_tombstones(self, tombstones: np.ndarray) -> None:
        """Install the deletion mask and what searches read off it, the live
        mask (``None`` while nothing is deleted) and its count: every change
        of the mask comes through here, so no search pays O(n) for it."""
        self._tombstones = tombstones
        self._live_count = len(tombstones) - int(np.count_nonzero(tombstones))
        self._live = ~tombstones if self._live_count < len(tombstones) else None

    # ------------------------------------------------------------------
    # The unified search entry point
    # ------------------------------------------------------------------

    def _point_rank(self) -> int:
        return max(self.dataset.points.ndim - 1, 0)

    def _normalize_queries(self, queries: Any) -> tuple[Any, bool]:
        """Canonicalize to a batch array; flag whether input was single.
        Real coordinate queries become float64 here, once: the numpy engines
        promote to these very floats, and the compiled kernels read no other."""
        if isinstance(queries, np.ndarray):
            arr = queries
        else:
            try:
                arr = np.asarray(queries)
            except ValueError:  # ragged input
                arr = np.empty(len(queries), dtype=object)
                arr[:] = list(queries)
        rank = self._point_rank()
        if arr.size == 0 and arr.ndim <= max(rank, 1):
            # An empty batch ([] or np.array([])) — never a single query.
            shape = (0,) + np.asarray(self.dataset.points).shape[1:]
            return np.empty(shape, dtype=np.float64), False
        if rank == 1 and arr.dtype != np.float64 and arr.dtype.kind in "biuf":
            arr = arr.astype(np.float64)
        if arr.ndim == rank:
            return arr[None] if rank else arr.reshape(1), True
        return arr, False

    def validate_queries(self, Q: Any) -> None:
        """Front-door input validation of a canonicalized query batch.

        Coordinate indexes reject what a network-facing caller will send
        first, each with a ``ValueError`` that names it: a batch that is
        not 2-D, a dtype that is not real (complex, strings), the wrong
        dimensionality, non-finite values.  Each used to fail deep inside
        an engine, or not at all (NaN and complex queries returned
        arbitrary ids).  Abstract-metric indexes (object points, id-based
        metrics) pass through — there is no coordinate shape to check.
        """
        arr = np.asarray(Q)
        if arr.dtype == object:
            return
        shape = self.dataset.points.shape
        if len(shape) == 2:
            if arr.ndim != 2:
                raise ValueError(
                    f"query batch has shape {arr.shape}; expected ({shape[1]},) "
                    f"for one query or (m, {shape[1]}) for a batch"
                )
            if arr.dtype.kind not in "biuf":
                raise ValueError(f"queries must be real numbers, got dtype {arr.dtype}")
            if len(arr) and arr.shape[1] != shape[1]:
                raise ValueError(
                    f"query dim {arr.shape[1]} does not match index dim {shape[1]}"
                )
        if arr.dtype.kind == "f" and np.count_nonzero(np.isfinite(arr)) < arr.size:
            raise ValueError("query contains non-finite values")

    def _allowed_mask(self, params: SearchParams) -> tuple[np.ndarray | None, int]:
        """Combined tombstone + filter mask (``None`` when inactive) and
        how many points it admits."""
        if params.allowed_ids is None:
            return self._live, self._live_count
        mask = np.zeros(self.n, dtype=bool)
        mask[self.id_map.to_internal_known(params.allowed_ids)] = True
        if self._live is not None:
            mask &= self._live
        return mask, int(np.count_nonzero(mask))

    def search(
        self,
        queries: Any,
        k: int = 1,
        params: SearchParams | None = None,
    ) -> SearchResult:
        """Answer one query or a batch — the single front door.

        Routes everything through the vectorized lockstep engine: the
        paper's greedy routine for plain ``k=1`` searches, best-first
        beam search otherwise (``k > 1``, an explicit ``beam_width``, an
        active filter, or quantized storage).  Returns a
        :class:`SearchResult` with dense ``(m, k)`` arrays of external
        ids and original-unit distances plus per-query cost stats.  See
        :class:`SearchParams` for every knob (budget, starts/seed,
        ``allowed_ids`` filtering, ``rerank_factor``).  Calls with
        identical arguments return identical results: default start
        vertices come from a fresh seeded generator, never shared state.

        With quantized storage (``sq8``) the search is **two-stage**:
        the graph walk runs over the store's compressed codes, an
        over-fetched pool of ``k * rerank_factor`` candidates survives,
        and one exact-distance pass over the raw vectors returns the top
        ``k`` — reported distances are always exact, in original units.
        The rerank's exact evaluations are included in ``evals`` (they
        are not subject to ``budget``, which caps traversal only).
        """
        if k < 1:
            raise ValueError("k must be at least 1")
        if params is None:
            params = SearchParams()
        Q, single = self._normalize_queries(queries)
        self.validate_queries(Q)
        m = len(Q)
        allowed, admitted = self._allowed_mask(params)

        store = self.store
        quantized = store.is_quantized
        rerank = (
            params.rerank_factor
            if params.rerank_factor is not None
            else store.default_rerank_factor
        )
        traversal_store = store if quantized else None

        mode = resolve_mode(params, k, masked=allowed is not None, quantized=quantized)
        if mode == "greedy" and k != 1:
            raise ValueError(
                "greedy returns a single neighbor; use mode='beam' (or "
                "mode='auto') for k > 1"
            )

        if m == 0 or not admitted:
            ids, dists = _unfound(m, k)
            evals = np.zeros(m, dtype=np.int64)
            hops = np.zeros(m, dtype=np.int64) if mode == "greedy" else None
            return SearchResult(ids, dists, evals, hops=hops, single=single)

        if params.starts is not None:
            starts = np.asarray(params.starts, dtype=np.intp)
            if len(starts) != m:
                raise ValueError("need exactly one start vertex per query")
        else:
            starts = self._default_starts(
                self.seed if params.seed is None else params.seed, m
            )

        if mode == "greedy":
            results = greedy_batch(
                self.graph, self.dataset, starts, Q,
                budget=params.budget, allowed=allowed, store=traversal_store,
                backend=params.backend,
            )
            # Each walk's end is a pool of one; over codes, the rerank prices it.
            found = BeamBatch(
                np.array([[r.point] for r in results], dtype=np.int64),
                np.array([[r.distance] for r in results]),
                np.fromiter((r.distance_evals for r in results), dtype=np.int64, count=m),
            )
            if quantized:
                found = rerank_pools(self.dataset, store, Q, found, k)
            hops = np.fromiter((len(r.hops) for r in results), dtype=np.int64, count=m)
        else:
            # Quantized (or an explicit rerank_factor > 1) over-fetches the
            # pool; the beam width only grows when the fetch count would not
            # fit it, so "equal beam width" comparisons across storages stay
            # equal-width.  Over codes the beam reranks its pool exactly
            # (stage 2); a flat store's pool is exact already, so its first
            # k of the wider beam are the answer.
            two_stage = quantized or rerank > 1
            k_fetch = int(math.ceil(k * rerank)) if two_stage else k
            width = params.beam_width if params.beam_width is not None else max(2 * k, 16)
            if two_stage:
                # Only the over-fetched pool may widen the beam; a plain
                # search honors an explicit beam_width < k exactly as the
                # pre-storage pipeline did (it returns at most width hits).
                width = max(width, k_fetch)
            if allowed is not None:
                # A pool wider than the admissible set can never fill, which
                # would disable the beam bound and degenerate to exhaustive
                # traversal; clamp so termination stays meaningful.
                width = max(min(width, admitted), 1)
                k_fetch = min(k_fetch, width) if two_stage else k_fetch
            found = beam_search_batch(
                self.graph, self.dataset, starts, Q,
                beam_width=width, k=k_fetch if quantized else k, budget=params.budget,
                allowed=allowed, store=traversal_store, backend=params.backend,
                rerank=k if quantized else None,
            )
            hops = None
        ids, dists, evals = found.ids, found.dists, found.evals
        if self.scale != 1.0:
            dists /= self.scale  # a fresh array on both paths above
        return SearchResult(
            self.id_map.to_external(ids), dists, evals, hops=hops, single=single
        )

    def _default_starts(self, seed: int, m: int) -> np.ndarray:
        """``default_rng(seed).integers(n, size=m)``, the last draw kept:
        a caller that repeats one batch size and seed — a query loop —
        builds no generator after its first call.  Every such call gets
        the same array; the engines only read it."""
        key = (seed, self.n, m)
        memo = self._start_draw
        if memo is None or memo[0] != key:
            starts = np.random.default_rng(seed).integers(self.n, size=m)
            memo = self._start_draw = (key, starts)
        return memo[1]

    # ------------------------------------------------------------------
    # Mutation: add / delete / compact
    # ------------------------------------------------------------------

    def add(
        self,
        points: Any,
        ids: Sequence[int] | None = None,
        mode: str = "auto",
        batch_size: int = 64,
        backend: str | None = None,
    ) -> np.ndarray:
        """Insert new points; returns their external ids.

        ``mode`` selects how the graph absorbs them:

        * ``"repair"`` — Vamana-style incremental repair, wave-batched
          through :func:`~repro.graphs.engine.bulk_insert`: candidates
          located by lockstep beam search, out-edges RobustPruned,
          backlinks re-pruned on overflow.  Works for every builder and
          metric, but forfeits the paper's worst-case guarantee
          (``built.guaranteed`` drops to ``False``).
        * ``"dynamic"`` — true online insertion via
          :class:`~repro.graphs.dynamic.DynamicGNet`, maintaining
          Theorem 1.1's net invariants so the (1+eps) guarantee
          *survives*.  Only for ``gnet`` indexes over coordinate
          metrics; the first call upgrades the index (an O(n) one-time
          re-insertion, after which the graph is the dynamic net's —
          equally guaranteed, not edge-identical to the static build).
          Points closer than the normalized minimum distance or outside
          the domain headroom are rejected *before* anything mutates.
        * ``"auto"`` — ``"dynamic"`` where it applies, else ``"repair"``.
          If the dynamic path rejects the batch (points closer than the
          normalized minimum, or outside the domain headroom), auto
          falls back to repair — the add succeeds, and
          ``built.guaranteed`` records that the guarantee lapsed.
          Force ``mode="dynamic"`` to get the rejection instead.

        New points are given in original units, like :meth:`build`.
        ``ids`` assigns their external ids (fresh ones by default).
        ``backend`` selects the accel backend for the repair path's
        wave location and RobustPrune (the engine-wide seam:
        ``None``/``"numpy"`` = pinned engines, ``"auto"`` = best warmed
        compiled backend, explicit names warm on demand); the dynamic
        path maintains net invariants in numpy regardless.
        """
        if mode not in ("auto", "repair", "dynamic"):
            raise ValueError(f"unknown add mode {mode!r}")
        new_pts, _single = self._normalize_queries(points)
        new_pts = np.asarray(new_pts)
        count = len(new_pts)
        if count == 0:
            return np.empty(0, dtype=np.int64)
        # Validate the prospective ids BEFORE any structure grows, so an
        # id clash can never leave graph/dataset/id-map inconsistent.
        self.id_map.check_assignable(count, ids)
        if mode == "dynamic":
            self._add_dynamic(new_pts)
        elif mode == "repair" or not self._dynamic_feasible():
            self._add_repair(new_pts, batch_size=batch_size, backend=backend)
        else:
            try:
                self._add_dynamic(new_pts)
            except ValueError:
                # Batch (or upgrade) rejected by the net's preconditions;
                # pre-validation left everything untouched, so the
                # generic path can absorb the points instead.
                self._add_repair(new_pts, batch_size=batch_size, backend=backend)
        self._set_tombstones(
            np.concatenate([self._tombstones, np.zeros(count, dtype=bool)])
        )
        # Keep the vector store in step: quantized stores encode the new
        # rows through their *frozen* training state and count them as
        # drift (surfaced in stats(); compact() retrains and resets it).
        self.store = self.store.refresh(self.dataset, count)
        return self.id_map.assign(count, ids)

    def _dynamic_feasible(self) -> bool:
        return (
            self.built.name == "gnet"
            and self._point_rank() == 1
            and lp_decompose(self.dataset.metric) is not None
        )

    def _dynamic_factor(self) -> float:
        decomposed = lp_decompose(self.dataset.metric)
        return decomposed[1] if decomposed is not None else 1.0

    def _upgrade_dynamic(self) -> None:
        """First dynamic add: adopt the collection into a DynamicGNet.

        Coordinate norms are homogeneous, so scaling the *coordinates*
        by the normalization factor reproduces the scaled metric's
        distances under the plain inner metric — exactly the convention
        :class:`DynamicGNet` requires.
        """
        from repro.graphs.dynamic import DynamicGNet

        decomposed = lp_decompose(self.dataset.metric)
        if decomposed is None or not self._dynamic_feasible():
            raise ValueError(
                "mode='dynamic' requires a gnet index over a coordinate "
                "metric; use mode='repair'"
            )
        inner, factor = decomposed
        coords = np.asarray(self.dataset.points, dtype=np.float64) * factor
        try:
            self._dynamic = DynamicGNet.from_points(inner, coords, self.epsilon)
        except ValueError as exc:
            raise ValueError(
                "cannot upgrade this index to online insertion "
                f"({exc}); was it built with normalize=False over "
                "unnormalized points?  Use add(..., mode='repair')."
            ) from exc

    def _add_dynamic(self, new_pts: np.ndarray) -> None:
        if self._dynamic is None:
            self._upgrade_dynamic()
        net = self._dynamic
        scaled = np.asarray(new_pts, dtype=np.float64) * self._dynamic_factor()
        if scaled.ndim != 2 or scaled.shape[1] != net.dim:
            raise ValueError(f"expected (c, {net.dim}) new points")
        # Pre-validate the whole batch (against the net AND batch-mates)
        # so a rejection leaves the index untouched.
        for j, x in enumerate(scaled):
            reason = net.rejection_reason(x)
            if reason is None and j:
                d = net.metric.distances(x, scaled[:j])
                if float(d.min()) < net.min_distance:
                    reason = (
                        "insertion violates the declared minimum "
                        "inter-point distance (within the added batch)"
                    )
            if reason is not None:
                raise ValueError(f"cannot add point {j}: {reason}")
        net.insert_many(scaled, prevalidated=True)
        self._adopt_dynamic_state(new_pts)

    def _adopt_dynamic_state(self, new_pts: np.ndarray) -> None:
        points = np.concatenate([np.asarray(self.dataset.points), new_pts], axis=0)
        self.dataset = Dataset(self.dataset.metric, points)
        self.built.graph = self._dynamic.graph()
        # Static net provenance no longer describes the graph.
        for stale in ("hierarchy", "level_sizes", "level_edge_counts"):
            self.built.meta.pop(stale, None)
        self.built.meta["params"] = self._dynamic.params
        self.built.meta["dynamic"] = True
        # The upgrade re-validated every point into a proper net, so the
        # Theorem 1.1 guarantee holds for the whole collection — even if
        # an earlier repair add had lapsed it.
        self.built.guaranteed = True

    def _add_repair(
        self, new_pts: np.ndarray, batch_size: int, backend: str | None = None
    ) -> None:
        """Link ``new_pts`` into the graph by wave-batched repair.

        Cost per call: distance work proportional to ``count * beam *
        degree`` (locate + RobustPrune, through ``backend``), plus a
        constant number of array copies of the point and edge arrays —
        the CSR is loaded into :class:`RepairInserter`'s padded row
        store (the one adjacency a Vamana build also runs on), repaired
        there, and read back out as a new CSR, all with array ops.  Nothing
        here visits every vertex or edge in Python.  The entry point is
        a real sample medoid, unlike ``VamanaIndex``'s (see its
        ``__init__``).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        n_old, count = self.dataset.n, len(new_pts)
        points = np.concatenate([np.asarray(self.dataset.points), new_pts], axis=0)
        dataset = Dataset(self.dataset.metric, points)
        graph = self.graph
        degree_cap = max(8, int(math.ceil(graph.mean_out_degree())))
        # Entry point: the medoid of a sample — the sample member with
        # the smallest summed distance to the rest (metric-generic).
        sample = np.random.default_rng(self.seed).choice(
            n_old, size=min(n_old, 256), replace=False
        )
        pair = dataset.metric.pairwise(dataset.points[sample])
        entry = int(sample[np.argmin(pair.sum(axis=1))])
        inserter = RepairInserter(
            dataset, graph, entry,
            max_degree=degree_cap, beam_width=max(32, 2 * degree_cap),
            backend=backend,
        )
        bulk_insert(inserter, range(n_old, n_old + count), batch_size, ramp=False)
        self.dataset = dataset
        self.built.graph = inserter.graph()
        # Any dynamic net predates the repair and no longer mirrors the
        # collection; the next dynamic add must re-upgrade from scratch.
        self._dynamic = None
        if self.built.guaranteed:
            # Repair has no worst-case proof; be honest about it.
            self.built.guaranteed = False
        self.built.meta["repaired_inserts"] = (
            int(self.built.meta.get("repaired_inserts", 0)) + count
        )

    def delete(self, ids: Any) -> int:
        """Tombstone points by external id; returns how many were newly
        deleted.

        Tombstoned points stay in the graph as routing waypoints (so
        navigability is unharmed) but are excluded from every result
        set.  Unknown ids raise ``KeyError``; deleting an id twice is a
        no-op.  Call :meth:`compact` to physically remove them.
        """
        internal = self.id_map.to_internal(ids)
        newly = int((~self._tombstones[internal]).sum())
        self._tombstones[internal] = True
        self._set_tombstones(self._tombstones)
        return newly

    def compact(self, seed: int | None = None) -> "ProximityGraphIndex":
        """Rebuild over the surviving points, dropping tombstones.

        Replays the original construction (same builder, epsilon, and
        recorded options) on the survivors, on ``backend="auto"`` where
        the builder takes one; external ids are preserved, internal
        indices renumber densely.  A no-op without tombstones.  Returns
        ``self`` for chaining.
        """
        if self._live is None:
            return self
        keep = np.flatnonzero(self._live)
        if len(keep) < 2:
            raise ValueError(
                "compacting would leave fewer than 2 points (the paper "
                "assumes n >= 2); delete less or rebuild from scratch"
            )
        points = np.asarray(self.dataset.points)[keep]
        dataset = Dataset(self.dataset.metric, points)
        rng = np.random.default_rng(self.seed if seed is None else seed)
        self.built = build(
            self.built.name, dataset, self.epsilon, rng,
            backend="auto" if "backend" in (builder_options(self.built.name) or ()) else None,
            **self.built.options,
        )
        self.dataset = dataset
        self.id_map = self.id_map.compact(keep)
        self._set_tombstones(np.zeros(len(keep), dtype=bool))
        self._dynamic = None
        # Retrain the store over the survivors: post-build adds were
        # encoded with stale training statistics (the drift counter);
        # compaction is where that debt is repaid.
        self.store = self.store.retrained(self.dataset)
        return self

    def snapshot(self) -> "ProximityGraphIndex":
        """A mutation-isolated copy sharing the immutable bulk data.

        The copy shares the (never mutated in place) heavy arrays —
        points, graph CSR, quantized codes — but owns every container a
        mutation writes through: the :class:`BuiltGraph` wrapper (whose
        ``graph``/``meta`` attributes ``add`` rebinds), the
        ``meta``/``options`` dicts, the id map, the tombstone mask, and
        the vector store.  ``add``/``delete``/``compact`` on either side
        are invisible to the other, which is what the serving layer's
        copy-mutate-swap writer relies on: readers keep traversing the
        old object while the writer grows the snapshot.

        Any online-insertion net (``mode="dynamic"`` state) is *not*
        carried over — the first dynamic add on the snapshot re-upgrades
        from its own collection, so the guarantee story is unchanged.
        """
        built = BuiltGraph(
            name=self.built.name,
            graph=self.built.graph,
            epsilon=self.built.epsilon,
            guaranteed=self.built.guaranteed,
            meta=dict(self.built.meta),
            options=dict(self.built.options),
        )
        return ProximityGraphIndex(
            dataset=self.dataset,
            built=built,
            scale=self.scale,
            seed=self.seed,
            id_map=self.id_map.clone(),
            tombstones=self._tombstones,  # the constructor copies
            store=self.store.clone(),
        )

    def set_storage(self, kind: str) -> "ProximityGraphIndex":
        """Re-encode the collection under a different vector storage.

        Trains a fresh store of ``kind`` (``"flat"``/``"sq8"``)
        over the current points and installs it; the graph is untouched,
        only traversal distances change.  Returns ``self`` for chaining.
        """
        self.store = make_store(kind, self.dataset.metric, self.dataset.points)
        return self

    # ------------------------------------------------------------------
    # Persistence (v4 .npz or v5 directory; see repro.core.persistence)
    # ------------------------------------------------------------------

    def save(
        self, path: Any, format: str = "npz", compress: bool = True
    ) -> Any:
        """Serialize this index — one ``.npz`` file (format v4) by
        default, or a v5 disk directory with ``format="disk"``.

        Either form holds the graph's CSR arrays verbatim, the
        normalized points, the external id map and tombstone mask, the
        vector store's codes + training state (offsets / scales, when
        quantized), and a JSON header with the builder provenance,
        scale, build options, metric spec, and storage spec — a loaded
        index answers :meth:`search` with identical ids and distances.
        ``compress=False`` trades ``.npz`` file size for save speed;
        the disk format writes raw files and ignores it.  Indexes over
        non-coordinate metrics (counting wrappers, tree metrics,
        explicit matrices) raise :class:`NotImplementedError` instead
        of pickling.
        """
        from repro.core.persistence import save_index

        return save_index(self, path, format=format, compress=compress)

    @classmethod
    def load(cls, path: Any) -> "ProximityGraphIndex":
        """Load an index previously written by :meth:`save` (v4 or v5).

        A v5 disk directory attaches via ``np.memmap`` (millisecond
        opens, vectors paged in only at rerank); a ``.npz`` file loads
        into RAM.
        """
        from repro.core.persistence import load_index

        return load_index(path, cls)

    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Structural summary plus theory-side context when available."""
        out = dict(self.built.graph.summary())
        out["builder"] = self.built.name
        out["epsilon"] = self.epsilon
        out["guaranteed"] = self.built.guaranteed
        params = self.built.meta.get("params")
        if params is not None:
            out["h"] = params.height
            out["phi"] = params.phi
            out["log2_aspect_ratio"] = params.height - 1
        out["edges_per_point"] = out["edges"] / max(out["n"], 1)
        out["log2_n"] = round(math.log2(max(out["n"], 2)), 2)
        out["active"] = self.active_count
        out["tombstones"] = self.tombstone_count
        out["unreachable"] = self.unreachable_count
        out["storage"] = self.store.summary()
        from repro import accel

        out["accel"] = accel.backend_status()
        return out

    def validate(
        self, queries: Sequence[Any], stop_at: int | None = 1
    ) -> list[NavigabilityViolation]:
        """Check (1+eps)-navigability (Fact 2.1) over a query batch."""
        return find_violations(
            self.graph, self.dataset, queries, self.epsilon, stop_at=stop_at
        )

    def measure(
        self,
        queries: Sequence[Any],
        budget: int | None = None,
        starts: Sequence[int] | None = None,
        seed: int | None = None,
        backend: str | None = None,
    ) -> QueryStats:
        """Cost/quality statistics of greedy over a query batch.

        Default start vertices come from a generator seeded with
        ``seed`` (falling back to the index's build seed), never from
        shared mutable state — repeated identical calls return identical
        statistics regardless of what ran in between.  ``backend``
        selects the traversal engine as in :class:`SearchParams`
        (``None`` means ``"auto"``).
        """
        return measure_queries(
            self.graph,
            self.dataset,
            queries,
            epsilon=self.epsilon,
            starts=starts,
            budget=budget,
            rng=np.random.default_rng(self.seed if seed is None else seed),
            backend=backend,
        )
