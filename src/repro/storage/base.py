"""The ``VectorStore`` abstraction — how an index *holds* its vectors.

Until this layer existed, every consumer of point data — the lockstep
engines, the index facade, the sharded fan-out — scanned the raw
float64 coordinate array through :class:`~repro.metrics.base.Dataset`.
That couples traversal cost to full-precision storage: memory footprint,
cache behavior, and distance throughput are all bounded by ``8 * d``
bytes per vector.  A :class:`VectorStore` decouples them.  It sits
*between* the metrics layer and the graph engines:

    metrics  →  **storage**  →  engine  →  index / sharded

A store answers one question: *given a query batch, what is the
(possibly approximate) distance from query i to stored vector v?*  The
engines consume that through a per-batch :class:`QueryDistanceView`,
bound once per search batch via :meth:`VectorStore.bind`.

Two stores ship:

* :class:`~repro.storage.flat.FlatStore` — the raw array, distances
  delegated verbatim to the metric.  Bit-identical to the
  pre-storage-layer behavior by construction.
* :class:`~repro.storage.sq8.SQ8Store` — per-dimension 8-bit scalar
  quantization (``8x`` smaller than float64); candidates are dequantized
  on the fly and fed to the *same* metric kernels, so every coordinate
  metric works.

Approximate traversal pairs with an **exact rerank** stage in
``index.search()`` (see ``SearchParams.rerank_factor``): the graph walk
runs over codes, an over-fetched candidate pool survives to a single
exact-distance pass, and reported distances are always exact.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.metrics.base import MetricSpace, ScaledMetric
from repro.metrics.euclidean import ChebyshevMetric, EuclideanMetric

__all__ = [
    "StorageError",
    "StorageConfigError",
    "QueryDistanceView",
    "FlatQueryView",
    "VectorStore",
    "decompose_metric",
    "exact_distances",
]


class StorageError(Exception):
    """Base class of every storage-layer error."""


class StorageConfigError(StorageError, ValueError):
    """A store was configured with parameters it cannot honor (wrong
    point shape, unknown kind, a kind no longer supported,
    ...)."""


def decompose_metric(metric: MetricSpace) -> tuple[MetricSpace, float]:
    """Unwrap (possibly nested) :class:`ScaledMetric` layers.

    Returns ``(inner, factor)`` such that ``metric.distance(a, b) ==
    factor * inner.distance(a, b)``.  Quantized stores compute their
    approximations against the inner metric's geometry and multiply the
    normalization factor back at the end — exactly what the scaled
    metric itself does.
    """
    factor = 1.0
    while isinstance(metric, ScaledMetric):
        factor *= metric.factor
        metric = metric.inner
    return metric, factor


def exact_distances(metric: MetricSpace, q: Any, rows: Any) -> np.ndarray:
    """Distances from query ``q`` to each of ``rows``, as the two-stage
    search's exact rerank reports them on every backend.

    Under (scaled) Euclidean and Chebyshev these are the compiled
    rerank's floats: :func:`decompose_metric`'s factor times the square
    root of the squared differences summed coordinate by coordinate, left
    to right (``np.add.accumulate`` is sequential whatever the shape;
    ``np.add.reduce`` sums a contiguous run of 8 or more pairwise, which
    a single row is), or times the largest absolute difference.  Any
    other metric gives its own ``distances``.  Each row's float depends
    on that row alone.
    """
    inner, factor = decompose_metric(metric)
    if isinstance(inner, EuclideanMetric):
        diff = np.asarray(rows, dtype=np.float64) - np.asarray(q, dtype=np.float64)
        return factor * np.sqrt(np.add.accumulate(diff * diff, axis=1)[:, -1])
    if isinstance(inner, ChebyshevMetric):
        diff = np.asarray(rows, dtype=np.float64) - np.asarray(q, dtype=np.float64)
        return factor * np.abs(diff).max(axis=1)
    return metric.distances(q, rows)


class QueryDistanceView:
    """Per-batch distance oracle the lockstep engines traverse against.

    Bound once per query batch by :meth:`VectorStore.bind`; holds the
    batch's queries beside the store's vectors.  Engines call exactly two
    methods:

    * :meth:`scalar` — distance from query row ``qi`` to stored vector
      ``v`` (start-vertex initialization);
    * :meth:`segmented` — the segmented many-to-many primitive: distance
      from query row ``q_rows[i]`` to each candidate of segment ``i``
      (one call per lockstep hop).

    Both report in the *metric's* units (normalization scale included),
    so engine semantics — budgets, tie-breaks, pool bounds — are
    storage-agnostic.

    The view is also the **bit-identity oracle** of the compiled accel
    backends (:mod:`repro.accel`): a compiled traversal makes its
    routing decisions in kernel arithmetic, its start distance included,
    and no float its beam computes is ever reported.  Where a reported
    distance comes from, per path:

    * flat store, any backend — the view: the numpy engines report the
      :meth:`segmented` values they routed on, a compiled beam search
      evaluates its reported ids in one :meth:`segmented` call when the
      distances are first read (``BeamBatch.dists``); a start vertex
      keeps its :meth:`scalar` value on both;
    * quantized store (``sq8``) through ``index.search()`` — the exact
      rerank, not the view: :meth:`VectorStore.rerank_distances` on
      numpy, the kernel itself on a compiled backend, the same floats
      (:func:`exact_distances`); the traversal's approximate distances
      are not read, so a compiled search does not evaluate them;
    * quantized store through the engines directly
      (``beam_search_batch(..., store=...)`` without ``rerank``) — the
      view, as for flat.
    """

    def scalar(self, qi: int, v: int) -> float:
        raise NotImplementedError

    def start_distances(self, starts: np.ndarray) -> np.ndarray:
        """``scalar(i, starts[i])`` for every row of the batch.  A view
        overrides this only where one array call returns the same floats."""
        return np.array(
            [self.scalar(i, v) for i, v in enumerate(starts.tolist())],
            dtype=np.float64,
        )

    def segmented(
        self, q_rows: np.ndarray, cand: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        raise NotImplementedError


class FlatQueryView(QueryDistanceView):
    """The exact view: delegate straight to the metric over raw points.

    This is the default every engine builds when no store is passed, and
    what :class:`~repro.storage.flat.FlatStore` binds — the calls are
    the very ``Dataset.distance_to_query`` / ``distances_to_queries``
    compositions the engines made before the storage layer existed, so
    results are bit-identical.
    """

    __slots__ = ("metric", "points", "Q")

    def __init__(self, metric: MetricSpace, points: Any, Q: Any) -> None:
        self.metric = metric
        self.points = points
        self.Q = Q

    def scalar(self, qi: int, v: int) -> float:
        return self.metric.distance(self.Q[qi], self.points[v])

    def start_distances(self, starts: np.ndarray) -> np.ndarray:
        # scalar() row by row, the stored rows fetched by one gather: on a
        # mapped index each ``points[v]`` is a new memmap view, m dominate.
        distance, Q, rows = self.metric.distance, self.Q, self.points[starts]
        return np.array(
            [distance(Q[i], rows[i]) for i in range(len(rows))], dtype=np.float64
        )

    def segmented(
        self, q_rows: np.ndarray, cand: np.ndarray, lens: np.ndarray
    ) -> np.ndarray:
        idx = np.asarray(cand, dtype=np.intp)
        rows = np.asarray(q_rows, dtype=np.intp)
        return self.metric.distances_many(self.Q[rows], self.points[idx], lens)


class VectorStore(ABC):
    """How an index holds (and measures distances over) its vectors.

    Concrete stores are :class:`~repro.storage.flat.FlatStore` and
    :class:`~repro.storage.sq8.SQ8Store`; build them through
    :func:`repro.storage.make_store`.  The mutable-index facade keeps its
    store in sync with the collection: ``add()`` routes new points
    through :meth:`refresh` (encoding with the *frozen* training state
    and bumping :attr:`drift`), ``compact()`` through :meth:`retrained`
    (a fresh training pass over the survivors, drift reset to zero).
    """

    kind: str = "?"
    is_quantized: bool = False
    # How far search() over-fetches before the exact rerank when the
    # caller leaves SearchParams.rerank_factor unset.
    default_rerank_factor: int = 1

    #: Vectors encoded with training statistics older than the data —
    #: grows on every post-build add(), reset by a retrain (compact()).
    drift: int = 0

    # -- traversal ------------------------------------------------------

    @abstractmethod
    def bind(self, Q: Any) -> QueryDistanceView:
        """Bind a query batch; per-batch work runs here."""

    def rerank_distances(self, dataset: Any, q: Any, cand: np.ndarray) -> np.ndarray:
        """Exact distances from query ``q`` to candidate rows ``cand``.

        The hook the numpy two-stage search's exact-rerank pass calls
        instead of touching ``dataset.points`` directly, so a store that
        knows *where* the full-precision vectors live can gather them
        well.  The in-RAM default gathers ``dataset.points``;
        :class:`~repro.storage.disk.DiskTierStore` overrides it with an
        ascending-offset gather over the memory-mapped cold tier.  Both
        evaluate by :func:`exact_distances`, the compiled rerank's floats;
        every override must return distances bit-identical to this default.
        """
        return exact_distances(dataset.metric, q, dataset.points[cand])

    # -- collection lifecycle ------------------------------------------

    @abstractmethod
    def refresh(self, dataset: Any, added: int) -> "VectorStore":
        """Absorb ``added`` new trailing points of ``dataset`` (encoded
        through the existing training state; quantized stores bump
        :attr:`drift`).  Returns the store to install (may be ``self``)."""

    @abstractmethod
    def retrained(self, dataset: Any) -> "VectorStore":
        """A freshly trained store of the same kind over ``dataset`` —
        the compaction path.  Drift resets to zero."""

    # -- accounting -----------------------------------------------------

    @property
    @abstractmethod
    def n(self) -> int:
        """Stored vector count."""

    @abstractmethod
    def traversal_bytes_per_vector(self) -> float:
        """Resident bytes per vector touched by graph traversal."""

    @abstractmethod
    def aux_bytes(self) -> int:
        """Fixed overhead (SQ8's per-dimension offsets and scales)."""

    # -- wire form ------------------------------------------------------

    @property
    def codes(self) -> np.ndarray | None:
        """The per-vector code matrix (``None`` for exact stores)."""
        return None

    @abstractmethod
    def spec(self) -> dict[str, Any]:
        """JSON-safe description (kind, training stats)."""

    def param_arrays(self) -> dict[str, np.ndarray]:
        """Training-state arrays *excluding* codes (small; SQ8's offsets
        and scales)."""
        return {}

    def arrays(self) -> dict[str, np.ndarray]:
        """Every array persistence must write (codes included)."""
        out = dict(self.param_arrays())
        if self.codes is not None:
            out["codes"] = self.codes
        return out

    # ------------------------------------------------------------------

    def clone(self) -> "VectorStore":
        """A shallow copy whose lifecycle is independent of this store's.

        Valid because stores follow a rebind discipline: ``refresh()``
        *rebinds* attributes (``self._codes = concatenate(...)``) and
        never writes into an existing array, so a shallow copy shares
        immutable arrays safely.  This is the snapshot-isolation hook
        of ``ProximityGraphIndex.snapshot()``.
        """
        return copy.copy(self)

    def summary(self) -> dict[str, Any]:
        """JSON-safe stats()-style summary."""
        return {
            "kind": self.kind,
            "quantized": self.is_quantized,
            "n": int(self.n),
            "bytes_per_vector": round(float(self.traversal_bytes_per_vector()), 2),
            "aux_bytes": int(self.aux_bytes()),
            "drift": int(self.drift),
        }
