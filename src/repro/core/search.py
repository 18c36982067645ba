"""The unified search surface: parameters, results, and stable ids.

``ProximityGraphIndex.search(queries, k, params)`` is the one front door
for every query shape the library answers — single query or batch,
greedy or beam, budgeted or not, filtered or not.  This module holds the
three value types that API is built from:

* :class:`SearchParams` — every knob of a search call in one immutable
  bundle: engine mode, beam width, distance-evaluation budget, explicit
  start vertices or a reproducibility seed, and an ``allowed_ids``
  filter restricting which points may be *returned* (routing still
  traverses the full graph, which is what keeps filtered search
  navigable);
* :class:`SearchResult` — dense ``(m, k)`` id/distance arrays (external
  ids, original distance units) plus per-query cost stats, with ``-1`` /
  ``inf`` padding where a filter left fewer than ``k`` admissible
  points;
* :class:`IdMap` — the external↔internal translation that makes ids
  *stable* under mutation: callers hold external ids that survive
  ``add``/``delete``/``compact``/``save``/``load`` while the graph keeps
  working in dense internal indices ``0..n-1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.accel import BACKEND_CHOICES

__all__ = ["SearchParams", "SearchResult", "IdMap", "resolve_mode"]


@dataclass(frozen=True)
class SearchParams:
    """Knobs of one :meth:`~repro.core.index.ProximityGraphIndex.search` call.

    Attributes
    ----------
    mode:
        ``"auto"`` (default) picks the paper's greedy routine for plain
        ``k=1`` searches and beam search otherwise (``k > 1``, an
        explicit ``beam_width``, an active filter/tombstone mask, or
        quantized storage; :func:`resolve_mode` is the rule).
        ``"greedy"`` / ``"beam"`` force the engine.
    beam_width:
        Beam pool size (HNSW's ``ef``); defaults to ``max(2 * k, 16)``
        in beam mode.  Ignored by greedy.
    budget:
        Cap on distance evaluations per query — the paper's
        ``query(p_start, q, Q)`` cutoff.  Honored by *both* engines.
    starts:
        One internal start vertex per query (advanced; any start is
        valid — Section 1.1).  Overrides ``seed``.
    seed:
        Seed for drawing default start vertices.  ``None`` falls back to
        the index's build seed, so repeated identical calls return
        identical results — no shared-generator call-order dependence.
    allowed_ids:
        External ids that may be returned (a filter / allow-list).
        Routing still traverses the whole graph; disallowed vertices are
        only barred from the result set.  Unknown ids are ignored (a
        filter is a restriction, never an expansion).  Tombstoned points
        are always excluded, with or without a filter.
    rerank_factor:
        Over-fetch multiplier of the two-stage (compressed traversal →
        exact rerank) pipeline: the traversal collects ``k *
        rerank_factor`` candidates and a single exact-distance pass over
        them returns the top ``k``.  ``None`` (default) resolves to the
        index's storage default — 1 for flat storage (no second stage;
        results bit-identical to the pre-storage pipeline), 2 for SQ8.
        ``rerank_factor=1`` keeps the candidate set of the plain
        traversal and only replaces its approximate distances with
        exact ones.
    backend:
        Traversal engine: ``"auto"`` (default) runs the best *warmed*
        :mod:`repro.accel` compiled backend and otherwise the pinned
        numpy engines — nothing changes until ``repro.accel.warm()``
        has been called in the process.  ``"numpy"`` always runs the
        pinned engines.  ``"cffi"`` forces the compiled kernels, warming
        them on demand, and raises ``AccelUnavailableError`` when they
        cannot run here.  Results are bit-identical across backends; the
        sharded fan-out resolves ``"auto"`` in the parent and ships the
        concrete name to its workers, which compile once per process.
    """

    mode: str = "auto"
    beam_width: int | None = None
    budget: int | None = None
    starts: Sequence[int] | None = None
    seed: int | None = None
    allowed_ids: Any = None
    rerank_factor: int | None = None
    backend: str = "auto"

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "greedy", "beam"):
            raise ValueError(
                f"unknown search mode {self.mode!r}; use 'auto', 'greedy' or 'beam'"
            )
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(
                f"unknown accel backend {self.backend!r}; choose from "
                f"{BACKEND_CHOICES}"
            )
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be at least 1")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be at least 1")
        if self.rerank_factor is not None and self.rerank_factor < 1:
            raise ValueError("rerank_factor must be at least 1")


def resolve_mode(params: SearchParams, k: int, masked: bool, quantized: bool) -> str:
    """The engine ``params`` picks: ``"greedy"`` or ``"beam"``.

    ``mode="auto"`` runs the paper's greedy routine only for a plain
    search: ``k == 1``, no explicit ``beam_width``, no filter or
    tombstone mask (``masked``) and exact storage (not ``quantized``).
    Anything else runs beam search.
    """
    if params.mode != "auto":
        return params.mode
    plain = k == 1 and params.beam_width is None and not masked and not quantized
    return "greedy" if plain else "beam"


@dataclass
class SearchResult:
    """Outcome of one :meth:`~repro.core.index.ProximityGraphIndex.search`.

    ``ids`` and ``distances`` are dense ``(m, k)`` arrays — row ``i``
    holds query ``i``'s neighbors ascending by distance, as *external*
    ids in *original* (pre-normalization) distance units.  Slots beyond
    what the search found (filter exhausted, ``k > `` admissible points)
    hold ``-1`` / ``inf``.  ``evals`` counts distance evaluations per
    query (the paper's query-time measure); ``hops`` is the greedy hop
    count per query (``None`` for beam searches, which have no single
    walk).  ``single`` records whether the call passed one bare query,
    enabling the scalar conveniences below.
    """

    ids: np.ndarray
    distances: np.ndarray
    evals: np.ndarray
    hops: np.ndarray | None = None
    single: bool = field(default=False, repr=False)
    # Sharded fan-out only: the (m, n_shards) per-shard breakdown of
    # ``evals`` (its row sum).  Flat searches leave it None.
    shard_evals: np.ndarray | None = field(default=None, repr=False)

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def m(self) -> int:
        return int(self.ids.shape[0])

    @property
    def k(self) -> int:
        return int(self.ids.shape[1])

    def top1(self) -> tuple[int, float]:
        """``(id, distance)`` of the best hit of a single-query search."""
        if self.m != 1:
            raise ValueError("top1() needs a single-query result")
        return int(self.ids[0, 0]), float(self.distances[0, 0])

    def pairs(self, i: int = 0) -> list[tuple[int, float]]:
        """Query ``i``'s hits as ``(id, distance)`` pairs, padding dropped."""
        row_ids, row_d = self.ids[i], self.distances[i]
        keep = row_ids >= 0
        return [(int(v), float(d)) for v, d in zip(row_ids[keep], row_d[keep])]


def integer_ids(external_ids: Any) -> np.ndarray:
    """External ids as int64, refusing by name any other dtype — a float,
    a bool or an object (``None``) is an error, never truncated to an
    id.  An empty sequence is no ids."""
    arr = np.asarray(external_ids)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"external ids must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


class IdMap:
    """Bidirectional external id ↔ internal index map.

    Internal indices are the dense ``0..n-1`` vertex labels graphs and
    engines work in; external ids are whatever the caller handed to
    ``build``/``add`` (defaulting to the insertion counter) and are
    *stable*: they never change meaning across ``add``, ``delete``,
    ``compact``, or a ``save``/``load`` round trip.
    """

    def __init__(
        self,
        externals: Sequence[int] | None = None,
        *,
        validated: bool = False,
    ) -> None:
        ext = (
            np.asarray(externals, dtype=np.int64)
            if externals is not None
            else np.empty(0, dtype=np.int64)
        )
        if ext.ndim != 1:
            raise ValueError("external ids must be a flat sequence")
        # The ids, then -1: gathering from it maps the not-found sentinel
        # -1 to itself, so to_external is one gather.  Only ever rebound,
        # never written in place.
        self._lookup = np.append(ext, -1)
        if len(ext) and ext.min() < 0:
            # -1 is the not-found sentinel in SearchResult rows; negative
            # ids would be indistinguishable from padding.
            raise ValueError("external ids must be non-negative")
        if not validated and len(ext):
            uniq, counts = np.unique(ext, return_counts=True)
            if uniq.size != ext.size:
                raise ValueError(
                    f"duplicate external id {int(uniq[counts > 1][0])}"
                )
        # The external -> internal dict is built lazily on first lookup:
        # construction stays O(n) vectorized, which keeps the v5 mmap
        # attach path (``validated=True`` — uniqueness was enforced when
        # the file was written; ``repro index info --validate`` re-checks
        # on demand) free of any per-element Python loop.
        self._reverse: dict[int, int] | None = None
        self._next = int(ext.max()) + 1 if len(ext) else 0

    @property
    def _ext(self) -> np.ndarray:
        return self._lookup[:-1]

    @property
    def _int(self) -> dict[int, int]:
        if self._reverse is None:
            self._reverse = {
                int(e): i for i, e in enumerate(self._ext.tolist())
            }
        return self._reverse

    @classmethod
    def identity(cls, n: int) -> "IdMap":
        """The default map of a fresh build: external id ``i`` ↔ index ``i``."""
        return cls(np.arange(n, dtype=np.int64))

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._ext)

    def __contains__(self, external_id: int) -> bool:
        return int(external_id) in self._int

    @property
    def externals(self) -> np.ndarray:
        """External id of every internal index, as a read-only view."""
        view = self._ext.view()
        view.flags.writeable = False
        return view

    def is_identity(self) -> bool:
        return bool(np.array_equal(self._ext, np.arange(len(self._ext))))

    # ------------------------------------------------------------------

    def to_internal(self, external_ids: Any) -> np.ndarray:
        """Map external ids to internal indices; ``KeyError`` on unknowns."""
        arr = np.atleast_1d(integer_ids(external_ids))
        try:
            return np.fromiter(
                (self._int[int(e)] for e in arr), dtype=np.intp, count=len(arr)
            )
        except KeyError as exc:
            raise KeyError(f"unknown external id {exc.args[0]}") from None

    def to_internal_known(self, external_ids: Any) -> np.ndarray:
        """Map external ids to internal indices, silently dropping unknowns
        (the filter-mask path: a filter restricts, it never errors)."""
        arr = np.atleast_1d(integer_ids(external_ids))
        return np.fromiter(
            (self._int[e] for e in arr.tolist() if e in self._int),
            dtype=np.intp,
        )

    def to_external(self, internal: Any) -> np.ndarray:
        """Map internal indices to external ids; ``-1`` passes through as
        the not-found sentinel."""
        return self._lookup[internal]

    # ------------------------------------------------------------------

    def check_assignable(self, count: int, external_ids: Any = None) -> np.ndarray:
        """Validate a prospective :meth:`assign` without mutating anything.

        Returns the ids that would be assigned.  Mutating callers (the
        index facade's ``add``) validate *before* touching the graph or
        dataset, so an id clash can never leave them half-grown.
        """
        if external_ids is None:
            return np.arange(self._next, self._next + count, dtype=np.int64)
        new = integer_ids(external_ids)
        if new.shape != (count,):
            raise ValueError(f"need exactly {count} external ids, got {new.shape}")
        if len(new) and new.min() < 0:
            raise ValueError("external ids must be non-negative")
        if len(np.unique(new)) != count:
            raise ValueError("external ids must be unique")
        clash = [int(e) for e in new.tolist() if e in self._int]
        if clash:
            raise ValueError(f"external ids already in use: {clash[:5]}")
        return new

    def assign(self, count: int, external_ids: Any = None) -> np.ndarray:
        """Append ``count`` new internal indices; returns their external ids.

        With ``external_ids=None`` fresh ids continue from the largest
        ever assigned (deleted ids are *not* recycled — stability means
        an id never silently changes meaning).  Explicit ids must be
        unique, non-negative, and previously unused.
        """
        new = self.check_assignable(count, external_ids)
        base = len(self._ext)
        self._lookup = np.concatenate([self._ext, new, [-1]])
        if self._reverse is not None:  # still lazy: nothing to keep in step
            self._reverse.update(zip(new.tolist(), range(base, base + count)))
        self._next = max(self._next, int(new.max()) + 1) if len(new) else self._next
        return new

    def compact(self, keep_internal: np.ndarray) -> "IdMap":
        """The map after dropping every internal index not in
        ``keep_internal`` (survivors are renumbered densely, external ids
        preserved)."""
        kept = self._ext[np.asarray(keep_internal, dtype=np.intp)]
        out = IdMap(kept)
        out._next = self._next  # never recycle a previously assigned id
        return out

    def clone(self) -> "IdMap":
        """An independent copy; :meth:`assign` on one never touches the
        other (the snapshot-isolation hook of ``index.snapshot()``)."""
        out = IdMap.__new__(IdMap)
        out._lookup = self._lookup.copy()
        out._reverse = (
            None if self._reverse is None else dict(self._reverse)
        )
        out._next = self._next
        return out
